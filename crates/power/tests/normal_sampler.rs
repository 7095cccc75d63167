//! The normal sampler against the normal law itself.
//!
//! Nothing here comes from `device.rs`: the reference CDF is a test-local
//! `erf`, and every statistic is computed from scratch. Each check uses a
//! stated confidence level on 10⁵ draws from a fixed seed, so a pass is
//! reproducible and a failure points at the sampler, not at chance.

use ipmark_power::device::standard_normal_pair;
use ipmark_power::NoiseProfile;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const DRAWS: usize = 100_000;

/// Two-sided z for the moment and Wilson intervals: 4σ, a false-alarm
/// probability of 6.3e-5 per check.
const Z: f64 = 4.0;

/// `erf` by Abramowitz & Stegun 7.1.26 (absolute error ≤ 1.5e-7, far below
/// the KS critical value at 10⁵ draws).
fn erf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let y = 1.0 - poly * (-x * x).exp();
    if x < 0.0 {
        -y
    } else {
        y
    }
}

fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// `DRAWS` values, both halves of each pair in order.
fn pair_draws(seed: u64) -> Vec<(f64, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..DRAWS / 2)
        .map(|_| standard_normal_pair(&mut rng))
        .collect()
}

fn flatten(pairs: &[(f64, f64)]) -> Vec<f64> {
    pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
}

/// One-sample Kolmogorov–Smirnov statistic against the standard normal.
fn ks_statistic(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = normal_cdf(x);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

/// The tabulated asymptotic KS critical value at α = 0.001: 1.949 / √n.
fn ks_critical(n: usize) -> f64 {
    1.949 / (n as f64).sqrt()
}

#[test]
fn erf_reference_is_sound() {
    assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
    assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-6);
    assert!((normal_cdf(-3.0) - 0.001_349_898).abs() < 1e-6);
}

#[test]
fn pair_draws_pass_a_one_sample_ks_test() {
    let xs = flatten(&pair_draws(1));
    let d = ks_statistic(&xs);
    assert!(d < ks_critical(xs.len()), "KS D = {d:.5}");
}

#[test]
fn noise_stream_values_pass_a_one_sample_ks_test() {
    // Unit white noise onto zeros is the noise sweep's own stream of
    // normals, spare halves included.
    let mut xs = vec![0.0; DRAWS];
    NoiseProfile::white(1.0).add_into(&mut xs, &mut ChaCha8Rng::seed_from_u64(2));
    let d = ks_statistic(&xs);
    assert!(d < ks_critical(xs.len()), "KS D = {d:.5}");
}

#[test]
fn moments_fall_inside_their_confidence_intervals() {
    let xs = flatten(&pair_draws(3));
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    let excess_kurtosis = m4 / (m2 * m2) - 3.0;
    // Standard errors under N(0, 1): mean 1/√n, variance √(2/n), excess
    // kurtosis √(24/n).
    assert!(mean.abs() < Z / n.sqrt(), "mean {mean:.5}");
    assert!((m2 - 1.0).abs() < Z * (2.0 / n).sqrt(), "variance {m2:.5}");
    assert!(
        excess_kurtosis.abs() < Z * (24.0 / n).sqrt(),
        "excess kurtosis {excess_kurtosis:.5}"
    );
}

#[test]
fn the_two_halves_of_a_pair_are_uncorrelated() {
    let pairs = pair_draws(4);
    let n = pairs.len() as f64;
    let (ma, mb) = pairs
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x / n, b + y / n));
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for &(x, y) in &pairs {
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
    }
    let r = sab / (saa * sbb).sqrt();
    // Under independence r has standard error ≈ 1/√n.
    assert!(r.abs() < Z / n.sqrt(), "pair correlation {r:.5}");
}

#[test]
fn three_sigma_tail_mass_is_inside_a_wilson_interval() {
    let xs = flatten(&pair_draws(5));
    let n = xs.len() as f64;
    let hits = xs.iter().filter(|x| x.abs() > 3.0).count() as f64;
    let p_hat = hits / n;
    let z2 = Z * Z;
    let centre = (p_hat + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = Z / (1.0 + z2 / n) * (p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt();
    let p_true = 2.0 * (1.0 - normal_cdf(3.0));
    assert!(
        (centre - half..=centre + half).contains(&p_true),
        "P(|z| > 3) = {p_hat:.5}, Wilson [{:.5}, {:.5}], N(0, 1) {p_true:.5}",
        centre - half,
        centre + half
    );
}
