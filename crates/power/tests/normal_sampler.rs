//! The normal sampler and the per-trace noise stream against the normal
//! law itself.
//!
//! Nothing here comes from the sampler's module but the draws (its table
//! invariants are checked next to the tables, in `noise.rs`): the
//! reference CDF is a test-local `erf`, and every statistic is computed
//! from scratch. Each check uses a stated confidence level on 10⁵ draws
//! (10⁶ for the tail beyond `R`) from a fixed seed, so a pass is
//! reproducible and a failure points at the sampler, not at chance.
//!
//! Every check runs on both generators the simulator uses: `ChaCha8Rng`
//! (die sampling, selections, seeds) and [`NoiseRng`] (per-trace noise).
//! A generator with a planted bias must fail them, which shows the checks
//! can see a bad stream at all.

use ipmark_netlist::seq::BinaryCounter;
use ipmark_netlist::CircuitBuilder;
use ipmark_power::noise::standard_normal;
use ipmark_power::{
    ComponentWeights, DeviceModel, MeasurementChain, NoiseRng, PulseShape, SimulatedAcquisition,
    WeightedComponentModel,
};
use ipmark_traces::stats::wilson_interval;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DRAWS: usize = 100_000;

/// Right edge of the ziggurat's base layer (Marsaglia & Tsang's published
/// `R`): only the sampler's exponential tail path draws beyond it.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

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

/// `n` consecutive draws.
fn draws_n(rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
    (0..n).map(|_| standard_normal(rng)).collect()
}

/// `DRAWS` consecutive draws.
fn draws(rng: &mut dyn RngCore) -> Vec<f64> {
    draws_n(rng, DRAWS)
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

/// A statistical check of one generator's normals: `Err` describes the
/// failure.
type Check = fn(&mut dyn RngCore) -> Result<(), String>;

/// One-sample KS test of the sampler's draws.
fn ks_of_draws(rng: &mut dyn RngCore) -> Result<(), String> {
    let xs = draws(rng);
    let d = ks_statistic(&xs);
    (d < ks_critical(xs.len()))
        .then_some(())
        .ok_or(format!("KS D = {d:.5}"))
}

/// One-sample KS test of the noise sweep's stream: a chain of unit white
/// noise alone, measuring zeros, gives its own stream of normals.
fn ks_of_noise_stream(rng: &mut dyn RngCore) -> Result<(), String> {
    let chain = MeasurementChain::new(PulseShape::rectangular(1).expect("pulse"), 1.0, 1.0, None)
        .expect("chain");
    let mut xs = vec![0.0; DRAWS];
    chain
        .measure_into(&vec![0.0; DRAWS], &mut xs, rng)
        .expect("measure");
    let d = ks_statistic(&xs);
    (d < ks_critical(xs.len()))
        .then_some(())
        .ok_or(format!("noise stream KS D = {d:.5}"))
}

/// Mean, variance and excess kurtosis inside their 4σ intervals.
fn moments(rng: &mut dyn RngCore) -> Result<(), String> {
    let xs = draws(rng);
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    let excess_kurtosis = m4 / (m2 * m2) - 3.0;
    // Standard errors under N(0, 1): mean 1/√n, variance √(2/n), excess
    // kurtosis √(24/n).
    if mean.abs() >= Z / n.sqrt() {
        return Err(format!("mean {mean:.5}"));
    }
    if (m2 - 1.0).abs() >= Z * (2.0 / n).sqrt() {
        return Err(format!("variance {m2:.5}"));
    }
    if excess_kurtosis.abs() >= Z * (24.0 / n).sqrt() {
        return Err(format!("excess kurtosis {excess_kurtosis:.5}"));
    }
    Ok(())
}

/// Consecutive draws are uncorrelated (lag-1 autocorrelation).
fn lag1_correlation(rng: &mut dyn RngCore) -> Result<(), String> {
    let xs = draws(rng);
    let (a, b) = (&xs[..xs.len() - 1], &xs[1..]);
    let r = pearson(a, b);
    // Under independence r has standard error ≈ 1/√n.
    (r.abs() < Z / (a.len() as f64).sqrt())
        .then_some(())
        .ok_or(format!("lag-1 correlation {r:.5}"))
}

/// The mass of `xs` beyond `±t` lies inside a Wilson interval around
/// N(0, 1)'s.
fn tail_mass(xs: &[f64], t: f64) -> Result<(), String> {
    let n = xs.len() as u64;
    let hits = xs.iter().filter(|x| x.abs() > t).count() as u64;
    let p_hat = hits as f64 / n as f64;
    let (lower, upper) = wilson_interval(hits, n, Z).map_err(|e| e.to_string())?;
    let p_true = 2.0 * (1.0 - normal_cdf(t));
    (lower..=upper)
        .contains(&p_true)
        .then_some(())
        .ok_or(format!(
            "P(|z| > {t:.3}) = {p_hat:.6}, Wilson [{lower:.6}, {upper:.6}], N(0, 1) {p_true:.6}"
        ))
}

/// The mass beyond ±3, within the ziggurat's layers.
fn three_sigma_tail(rng: &mut dyn RngCore) -> Result<(), String> {
    tail_mass(&draws(rng), 3.0)
}

/// The mass beyond ±R, which only the exponential tail path produces:
/// about 258 of 10⁶ draws.
fn beyond_r_tail(rng: &mut dyn RngCore) -> Result<(), String> {
    tail_mass(&draws_n(rng, 1_000_000), ZIGGURAT_R)
}

/// Runs `check` on `ChaCha8Rng` and on `NoiseRng`, both seeded with
/// `seed`, and panics with every failure.
fn on_both_generators(check: Check, seed: u64) {
    let failures: Vec<String> = [
        ("ChaCha8Rng", check(&mut ChaCha8Rng::seed_from_u64(seed))),
        ("NoiseRng", check(&mut NoiseRng::seed_from_u64(seed))),
    ]
    .into_iter()
    .filter_map(|(name, outcome)| outcome.err().map(|e| format!("{name}: {e}")))
    .collect();
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn erf_reference_is_sound() {
    assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
    assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-6);
    assert!((normal_cdf(-3.0) - 0.001_349_898).abs() < 1e-6);
}

#[test]
fn draws_pass_a_one_sample_ks_test() {
    on_both_generators(ks_of_draws, 1);
}

#[test]
fn noise_stream_values_pass_a_one_sample_ks_test() {
    on_both_generators(ks_of_noise_stream, 2);
}

#[test]
fn moments_fall_inside_their_confidence_intervals() {
    on_both_generators(moments, 3);
}

#[test]
fn consecutive_draws_are_uncorrelated() {
    on_both_generators(lag1_correlation, 4);
}

#[test]
fn three_sigma_tail_mass_is_inside_a_wilson_interval() {
    on_both_generators(three_sigma_tail, 5);
}

#[test]
fn mass_beyond_r_is_inside_a_wilson_interval() {
    on_both_generators(beyond_r_tail, 6);
}

#[test]
fn first_draws_from_seed_2014_match_the_reference_vector() {
    // An independent transcription of xoshiro256++, its SplitMix64
    // seeding and the ziggurat (tables, fast path, wedge and tail) gives
    // these first 16 draws from seed 2014.
    let reference = [
        1.206_896_058_029_206_5,
        -1.164_969_522_003_489_2,
        -0.726_983_809_003_579_4,
        1.410_627_853_057_425_9,
        -2.062_346_622_795_483_4,
        -0.278_418_292_134_319_96,
        -0.954_563_465_119_203_9,
        0.414_733_968_921_061_5,
        1.435_652_692_765_121_2,
        0.004_604_768_689_161_325,
        0.258_516_178_583_426_4,
        -0.621_898_093_725_275_2,
        -0.107_138_775_481_076_32,
        -0.536_823_712_982_521_2,
        -0.926_196_577_075_728_7,
        0.909_969_519_379_601_1,
    ];
    let mut rng = NoiseRng::seed_from_u64(2014);
    let got: Vec<u64> = (0..16)
        .map(|_| standard_normal(&mut rng).to_bits())
        .collect();
    let want: Vec<u64> = reference.iter().map(|z: &f64| z.to_bits()).collect();
    assert_eq!(got, want);
}

/// A `NoiseRng` with a planted bias: the top bit of every 16th word is
/// forced on, so one uniform in 16 lands in `[0.5, 1)`.
struct TopBitEvery16th {
    inner: NoiseRng,
    draws: u64,
}

impl RngCore for TopBitEvery16th {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        let word = self.inner.next_u64();
        if self.draws.is_multiple_of(16) {
            word | 1 << 63
        } else {
            word
        }
    }
}

#[test]
fn a_planted_bias_fails_the_distribution_checks() {
    // Forcing u ≥ 0 on one word in 16 makes one draw in 16 positive, which
    // pushes about 1/32 of the normals' mass to the positive side: a mean
    // shift of ≈ 0.05, some 16 standard errors at 10⁵ draws.
    let checks: [(&str, Check, u64); 3] = [
        ("KS of draws", ks_of_draws, 1),
        ("KS of noise stream", ks_of_noise_stream, 2),
        ("moments", moments, 3),
    ];
    for (name, check, seed) in checks {
        let mut mutant = TopBitEvery16th {
            inner: NoiseRng::seed_from_u64(seed),
            draws: 0,
        };
        assert!(check(&mut mutant).is_err(), "{name} passed a biased stream");
    }
}

#[test]
fn noise_rng_matches_the_xoshiro256pp_reference_outputs() {
    // The reference implementation's first outputs from state [1, 2, 3, 4].
    let mut rng = NoiseRng::from_state([1, 2, 3, 4]);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            41_943_041,
            58_720_359,
            3_588_806_011_781_223,
            3_591_011_842_654_386
        ]
    );
    // `next_u32` is the high half of the next word.
    let mut a = NoiseRng::from_state([1, 2, 3, 4]);
    let mut b = a.clone();
    assert_eq!(u64::from(a.next_u32()), b.next_u64() >> 32);
}

#[test]
fn noise_rng_seeds_from_four_splitmix64_outputs() {
    // SplitMix64's published first four outputs from seed 0.
    assert_eq!(
        NoiseRng::seed_from_u64(0),
        NoiseRng::from_state([
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
        ])
    );
    // `from_seed` reads the same words little-endian.
    let mut bytes = [0u8; 32];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip([5u64, 6, 7, 8]) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    assert_eq!(
        NoiseRng::from_seed(bytes),
        NoiseRng::from_state([5, 6, 7, 8])
    );
    // The all-zero state, which xoshiro cannot leave, is replaced.
    let mut zero = NoiseRng::from_state([0; 4]);
    assert_ne!((0..4).fold(0, |any, _| any | zero.next_u64()), 0);
}

/// Pearson correlation of two equal-length series.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
    }
    sab / (saa * sbb).sqrt()
}

/// A `DRAWS`-sample campaign of pure unit white noise on die `name`: a
/// zero-power device behind an unfiltered chain with σ = 1.
fn white_noise_campaign(name: &str, seed: u64) -> SimulatedAcquisition {
    let mut b = CircuitBuilder::new();
    b.add("cnt", BinaryCounter::new(4, 0).expect("counter"));
    let mut circuit = b.build().expect("circuit");
    let silent = WeightedComponentModel::new(0.0, vec![ComponentWeights::default()]);
    let device = DeviceModel::nominal(name, silent);
    let chain = MeasurementChain::new(PulseShape::rectangular(4).expect("pulse"), 1.0, 1.0, None)
        .expect("chain");
    SimulatedAcquisition::prepare(&mut circuit, &device, &chain, DRAWS / 4, 4, seed)
        .expect("campaign")
}

#[test]
fn neighbouring_traces_and_dies_draw_independent_streams() {
    let a = white_noise_campaign("die-a", 7);
    let b = white_noise_campaign("die-b", 7);
    assert!(a.clean_waveform().iter().all(|&c| c == 0.0));
    let trace =
        |acq: &SimulatedAcquisition, i: usize| acq.trace(i).expect("trace").samples().to_vec();
    let bound = Z / (DRAWS as f64).sqrt();
    let pairs = [
        ("trace 0 vs 1", trace(&a, 0), trace(&a, 1)),
        ("trace 2 vs 3", trace(&a, 2), trace(&a, 3)),
        ("die a vs die b, trace 0", trace(&a, 0), trace(&b, 0)),
        ("die a vs die b, trace 1", trace(&a, 1), trace(&b, 1)),
    ];
    for (name, x, y) in pairs {
        assert_eq!(x.len(), DRAWS);
        let r = pearson(&x, &y);
        assert!(r.abs() < bound, "{name}: r = {r:.5}, bound {bound:.5}");
    }
}
