//! A textbook oracle for the §III correlation computation process.
//!
//! The batch path k-averages through `mean_of_indices_into_sum` and the
//! blocked `ipmark_traces::kernels`, and correlates through the centered
//! `PearsonRef` kernel with sums carried out of the fill. The streaming
//! path finishes each average with the same accumulate-then-scale
//! sequence as `mean_of_indices_into` and correlates it with a fresh
//! `PearsonRef::correlate`. This file recomputes the same numbers with the plainest arithmetic there is
//! and shares none of that code: it reads trace samples only through
//! `SimulatedAcquisition::trace(i)` or `TraceBlock` rows, and it takes only
//! the drawn selections from `plan.acquire()` — after checking their shape.
//!
//! - k-average: a sequential sum of the selected traces, then `/ k`;
//! - Pearson: a two-pass mean, then `Σdxdy / √(Σdx² Σdy²)`;
//! - the set's mean and population variance: two passes again.
//!
//! Against the oracle, results agree within [`TOL`]. Across thread counts,
//! the production path must agree with itself bit for bit.

use ipmark::core::{AcquireStage, CorrelationSet, KAverageStage, Plan, ResumablePlan};
use ipmark::parallel::Pool;
use ipmark::power::SimulatedAcquisition;
use ipmark::prelude::*;
use ipmark::traces::TraceBlock;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The absolute tolerance for every compared quantity: each averaged
/// sample, each coefficient, and the set's mean and variance. Fixed before
/// the first run.
///
/// Derivation (ε = 2⁻⁵³ ≈ 1.1e-16, samples bounded by `|x| ≤ SAMPLE_BOUND`,
/// asserted below):
/// - An average sums `k ≤ 8` samples in the same lowest-index-first order
///   on both sides; the production path scales by `1/k` where the oracle
///   divides by `k`, and its fused sweeps may block differently. The gap
///   is at most `(k + 1)·ε·k·SAMPLE_BOUND / k ≈ 1e-12`.
/// - A coefficient is a ratio of sums over `n ≤ 128` products of centered
///   samples. Each sum is within `n·ε` (≈ 1.4e-14) of its exact value
///   relative to the sum of absolute terms, whatever the summation order
///   (Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2), so
///   |Δr| is of that order — about 2.6e-13 even at the paper's 2 048
///   samples.
/// - The mean and population variance of `m` coefficients inherit the
///   per-coefficient error (the variance at most fourfold).
///
/// 1e-9 leaves three orders of magnitude over all of these, while a
/// selection read one trace off, or a `1/(k−1)` scale, moves an average by
/// more than 1e-2 and a coefficient by far more than 1e-9.
const TOL: f64 = 1e-9;

/// The sample magnitude the tolerance derivation assumes.
const SAMPLE_BOUND: f64 = 1e3;

/// How the oracle reads one trace: through the source's own per-trace
/// accessor, never through its `accumulate_indices` batch fill.
trait Samples: TraceSource + Sync {
    fn samples_of(&self, index: usize) -> Vec<f64>;
}

impl Samples for TraceBlock {
    fn samples_of(&self, index: usize) -> Vec<f64> {
        self.row(index).expect("row in range").samples().to_vec()
    }
}

impl Samples for SimulatedAcquisition {
    fn samples_of(&self, index: usize) -> Vec<f64> {
        self.trace(index)
            .expect("trace in range")
            .samples()
            .to_vec()
    }
}

/// A sequential sum of the selected traces, then `/ k`.
fn k_average<S: Samples>(source: &S, selection: &[usize]) -> Vec<f64> {
    let mut sum = vec![0.0; source.trace_len()];
    for &i in selection {
        let samples = source.samples_of(i);
        assert!(samples.iter().all(|x| x.abs() <= SAMPLE_BOUND));
        for (s, x) in sum.iter_mut().zip(&samples) {
            *s += x;
        }
    }
    sum.iter().map(|s| s / selection.len() as f64).collect()
}

fn mean(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    for x in xs {
        sum += x;
    }
    sum / xs.len() as f64
}

fn variance_population(xs: &[f64]) -> f64 {
    let mu = mean(xs);
    let mut sum = 0.0;
    for x in xs {
        sum += (x - mu) * (x - mu);
    }
    sum / xs.len() as f64
}

/// Two-pass Pearson correlation.
fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let (mx, my) = (mean(x), mean(y));
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        let (dx, dy) = (a - mx, b - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    sxy / (sxx * syy).sqrt()
}

/// Asserts that `selection` holds `k` distinct indices of `0..n`, in
/// ascending order.
fn check_shape(selection: &[usize], k: usize, n: usize) {
    assert_eq!(selection.len(), k, "selection size");
    assert!(
        selection.windows(2).all(|w| w[0] < w[1]),
        "selection not strictly ascending: {selection:?}"
    );
    assert!(
        selection.iter().all(|&i| i < n),
        "selection index out of 0..{n}: {selection:?}"
    );
}

fn close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL,
        "{what}: production {got:e} vs oracle {want:e} (|Δ| = {:e})",
        (got - want).abs()
    );
}

fn bits(set: &CorrelationSet) -> Vec<u64> {
    set.coefficients().iter().map(|c| c.to_bits()).collect()
}

/// The oracle's numbers for one drawn plan.
struct Expected {
    reference: Vec<f64>,
    duts: Vec<Vec<f64>>,
    coefficients: Vec<f64>,
}

fn oracle<SR: Samples, SD: Samples>(refd: &SR, dut: &SD, acquire: &AcquireStage) -> Expected {
    let params = acquire.params();
    check_shape(acquire.refd_selection(), params.k, params.n1);
    assert_eq!(acquire.dut_selections().len(), params.m);
    for selection in acquire.dut_selections() {
        check_shape(selection, params.k, params.n2);
    }
    let reference = k_average(refd, acquire.refd_selection());
    let duts: Vec<Vec<f64>> = acquire
        .dut_selections()
        .iter()
        .map(|selection| k_average(dut, selection))
        .collect();
    let coefficients = duts.iter().map(|d| pearson(&reference, d)).collect();
    Expected {
        reference,
        duts,
        coefficients,
    }
}

/// Checks the batch plan, its k-average buffers and a resumable plan fed
/// in `chunk`-sized pieces against the oracle, and the batch plan's
/// thread-count invariance bit for bit.
fn check_against_oracle<SR: Samples, SD: Samples>(
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
    seed: u64,
    chunk: usize,
) {
    let mut plan = Plan::correlation(params, &mut ChaCha8Rng::seed_from_u64(seed)).expect("plan");
    let want = oracle(refd, dut, plan.acquire());

    let pool = Pool::from_env();
    let set = plan.execute(refd, dut, &pool).expect("execute");
    assert_eq!(set.len(), params.m);
    for (slot, (&got, &w)) in set
        .coefficients()
        .iter()
        .zip(&want.coefficients)
        .enumerate()
    {
        close(&format!("coefficient {slot}"), got, w);
    }
    close("mean", set.mean(), mean(&want.coefficients));
    close(
        "variance",
        set.variance(),
        variance_population(&want.coefficients),
    );

    let mut stage = KAverageStage::allocate(params.m, refd.trace_len()).expect("buffers");
    stage.fill(refd, dut, plan.acquire(), &pool).expect("fill");
    for (j, (&got, &w)) in stage.reference().iter().zip(&want.reference).enumerate() {
        close(&format!("reference average, sample {j}"), got, w);
    }
    for (i, row) in stage.duts().rows().enumerate() {
        for (j, (&got, &w)) in row.samples().iter().zip(&want.duts[i]).enumerate() {
            close(&format!("DUT average {i}, sample {j}"), got, w);
        }
    }

    let one = plan
        .execute(refd, dut, &Pool::with_threads(1))
        .expect("one worker");
    for threads in [2, 8] {
        let many = plan
            .execute(refd, dut, &Pool::with_threads(threads))
            .expect("pooled");
        assert_eq!(bits(&many), bits(&one), "threads = {threads}");
    }

    let mut resumable = ResumablePlan::new(refd, params, &mut ChaCha8Rng::seed_from_u64(seed))
        .expect("resumable plan");
    let mut start = 0;
    while start < params.n2 {
        let end = (start + chunk).min(params.n2);
        let samples = (start..end).flat_map(|i| dut.samples_of(i)).collect();
        let traces = TraceBlock::from_data("chunk", dut.trace_len(), samples).expect("rows");
        resumable.ingest(&traces).expect("ingest");
        start = end;
        for slot in 0..params.m {
            if let Some(got) = resumable.coefficient(slot) {
                close(
                    &format!("streamed coefficient {slot}"),
                    got,
                    want.coefficients[slot],
                );
            }
        }
    }
    assert_eq!(resumable.completed_prefix(), params.m);
    for round in 1..=params.m {
        let (got_mean, got_variance) = resumable.snapshot(round).expect("finished prefix");
        let prefix = &want.coefficients[..round];
        close(
            &format!("streamed mean, round {round}"),
            got_mean,
            mean(prefix),
        );
        close(
            &format!("streamed variance, round {round}"),
            got_variance,
            variance_population(prefix),
        );
    }
}

/// `n` traces of a noisy sinusoid as one contiguous block.
fn synthetic_block(phase: f64, trace_len: usize, n: usize, seed: u64) -> TraceBlock {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut block = TraceBlock::new("synthetic");
    for _ in 0..n {
        let samples: Vec<f64> = (0..trace_len)
            .map(|i| {
                (i as f64 * 0.31 + phase).sin()
                    + ipmark::power::device::gaussian(&mut rng, 0.0, 0.4)
            })
            .collect();
        block.push_row(&samples).expect("row");
    }
    block
}

proptest! {
    #[test]
    fn plans_and_sessions_match_the_oracle_on_trace_blocks(
        k in 1usize..9,
        m in 1usize..7,
        extra1 in 0usize..12,
        extra2 in 0usize..24,
        trace_len in 2usize..129,
        chunk in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let params = CorrelationParams { n1: k + extra1, n2: k * m + extra2, k, m };
        let refd = synthetic_block(0.0, trace_len, params.n1, seed);
        let dut = synthetic_block(0.8, trace_len, params.n2, seed.wrapping_add(1));
        check_against_oracle(&refd, &dut, &params, seed, chunk);
    }

    #[test]
    fn plans_and_sessions_match_the_oracle_on_simulated_acquisitions(
        k in 1usize..9,
        m in 1usize..7,
        extra1 in 0usize..12,
        extra2 in 0usize..24,
        cycles in 2usize..17,
        chunk in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let params = CorrelationParams { n1: k + extra1, n2: k * m + extra2, k, m };
        let chain = default_chain().expect("built-in chain");
        let variation = ProcessVariation::typical();
        let refd = FabricatedDevice::fabricate(&ip_a(), &variation, seed)
            .expect("die")
            .acquisition(&chain, cycles, params.n1, seed.wrapping_add(10))
            .expect("reference campaign");
        let dut = FabricatedDevice::fabricate(&ip_b(), &variation, seed.wrapping_add(1))
            .expect("die")
            .acquisition(&chain, cycles, params.n2, seed.wrapping_add(11))
            .expect("DUT campaign");
        check_against_oracle(&refd, &dut, &params, seed, chunk);
    }
}
