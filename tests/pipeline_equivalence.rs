//! Operator-graph equivalence: every legacy entry point must be
//! **bit-identical** to the explicit [`Plan`]/[`ExecBackend`] graph it now
//! shims to — across backends, thread counts and chunk sizes.

use ipmark::core::verify::{correlation_process, correlation_process_seq, CorrelationParams};
use ipmark::core::{default_backend, CorrelationSet, Plan, ResumablePlan, Sequential};
use ipmark::traces::{Trace, TraceSet};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A cheap synthetic campaign: device-specific sinusoid plus Gaussian noise.
fn synthetic_set(device: &str, phase: f64, trace_len: usize, n: usize, seed: u64) -> TraceSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = TraceSet::new(device);
    for _ in 0..n {
        let samples: Vec<f64> = (0..trace_len)
            .map(|i| {
                (i as f64 * 0.31 + phase).sin()
                    + ipmark::power::device::gaussian(&mut rng, 0.0, 0.4)
            })
            .collect();
        set.push(Trace::from_samples(samples))
            .expect("finite trace");
    }
    set
}

fn bits(set: &CorrelationSet) -> Vec<u64> {
    set.coefficients().iter().map(|c| c.to_bits()).collect()
}

proptest! {
    /// `correlation_process` (the legacy fused entry point) is bitwise the
    /// explicit plan on the default backend, on the sequential backend, and
    /// on the `Sync`-free `execute_seq` path — and all four leave the RNG
    /// in the same post-state (same draws, same order).
    #[test]
    fn legacy_process_equals_plan_on_every_backend(
        trace_len in 16usize..64,
        k in 3usize..8,
        m in 3usize..6,
        extra in 0usize..30,
        seed in 0u64..500,
    ) {
        let n1 = 4 * k;
        let n2 = k * m + extra;
        let params = CorrelationParams { n1, n2, k, m };
        let refd = synthetic_set("r", 0.0, trace_len, n1, seed);
        let dut = synthetic_set("d", 0.9, trace_len, n2, seed.wrapping_add(1));

        let mut rng_legacy = ChaCha8Rng::seed_from_u64(seed);
        let legacy = correlation_process(&refd, &dut, &params, &mut rng_legacy)
            .expect("legacy process");

        let mut rng_default = ChaCha8Rng::seed_from_u64(seed);
        let mut plan = Plan::correlation(&params, &mut rng_default).expect("plan");
        let on_default = plan
            .execute(&refd, &dut, &default_backend())
            .expect("default backend");

        let mut rng_seq = ChaCha8Rng::seed_from_u64(seed);
        let mut plan_seq = Plan::correlation(&params, &mut rng_seq).expect("plan");
        let on_sequential = plan_seq
            .execute(&refd, &dut, &Sequential)
            .expect("sequential backend");

        let mut rng_legacy_seq = ChaCha8Rng::seed_from_u64(seed);
        let legacy_seq = correlation_process_seq(&refd, &dut, &params, &mut rng_legacy_seq)
            .expect("legacy sequential process");

        prop_assert_eq!(bits(&legacy), bits(&on_default));
        prop_assert_eq!(bits(&legacy), bits(&on_sequential));
        prop_assert_eq!(bits(&legacy), bits(&legacy_seq));
        // Identical post-state proves all paths consumed the stream alike.
        let expected = rng_legacy.next_u64();
        prop_assert_eq!(expected, rng_default.next_u64());
        prop_assert_eq!(expected, rng_seq.next_u64());
        prop_assert_eq!(expected, rng_legacy_seq.next_u64());
    }

    /// A [`ResumablePlan`] fed in arbitrary chunk sizes converges to the
    /// batch plan's coefficients bit for bit, for every chunking.
    #[test]
    fn resumable_plan_is_chunk_size_invariant(
        k in 2usize..6,
        m in 2usize..6,
        extra in 0usize..25,
        chunk in 1usize..40,
        seed in 0u64..500,
    ) {
        let n1 = 3 * k;
        let n2 = k * m + extra;
        let params = CorrelationParams { n1, n2, k, m };
        let trace_len = 32;
        let refd = synthetic_set("r", 0.0, trace_len, n1, seed);
        let dut = synthetic_set("d", 1.3, trace_len, n2, seed.wrapping_add(1));

        let mut rng_batch = ChaCha8Rng::seed_from_u64(seed);
        let mut plan = Plan::correlation(&params, &mut rng_batch).expect("plan");
        let batch = plan
            .execute(&refd, &dut, &default_backend())
            .expect("batch execute");

        let mut rng_stream = ChaCha8Rng::seed_from_u64(seed);
        let mut resumable = ResumablePlan::new(&refd, &params, &mut rng_stream)
            .expect("resumable plan");
        let mut start = 0;
        while start < n2 {
            let end = (start + chunk).min(n2);
            let traces: Vec<Trace> = (start..end)
                .map(|i| dut.trace(i).expect("in range").clone())
                .collect();
            resumable.ingest(&traces).expect("ingest");
            start = end;
        }
        prop_assert_eq!(resumable.completed_prefix(), m);
        for (slot, expected) in batch.coefficients().iter().enumerate() {
            let got = resumable.coefficient(slot).expect("completed slot");
            prop_assert_eq!(got.to_bits(), expected.to_bits());
        }
        // Both constructions drew the same selections.
        prop_assert_eq!(rng_batch.next_u64(), rng_stream.next_u64());
    }
}

/// The screening entry points reproduce explicit per-device plans at the
/// documented derived seeds.
#[test]
fn screen_panel_equals_explicit_plans() {
    use ipmark::core::CounterfeitScreen;

    let params = CorrelationParams {
        n1: 30,
        n2: 200,
        k: 8,
        m: 6,
    };
    let refd = synthetic_set("r", 0.0, 48, params.n1, 5);
    let duts = [
        synthetic_set("d0", 0.0, 48, params.n2, 6),
        synthetic_set("d1", 1.9, 48, params.n2, 7),
    ];
    let screen = CounterfeitScreen::with_threshold(1e-4).expect("threshold");
    let panel = screen
        .screen_panel(&refd, &duts, &params, 99)
        .expect("panel");
    for (j, dut) in duts.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(CounterfeitScreen::panel_seed(99, j));
        let mut plan = Plan::correlation(&params, &mut rng).expect("plan");
        let set = plan
            .execute(&refd, dut, &default_backend())
            .expect("execute");
        let verdict = screen.judge(&set);
        assert_eq!(panel[j], verdict, "panel index {j}");
    }
}

/// The three matrix variants — env pool, explicit pools of several sizes,
/// and sequential — are one body parameterized by backend, so they must be
/// identical to the bit.
#[test]
fn matrix_variants_are_bitwise_identical() {
    use ipmark::core::ip::{ip_a, ip_b};
    use ipmark::core::matrix::{ExperimentConfig, IdentificationMatrix};

    let mut config = ExperimentConfig::reduced().expect("built-in");
    config.cycles = 128;
    config.params = CorrelationParams {
        n1: 40,
        n2: 1_200,
        k: 12,
        m: 10,
    };
    let refs = [ip_a()];
    let duts = [ip_a(), ip_b()];
    let baseline = IdentificationMatrix::run_seq(&refs, &duts, &config).expect("sequential");
    let default = IdentificationMatrix::run(&refs, &duts, &config).expect("default");
    assert_eq!(default, baseline);
    #[cfg(feature = "parallel")]
    {
        use ipmark::parallel::Pool;
        for threads in [1, 2, 8] {
            let pool = Pool::with_threads(threads);
            let m = IdentificationMatrix::run_with_pool(&refs, &duts, &config, &pool)
                .expect("pooled run");
            assert_eq!(m, baseline, "threads = {threads}");
        }
    }
}

/// Pooled execution of one plan is thread-count invariant and equal to the
/// sequential backend — the §7 contract surfaced at the graph level.
#[cfg(feature = "parallel")]
#[test]
fn pooled_plan_is_thread_count_invariant() {
    use ipmark::core::Pooled;
    use ipmark::parallel::Pool;

    let params = CorrelationParams {
        n1: 36,
        n2: 300,
        k: 9,
        m: 7,
    };
    let refd = synthetic_set("r", 0.0, 40, params.n1, 11);
    let dut = synthetic_set("d", 0.7, 40, params.n2, 12);

    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut plan = Plan::correlation(&params, &mut rng).expect("plan");
    let baseline = plan.execute(&refd, &dut, &Sequential).expect("sequential");
    for threads in [1, 2, 3, 8] {
        let backend = Pooled::new(Pool::with_threads(threads));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut plan = Plan::correlation(&params, &mut rng).expect("plan");
        let set = plan.execute(&refd, &dut, &backend).expect("pooled");
        assert_eq!(bits(&set), bits(&baseline), "threads = {threads}");
    }
}
