//! Streaming/batch equivalence: a [`VerificationSession`] fed chunk by
//! chunk must be **bit-identical** to the batch correlation pipeline — at
//! every chunk boundary, for every chunk size, against the pooled and the
//! staged sequential batch plan alike — and its verdict must be invariant
//! to how the campaign was sliced.
//!
//! This is the integration-level counterpart of the unit tests in
//! `ipmark-core::session`: here the traces come from the real simulated
//! acquisition pipeline via [`ChunkedSource`], and the property tests sweep
//! randomized `(k, m, n2, chunk, seed)` configurations.

use ipmark::core::{correlation_process, Plan};
use ipmark::power::SimulatedAcquisition;
use ipmark::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Acquires a reference campaign for `IP_A` and DUT campaigns for two
/// candidate dies (an `IP_A` die and an `IP_B` die) through the full
/// simulation pipeline.
fn pipeline_panel(
    cycles: usize,
    n1: usize,
    n2: usize,
) -> (SimulatedAcquisition, Vec<SimulatedAcquisition>) {
    let chain = default_chain().expect("built-in chain");
    let variation = ProcessVariation::typical();
    let mut refd_die = FabricatedDevice::fabricate(&ip_a(), &variation, 41).expect("die");
    let refd = refd_die
        .acquisition(&chain, cycles, n1, 410)
        .expect("reference campaign");
    let duts = [(ip_a(), 42u64, 420u64), (ip_b(), 43, 430)]
        .into_iter()
        .map(|(spec, die_seed, campaign_seed)| {
            let mut die = FabricatedDevice::fabricate(&spec, &variation, die_seed).expect("die");
            die.acquisition(&chain, cycles, n2, campaign_seed)
                .expect("DUT campaign")
        })
        .collect();
    (refd, duts)
}

/// A cheap synthetic campaign for the property tests: a device-specific
/// sinusoid plus Gaussian noise, materialized as a [`TraceBlock`].
fn synthetic_set(device: &str, phase: f64, trace_len: usize, n: usize, seed: u64) -> TraceBlock {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = TraceBlock::new(device);
    for _ in 0..n {
        let samples: Vec<f64> = (0..trace_len)
            .map(|i| {
                (i as f64 * 0.31 + phase).sin()
                    + ipmark::power::device::gaussian(&mut rng, 0.0, 0.4)
            })
            .collect();
        set.push_row(&samples).expect("finite trace");
    }
    set
}

/// Rows `start..end` of `block` as a chunk of their own.
fn rows(block: &TraceBlock, start: usize, end: usize) -> TraceBlock {
    let len = block.trace_len();
    let samples = block.samples()[start * len..end * len].to_vec();
    TraceBlock::from_data("chunk", len, samples).expect("whole rows")
}

/// The batch reference: the CLI `verify` shape — one RNG threaded through
/// the candidates in order.
fn batch_sets<S: TraceSource>(
    refd: &S,
    duts: &[&(dyn TraceSource + Sync)],
    params: &CorrelationParams,
    seed: u64,
    sequential: bool,
) -> Vec<CorrelationSet> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    duts.iter()
        .map(|dut| {
            if sequential {
                Plan::correlation(params, &mut rng)
                    .and_then(|mut plan| plan.execute_seq(refd, *dut))
                    .expect("batch correlation")
            } else {
                correlation_process(refd, *dut, params, &mut rng).expect("batch correlation")
            }
        })
        .collect()
}

/// Asserts that every coefficient the session has completed so far is
/// bit-identical to the corresponding batch coefficient.
fn assert_prefixes_match(session: &VerificationSession, sets: &[CorrelationSet], context: &str) {
    for (candidate, set) in sets.iter().enumerate() {
        let prefix = session.completed_prefix(candidate);
        for slot in 0..prefix {
            let got = session
                .coefficient(candidate, slot)
                .expect("completed slot has a coefficient");
            let expected = set.coefficients()[slot];
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{context}: candidate {candidate}, slot {slot}: \
                 streamed {got} != batch {expected}"
            );
        }
    }
}

#[test]
fn pipeline_streams_are_bitwise_equal_to_batch_at_every_chunk_boundary() {
    let params = CorrelationParams {
        n1: 24,
        n2: 192,
        k: 6,
        m: 8,
    };
    let (refd, duts) = pipeline_panel(48, params.n1, params.n2);
    let dut_refs: Vec<&(dyn TraceSource + Sync)> = duts
        .iter()
        .map(|d| d as &(dyn TraceSource + Sync))
        .collect();
    let par_sets = batch_sets(&refd, &dut_refs, &params, 17, false);
    let seq_sets = batch_sets(&refd, &dut_refs, &params, 17, true);

    for chunk in [1usize, 7, 23, 64, params.n2] {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut session =
            VerificationSession::new(&refd, duts.len(), SessionOptions::new(params), &mut rng)
                .expect("session");
        let mut streams: Vec<ChunkedSource<'_, SimulatedAcquisition>> = duts
            .iter()
            .map(|dut| ChunkedSource::with_limit(dut, chunk, params.n2).expect("chunked source"))
            .collect();
        let mut verdict = None;
        'stream: loop {
            let mut delivered = false;
            for (candidate, stream) in streams.iter_mut().enumerate() {
                let Some(traces) = stream.next_chunk().expect("regeneration") else {
                    continue;
                };
                delivered = true;
                let status = session.ingest_chunk(candidate, &traces).expect("ingest");
                // The contract under test: after EVERY chunk, the completed
                // prefix is bitwise the batch result — parallel and
                // sequential kernels agree with each other and the stream.
                let context = format!("chunk size {chunk}");
                assert_prefixes_match(&session, &par_sets, &context);
                assert_prefixes_match(&session, &seq_sets, &context);
                if let SessionStatus::Decided(v) = status {
                    verdict = Some(v);
                    break 'stream;
                }
            }
            if !delivered {
                break;
            }
        }
        let verdict = verdict.expect("no early stop: the campaign end must decide");

        let batch = LowerVariance.decide(&par_sets).expect("batch decision");
        assert_eq!(verdict.best, batch.best, "chunk size {chunk}");
        assert_eq!(
            verdict.confidence_percent.to_bits(),
            batch.confidence_percent.to_bits(),
            "chunk size {chunk}"
        );
        for (streamed, batch) in verdict.scores.iter().zip(batch.scores.iter()) {
            assert_eq!(streamed.to_bits(), batch.to_bits(), "chunk size {chunk}");
        }
        assert_eq!(verdict.best, 0, "the IP_A die must win against IP_B");
    }
}

#[test]
fn early_stop_verdict_is_invariant_to_chunk_size() {
    let params = CorrelationParams {
        n1: 24,
        n2: 192,
        k: 6,
        m: 8,
    };
    let (refd, duts) = pipeline_panel(48, params.n1, params.n2);
    let options = SessionOptions::new(params).with_early_stop(EarlyStopRule {
        stability: 2,
        min_confidence_percent: 10.0,
    });

    let mut verdicts: Vec<Verdict> = Vec::new();
    for chunk in [1usize, 5, 17, 48, params.n2] {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut session =
            VerificationSession::new(&refd, duts.len(), options, &mut rng).expect("session");
        let mut streams: Vec<ChunkedSource<'_, SimulatedAcquisition>> = duts
            .iter()
            .map(|dut| ChunkedSource::with_limit(dut, chunk, params.n2).expect("chunked source"))
            .collect();
        'stream: loop {
            let mut delivered = false;
            for (candidate, stream) in streams.iter_mut().enumerate() {
                if let Some(traces) = stream.next_chunk().expect("regeneration") {
                    delivered = true;
                    if let SessionStatus::Decided(_) =
                        session.ingest_chunk(candidate, &traces).expect("ingest")
                    {
                        break 'stream;
                    }
                }
            }
            if !delivered {
                break;
            }
        }
        verdicts.push(session.finalize().expect("verdict"));
    }

    let first = &verdicts[0];
    assert!(
        first.early_stopped,
        "this configuration is expected to stop early (rounds used: {})",
        first.rounds_used
    );
    for verdict in &verdicts[1..] {
        assert_eq!(verdict.best, first.best);
        assert_eq!(
            verdict.confidence_percent.to_bits(),
            first.confidence_percent.to_bits()
        );
        assert_eq!(verdict.rounds_used, first.rounds_used);
        assert_eq!(verdict.early_stopped, first.early_stopped);
        assert_eq!(verdict.traces_required, first.traces_required);
    }
}

proptest! {
    /// Random `(k, m, n2, chunk, seed)` sweeps over synthetic campaigns:
    /// the streamed prefix is bitwise the batch prefix at every boundary,
    /// and the final verdict (winner, confidence bits, scores) matches the
    /// batch distinguisher.
    #[test]
    fn random_configurations_stream_bitwise_identically(
        k in 2usize..6,
        m in 2usize..7,
        extra in 0usize..25,
        chunk in 1usize..48,
        seed in 0u64..1_000,
    ) {
        let n2 = k * m + extra;
        let params = CorrelationParams { n1: 3 * k, n2, k, m };
        let trace_len = 40;
        let refd = synthetic_set("r", 0.0, trace_len, params.n1, seed);
        let duts = [
            synthetic_set("d0", 0.0, trace_len, n2, seed.wrapping_add(1)),
            synthetic_set("d1", 1.1, trace_len, n2, seed.wrapping_add(2)),
            synthetic_set("d2", 2.3, trace_len, n2, seed.wrapping_add(3)),
        ];
        let dut_refs: Vec<&(dyn TraceSource + Sync)> =
            duts.iter().map(|d| d as &(dyn TraceSource + Sync)).collect();
        let par_sets = batch_sets(&refd, &dut_refs, &params, seed, false);
        let seq_sets = batch_sets(&refd, &dut_refs, &params, seed, true);

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut session =
            VerificationSession::new(&refd, duts.len(), SessionOptions::new(params), &mut rng)
                .expect("session");
        let mut verdict = None;
        let mut start = 0;
        'stream: while start < n2 {
            let end = (start + chunk).min(n2);
            for (candidate, dut) in duts.iter().enumerate() {
                let traces = rows(dut, start, end);
                let status = session.ingest_chunk(candidate, &traces).expect("ingest");
                assert_prefixes_match(&session, &par_sets, "random sweep (par)");
                assert_prefixes_match(&session, &seq_sets, "random sweep (seq)");
                if let SessionStatus::Decided(v) = status {
                    verdict = Some(v);
                    break 'stream;
                }
            }
            start = end;
        }
        let verdict = verdict.expect("full campaign decides at round m");
        let batch = LowerVariance.decide(&par_sets).expect("batch decision");
        prop_assert_eq!(verdict.best, batch.best);
        prop_assert_eq!(
            verdict.confidence_percent.to_bits(),
            batch.confidence_percent.to_bits()
        );
        for (streamed, expected) in verdict.scores.iter().zip(batch.scores.iter()) {
            prop_assert_eq!(streamed.to_bits(), expected.to_bits());
        }
    }

    /// The early-stop decision must not depend on chunk size: two sessions
    /// over the same campaigns with different chunking produce identical
    /// verdicts, because rounds — not chunks — drive the evaluation.
    #[test]
    fn random_chunkings_cannot_change_an_early_stop_verdict(
        chunk_a in 1usize..40,
        chunk_b in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let params = CorrelationParams { n1: 12, n2: 120, k: 4, m: 6 };
        let trace_len = 40;
        let refd = synthetic_set("r", 0.0, trace_len, params.n1, seed);
        let duts = [
            synthetic_set("d0", 0.0, trace_len, params.n2, seed.wrapping_add(1)),
            synthetic_set("d1", 1.7, trace_len, params.n2, seed.wrapping_add(2)),
        ];
        let options = SessionOptions::new(params).with_early_stop(EarlyStopRule {
            stability: 2,
            min_confidence_percent: 5.0,
        });

        let mut verdicts = Vec::new();
        for chunk in [chunk_a, chunk_b] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut session =
                VerificationSession::new(&refd, duts.len(), options, &mut rng).expect("session");
            let mut decided = None;
            let mut start = 0;
            'stream: while start < params.n2 {
                let end = (start + chunk).min(params.n2);
                for (candidate, dut) in duts.iter().enumerate() {
                    let traces = rows(dut, start, end);
                    if let SessionStatus::Decided(v) =
                        session.ingest_chunk(candidate, &traces).expect("ingest")
                    {
                        decided = Some(v);
                        break 'stream;
                    }
                }
                start = end;
            }
            verdicts.push(decided.unwrap_or_else(|| {
                session.finalize().expect("verdict")
            }));
        }

        let (a, b) = (&verdicts[0], &verdicts[1]);
        prop_assert_eq!(a.best, b.best);
        prop_assert_eq!(
            a.confidence_percent.to_bits(),
            b.confidence_percent.to_bits()
        );
        prop_assert_eq!(a.rounds_used, b.rounds_used);
        prop_assert_eq!(a.early_stopped, b.early_stopped);
        prop_assert_eq!(&a.traces_required, &b.traces_required);
    }
}
