//! Failure injection across the crate boundaries: every degenerate input
//! must surface as a typed error, never a panic.

use ipmark::core::matrix::{ExperimentConfig, IdentificationMatrix};
use ipmark::core::CoreError;
use ipmark::power::{
    ComponentWeights, DeviceModel, MeasurementChain, ProcessVariation, PulseShape,
    WeightedComponentModel,
};
use ipmark::prelude::*;
use ipmark::traces::stats::pearson;
use ipmark::traces::StatsError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn invalid_correlation_params_are_rejected_with_reason() {
    // Violating expression (1): n1 < k.
    let p = CorrelationParams {
        n1: 10,
        n2: 1000,
        k: 20,
        m: 5,
    };
    match p.validate() {
        Err(CoreError::InvalidParams { reason }) => assert!(reason.contains("n1")),
        other => panic!("expected InvalidParams, got {other:?}"),
    }
    // Violating expression (2): n2 < k·m.
    let p = CorrelationParams {
        n1: 100,
        n2: 99,
        k: 20,
        m: 5,
    };
    match p.validate() {
        Err(CoreError::InvalidParams { reason }) => assert!(reason.contains("n2")),
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

#[test]
fn mismatched_trace_lengths_are_detected_not_miscorrelated() {
    let chain = default_chain().expect("built-in");
    let variation = ProcessVariation::typical();
    let mut d1 = FabricatedDevice::fabricate(&ip_a(), &variation, 1).expect("die");
    let mut d2 = FabricatedDevice::fabricate(&ip_a(), &variation, 2).expect("die");
    let refd = d1.acquisition(&chain, 64, 30, 1).expect("campaign");
    let dut = d2.acquisition(&chain, 32, 300, 2).expect("campaign"); // half-length traces
    let params = CorrelationParams {
        n1: 30,
        n2: 300,
        k: 10,
        m: 5,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    assert!(matches!(
        correlation_process(&refd, &dut, &params, &mut rng),
        Err(CoreError::InvalidParams { .. })
    ));
}

#[test]
fn dead_device_flat_traces_surface_as_zero_variance() {
    // A "dead" device producing a constant waveform cannot be correlated.
    assert!(matches!(
        pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
        Err(StatsError::ZeroVariance)
    ));

    // Through the full pipeline: a device whose model weights are all zero
    // with no noise yields constant traces, and the process reports the
    // statistics error instead of fabricating a verdict.
    let model = WeightedComponentModel::new(1.0, vec![ComponentWeights::default(); 4]);
    let device = DeviceModel::nominal("dead", model);
    let chain = MeasurementChain::ideal(4).expect("valid");
    let mut circuit = ip_a().circuit().expect("netlist");
    let dead =
        ipmark::power::SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 32, 200, 0)
            .expect("campaign");
    let params = CorrelationParams {
        n1: 20,
        n2: 200,
        k: 5,
        m: 4,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    assert!(matches!(
        correlation_process(&dead, &dead, &params, &mut rng),
        Err(CoreError::Stats(StatsError::ZeroVariance))
    ));
}

#[test]
fn model_shape_mismatch_is_reported() {
    // An unmarked IP's 1-component model against a 4-component circuit.
    let wrong_model = IpSpec::unmarked("x", CounterKind::Gray).nominal_model();
    let device = DeviceModel::nominal("wrong", wrong_model);
    let chain = MeasurementChain::ideal(2).expect("valid");
    let mut circuit = ip_a().circuit().expect("netlist");
    assert!(
        ipmark::power::SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 16, 10, 0)
            .is_err()
    );
}

#[test]
fn degenerate_measurement_chains_are_rejected() {
    assert!(PulseShape::rectangular(0).is_err());
    assert!(PulseShape::exponential(8, -1.0).is_err());
    let pulse = PulseShape::rectangular(4).expect("valid");
    assert!(MeasurementChain::new(pulse.clone(), 0.0, 1.0).is_err());
    assert!(MeasurementChain::new(pulse, 0.5, f64::NAN).is_err());
}

#[test]
fn empty_panels_and_short_campaigns_error() {
    let config = ExperimentConfig::reduced().expect("built-in");
    assert!(IdentificationMatrix::run(&[], &[ip_a()], &config).is_err());
    assert!(IdentificationMatrix::run(&[ip_a()], &[], &config).is_err());

    let mut die =
        FabricatedDevice::fabricate(&ip_a(), &ProcessVariation::typical(), 0).expect("die");
    let chain = default_chain().expect("built-in");
    assert!(die.acquisition(&chain, 0, 10, 0).is_err());
    assert!(die.acquisition(&chain, 10, 0, 0).is_err());
}

#[test]
fn comparative_decisions_require_a_panel() {
    let single = vec![CorrelationSet::new(vec![0.5, 0.6]).expect("non-empty")];
    assert!(matches!(
        LowerVariance.decide(&single),
        Err(CoreError::NotEnoughCandidates { provided: 1 })
    ));
    assert!(HigherMean.decide(&[]).is_err());
}

/// A small synthetic campaign for session failure tests.
fn session_set(device: &str, phase: f64, n: usize, seed: u64) -> TraceBlock {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = TraceBlock::new(device);
    for _ in 0..n {
        let samples: Vec<f64> = (0..32)
            .map(|i| {
                (i as f64 * 0.31 + phase).sin()
                    + ipmark::power::device::gaussian(&mut rng, 0.0, 0.3)
            })
            .collect();
        set.push_row(&samples).expect("finite trace");
    }
    set
}

/// Rows `0..n` of `block` as a chunk of their own.
fn head(block: &TraceBlock, n: usize) -> TraceBlock {
    let len = block.trace_len();
    TraceBlock::from_data("chunk", len, block.samples()[..n * len].to_vec()).expect("whole rows")
}

fn session_params() -> CorrelationParams {
    CorrelationParams {
        n1: 12,
        n2: 60,
        k: 3,
        m: 4,
    }
}

#[test]
fn streaming_sessions_reject_malformed_chunks_atomically() {
    let refd = session_set("r", 0.0, 12, 1);
    let dut = session_set("d0", 0.4, 60, 2);
    let p = session_params();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut session =
        VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).expect("session");

    let clean = head(&dut, 5);

    // A chunk of truncated traces: typed length mismatch, not a panic.
    let truncated = TraceBlock::from_data("truncated", 16, vec![0.5; 5 * 16]).expect("rows");
    assert!(matches!(
        session.ingest_chunk(0, &truncated),
        Err(CoreError::Trace(TraceError::LengthMismatch { .. }))
    ));

    // NaN sample: typed error naming the offending trace and sample.
    let mut poisoned = clean.clone();
    {
        let mut row = poisoned.row_mut(2).expect("in range");
        row.fill(0.25);
        row.samples_mut()[7] = f64::NAN;
    }
    assert!(matches!(
        session.ingest_chunk(0, &poisoned),
        Err(CoreError::Trace(TraceError::NonFiniteSample {
            trace_index: 2,
            sample_index: 7
        }))
    ));

    // Infinity is rejected the same way.
    let mut infinite = clean.clone();
    infinite.row_mut(0).expect("in range").fill(f64::INFINITY);
    assert!(matches!(
        session.ingest_chunk(0, &infinite),
        Err(CoreError::Trace(TraceError::NonFiniteSample {
            trace_index: 0,
            sample_index: 0
        }))
    ));

    // Rejection is atomic: nothing was consumed, so the corrected chunk
    // for the same trace indices streams straight through.
    assert_eq!(session.traces_ingested(0), 0);
    session.ingest_chunk(0, &clean).expect("clean chunk");
    assert_eq!(session.traces_ingested(0), clean.len());
}

#[test]
fn streaming_sessions_fail_closed_once_an_average_cannot_be_correlated() {
    let refd = session_set("r", 0.0, 12, 1);
    let live = session_set("d0", 0.0, 60, 2);
    let flat = TraceBlock::from_data("dead", 32, vec![0.5; 60 * 32]).expect("rows");
    let p = session_params();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut session =
        VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).expect("session");
    session
        .ingest_chunk(0, &head(&live, 30))
        .expect("live chunk");

    // Stream the dead candidate one trace at a time until its first
    // finished average, which is flat, fails to correlate.
    let row = |block: &TraceBlock, i: usize| {
        let len = block.trace_len();
        TraceBlock::from_data("row", len, block.samples()[i * len..(i + 1) * len].to_vec())
            .expect("one row")
    };
    let failing = (0..p.n2)
        .find(|&i| session.ingest_chunk(1, &row(&flat, i)).is_err())
        .expect("a flat average fails to correlate");
    // The failing chunk was consumed.
    assert_eq!(session.traces_ingested(1), failing + 1);

    // The session is closed: re-supplying the chunk, feeding the live
    // candidate and finalizing all return the flat average's error and
    // change nothing.
    let closed = |r: Result<(), CoreError>| {
        assert!(
            matches!(r, Err(CoreError::Stats(StatsError::ZeroVariance))),
            "{r:?}"
        );
    };
    closed(session.ingest_chunk(1, &row(&flat, failing)).map(drop));
    assert_eq!(session.traces_ingested(1), failing + 1);
    closed(session.ingest_chunk(0, &row(&live, 30)).map(drop));
    assert_eq!(session.traces_ingested(0), 30);
    closed(session.finalize().map(drop));
    assert!(!session.is_decided());
    assert_eq!(session.completed_prefix(1), 0);
}

#[test]
fn streaming_session_misuse_is_typed_not_panicking() {
    let refd = session_set("r", 0.0, 12, 1);
    let duts = [session_set("d0", 0.0, 60, 2), session_set("d1", 1.2, 60, 3)];
    let p = session_params();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut session =
        VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).expect("session");

    let chunk = head(&duts[0], 4);
    assert!(matches!(
        session.ingest_chunk(7, &chunk),
        Err(CoreError::Session(SessionError::UnknownCandidate {
            candidate: 7,
            candidates: 2
        }))
    ));
    assert!(matches!(
        session.ingest_chunk(0, &TraceBlock::new("empty")),
        Err(CoreError::Trace(TraceError::EmptyChunk))
    ));

    // Delivering past the per-candidate budget n2 is refused up front.
    assert_eq!(duts[0].len(), p.n2);
    session.ingest_chunk(0, &duts[0]).expect("exact budget");
    assert!(matches!(
        session.ingest_chunk(0, &chunk),
        Err(CoreError::Session(SessionError::TooManyTraces {
            candidate: 0,
            budget: 60
        }))
    ));

    // Finalizing while a candidate still has fewer than two coefficients
    // names the laggard instead of deciding from a 1-point variance.
    assert!(matches!(
        session.finalize(),
        Err(CoreError::NotEnoughCoefficients {
            candidate: 1,
            provided: 0
        })
    ));

    // Completing the campaign decides; any further delivery is refused.
    assert!(matches!(
        session.ingest_chunk(1, &duts[1]),
        Ok(SessionStatus::Decided(_))
    ));
    assert!(matches!(
        session.ingest_chunk(1, &chunk),
        Err(CoreError::Session(SessionError::AlreadyDecided))
    ));
}

#[test]
fn degenerate_session_configurations_are_rejected() {
    let refd = session_set("r", 0.0, 12, 1);
    let p = session_params();

    // A single candidate can never be compared.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    assert!(matches!(
        VerificationSession::new(&refd, 1, SessionOptions::new(p), &mut rng),
        Err(CoreError::NotEnoughCandidates { provided: 1 })
    ));

    // m = 1 leaves the variance distinguisher with one-point sets.
    let degenerate = CorrelationParams { m: 1, ..p };
    assert!(SessionOptions::new(degenerate).validate().is_err());
    assert!(matches!(
        VerificationSession::new(&refd, 2, SessionOptions::new(degenerate), &mut rng),
        Err(CoreError::InvalidParams { .. })
    ));

    // Early-stop rules must be well-formed.
    let bad_rule = SessionOptions::new(p).with_early_stop(EarlyStopRule {
        stability: 0,
        min_confidence_percent: 50.0,
    });
    assert!(matches!(
        VerificationSession::new(&refd, 2, bad_rule, &mut rng),
        Err(CoreError::InvalidParams { .. })
    ));
}

#[test]
fn variance_distinguishers_refuse_single_coefficient_sets() {
    // A 1-coefficient set has no variance: the paper's m >= 2 requirement
    // surfaces as a typed error, not a fabricated 0-variance win.
    let sets = vec![
        CorrelationSet::new(vec![0.9]).expect("non-empty"),
        CorrelationSet::new(vec![0.1, 0.2]).expect("non-empty"),
    ];
    assert!(matches!(
        LowerVariance.decide(&sets),
        Err(CoreError::NotEnoughCoefficients {
            candidate: 0,
            provided: 1
        })
    ));
    // The factored score-level decision needs a comparison panel too.
    assert!(DistinguisherKind::Variance
        .decide_scores(vec![0.5])
        .is_err());
    assert!(DistinguisherKind::Mean.decide_scores(vec![]).is_err());

    // The mean distinguisher tolerates single-coefficient sets.
    assert!(HigherMean.decide(&sets).is_ok());
}

#[test]
fn error_messages_are_actionable() {
    let p = CorrelationParams {
        n1: 10,
        n2: 1000,
        k: 20,
        m: 5,
    };
    let msg = p.validate().unwrap_err().to_string();
    assert!(msg.contains("10") && msg.contains("20"), "message: {msg}");
}
