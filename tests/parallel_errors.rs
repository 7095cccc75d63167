//! Error-path regression tests for the parallel correlation engine:
//! degenerate inputs must surface the *same* error through the parallel
//! path as through the sequential reference — the lowest-index
//! normalization in `ipmark-parallel` exists precisely so that fan-out
//! never changes which error a caller observes.

use ipmark::core::verify::{correlation_process, CorrelationParams};
use ipmark::core::{CoreError, Plan};
use ipmark::traces::{StatsError, Trace, TraceSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn varying_set(device: &str, n: usize, seed: u64) -> TraceSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = TraceSet::new(device);
    for _ in 0..n {
        let samples: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.4).cos() + ipmark::power::device::gaussian(&mut rng, 0.0, 0.3))
            .collect();
        set.push(Trace::from_samples(samples)).expect("same length");
    }
    set
}

/// Every trace identical — k-averages are flat, so correlation is
/// undefined (zero variance).
fn flat_set(device: &str, n: usize) -> TraceSet {
    let mut set = TraceSet::new(device);
    for _ in 0..n {
        set.push(Trace::from_samples(vec![1.5; 64]))
            .expect("same length");
    }
    set
}

fn both_paths(
    refd: &TraceSet,
    dut: &TraceSet,
    params: &CorrelationParams,
) -> (Result<usize, String>, Result<usize, String>) {
    let par = correlation_process(refd, dut, params, &mut ChaCha8Rng::seed_from_u64(1))
        .map(|c| c.len())
        .map_err(|e| format!("{e:?}"));
    let seq = Plan::correlation(params, &mut ChaCha8Rng::seed_from_u64(1))
        .and_then(|mut plan| plan.execute_seq(refd, dut))
        .map(|c| c.len())
        .map_err(|e| format!("{e:?}"));
    (par, seq)
}

#[test]
fn zero_variance_dut_fails_identically() {
    let refd = varying_set("ref", 30, 1);
    let dut = flat_set("flat", 200);
    let params = CorrelationParams {
        n1: 30,
        n2: 200,
        k: 10,
        m: 6,
    };
    let err = correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(0))
        .expect_err("flat DUT must fail");
    assert!(
        matches!(err, CoreError::Stats(StatsError::ZeroVariance)),
        "got {err:?}"
    );
    let (par, seq) = both_paths(&refd, &dut, &params);
    assert_eq!(par, seq);
}

#[test]
fn zero_variance_reference_fails_identically() {
    let refd = flat_set("flat", 30);
    let dut = varying_set("dut", 200, 2);
    let params = CorrelationParams {
        n1: 30,
        n2: 200,
        k: 10,
        m: 6,
    };
    let err = correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(0))
        .expect_err("flat reference must fail");
    assert!(
        matches!(err, CoreError::Stats(StatsError::ZeroVariance)),
        "got {err:?}"
    );
    let (par, seq) = both_paths(&refd, &dut, &params);
    assert_eq!(par, seq);
}

/// m = 1 is the smallest legal fan-out — the parallel path must take its
/// sequential fast path and still agree.
#[test]
fn single_coefficient_process_agrees() {
    let refd = varying_set("ref", 30, 3);
    let dut = varying_set("dut", 100, 4);
    let params = CorrelationParams {
        n1: 30,
        n2: 100,
        k: 10,
        m: 1,
    };
    let (par, seq) = both_paths(&refd, &dut, &params);
    assert_eq!(par, Ok(1));
    assert_eq!(par, seq);
}

/// k = n1 saturates expression (1): the single reference average uses every
/// reference trace. Legal, and identical on both paths.
#[test]
fn k_equal_to_n1_boundary_agrees() {
    let refd = varying_set("ref", 25, 5);
    let dut = varying_set("dut", 250, 6);
    let params = CorrelationParams {
        n1: 25,
        n2: 250,
        k: 25,
        m: 10,
    };
    let (par, seq) = both_paths(&refd, &dut, &params);
    assert_eq!(par, Ok(10));
    assert_eq!(par, seq);
}

/// Parameter violations are rejected before any fan-out, identically.
#[test]
fn invalid_params_fail_identically() {
    let refd = varying_set("ref", 30, 7);
    let dut = varying_set("dut", 100, 8);
    for params in [
        // k > n1 (expression 1).
        CorrelationParams {
            n1: 30,
            n2: 100,
            k: 31,
            m: 3,
        },
        // n2 < k*m (expression 2).
        CorrelationParams {
            n1: 30,
            n2: 100,
            k: 10,
            m: 11,
        },
        // m = 0.
        CorrelationParams {
            n1: 30,
            n2: 100,
            k: 10,
            m: 0,
        },
    ] {
        let (par, seq) = both_paths(&refd, &dut, &params);
        assert!(par.is_err(), "{params:?}");
        assert_eq!(par, seq, "{params:?}");
    }
}
