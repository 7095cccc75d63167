//! The fused measurement sweep against its unfused forms, bit for bit.
//!
//! `measure_into` is pinned to a textbook reference written out below,
//! one whole-trace stage after another, that shares no code with the
//! chain's stages or its sweep: only the normal sampler, which
//! `normal_sampler.rs` pins against the normal law on its own.
//! `SimulatedAcquisition::accumulate` synthesizes each trace straight into
//! the caller's k-average row, and `accumulate_indices` two traces per
//! pass. These properties pin them to the allocating path (`trace()` then
//! `kernels::accumulate`) and to the per-index loop over every chain shape,
//! and pin the chunked stream to the materialized block, so a timing
//! decorator that splits `accumulate` into those two steps reproduces its
//! bits.

use ipmark_netlist::seq::BinaryCounter;
use ipmark_netlist::CircuitBuilder;
use ipmark_power::chain::{MeasurementChain, PulseShape};
use ipmark_power::device::DeviceModel;
use ipmark_power::leakage::{ComponentWeights, WeightedComponentModel};
use ipmark_power::noise::standard_normal;
use ipmark_power::{NoiseRng, SimulatedAcquisition};
use ipmark_traces::streaming::ChunkedSource;
use ipmark_traces::{kernels, TraceError, TraceSource};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The settings of one chain shape.
#[derive(Debug, Clone)]
struct ChainParams {
    sigma: f64,
    alpha: f64,
    pulse: PulseShape,
}

impl ChainParams {
    fn chain(&self) -> MeasurementChain {
        MeasurementChain::new(self.pulse.clone(), self.alpha, self.sigma).unwrap()
    }
}

/// A chain shape: white noise on or off, α = 1 or below.
fn chain_params() -> impl Strategy<Value = ChainParams> {
    (any::<bool>(), (any::<bool>(), 0.05f64..1.0), 1usize..5).prop_map(
        |(white, (full, alpha), spc)| ChainParams {
            sigma: if white { 0.7 } else { 0.0 },
            alpha: if full { 1.0 } else { alpha },
            pulse: PulseShape::exponential(spc, 1.5).unwrap(),
        },
    )
}

fn chain_shape() -> impl Strategy<Value = MeasurementChain> {
    chain_params().prop_map(|p| p.chain())
}

/// The measurement chain computed the textbook way, each stage a whole-trace
/// pass over the previous one's output:
///
/// 1. noise: per sample `σ·z`, each `z` a fresh standard normal from `rng`,
///    skipped when σ is zero;
/// 2. low-pass, unless α = 1: `yᵢ = yᵢ₋₁ + α (xᵢ − yᵢ₋₁)` with `y₋₁ = x₀`.
fn reference_measure<R: Rng>(params: &ChainParams, clean: &[f64], rng: &mut R) -> Vec<f64> {
    let sigma = params.sigma;
    let mut x: Vec<f64> = clean
        .iter()
        .map(|&c| {
            if sigma > 0.0 {
                c + sigma * standard_normal(rng)
            } else {
                c
            }
        })
        .collect();
    let alpha = params.alpha;
    if alpha < 1.0 {
        let mut y = x[0];
        for v in &mut x {
            y += alpha * (*v - y);
            *v = y;
        }
    }
    x
}

/// The k-average fill `accumulate_indices` must reproduce: the trait's
/// default body, spelled out.
fn per_index_loop(
    acq: &SimulatedAcquisition,
    indices: &[usize],
    acc: &mut [f64],
) -> Result<(), TraceError> {
    for &i in indices {
        acq.accumulate(i, acc)?;
    }
    Ok(())
}

fn acquisition(chain: &MeasurementChain, cycles: usize, traces: usize) -> SimulatedAcquisition {
    let mut b = CircuitBuilder::new();
    b.add("cnt", BinaryCounter::new(6, 0).unwrap());
    let mut circuit = b.build().unwrap();
    let device = DeviceModel::nominal(
        "dev",
        WeightedComponentModel::new(2.0, vec![ComponentWeights::state_toggle(1.0)]),
    );
    SimulatedAcquisition::prepare(&mut circuit, &device, chain, cycles, traces, 2014).unwrap()
}

proptest! {
    #[test]
    fn fused_accumulate_equals_measure_then_kernel_add(
        chain in chain_shape(),
        clean in prop::collection::vec(-3.0f64..9.0, 1..300),
        start in -5.0f64..5.0,
        seed: u64,
    ) {
        let row: Vec<f64> = (0..clean.len()).map(|i| start + i as f64 * 0.01).collect();
        let mut want = row.clone();
        let mut trace = vec![0.0; clean.len()];
        chain
            .measure_into(&clean, &mut trace, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        kernels::accumulate(&mut want, &trace);
        let mut got = row;
        chain
            .accumulate_into(&clean, &mut got, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn sweep_equals_the_textbook_reference(
        params in chain_params(),
        clean in prop::collection::vec(-3.0f64..9.0, 1..300),
        seed: u64,
    ) {
        let chain = params.chain();
        let want = reference_measure(&params, &clean, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut got = vec![0.0; clean.len()];
        chain
            .measure_into(&clean, &mut got, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn paired_fill_equals_the_per_index_loop(
        chain in chain_shape(),
        cycles in 1usize..40,
        indices in prop::collection::vec(0usize..8, 1..12),
        start in -5.0f64..5.0,
    ) {
        // Every prefix: k = 1, and even and odd k, each with its own tail.
        let acq = acquisition(&chain, cycles, 8);
        for k in 1..=indices.len() {
            let selection = &indices[..k];
            let mut want = vec![start; acq.trace_len()];
            per_index_loop(&acq, selection, &mut want).unwrap();
            let mut got = vec![start; acq.trace_len()];
            acq.accumulate_indices(selection, &mut got).unwrap();
            prop_assert_eq!(bits(&got), bits(&want), "k = {}", k);
        }
    }

    #[test]
    fn paired_fill_fails_like_the_loop_and_leaves_acc_untouched(
        chain in chain_shape(),
        cycles in 1usize..24,
        indices in prop::collection::vec(0usize..8, 1..10),
        bad in 8usize..20,
        at in 0usize..10,
        short in any::<bool>(),
    ) {
        // An out-of-range index spliced in at any position, with or without
        // a wrong-length row.
        let acq = acquisition(&chain, cycles, 8);
        let mut selection = indices.clone();
        selection.insert(at.min(indices.len()), bad);
        let len = acq.trace_len() + usize::from(short);
        let start: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
        let mut looped = start.clone();
        let want = per_index_loop(&acq, &selection, &mut looped).unwrap_err();
        let mut got = start.clone();
        let err = acq.accumulate_indices(&selection, &mut got).unwrap_err();
        prop_assert_eq!(format!("{:?}", err), format!("{:?}", want));
        prop_assert_eq!(bits(&got), bits(&start));
        if short {
            // A wrong-length row alone fails the same way, also untouched.
            let mut got = start.clone();
            let err = acq.accumulate_indices(&indices, &mut got).unwrap_err();
            let want = per_index_loop(&acq, &indices, &mut start.clone()).unwrap_err();
            prop_assert_eq!(format!("{:?}", err), format!("{:?}", want));
            prop_assert_eq!(bits(&got), bits(&start));
        }
    }

    #[test]
    fn source_accumulate_equals_trace_then_kernel_add(
        chain in chain_shape(),
        cycles in 1usize..40,
        index in 0usize..8,
        start in -5.0f64..5.0,
    ) {
        let acq = acquisition(&chain, cycles, 8);
        let mut want = vec![start; acq.trace_len()];
        kernels::accumulate(&mut want, acq.trace(index).unwrap().samples());
        let mut got = vec![start; acq.trace_len()];
        acq.accumulate(index, &mut got).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
        // A wrong-length row is a typed error and stays untouched.
        let mut short = vec![start; acq.trace_len() + 1];
        prop_assert!(acq.accumulate(index, &mut short).is_err());
        prop_assert!(short.iter().all(|&s| s == start));
    }

    #[test]
    fn chunked_rows_equal_acquire_block_rows(
        chain in chain_shape(),
        cycles in 1usize..24,
        traces in 1usize..20,
        chunk in 1usize..7,
    ) {
        let acq = acquisition(&chain, cycles, traces);
        let block = acq.acquire_block().unwrap();
        let mut chunks = ChunkedSource::new(&acq, chunk).unwrap();
        let mut i = 0;
        while let Some(rows) = chunks.next_chunk().unwrap() {
            for row in rows.rows() {
                prop_assert_eq!(bits(row.samples()), bits(block.row(i).unwrap().samples()));
                i += 1;
            }
        }
        prop_assert_eq!(i, traces);
    }
}

#[test]
fn length_mismatch_reaches_trace_callers_typed() {
    let chain = MeasurementChain::ideal(2).unwrap();
    let acq = acquisition(&chain, 4, 3);
    let mut bad = vec![0.0; 5];
    assert!(matches!(
        acq.trace_into(0, &mut bad),
        Err(ipmark_traces::TraceError::LengthMismatch {
            expected: 8,
            provided: 5
        })
    ));
    assert!(matches!(
        acq.accumulate(0, &mut bad),
        Err(ipmark_traces::TraceError::LengthMismatch {
            expected: 8,
            provided: 5
        })
    ));
}

/// The chain every production workload runs, its parameters written out
/// here because this crate sits below `ipmark_core::ip::default_chain`:
/// σ = 7, α = 0.7 and the pulse `0.7 + 0.9·exp(−i/1.2)` over 8 samples per
/// cycle.
fn production_params() -> ChainParams {
    let coefficients = (0..8)
        .map(|i| 0.7 + 0.9 * (-(i as f64) / 1.2).exp())
        .collect();
    ChainParams {
        sigma: 7.0,
        alpha: 0.7,
        pulse: PulseShape::from_coefficients(coefficients).unwrap(),
    }
}

#[test]
fn production_chain_matches_the_reference_and_the_fused_fills() {
    let params = production_params();
    let chain = params.chain();
    // 256 cycles: the 2 048-sample traces of a paper-scale verification.
    let acq = acquisition(&chain, 256, 64);
    let clean = acq.clean_waveform();
    assert_eq!(clean.len(), 2048);
    let start: Vec<f64> = (0..clean.len()).map(|i| i as f64 * 0.25 - 100.0).collect();
    for seed in [0, 2014, u64::MAX] {
        let want = reference_measure(&params, clean, &mut NoiseRng::seed_from_u64(seed));
        let mut got = vec![0.0; clean.len()];
        chain
            .measure_into(clean, &mut got, &mut NoiseRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(bits(&got), bits(&want), "measure_into, seed {seed}");
        let mut added = start.clone();
        for (a, w) in added.iter_mut().zip(&want) {
            *a += w;
        }
        let mut acc = start.clone();
        chain
            .accumulate_into(clean, &mut acc, &mut NoiseRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(bits(&acc), bits(&added), "accumulate_into, seed {seed}");
    }
    // The k = 50 fill of §III, two traces per pass, and an odd k with a
    // one-trace tail.
    let selection: Vec<usize> = (0..51).map(|i| (i * 37) % 64).collect();
    for k in [50, 51] {
        let mut want = start.clone();
        for &i in &selection[..k] {
            for (a, s) in want.iter_mut().zip(acq.trace(i).unwrap().samples()) {
                *a += s;
            }
        }
        let mut got = start.clone();
        acq.accumulate_indices(&selection[..k], &mut got).unwrap();
        assert_eq!(bits(&got), bits(&want), "accumulate_indices, k = {k}");
    }
}
