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
use ipmark_power::chain::{AdcConfig, MeasurementChain, PulseShape};
use ipmark_power::device::DeviceModel;
use ipmark_power::leakage::{ComponentWeights, WeightedComponentModel};
use ipmark_power::noise::standard_normal;
use ipmark_power::{NoiseProfile, SimulatedAcquisition};
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
    noise: NoiseProfile,
    alpha: f64,
    ac_alpha: Option<f64>,
    adc: Option<AdcConfig>,
    samples_per_cycle: usize,
}

impl ChainParams {
    fn chain(&self) -> MeasurementChain {
        MeasurementChain::with_extras(
            PulseShape::exponential(self.samples_per_cycle, 1.5).unwrap(),
            self.alpha,
            self.noise,
            self.ac_alpha,
            self.adc,
        )
        .unwrap()
    }
}

/// A chain shape: each noise component on or off, α = 1 or below, AC
/// coupling and ADC each on or off.
fn chain_params() -> impl Strategy<Value = ChainParams> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (any::<bool>(), 0.05f64..1.0),
        (any::<bool>(), 0.5f64..0.999),
        (any::<bool>(), 4u8..14),
        1usize..5,
    )
        .prop_map(
            |((white, pink, drift), (full, alpha), (ac, ac_alpha), (adc, bits), spc)| ChainParams {
                noise: NoiseProfile {
                    white_sigma: if white { 0.7 } else { 0.0 },
                    pink_sigma: if pink { 0.4 } else { 0.0 },
                    drift_sigma: if drift { 0.02 } else { 0.0 },
                },
                alpha: if full { 1.0 } else { alpha },
                ac_alpha: ac.then_some(ac_alpha),
                adc: adc.then_some(AdcConfig {
                    bits,
                    full_scale_min: -4.0,
                    full_scale_max: 12.0,
                }),
                samples_per_cycle: spc,
            },
        )
}

fn chain_shape() -> impl Strategy<Value = MeasurementChain> {
    chain_params().prop_map(|p| p.chain())
}

/// The measurement chain computed the textbook way, each stage a whole-trace
/// pass over the previous one's output:
///
/// 1. noise: per sample white `σ_w·z`, then pink `σ_p·pink(z)` through
///    [`kellet_pink`], then the drift walk `d ← d + σ_d·z`, each `z` a fresh
///    standard normal from `rng` and each component skipped when its σ is
///    zero;
/// 2. low-pass, unless α = 1: `yᵢ = yᵢ₋₁ + α (xᵢ − yᵢ₋₁)` with `y₋₁ = x₀`;
/// 3. AC coupling: `yᵢ = α (yᵢ₋₁ + xᵢ − xᵢ₋₁)` with `x₋₁ = x₀`, `y₋₁ = 0`;
/// 4. the ADC: clamp to full scale, round to the nearest of `2ᵇ` levels,
///    return the level's value.
fn reference_measure<R: Rng>(params: &ChainParams, clean: &[f64], rng: &mut R) -> Vec<f64> {
    let noise = params.noise;
    let mut pink = [0.0; 7];
    let mut drift = 0.0;
    let mut x: Vec<f64> = clean
        .iter()
        .map(|&c| {
            let mut s = c;
            if noise.white_sigma > 0.0 {
                s += noise.white_sigma * standard_normal(rng);
            }
            if noise.pink_sigma > 0.0 {
                s += noise.pink_sigma * kellet_pink(&mut pink, standard_normal(rng));
            }
            if noise.drift_sigma > 0.0 {
                drift += noise.drift_sigma * standard_normal(rng);
                s += drift;
            }
            s
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
    if let Some(alpha) = params.ac_alpha {
        let (mut prev_x, mut prev_y) = (x[0], 0.0);
        for v in &mut x {
            let y = alpha * (prev_y + *v - prev_x);
            prev_x = *v;
            prev_y = y;
            *v = y;
        }
    }
    if let Some(adc) = params.adc {
        let levels = (1u64 << adc.bits) as f64 - 1.0;
        let (lo, hi) = (adc.full_scale_min, adc.full_scale_max);
        let span = hi - lo;
        for v in &mut x {
            let code = ((v.clamp(lo, hi) - lo) / span * levels).round();
            *v = lo + code / levels * span;
        }
    }
    x
}

/// Paul Kellet's economical pink-noise filter: seven leaky integrators
/// `b` over a white input, the sum scaled by 1/4 to about unit variance.
fn kellet_pink(b: &mut [f64; 7], white: f64) -> f64 {
    b[0] = 0.99886 * b[0] + white * 0.0555179;
    b[1] = 0.99332 * b[1] + white * 0.0750759;
    b[2] = 0.96900 * b[2] + white * 0.1538520;
    b[3] = 0.86650 * b[3] + white * 0.3104856;
    b[4] = 0.55000 * b[4] + white * 0.5329522;
    b[5] = -0.7616 * b[5] - white * 0.0168980;
    let out = b[0] + b[1] + b[2] + b[3] + b[4] + b[5] + b[6] + white * 0.5362;
    b[6] = white * 0.115926;
    out * 0.25
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
