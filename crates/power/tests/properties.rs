//! Property-based tests for the power-simulation substrate.

use ipmark_netlist::seq::{BinaryCounter, GrayCounter};
use ipmark_netlist::CircuitBuilder;
use ipmark_power::chain::{MeasurementChain, PulseShape};
use ipmark_power::device::{DeviceModel, ProcessVariation};
use ipmark_power::leakage::{ComponentWeights, WeightedComponentModel};
use ipmark_power::{cycle_powers, SimulatedAcquisition};
use ipmark_traces::TraceSource;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn counter_circuit(width: u16, gray: bool) -> ipmark_netlist::Circuit {
    let mut b = CircuitBuilder::new();
    if gray {
        b.add("cnt", GrayCounter::new(width, 0).unwrap());
    } else {
        b.add("cnt", BinaryCounter::new(width, 0).unwrap());
    }
    b.build().unwrap()
}

fn one_component_model(base: f64, w: f64) -> WeightedComponentModel {
    WeightedComponentModel::new(base, vec![ComponentWeights::state_toggle(w)])
}

/// One measured trace of `clean` in a fresh buffer.
fn measure<R: rand::Rng + ?Sized>(
    chain: &MeasurementChain,
    clean: &[f64],
    rng: &mut R,
) -> Vec<f64> {
    let mut out = vec![0.0; clean.len()];
    chain.measure_into(clean, &mut out, rng).unwrap();
    out
}

proptest! {
    #[test]
    fn cycle_power_is_affine_in_gain_and_offset(
        base in 0.0f64..10.0,
        w in 0.0f64..5.0,
        seed in 0u64..1000,
    ) {
        // gain/offset sampled per die must act affinely on the nominal power.
        let mut circuit = counter_circuit(4, false);
        let nominal = DeviceModel::nominal("n", one_component_model(base, w));
        let variation = ProcessVariation {
            gain_sigma: 0.2,
            offset_sigma: 0.5,
            weight_sigma: 0.0,
            fingerprint_sigma: 0.0,
        };
        let die = DeviceModel::sample("d", &one_component_model(base, w), &variation, seed)
            .unwrap();
        let p_nom = cycle_powers(&mut circuit, &nominal, 16).unwrap();
        let p_die = cycle_powers(&mut circuit, &die, 16).unwrap();
        // One gain maps every nominal cycle onto the die's: read it off the
        // cycle with the largest nominal power.
        let (n_max, d_max) = p_nom
            .iter()
            .zip(&p_die)
            .fold((0.0, 0.0), |best, (&n, &d)| if n > best.0 { (n, d) } else { best });
        if n_max > 0.0 {
            let gain = (d_max - die.offset()) / n_max;
            for (n, d) in p_nom.iter().zip(&p_die) {
                prop_assert!((d - (gain * n + die.offset())).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gray_counter_power_is_constant_binary_is_not(
        base in 0.0f64..5.0,
        w in 0.1f64..5.0,
    ) {
        let device = DeviceModel::nominal("n", one_component_model(base, w));
        let mut gray = counter_circuit(6, true);
        let p_gray = cycle_powers(&mut gray, &device, 64).unwrap();
        // Exactly one toggle per cycle: constant power.
        prop_assert!(p_gray.windows(2).all(|x| (x[0] - x[1]).abs() < 1e-12));
        prop_assert!((p_gray[0] - (base + w)).abs() < 1e-12);

        let mut binary = counter_circuit(6, false);
        let p_bin = cycle_powers(&mut binary, &device, 64).unwrap();
        prop_assert!(p_bin.windows(2).any(|x| (x[0] - x[1]).abs() > 1e-12));
    }

    #[test]
    fn expand_scales_linearly(powers in prop::collection::vec(0.0f64..100.0, 1..20)) {
        let chain = MeasurementChain::ideal(4).unwrap();
        let expanded = chain.expand(&powers);
        prop_assert_eq!(expanded.len(), powers.len() * 4);
        let doubled: Vec<f64> = powers.iter().map(|p| p * 2.0).collect();
        let expanded2 = chain.expand(&doubled);
        for (a, b) in expanded.iter().zip(&expanded2) {
            prop_assert!((2.0 * a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn lowpass_preserves_dc_level(level in -50.0f64..50.0, alpha in 0.05f64..1.0) {
        let chain = MeasurementChain::new(
            PulseShape::rectangular(1).unwrap(),
            alpha,
            0.0,
        ).unwrap();
        // No noise: the measurement is the low-pass alone.
        let signal = measure(&chain, &[level; 400], &mut ChaCha8Rng::seed_from_u64(0));
        // A constant input passes a single-pole low-pass unchanged.
        prop_assert!((signal[399] - level).abs() < 1e-9);
    }

    #[test]
    fn acquisition_traces_are_reproducible_by_index(
        seed: u64,
        index in 0usize..50,
    ) {
        let mut circuit = counter_circuit(4, false);
        let device = DeviceModel::nominal("n", one_component_model(1.0, 1.0));
        let chain = MeasurementChain::new(
            PulseShape::rectangular(2).unwrap(),
            0.8,
            0.3,
        ).unwrap();
        let acq =
            SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 50, seed).unwrap();
        prop_assert_eq!(acq.trace(index).unwrap(), acq.trace(index).unwrap());
    }

    #[test]
    fn averaging_reduces_noise_spread(seed: u64) {
        // Mean over many noisy traces approaches the clean waveform.
        let mut circuit = counter_circuit(4, false);
        let device = DeviceModel::nominal("n", one_component_model(2.0, 1.0));
        let chain = MeasurementChain::new(
            PulseShape::rectangular(2).unwrap(),
            1.0,
            1.0,
        ).unwrap();
        let acq =
            SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 16, 200, seed).unwrap();
        let mut acc = vec![0.0; acq.trace_len()];
        for i in 0..200 {
            acq.accumulate(i, &mut acc).unwrap();
        }
        for a in &mut acc {
            *a /= 200.0;
        }
        let max_err = acq
            .clean_waveform()
            .iter()
            .zip(&acc)
            .map(|(c, a)| (c - a).abs())
            .fold(0.0f64, f64::max);
        // σ/√200 ≈ 0.07; allow 6σ.
        prop_assert!(max_err < 0.45, "max_err = {}", max_err);
    }

    #[test]
    fn device_sampling_statistics_scale_with_sigma(
        gain_sigma in 0.01f64..0.2,
    ) {
        let nominal = one_component_model(1.0, 1.0);
        let variation = ProcessVariation {
            gain_sigma,
            offset_sigma: 0.0,
            weight_sigma: 0.0,
            fingerprint_sigma: 0.0,
        };
        // With no offset, weight or fingerprint variation a die's power is
        // its gain times the nominal power.
        let mut circuit = counter_circuit(4, false);
        let p_nom = cycle_powers(&mut circuit, &DeviceModel::nominal("n", nominal.clone()), 1).unwrap()[0];
        let gains: Vec<f64> = (0..400)
            .map(|s| {
                let die = DeviceModel::sample("d", &nominal, &variation, s).unwrap();
                cycle_powers(&mut circuit, &die, 1).unwrap()[0] / p_nom
            })
            .collect();
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        prop_assert!((mean - 1.0).abs() < 4.0 * gain_sigma / 20.0 + 0.01);
    }

    #[test]
    fn fingerprint_is_deterministic_and_die_specific(seed in 0u64..1000, cycle in 0u64..10_000) {
        let nominal = one_component_model(1.0, 1.0);
        let v = ProcessVariation { fingerprint_sigma: 0.5, ..ProcessVariation::none() };
        let d1 = DeviceModel::sample("a", &nominal, &v, seed).unwrap();
        let d2 = DeviceModel::sample("a", &nominal, &v, seed).unwrap();
        let d3 = DeviceModel::sample("a", &nominal, &v, seed + 1).unwrap();
        prop_assert_eq!(d1.fingerprint(cycle), d2.fingerprint(cycle));
        prop_assert_ne!(d1.fingerprint(cycle), d3.fingerprint(cycle));
    }

    #[test]
    fn measure_determinism_depends_only_on_rng(seedtrace in 0u64..500) {
        let chain = MeasurementChain::new(
            PulseShape::exponential(4, 1.5).unwrap(),
            0.6,
            0.4,
        ).unwrap();
        let clean: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let a = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(seedtrace));
        let b = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(seedtrace));
        prop_assert_eq!(a, b);
    }
}
