//! Property-based tests for the verification core.

use ipmark_core::distinguisher::{Distinguisher, HigherMean, LowerVariance};
use ipmark_core::ip::{CounterKind, IpSpec, Substitution};
use ipmark_core::params::{f_alpha, f_limit};
use ipmark_core::verify::{CorrelationParams, CorrelationSet};
use ipmark_core::WatermarkKey;
use proptest::prelude::*;

fn coeffs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 2..40)
}

proptest! {
    #[test]
    fn correlation_set_stats_are_consistent(c in coeffs()) {
        let set = CorrelationSet::new(c.clone()).unwrap();
        let mean = set.mean();
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&mean));
        prop_assert!(set.variance() >= 0.0);
        // Variance of values in [-1, 1] is at most 1.
        prop_assert!(set.variance() <= 1.0 + 1e-12);
        prop_assert_eq!(set.len(), c.len());
    }

    #[test]
    fn distinguishers_pick_extremes(sets in prop::collection::vec(coeffs(), 2..8)) {
        let sets: Vec<CorrelationSet> = sets
            .into_iter()
            .map(|c| CorrelationSet::new(c).unwrap())
            .collect();
        let mean_best = HigherMean.decide(&sets).unwrap().best;
        for s in &sets {
            prop_assert!(sets[mean_best].mean() >= s.mean() - 1e-12);
        }
        let var_best = LowerVariance.decide(&sets).unwrap().best;
        for s in &sets {
            prop_assert!(sets[var_best].variance() <= s.variance() + 1e-12);
        }
    }

    #[test]
    fn confidence_distance_bounds(sets in prop::collection::vec(coeffs(), 2..8)) {
        let sets: Vec<CorrelationSet> = sets
            .into_iter()
            .map(|c| CorrelationSet::new(c).unwrap())
            .collect();
        // Δv = 100(1 - min/min2) is always in [0, 100] because variances
        // are non-negative.
        let d = LowerVariance.decide(&sets).unwrap();
        prop_assert!(
            (0.0..=100.0 + 1e-9).contains(&d.confidence_percent),
            "Δv = {}",
            d.confidence_percent
        );
    }

    #[test]
    fn params_validation_is_exactly_the_paper_constraints(
        n1 in 0usize..200,
        n2 in 0usize..2000,
        k in 0usize..100,
        m in 0usize..50,
    ) {
        let p = CorrelationParams { n1, n2, k, m };
        let valid = k >= 1 && m >= 1 && n1 >= k && n2 >= k * m;
        prop_assert_eq!(p.validate().is_ok(), valid);
    }

    #[test]
    fn f_alpha_is_a_probability_below_its_limit(alpha in 1.0f64..100.0, m in 1u64..2000) {
        let f = f_alpha(alpha, m).unwrap();
        let lim = f_limit(alpha).unwrap();
        prop_assert!((0.0..=1.0).contains(&f), "f = {}", f);
        prop_assert!(f <= lim + 1e-12, "f = {} > limit = {}", f, lim);
    }

    #[test]
    fn f_alpha_decreases_in_alpha(m in 2u64..200, a1 in 1.0f64..50.0, delta in 0.1f64..50.0) {
        let f1 = f_alpha(a1, m).unwrap();
        let f2 = f_alpha(a1 + delta, m).unwrap();
        prop_assert!(f2 <= f1 + 1e-12);
    }

    #[test]
    fn h_sequences_are_key_sensitive_under_sbox(k1: u8, k2: u8) {
        prop_assume!(k1 != k2);
        let mk = |k: u8| {
            IpSpec::watermarked("x", CounterKind::Gray, WatermarkKey::new(k))
                .sbox_output_sequence(64)
                .unwrap()
        };
        prop_assert_ne!(mk(k1), mk(k2));
    }

    #[test]
    fn h_sequences_are_key_insensitive_under_identity_after_reset(k1: u8, k2: u8) {
        // With the identity table, HD(H) differences vanish (only the
        // values are key-shifted); the *Hamming distance* sequences agree
        // except for the first edge out of reset.
        let hd = |k: u8| -> Vec<u32> {
            let h = IpSpec::watermarked_with_substitution(
                "x",
                CounterKind::Gray,
                WatermarkKey::new(k),
                Substitution::Identity,
            )
            .sbox_output_sequence(64)
            .unwrap();
            h.windows(2).map(|w| (w[0] ^ w[1]).count_ones()).collect()
        };
        prop_assert_eq!(hd(k1)[1..].to_vec(), hd(k2)[1..].to_vec());
    }

    #[test]
    fn circuit_matches_analytic_model_for_any_key(key: u8, gray: bool) {
        let counter = if gray { CounterKind::Gray } else { CounterKind::Binary };
        let spec = IpSpec::watermarked("x", counter, WatermarkKey::new(key));
        let mut circuit = spec.circuit().unwrap();
        let expected = spec.sbox_output_sequence(20).unwrap();
        for (i, &e) in expected.iter().enumerate() {
            let got = circuit.step().unwrap().outputs[0].value() as u8;
            prop_assert_eq!(got, e, "cycle {}", i);
        }
    }
}
