//! Key-collision analysis.
//!
//! The paper claims the watermark key "reduces the risk of collision
//! between different IPs with the same FSM" (§I) and demonstrates it for
//! two specific key pairs. This module quantifies the claim across the
//! whole key space: for every pair of keys, the correlation between the
//! deterministic `H`-register leakage sequences the two keys produce. Two
//! keys *collide* if those sequences correlate so strongly that the
//! verification scheme could confuse them.

use ipmark_core::ip::{CounterKind, Substitution};
use ipmark_core::WatermarkKey;
use ipmark_traces::stats::pearson;
use serde::{Deserialize, Serialize};

use crate::error::AttackError;

/// Summary of pairwise leakage-sequence correlations over a key set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollisionAnalysis {
    /// Number of keys analysed.
    pub num_keys: usize,
    /// Largest |ρ| over all distinct key pairs.
    pub max_abs_correlation: f64,
    /// The worst pair (keys with the largest |ρ|).
    pub worst_pair: (WatermarkKey, WatermarkKey),
    /// Mean |ρ| over all distinct pairs.
    pub mean_abs_correlation: f64,
    /// Fraction of pairs with |ρ| above the given threshold.
    pub collision_rate: f64,
    /// The threshold used for [`CollisionAnalysis::collision_rate`].
    pub threshold: f64,
}

use crate::cpa::predicted_leakage as leakage_for;

/// Leakage sequence (per-cycle `H`-register Hamming distances) for one key.
fn leakage_sequence(
    counter: CounterKind,
    substitution: Substitution,
    key: WatermarkKey,
    cycles: usize,
) -> Result<Vec<f64>, AttackError> {
    leakage_for(counter, substitution, key, cycles)
}

/// Analyses pairwise collisions among `keys` over one FSM period.
///
/// # Errors
///
/// Returns [`AttackError::Config`] for fewer than two keys, a degenerate
/// cycle count, or an out-of-range threshold.
pub fn analyze_collisions(
    counter: CounterKind,
    substitution: Substitution,
    keys: &[WatermarkKey],
    cycles: usize,
    threshold: f64,
) -> Result<CollisionAnalysis, AttackError> {
    if keys.len() < 2 {
        return Err(AttackError::Config(format!(
            "collision analysis needs ≥ 2 keys, got {}",
            keys.len()
        )));
    }
    if cycles < 8 {
        return Err(AttackError::Config(format!(
            "{cycles} cycles is too short to characterize collisions"
        )));
    }
    if !(0.0..=1.0).contains(&threshold) {
        return Err(AttackError::Config(format!(
            "threshold must be in [0, 1], got {threshold}"
        )));
    }

    let sequences: Vec<Vec<f64>> = keys
        .iter()
        .map(|&k| leakage_sequence(counter, substitution, k, cycles))
        .collect::<Result<_, _>>()?;

    let mut max_abs = 0.0f64;
    let mut worst = (keys[0], keys[1]);
    let mut sum_abs = 0.0f64;
    let mut collisions = 0usize;
    let mut pairs = 0usize;
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            // A zero-variance sequence (identity ablation) is a total
            // collision by definition.
            let rho = match pearson(&sequences[i], &sequences[j]) {
                Ok(r) => r,
                Err(ipmark_traces::StatsError::ZeroVariance) => 1.0,
                Err(e) => return Err(e.into()),
            };
            let a = rho.abs();
            if a > max_abs {
                max_abs = a;
                worst = (keys[i], keys[j]);
            }
            sum_abs += a;
            if a > threshold {
                collisions += 1;
            }
            pairs += 1;
        }
    }

    Ok(CollisionAnalysis {
        num_keys: keys.len(),
        max_abs_correlation: max_abs,
        worst_pair: worst,
        mean_abs_correlation: sum_abs / pairs as f64,
        collision_rate: collisions as f64 / pairs as f64,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_keys_rarely_collide() {
        let keys: Vec<WatermarkKey> = (0..32u8).map(|k| WatermarkKey::new(k * 8)).collect();
        let analysis =
            analyze_collisions(CounterKind::Gray, Substitution::AesSbox, &keys, 256, 0.5).unwrap();
        assert!(
            analysis.max_abs_correlation < 0.5,
            "max |rho| = {}",
            analysis.max_abs_correlation
        );
        assert_eq!(analysis.collision_rate, 0.0);
        assert!(analysis.mean_abs_correlation < 0.15);
        assert_eq!(analysis.num_keys, 32);
    }

    #[test]
    fn identity_ablation_collides_completely() {
        let keys = [
            WatermarkKey::new(1),
            WatermarkKey::new(2),
            WatermarkKey::new(3),
        ];
        let analysis =
            analyze_collisions(CounterKind::Gray, Substitution::Identity, &keys, 256, 0.5).unwrap();
        // Without the S-Box every key produces (almost) the same leakage
        // sequence: collision is certain.
        assert!(
            analysis.max_abs_correlation > 0.95,
            "max |rho| = {}",
            analysis.max_abs_correlation
        );
        assert_eq!(analysis.collision_rate, 1.0);
    }

    #[test]
    fn paper_key_pairs_are_collision_free() {
        use ipmark_core::ip::{KW1, KW2, KW3};
        let analysis = analyze_collisions(
            CounterKind::Gray,
            Substitution::AesSbox,
            &[KW1, KW2, KW3],
            256,
            0.5,
        )
        .unwrap();
        assert_eq!(analysis.collision_rate, 0.0);
    }

    #[test]
    fn validation() {
        let one = [WatermarkKey::new(0)];
        assert!(
            analyze_collisions(CounterKind::Gray, Substitution::AesSbox, &one, 256, 0.5).is_err()
        );
        let two = [WatermarkKey::new(0), WatermarkKey::new(1)];
        assert!(
            analyze_collisions(CounterKind::Gray, Substitution::AesSbox, &two, 4, 0.5).is_err()
        );
        assert!(
            analyze_collisions(CounterKind::Gray, Substitution::AesSbox, &two, 256, 1.5).is_err()
        );
    }
}
