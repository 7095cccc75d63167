//! Trigger jitter and alignment: a realistic measurement defect the paper
//! does not discuss, and the preprocessing that rescues verification.
//!
//! Oscilloscope triggers wander by a few samples between captures. Jitter
//! smears the per-sample statistics that the correlation process relies
//! on; cross-correlation alignment (ipmark-traces::align) restores them.

use ipmark::core::{correlation_process, CorrelationParams};
use ipmark::prelude::*;
use ipmark::traces::align::{align_to_first, align_to_reference, mean_trace, snr};
use ipmark::traces::TraceBlock;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Materializes a campaign and injects ±`max_jitter`-sample trigger jitter
/// into every trace (circular shift, matching a free-running capture of a
/// periodic signal).
fn jittered_campaign(
    spec: &IpSpec,
    die_seed: u64,
    n: usize,
    max_jitter: usize,
    rng: &mut ChaCha8Rng,
) -> TraceBlock {
    let chain = default_chain().expect("built-in");
    let mut die =
        FabricatedDevice::fabricate(spec, &ProcessVariation::typical(), die_seed).expect("die");
    let acq = die
        .acquisition(&chain, 128, n, die_seed * 7 + 5)
        .expect("campaign");
    let mut block = TraceBlock::new(format!("jittered-{die_seed}"));
    for i in 0..n {
        let trace = acq.trace(i).expect("in range");
        let shift = rng.gen_range(0..=2 * max_jitter) as isize - max_jitter as isize;
        let samples = trace.samples();
        let len = samples.len();
        let rotated: Vec<f64> = (0..len)
            .map(|j| samples[(j as isize + shift).rem_euclid(len as isize) as usize])
            .collect();
        block.push_row(&rotated).expect("uniform length");
    }
    block
}

#[test]
fn alignment_restores_snr_lost_to_jitter() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let jittered = jittered_campaign(&ip_b(), 1, 120, 6, &mut rng);
    let aligned = align_to_first(&jittered, 8).expect("alignable");
    let snr_before = snr(&jittered).expect("population");
    let snr_after = snr(&aligned).expect("population");
    assert!(
        snr_after > 2.0 * snr_before,
        "alignment should recover SNR: {snr_before:.3} -> {snr_after:.3}"
    );
}

#[test]
fn alignment_rescues_verification_under_jitter() {
    let params = CorrelationParams {
        n1: 100,
        n2: 900,
        k: 25,
        m: 12,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    // Clean reference, jittered DUT captures (the realistic asymmetry: the
    // owner's bench is well-triggered, the field measurement is not).
    let chain = default_chain().expect("built-in");
    let mut refd_die =
        FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 10).expect("die");
    let refd = refd_die
        .acquisition(&chain, 128, params.n1, 77)
        .expect("campaign");

    let dut_jittered = jittered_campaign(&ip_b(), 11, params.n2, 6, &mut rng);
    // Align the DUT captures to the *reference* time frame (aligning to
    // the DUT's own first trace would leave a common offset against the
    // reference).
    let refd_mean = mean_trace(&refd).expect("non-empty");
    let dut_aligned = align_to_reference(&dut_jittered, refd_mean.samples(), 8).expect("alignable");

    let mut prng = ChaCha8Rng::seed_from_u64(3);
    let c_jittered =
        correlation_process(&refd, &dut_jittered, &params, &mut prng).expect("process");
    let c_aligned = correlation_process(&refd, &dut_aligned, &params, &mut prng).expect("process");

    assert!(
        c_aligned.mean() > c_jittered.mean() + 0.05,
        "alignment should raise matched correlation: {:.3} -> {:.3}",
        c_jittered.mean(),
        c_aligned.mean()
    );
    assert!(
        c_aligned.mean() > 0.8,
        "aligned matched pair should verify strongly, got {:.3}",
        c_aligned.mean()
    );
}
