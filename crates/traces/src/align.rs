//! Trace alignment and signal-quality metrics.
//!
//! Real acquisitions suffer trigger jitter: traces of the same device are
//! shifted by a few samples against each other, which destroys
//! sample-pointwise statistics (averaging, correlation, t-tests). This
//! module provides cross-correlation alignment — shift each trace so it
//! best matches a reference — plus the SNR metric used to calibrate the
//! measurement model.

use crate::block::TraceBlock;
use crate::error::{StatsError, TraceError};
use crate::stats::{pearson, RunningStats};
use crate::trace::{Trace, TraceSource};

/// The integer shift of `trace` (within `±max_shift`) that maximizes its
/// Pearson correlation with `reference` over the overlapping window.
///
/// Positive shift means the trace is delayed relative to the reference.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] when the overlap would drop below two
/// samples and propagates zero-variance errors for flat signals.
pub fn best_shift(reference: &[f64], trace: &[f64], max_shift: usize) -> Result<isize, StatsError> {
    let len = reference.len().min(trace.len());
    if len <= 2 * max_shift + 2 {
        return Err(StatsError::TooShort {
            provided: len,
            required: 2 * max_shift + 3,
        });
    }
    let mut best = 0isize;
    let mut best_rho = f64::NEG_INFINITY;
    for shift in -(max_shift as isize)..=(max_shift as isize) {
        let window = len - max_shift * 2;
        let ref_start = max_shift;
        let trace_start = (max_shift as isize + shift) as usize;
        let rho = pearson(
            &reference[ref_start..ref_start + window],
            &trace[trace_start..trace_start + window],
        )?;
        if rho > best_rho {
            best_rho = rho;
            best = shift;
        }
    }
    Ok(best)
}

/// Shifts a trace in place by `shift` samples without allocating: a
/// positive shift advances the content (removing the leading delay found by
/// [`best_shift`]), a negative shift delays it, and the vacated samples are
/// filled with the edge value, so the length is preserved.
///
/// `shift = 0` returns before touching the buffer, so a zero-jitter
/// scenario pipeline is bit-identical to one without the shift stage.
pub fn shift_in_place(samples: &mut [f64], shift: isize) {
    let n = samples.len();
    if shift == 0 || n == 0 {
        return;
    }
    if shift > 0 {
        // out[i] = in[min(i + s, n-1)]: slide the tail forward, then pad
        // the vacancy with the (moved) last sample.
        let s = usize::try_from(shift).unwrap_or(usize::MAX).min(n - 1);
        samples.copy_within(s.., 0);
        let edge = samples[n - 1 - s];
        for x in &mut samples[n - s..] {
            *x = edge;
        }
    } else {
        // out[i] = in[max(i - s, 0)]: slide the head backward, then pad
        // the vacancy with the first sample (index 0 is not overwritten by
        // the memmove, so it still holds the edge value).
        let s = usize::try_from(-shift).unwrap_or(usize::MAX).min(n - 1);
        samples.copy_within(..n - s, s);
        let edge = samples[0];
        for x in &mut samples[..s] {
            *x = edge;
        }
    }
}

/// The deterministic trigger-jitter offset of trace `index` in a simulated
/// campaign: a value in `[-max_shift, +max_shift]` derived from
/// `(stream_seed, index)` with a SplitMix64 mix, so every (seed, index)
/// pair maps to the same offset on every thread and platform.
///
/// `max_shift = 0` always returns `0` — the zero-jitter scenario injects
/// nothing. A window wider than a quarter of the address space
/// (`usize::MAX >> 2`, `2⁶² − 1` on 64-bit targets) saturates there, so
/// the function is total: the window's span and the offset stay
/// representable for every `max_shift`. A shift that long already exceeds
/// every trace, which [`shift_in_place`] clamps to the edge sample.
pub fn jitter_offset(stream_seed: u64, index: u64, max_shift: usize) -> isize {
    if max_shift == 0 {
        return 0;
    }
    let max_shift = max_shift.min(MAX_JITTER_SHIFT);
    // SplitMix64 finalizer (kept local: this crate sits below ipmark-power
    // in the dependency stack, which hosts the shared public copy).
    fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    // At most 2 · MAX_JITTER_SHIFT + 1 ≤ isize::MAX, so neither the span
    // nor the offset below overflows.
    let span = 2 * (max_shift as u64) + 1;
    let draw = mix64(mix64(stream_seed ^ 0x6a69_7474_6572_3031).wrapping_add(index));
    (draw % span) as isize - max_shift as isize
}

/// The widest trigger-jitter window [`jitter_offset`] draws from.
const MAX_JITTER_SHIFT: usize = usize::MAX >> 2;

/// Aligns every trace of `block` to the block's first trace by
/// cross-correlation within `±max_shift` samples.
///
/// # Errors
///
/// Returns [`TraceError::EmptySet`] for an empty block and propagates
/// statistic errors from degenerate traces.
pub fn align_to_first(block: &TraceBlock, max_shift: usize) -> Result<TraceBlock, TraceError> {
    let reference = block.row(0).map_err(|_| TraceError::EmptySet)?;
    align_to_reference(block, reference.samples(), max_shift)
}

/// Aligns every trace of `block` to an external reference waveform — e.g.
/// the mean trace of the *reference device*, so that a jittered DUT
/// campaign lands in the reference's time frame before correlation.
///
/// # Errors
///
/// Returns [`TraceError::EmptySet`] for an empty block and propagates
/// statistic errors from degenerate traces.
pub fn align_to_reference(
    block: &TraceBlock,
    reference: &[f64],
    max_shift: usize,
) -> Result<TraceBlock, TraceError> {
    if block.is_empty() {
        return Err(TraceError::EmptySet);
    }
    let mut aligned = block.clone();
    for mut row in aligned.rows_mut() {
        let shift = best_shift(reference, row.samples(), max_shift).map_err(TraceError::Stats)?;
        shift_in_place(row.samples_mut(), shift);
    }
    Ok(aligned)
}

/// Per-sample signal-to-noise ratio of a trace population:
/// `SNR = var_samples(mean_trace) / mean_samples(var_trace)` — the variance
/// of the deterministic waveform over the mean noise power.
///
/// # Errors
///
/// Returns [`TraceError::EmptySet`] for blocks with fewer than two traces.
pub fn snr(block: &TraceBlock) -> Result<f64, TraceError> {
    if block.len() < 2 {
        return Err(TraceError::EmptySet);
    }
    let len = block.trace_len();
    let mut per_sample = vec![RunningStats::new(); len];
    for row in block.rows() {
        for (s, &x) in per_sample.iter_mut().zip(row.samples()) {
            s.push(x);
        }
    }
    let mut signal = RunningStats::new();
    let mut noise = 0.0;
    for s in &per_sample {
        // Every per-sample accumulator has seen `block.len() >= 2` pushes,
        // so mean/variance are always present; EmptySet covers the
        // impossible path without a panic.
        let (Some(m), Some(v)) = (s.mean(), s.variance_sample()) else {
            return Err(TraceError::EmptySet);
        };
        signal.push(m);
        noise += v;
    }
    let noise_power = noise / len as f64;
    if noise_power == 0.0 {
        return Err(TraceError::Stats(StatsError::ZeroVariance));
    }
    let Some(signal_var) = signal.variance_population() else {
        return Err(TraceError::EmptySet);
    };
    Ok(signal_var / noise_power)
}

/// The grand mean trace of a source.
///
/// # Errors
///
/// Returns [`TraceError::EmptySet`] for an empty source.
pub fn mean_trace<S: TraceSource + ?Sized>(source: &S) -> Result<Trace, TraceError> {
    let indices: Vec<usize> = (0..source.num_traces()).collect();
    crate::average::mean_of_indices(source, &indices)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating reference for [`shift_in_place`]: sample `i` of the
    /// result is sample `i + shift` of `trace`, clamped to its edges.
    fn shifted(trace: &[f64], shift: isize) -> Vec<f64> {
        let n = trace.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n as isize {
            let j = (i + shift).clamp(0, n as isize - 1) as usize;
            out.push(trace[j]);
        }
        out
    }

    fn wave(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.35 + phase).sin()).collect()
    }

    #[test]
    fn best_shift_finds_injected_delay() {
        let reference = wave(200, 0.0);
        for inject in [-4isize, -1, 0, 2, 5] {
            let delayed = shifted(&reference, inject);
            let found = best_shift(&reference, &delayed, 8).unwrap();
            assert_eq!(found, -inject, "injected {inject}");
        }
    }

    #[test]
    fn shifted_preserves_length_and_pads_edges() {
        let t = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(shifted(&t, 1), vec![2.0, 3.0, 4.0, 4.0]);
        assert_eq!(shifted(&t, -1), vec![1.0, 1.0, 2.0, 3.0]);
        assert_eq!(shifted(&t, 0), t);
        assert!(shifted(&[], 3).is_empty());
    }

    #[test]
    fn shift_in_place_matches_shifted_bit_exactly() {
        let t: Vec<f64> = (0..23)
            .map(|i| (i as f64 * 0.913 - 4.0).sin() * 3.7)
            .collect();
        for shift in -30isize..=30 {
            let want: Vec<u64> = shifted(&t, shift).iter().map(|x| x.to_bits()).collect();
            let mut buf = t.clone();
            shift_in_place(&mut buf, shift);
            let got: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "shift {shift}");
        }
        // Degenerate buffers must not panic.
        let mut empty: Vec<f64> = Vec::new();
        shift_in_place(&mut empty, 5);
        assert!(empty.is_empty());
        let mut one = vec![2.5];
        shift_in_place(&mut one, -3);
        assert_eq!(one, vec![2.5]);
    }

    #[test]
    fn shift_in_place_zero_leaves_bits_untouched() {
        let original = vec![1.0, f64::MIN_POSITIVE, -0.0, 7.25];
        let mut buf = original.clone();
        shift_in_place(&mut buf, 0);
        let got: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = original.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn jitter_offset_is_deterministic_and_bounded() {
        for max_shift in [1usize, 3, 8] {
            let bound = max_shift as isize;
            let mut seen = std::collections::BTreeSet::new();
            for index in 0..500u64 {
                let o = jitter_offset(42, index, max_shift);
                assert_eq!(o, jitter_offset(42, index, max_shift));
                assert!((-bound..=bound).contains(&o), "offset {o} max {max_shift}");
                seen.insert(o);
            }
            // The stream actually exercises the whole window.
            assert_eq!(seen.len(), 2 * max_shift + 1, "max {max_shift}");
        }
        // Different streams decorrelate.
        let a: Vec<isize> = (0..64).map(|i| jitter_offset(1, i, 4)).collect();
        let b: Vec<isize> = (0..64).map(|i| jitter_offset(2, i, 4)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_offset_saturates_huge_windows() {
        let bound = MAX_JITTER_SHIFT as isize;
        for max_shift in [usize::MAX, usize::MAX / 2 + 1, MAX_JITTER_SHIFT + 1] {
            for index in 0..64u64 {
                let o = jitter_offset(7, index, max_shift);
                assert!((-bound..=bound).contains(&o), "offset {o} max {max_shift}");
                assert_eq!(o, jitter_offset(7, index, MAX_JITTER_SHIFT));
            }
        }
    }

    #[test]
    fn jitter_offset_zero_window_injects_nothing() {
        for index in 0..32u64 {
            assert_eq!(jitter_offset(99, index, 0), 0);
        }
    }

    #[test]
    fn best_shift_rejects_tiny_windows() {
        let r = wave(10, 0.0);
        assert!(matches!(
            best_shift(&r, &r, 5),
            Err(StatsError::TooShort { .. })
        ));
    }

    #[test]
    fn align_to_first_undoes_jitter() {
        let base = wave(300, 0.0);
        let mut block = TraceBlock::new("jittery");
        for inject in [0isize, 3, -2, 5, -4] {
            block.push_row(&shifted(&base, inject)).unwrap();
        }
        let before = snr(&block).unwrap();
        let aligned = align_to_first(&block, 8).unwrap();
        let after = snr(&aligned).unwrap();
        assert!(
            after > before * 10.0,
            "alignment should boost SNR: {before} -> {after}"
        );
    }

    #[test]
    fn align_to_reference_lands_in_the_reference_frame() {
        let reference = wave(300, 0.0);
        let mut block = TraceBlock::new("shifted");
        for inject in [3isize, 3, 3] {
            // Whole block offset by the same amount: align_to_first cannot
            // fix this, align_to_reference must.
            block.push_row(&shifted(&reference, inject)).unwrap();
        }
        let aligned = align_to_reference(&block, &reference, 8).unwrap();
        assert_eq!(aligned.device(), "shifted");
        for t in aligned.rows() {
            let rho = pearson(&reference[8..292], &t.samples()[8..292]).unwrap();
            assert!(rho > 0.999, "rho = {rho}");
        }
        assert!(align_to_reference(&TraceBlock::new("e"), &reference, 4).is_err());
    }

    #[test]
    fn align_rejects_empty_set() {
        let block = TraceBlock::new("empty");
        assert!(matches!(
            align_to_first(&block, 4),
            Err(TraceError::EmptySet)
        ));
    }

    #[test]
    fn snr_matches_construction() {
        // Signal: alternating ±1 (variance 1). Noise: ±0.1 per trace
        // (variance 0.01). Expected SNR ≈ 100.
        let mut block = TraceBlock::new("s");
        for t in 0..100 {
            let noise = if t % 2 == 0 { 0.1 } else { -0.1 };
            let samples: Vec<f64> = (0..64)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } + noise)
                .collect();
            block.push_row(&samples).unwrap();
        }
        let r = snr(&block).unwrap();
        assert!((r - 99.0).abs() < 5.0, "snr = {r}");
    }

    #[test]
    fn snr_requires_two_traces_and_nonzero_noise() {
        let mut block = TraceBlock::new("s");
        block.push_row(&[1.0, 2.0]).unwrap();
        assert!(snr(&block).is_err());
        block.push_row(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            snr(&block),
            Err(TraceError::Stats(StatsError::ZeroVariance))
        ));
    }

    #[test]
    fn mean_trace_averages_elementwise() {
        let block = TraceBlock::from_data("m", 2, vec![1.0, 3.0, 3.0, 5.0]).unwrap();
        assert_eq!(mean_trace(&block).unwrap().samples(), &[2.0, 4.0]);
        assert!(mean_trace(&TraceBlock::new("e")).is_err());
    }
}
