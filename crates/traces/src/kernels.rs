//! Canonical blocked reduction kernels — the workspace's single summation
//! order.
//!
//! Every floating-point reduction in the numeric stack (means, dot
//! products, centered sums of squares, the fused Pearson `sxy`/`syy` pair,
//! and the k-average accumulate/scale steps) routes through this module, so
//! there is exactly one accumulation order to reason about, bless, and
//! optimize.
//!
//! # The fixed-lane blocked order
//!
//! A reduction over `n` elements runs [`LANES`] = 8 independent
//! accumulators: element `i` always lands in lane `i % LANES`, and the
//! lanes are combined in the fixed tree
//! `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. Lane assignment depends
//! only on the element index — never on thread count, CPU features, or
//! chunk sizes — so the result is deterministic everywhere, while the
//! eight independent dependency chains let LLVM auto-vectorize what used
//! to be a serial `acc += x` chain.
//!
//! # One implementation
//!
//! The private `scalar` module holds the only implementation, re-exported
//! here: plain blocked loops over `[f64; LANES]` accumulators, relying on
//! auto-vectorization for the build target's vector registers
//! ([`isa_name`]). Rust never contracts `a * b + c` into a fused
//! multiply-add, so a build with wider target features performs the same
//! f64 operations per lane in the same order and gives the same bits
//! (DESIGN.md §16).
//!
//! Element-wise kernels ([`accumulate`], [`scale`]) are included for
//! completeness of the canonical numeric entry points; their per-element
//! operation order is trivially independent of blocking.

/// Number of independent accumulator lanes in the canonical blocked order.
pub const LANES: usize = 8;

/// Combines the eight lane accumulators in the canonical fixed tree:
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
#[inline]
#[must_use]
pub fn combine(lanes: [f64; LANES]) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Folds a remainder (fewer than [`LANES`] trailing elements) into the lane
/// accumulators: remainder element `j` has global index `≡ j (mod LANES)`,
/// so it belongs to lane `j`.
#[inline]
fn fold_remainder(lanes: &mut [f64; LANES], rem: &[f64]) {
    for (lane, &x) in lanes.iter_mut().zip(rem) {
        *lane += x;
    }
}

/// Scalar blocked implementation (auto-vectorized) — the only one.
mod scalar {
    use super::{combine, fold_remainder, LANES};

    /// Blocked sum of a series in the canonical lane order.
    #[must_use]
    pub fn sum(xs: &[f64]) -> f64 {
        let mut lanes = [0.0; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        fold_remainder(&mut lanes, chunks.remainder());
        combine(lanes)
    }

    /// Blocked dot product `Σ xᵢ·yᵢ` over the common prefix of the two
    /// series, in the canonical lane order.
    #[must_use]
    pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let mut lanes = [0.0; LANES];
        let mut xc = xs.chunks_exact(LANES);
        let mut yc = ys.chunks_exact(LANES);
        for (cx, cy) in xc.by_ref().zip(yc.by_ref()) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(cx.iter().zip(cy)) {
                *lane += x * y;
            }
        }
        for (lane, (&x, &y)) in lanes
            .iter_mut()
            .zip(xc.remainder().iter().zip(yc.remainder()))
        {
            *lane += x * y;
        }
        combine(lanes)
    }

    /// Fused blocked `(Σ cxᵢ·(yᵢ − my), Σ (yᵢ − my)²)` over the common
    /// prefix — the Pearson numerator and DUT-side denominator in one
    /// sweep, each in the canonical lane order.
    #[must_use]
    pub fn sxy_syy(centered: &[f64], y: &[f64], my: f64) -> (f64, f64) {
        let n = centered.len().min(y.len());
        let (centered, y) = (&centered[..n], &y[..n]);
        let mut sxy = [0.0; LANES];
        let mut syy = [0.0; LANES];
        let mut cc = centered.chunks_exact(LANES);
        let mut yc = y.chunks_exact(LANES);
        for (cx, cy) in cc.by_ref().zip(yc.by_ref()) {
            for (j, (&x, &b)) in cx.iter().zip(cy).enumerate() {
                let dy = b - my;
                sxy[j] += x * dy;
                syy[j] += dy * dy;
            }
        }
        for (j, (&x, &b)) in cc.remainder().iter().zip(yc.remainder()).enumerate() {
            let dy = b - my;
            sxy[j] += x * dy;
            syy[j] += dy * dy;
        }
        (combine(sxy), combine(syy))
    }

    /// Element-wise accumulate `accᵢ += xsᵢ` over the common prefix — the
    /// k-average gather step.
    pub fn accumulate(acc: &mut [f64], xs: &[f64]) {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a += x;
        }
    }

    /// Element-wise accumulate of little-endian encoded samples:
    /// `accᵢ += f64::from_le_bytes(wordᵢ)` over the common prefix of `acc`
    /// and the whole 8-byte words of `bytes`. Per element this is the
    /// [`accumulate`] add, so a row read as bytes sums to the same bits as
    /// the same row read as `f64`s.
    #[cfg(any(test, all(unix, target_endian = "little")))]
    pub fn accumulate_le_bytes(acc: &mut [f64], bytes: &[u8]) {
        let (words, _) = bytes.as_chunks::<8>();
        for (a, w) in acc.iter_mut().zip(words) {
            *a += f64::from_le_bytes(*w);
        }
    }

    /// Appends `f64::from_le_bytes(wordᵢ)` for every whole 8-byte word of
    /// `bytes` to `out`: the bit-for-bit copy of a row read as bytes.
    #[cfg(any(test, all(unix, target_endian = "little")))]
    pub fn extend_le_bytes(out: &mut Vec<f64>, bytes: &[u8]) {
        let (words, _) = bytes.as_chunks::<8>();
        out.extend(words.iter().map(|w| f64::from_le_bytes(*w)));
    }

    /// Element-wise scale `accᵢ *= factor` — the k-average divide step.
    pub fn scale(acc: &mut [f64], factor: f64) {
        for a in acc {
            *a *= factor;
        }
    }

    /// Fused scale-and-sum: `accᵢ *= factor` while the scaled values are
    /// summed in the canonical lane order — one sweep where the staged
    /// path ([`scale`] then [`sum`]) takes two. Per element the multiply
    /// is the staged multiply and the sum reads the same updated value in
    /// the same lane, so the result is bit-identical to the staged calls.
    #[must_use]
    pub fn scale_sum(acc: &mut [f64], factor: f64) -> f64 {
        let mut lanes = [0.0; LANES];
        let mut chunks = acc.chunks_exact_mut(LANES);
        for chunk in chunks.by_ref() {
            for (lane, a) in lanes.iter_mut().zip(chunk.iter_mut()) {
                let v = *a * factor;
                *a = v;
                *lane += v;
            }
        }
        for (lane, a) in lanes.iter_mut().zip(chunks.into_remainder()) {
            let v = *a * factor;
            *a = v;
            *lane += v;
        }
        combine(lanes)
    }
}

pub use scalar::{accumulate, dot, scale, scale_sum, sum, sxy_syy};
// Used by the stored source's positioned reads, which only the targets
// that read files in place have.
#[cfg(any(test, all(unix, target_endian = "little")))]
pub(crate) use scalar::{accumulate_le_bytes, extend_le_bytes};

/// Names the widest vector instruction set the kernels are compiled for:
/// `avx512f`, `avx2`, `neon`, or `portable` for the target's baseline
/// (SSE2 on x86-64). The build's target features decide it (for example
/// `RUSTFLAGS="-C target-cpu=native"`); nothing is selected at run time.
#[must_use]
pub const fn isa_name() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (((i as u64)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    >> 33) as f64
                    / 2.0_f64.powi(30))
                .sin()
            })
            .collect()
    }

    #[test]
    fn sum_matches_naive_within_tolerance() {
        let xs = series(1000, 2);
        let naive: f64 = xs.iter().sum();
        let blocked = sum(&xs);
        assert!((naive - blocked).abs() <= 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn fused_scale_sum_matches_staged_scale_then_sum() {
        for n in [0, 1, 7, 8, 9, 100, 1025] {
            let base = series(n, 8);
            let factor = 1.0 / 7.0;
            let mut staged = base.clone();
            scale(&mut staged, factor);
            let want = sum(&staged);
            let mut fused = base.clone();
            let got = scale_sum(&mut fused, factor);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            assert_eq!(fused, staged, "buffer n={n}");
        }
    }

    #[test]
    fn accumulate_and_scale_match_plain_elementwise() {
        for n in [0, 1, 8, 77] {
            let xs = series(n, 6);
            let mut blocked = series(n, 7);
            let mut plain = blocked.clone();
            accumulate(&mut blocked, &xs);
            for (a, &x) in plain.iter_mut().zip(&xs) {
                *a += x;
            }
            assert_eq!(blocked, plain, "accumulate n={n}");
            let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
            let mut from_bytes = series(n, 7);
            accumulate_le_bytes(&mut from_bytes, &bytes);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&from_bytes),
                bits(&blocked),
                "accumulate_le_bytes n={n}"
            );
            let mut plain2 = blocked.clone();
            scale(&mut blocked, 1.0 / 3.0);
            for a in &mut plain2 {
                *a *= 1.0 / 3.0;
            }
            assert_eq!(blocked, plain2, "scale n={n}");
        }
    }
}
