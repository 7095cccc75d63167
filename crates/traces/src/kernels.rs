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

/// Elements per row processed between accumulator spills in the `_x4` group
/// kernels (4 KiB of f64 — a row tile stays L1-resident while the four rows
/// of a group are swept). Tiling only re-orders *scheduling across rows*;
/// each row's lane sequence is untouched, so results stay bit-identical to
/// the single-row kernels.
const TILE: usize = 512;

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
    use super::{combine, fold_remainder, LANES, TILE};

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

    /// Blocked sums of four equal-length series in one tiled sweep.
    ///
    /// Each row's lane sequence is identical to [`sum`] over that row
    /// alone, so the results are bit-identical to four separate calls. The
    /// sweep is tiled (`TILE` = 512 elements per row between spills):
    /// within a tile a single row runs with register-resident accumulators,
    /// and the four rows of the group share the tile's cache footprint.
    /// Rows longer than the shortest are truncated to its length.
    #[must_use]
    pub fn sum_x4(ys: [&[f64]; 4]) -> [f64; 4] {
        let n = ys.iter().fold(ys[0].len(), |n, y| n.min(y.len()));
        let mut lanes = [[0.0; LANES]; 4];
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let end = (base + TILE).min(full);
            for (row, y) in lanes.iter_mut().zip(ys) {
                let mut acc = *row;
                for chunk in y[base..end].chunks_exact(LANES) {
                    for j in 0..LANES {
                        acc[j] += chunk[j];
                    }
                }
                *row = acc;
            }
            base = end;
        }
        for (row, y) in lanes.iter_mut().zip(ys) {
            fold_remainder(row, &y[full..n]);
        }
        [
            combine(lanes[0]),
            combine(lanes[1]),
            combine(lanes[2]),
            combine(lanes[3]),
        ]
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

    /// Blocked `Σ (xᵢ − mean)²` in the canonical lane order.
    #[must_use]
    pub fn centered_sum_sq(xs: &[f64], mean: f64) -> f64 {
        let mut lanes = [0.0; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                let d = x - mean;
                *lane += d * d;
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
            let d = x - mean;
            *lane += d * d;
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

    /// Four [`sxy_syy`] reductions in one tiled sweep: the centered
    /// reference tile is loaded once and reused against four DUT rows while
    /// it is cache-hot.
    ///
    /// Each row's per-lane operation sequence is identical to a standalone
    /// [`sxy_syy`] call, so every `(sxy, syy)` pair is bit-identical to the
    /// single-row kernel — the tiling only changes scheduling across rows,
    /// never the per-row accumulation order. Within a tile a row's sixteen
    /// accumulators live in registers; they spill to the `sxy`/`syy` arrays
    /// only at tile boundaries. Rows longer than the reference are
    /// truncated to its length.
    #[must_use]
    pub fn sxy_syy_x4(centered: &[f64], ys: [&[f64]; 4], mys: [f64; 4]) -> [(f64, f64); 4] {
        let n = ys.iter().fold(centered.len(), |n, y| n.min(y.len()));
        let centered = &centered[..n];
        let mut sxy = [[0.0; LANES]; 4];
        let mut syy = [[0.0; LANES]; 4];
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let end = (base + TILE).min(full);
            for r in 0..4 {
                let my = mys[r];
                let mut lx = sxy[r];
                let mut ly = syy[r];
                let ctile = centered[base..end].chunks_exact(LANES);
                let ytile = ys[r][base..end].chunks_exact(LANES);
                for (cx, cy) in ctile.zip(ytile) {
                    for j in 0..LANES {
                        let dy = cy[j] - my;
                        lx[j] += cx[j] * dy;
                        ly[j] += dy * dy;
                    }
                }
                sxy[r] = lx;
                syy[r] = ly;
            }
            base = end;
        }
        let cx = &centered[full..n];
        for r in 0..4 {
            let cy = &ys[r][full..n];
            for j in 0..cx.len() {
                let dy = cy[j] - mys[r];
                sxy[r][j] += cx[j] * dy;
                syy[r][j] += dy * dy;
            }
        }
        [
            (combine(sxy[0]), combine(syy[0])),
            (combine(sxy[1]), combine(syy[1])),
            (combine(sxy[2]), combine(syy[2])),
            (combine(sxy[3]), combine(syy[3])),
        ]
    }

    /// Element-wise accumulate `accᵢ += xsᵢ` over the common prefix — the
    /// k-average gather step.
    pub fn accumulate(acc: &mut [f64], xs: &[f64]) {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a += x;
        }
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

    /// Fused k-average finalize: `accᵢ = (accᵢ + xsᵢ)·factor` over the
    /// common prefix (any excess of `acc` is scaled without an addend,
    /// exactly as the staged path leaves it), returning the blocked sum of
    /// the updated `acc` in the canonical lane order — one sweep where the
    /// staged path ([`accumulate`], [`scale`], then [`sum`]) takes three.
    /// Per element `(a + x)·factor` is the staged add-then-multiply and
    /// the sum reads the same updated values in the same lane order, so
    /// the fusion is bit-identical to the staged calls.
    #[must_use]
    pub fn accumulate_scale_sum(acc: &mut [f64], xs: &[f64], factor: f64) -> f64 {
        let n = acc.len().min(xs.len());
        let full = n - n % LANES;
        let mut lanes = [0.0; LANES];
        {
            let mut ac = acc[..full].chunks_exact_mut(LANES);
            let mut xc = xs[..full].chunks_exact(LANES);
            for (ca, cx) in ac.by_ref().zip(xc.by_ref()) {
                for (j, (a, &x)) in ca.iter_mut().zip(cx).enumerate() {
                    let v = (*a + x) * factor;
                    *a = v;
                    lanes[j] += v;
                }
            }
        }
        // Tail: the paired remainder (global index `full + j`, lane
        // `j % LANES` because `full` is a multiple of LANES) plus any
        // excess of `acc` past `xs`, which is scaled and summed only.
        for (j, a) in acc[full..].iter_mut().enumerate() {
            let v = if full + j < n {
                (*a + xs[full + j]) * factor
            } else {
                *a * factor
            };
            *a = v;
            lanes[j % LANES] += v;
        }
        combine(lanes)
    }

    /// Blocked Pearson numerator `Σ cxᵢ·(yᵢ − my)` alone — the
    /// multi-reference remainder kernel. Per lane it performs exactly the
    /// `sxy` half of [`sxy_syy`] (same `dy`, same multiply, same order),
    /// so the value is bit-identical to `sxy_syy(..).0`.
    #[must_use]
    pub fn sxy(centered: &[f64], y: &[f64], my: f64) -> f64 {
        let n = centered.len().min(y.len());
        let (centered, y) = (&centered[..n], &y[..n]);
        let mut lanes = [0.0; LANES];
        let mut cc = centered.chunks_exact(LANES);
        let mut yc = y.chunks_exact(LANES);
        for (cx, cy) in cc.by_ref().zip(yc.by_ref()) {
            for (j, (&x, &b)) in cx.iter().zip(cy).enumerate() {
                let dy = b - my;
                lanes[j] += x * dy;
            }
        }
        for (j, (&x, &b)) in cc.remainder().iter().zip(yc.remainder()).enumerate() {
            let dy = b - my;
            lanes[j] += x * dy;
        }
        combine(lanes)
    }

    /// Four Pearson numerators of one DUT row against four centered
    /// references in a single tiled sweep — the multi-reference screening
    /// group kernel (the transpose of [`sxy_syy_x4`]: one `y` stream, four
    /// reference streams). The DUT tile stays cache-hot across the four
    /// references, and the reference-independent `Σ (yᵢ − my)²` term is
    /// left to one [`centered_sum_sq`] call per row instead of being
    /// recomputed per reference.
    ///
    /// Each reference's per-lane operation sequence is identical to a
    /// standalone [`sxy`] call, so every numerator is bit-identical to the
    /// single-reference kernel. References longer than the row are
    /// truncated to the common length.
    #[must_use]
    pub fn sxy_refs_x4(centereds: [&[f64]; 4], y: &[f64], my: f64) -> [f64; 4] {
        let n = centereds.iter().fold(y.len(), |n, c| n.min(c.len()));
        let y = &y[..n];
        let mut sxy = [[0.0; LANES]; 4];
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let end = (base + TILE).min(full);
            for (row, c) in sxy.iter_mut().zip(centereds) {
                let mut lx = *row;
                let ctile = c[base..end].chunks_exact(LANES);
                let ytile = y[base..end].chunks_exact(LANES);
                for (cx, cy) in ctile.zip(ytile) {
                    for j in 0..LANES {
                        let dy = cy[j] - my;
                        lx[j] += cx[j] * dy;
                    }
                }
                *row = lx;
            }
            base = end;
        }
        let cy = &y[full..n];
        let mut out = [0.0; 4];
        for ((o, row), c) in out.iter_mut().zip(&mut sxy).zip(centereds) {
            let cx = &c[full..n];
            for j in 0..cx.len() {
                let dy = cy[j] - my;
                row[j] += cx[j] * dy;
            }
            *o = combine(*row);
        }
        out
    }
}

pub use scalar::{
    accumulate, accumulate_scale_sum, centered_sum_sq, dot, scale, scale_sum, sum, sum_x4, sxy,
    sxy_refs_x4, sxy_syy, sxy_syy_x4,
};

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
    fn sum_x4_rows_match_single_row_sum() {
        for n in [0, 5, 8, 64, 257] {
            let rows: Vec<Vec<f64>> = (0..4).map(|r| series(n, 10 + r)).collect();
            let batched = sum_x4([&rows[0], &rows[1], &rows[2], &rows[3]]);
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(batched[r].to_bits(), sum(row).to_bits(), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn sxy_syy_x4_rows_match_single_row_kernel() {
        for n in [2, 8, 31, 200] {
            let centered = series(n, 5);
            let rows: Vec<Vec<f64>> = (0..4).map(|r| series(n, 20 + r)).collect();
            let mys = [0.1, -0.3, 0.0, 0.7];
            let batched = sxy_syy_x4(&centered, [&rows[0], &rows[1], &rows[2], &rows[3]], mys);
            for (r, row) in rows.iter().enumerate() {
                let single = sxy_syy(&centered, row, mys[r]);
                assert_eq!(
                    batched[r].0.to_bits(),
                    single.0.to_bits(),
                    "sxy n={n} r={r}"
                );
                assert_eq!(
                    batched[r].1.to_bits(),
                    single.1.to_bits(),
                    "syy n={n} r={r}"
                );
            }
        }
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
    fn fused_accumulate_scale_sum_matches_staged_path() {
        // Equal lengths (the workspace case) plus a longer-acc tail, which
        // the staged path scales and sums without an addend.
        for (na, nx) in [(0, 0), (8, 8), (77, 77), (513, 513), (20, 13), (13, 20)] {
            let xs = series(nx, 9);
            let base = series(na, 10);
            let factor = 0.25;
            let mut staged = base.clone();
            accumulate(&mut staged, &xs);
            scale(&mut staged, factor);
            let want = sum(&staged);
            let mut fused = base.clone();
            let got = accumulate_scale_sum(&mut fused, &xs, factor);
            assert_eq!(got.to_bits(), want.to_bits(), "na={na} nx={nx}");
            assert_eq!(fused, staged, "buffer na={na} nx={nx}");
        }
    }

    #[test]
    fn sxy_alone_matches_the_sxy_half_of_sxy_syy() {
        for n in [0, 2, 8, 31, 513] {
            let centered = series(n, 11);
            let y = series(n, 12);
            let my = 0.125;
            let want = sxy_syy(&centered, &y, my).0;
            assert_eq!(sxy(&centered, &y, my).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn sxy_refs_x4_matches_single_reference_sxy() {
        for n in [0, 2, 8, 31, 200, 1200] {
            let refs: Vec<Vec<f64>> = (0..4).map(|r| series(n, 30 + r)).collect();
            let y = series(n, 40);
            let my = -0.375;
            let batched = sxy_refs_x4([&refs[0], &refs[1], &refs[2], &refs[3]], &y, my);
            for (r, c) in refs.iter().enumerate() {
                assert_eq!(
                    batched[r].to_bits(),
                    sxy(c, &y, my).to_bits(),
                    "n={n} r={r}"
                );
            }
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
            let mut plain2 = blocked.clone();
            scale(&mut blocked, 1.0 / 3.0);
            for a in &mut plain2 {
                *a *= 1.0 / 3.0;
            }
            assert_eq!(blocked, plain2, "scale n={n}");
        }
    }
}
