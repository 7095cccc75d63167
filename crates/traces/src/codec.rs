//! The `IPMKTRC3` quantized + delta-encoded trace codec.
//!
//! `IPMKTRC2` ships every sample as a raw 8-byte `f64`, but the samples of
//! a real campaign originate as ≤ 12-bit ADC codes: the information content
//! of a row is `offset + code · scale` with a small integer `code`. This
//! module encodes each row as exactly that — per-row quantization metadata
//! plus integer codes, delta-encoded sample to sample and bit-packed at the
//! minimal width — while keeping the one invariant the whole codebase's
//! golden-vector story rests on: **decoding reconstructs the original
//! `f64` bits exactly**.
//!
//! ## Exactness argument
//!
//! The decoder reconstructs sample `j` of a quantized row as
//!
//! ```text
//! f64: offset + (code_j as f64) * scale
//! ```
//!
//! — one fixed f64 expression. The encoder *verifies*, per sample, that
//! this very expression over the metadata it is about to write reproduces
//! the source sample's bit pattern (`to_bits` equality). A row where any
//! sample fails the check — non-finite values, `-0.0`, codes past 2⁵³,
//! data that never was on an ADC grid — is stored verbatim under a raw-f64
//! row flag instead. Encoding is therefore *always* lossless; quantization
//! is an opportunistic wire-size optimization, never a semantic change.
//!
//! Because the encoder is a pure function of the row's sample bits plus
//! the optional [`AdcDomain`] hint (scale detection, code derivation and
//! the fallback decision use nothing else, in a fixed candidate order),
//! `encode(decode(encode(B))) == encode(B)` byte for byte under the same
//! hint — the re-encode stability the tier-2 golden suite pins.
//!
//! ## Row layout
//!
//! ```text
//! flag: u8              0 = quantized, 1 = raw f64
//! raw row:       trace_len × f64 LE
//! quantized row: scale f64 LE | offset f64 LE | first_code u64 LE |
//!                width u8 | ceil((trace_len-1)·width / 8) bytes of
//!                LSB-first zigzag(code_j - code_{j-1}) fields
//! ```
//!
//! For a 12-bit ADC a worst-case delta needs 13 zigzag bits, so a
//! quantized row costs ~`trace_len · 13 / 8` bytes against `trace_len · 8`
//! raw — a ≥ 4× reduction before the deltas of a smooth trace shrink the
//! width further (see `ipmark-bench --bin wire`, BENCH_7.json).
//!
//! ## Writing
//!
//! The encoder takes rows 256 at a time and hands pieces of 16 rows to the
//! environment's pool; each piece encodes into its own buffer, and the
//! pieces are written in row order through the 1 MiB buffer of the
//! writers in [`crate::io`]. A row's bytes depend on that row alone, so
//! the file is the same at every thread count. Per row, the hinted path
//! derives and checks the codes and their delta width in one pass over a
//! reused scratch buffer, then packs each group of eight zigzag deltas
//! into exactly `width` bytes — the mirror of the decoder's group unpack.

use std::io::{BufRead, Write};

use ipmark_parallel::Pool;

use crate::block::TraceBlock;
use crate::error::TraceError;
use crate::io::{ChunkWriter, IoError};

/// Codes are capped below 2⁵³ so `code as f64` is exact and consecutive
/// deltas fit an `i64`; rows needing larger codes fall back to raw.
const MAX_CODE: u64 = 1 << 53;

/// Row flag: quantized codes follow.
const FLAG_QUANTIZED: u8 = 0;
/// Row flag: raw little-endian f64 samples follow.
const FLAG_RAW: u8 = 1;

/// The ADC transfer function: the `(scale, offset)` grid that maps integer
/// sample codes to measured values, `value = offset + code · scale`.
///
/// Acquisition in this workspace synthesizes ideal `f64` power values; an
/// [`AdcDomain`] models the scope front-end that real campaigns pass
/// through, snapping every sample onto the code grid. Blocks quantized
/// through a domain are exactly representable in `IPMKTRC3`'s quantized
/// rows, which is where the wire-size win comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcDomain {
    scale: f64,
    offset: f64,
    levels: u64,
}

impl AdcDomain {
    /// A domain spanning `[vmin, vmax]` with a `bits`-wide ADC
    /// (`2^bits` levels, `scale = (vmax - vmin) / (2^bits - 1)`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptySet`] for `bits == 0` or `bits > 32`
    /// and non-finite or inverted ranges (there is no better-fitting
    /// variant; the message-bearing validation lives in the CLI).
    pub fn from_range(vmin: f64, vmax: f64, bits: u32) -> Result<Self, TraceError> {
        if !(1..=32).contains(&bits) || !vmin.is_finite() || !vmax.is_finite() || vmax <= vmin {
            return Err(TraceError::EmptySet);
        }
        let levels = 1u64 << bits;
        Ok(Self {
            scale: (vmax - vmin) / (levels - 1) as f64,
            offset: vmin,
            levels,
        })
    }

    /// The voltage step between adjacent codes.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The value of code 0.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Number of representable codes (`2^bits`).
    pub fn levels(&self) -> u64 {
        self.levels
    }

    /// Snaps one value onto the code grid: the clamped nearest code,
    /// mapped back through the decoder's reconstruction expression
    /// (`offset + code · scale`), so a quantized value re-quantizes to
    /// itself bit-exactly.
    ///
    /// The nearest code rounds half away from zero, as `f64::round` does,
    /// without a libm call: with `q = (value − offset) / scale`, a `q`
    /// below ½ (or NaN, or a non-finite `value`) is code 0, a `q` at or
    /// above `levels − 1.5` is the top code, and any other `q` is its
    /// truncation `t` plus one when `q − t ≥ ½`. There `½ ≤ q < 2³²`, so
    /// `t` comes exactly from the 2⁵² rounding constant and `q − t` is
    /// exact: the test matches `round` bit for bit. The code stays an
    /// integral `f64` below 2³² throughout, the same value `code as f64`
    /// would give, so the loop has no integer conversion and vectorizes.
    pub fn quantize(&self, value: f64) -> f64 {
        const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
        let q = (value - self.offset) / self.scale;
        let top = (self.levels - 1) as f64;
        let nearest = (q + MAGIC) - MAGIC;
        let t = nearest - if nearest > q { 1.0 } else { 0.0 };
        let code = if !value.is_finite() || q.is_nan() || q < 0.5 {
            0.0
        } else if q >= top - 0.5 {
            top
        } else {
            t + if q - t >= 0.5 { 1.0 } else { 0.0 }
        };
        self.offset + code * self.scale
    }

    /// Quantizes every sample of a block in place, rows fanned out over
    /// the environment's pool ([`Pool::from_env`]). Each sample is
    /// quantized on its own, so the result does not depend on the thread
    /// count.
    pub fn quantize_block(&self, block: &mut TraceBlock) {
        self.quantize_block_on(&Pool::from_env(), block);
    }

    /// [`AdcDomain::quantize_block`] on an explicit pool.
    pub(crate) fn quantize_block_on(&self, pool: &Pool, block: &mut TraceBlock) {
        let row_len = block.trace_len();
        // A copy, so the loop keeps the grid in registers instead of
        // reloading it after every store into the row.
        let domain = *self;
        let quantize_row = move |row: &mut [f64]| {
            for s in row {
                *s = domain.quantize(*s);
            }
        };
        let samples = block.samples_mut();
        if samples.len() < PARALLEL_MIN_SAMPLES {
            quantize_row(samples);
            return;
        }
        let filled: Result<(), std::convert::Infallible> =
            pool.try_fill_rows(samples, row_len, |_, row| {
                quantize_row(row);
                Ok(())
            });
        let Ok(()) = filled;
    }
}

/// Zigzag encoding: maps a signed delta onto an unsigned field so small
/// magnitudes of either sign pack into few bits.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bits needed to represent `v` (0 for 0).
fn bit_width(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// A row's quantization grid and the minimal bit width of its
/// zigzag-encoded code deltas; the codes themselves are in the caller's
/// scratch buffer.
struct QuantizedRow {
    scale: f64,
    offset: f64,
    width: u32,
}

/// Nearest-integer rounding via the 2^52 magic constant: two additions
/// that auto-vectorize on every target, where `round`/`round_ties_even`
/// lower to libm calls on baseline x86-64. Any nearest rounding works for
/// candidate codes — the exactness gate decides, not the tie rule.
///
/// Guarantee the code paths below rely on: whenever the result is `>= 0`
/// it is exactly integral. For `x >= 0` the trick rounds to an integer
/// outright; for `x` in `(-2^51, 0)` the sum lands where the f64 grid
/// spacing is 0.5, but every non-integral result there is `<= -0.5` and
/// the `0.0..` range gate rejects it.
#[inline]
fn round_nearest(x: f64) -> f64 {
    const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    let t = (x + MAGIC) - MAGIC;
    if x.abs() < MAGIC {
        t
    } else {
        x
    }
}

/// Derives the integer code of one sample on a candidate grid and applies
/// the exactness gate: the decoder's reconstruction expression must
/// reproduce the source bits, or there is no code.
#[inline]
fn code_for(s: f64, scale: f64, offset: f64) -> Option<u64> {
    let raw = round_nearest((s - offset) / scale);
    if !(0.0..(MAX_CODE as f64)).contains(&raw) {
        return None;
    }
    let code = raw as u64;
    if (offset + (code as f64) * scale).to_bits() == s.to_bits() {
        Some(code)
    } else {
        None
    }
}

/// Full-row code derivation for one `(scale, offset)` candidate into
/// `codes`, returning the minimal delta width, with a cheap strided
/// pre-screen so the many candidates a detection ladder tries cost O(1)
/// each until one actually fits. `codes` is overwritten either way.
fn derive_codes(samples: &[f64], scale: f64, offset: f64, codes: &mut Vec<u64>) -> Option<u32> {
    let step = (samples.len() / 16).max(1);
    if !samples
        .iter()
        .step_by(step)
        .all(|&s| code_for(s, scale, offset).is_some())
    {
        return None;
    }
    // Fast pass: reciprocal-multiply candidates with a branchless pure-f64
    // verification sweep, so the loop pipelines (and auto-vectorizes)
    // instead of stalling on a division + early-exit every sample. `raw`
    // is integral and in `[0, 2^53)` when the range gate holds, so
    // `raw == (raw as u64) as f64` and verifying against `raw` IS the
    // decoder expression on the eventual code. The multiply can land one
    // code off where the division would not; the exactness gate catches
    // that, and the exact pass below retries before giving up on the row.
    let inv = scale.recip();
    let &head = samples.first()?;
    let mut ok = true;
    let mut zacc = 0u64; // OR of all zigzag deltas: bit_width(a|b) = max of widths

    // The first sample's delta against itself is 0, which leaves `zacc` as
    // it is, so one loop covers the whole row.
    let mut prev = round_nearest((head - offset) * inv) as i64;
    codes.clear();
    codes.extend(samples.iter().map(|&s| {
        let raw = round_nearest((s - offset) * inv);
        ok &= (raw >= 0.0)
            & (raw < MAX_CODE as f64)
            & ((offset + raw * scale).to_bits() == s.to_bits());
        let code = raw as i64;
        zacc |= zigzag(code.wrapping_sub(prev));
        prev = code;
        code as u64
    }));
    if ok {
        return Some(bit_width(zacc));
    }
    codes.clear();
    let mut width = 0u32;
    let mut prev = 0i64;
    for (j, &s) in samples.iter().enumerate() {
        let code = code_for(s, scale, offset)?;
        if j > 0 {
            width = width.max(bit_width(zigzag(code as i64 - prev)));
        }
        prev = code as i64;
        codes.push(code);
    }
    Some(width)
}

/// Moves a positive finite value by `steps` ULPs (identity otherwise).
fn nudge(x: f64, steps: i64) -> f64 {
    if !x.is_finite() || x <= 0.0 {
        return x;
    }
    let bits = x.to_bits() as i64 + steps;
    if bits <= 0 {
        return x;
    }
    f64::from_bits(bits as u64)
}

/// Detects the code grid of one row and derives exact integer codes.
///
/// Detection is a fixed candidate ladder — so the function is pure in the
/// row's sample bits plus the optional `(scale, offset)` domain hint — and
/// every candidate must pass the per-sample [`code_for`] exactness gate
/// before it is accepted:
///
/// 1. the caller's ADC domain hint (a pipeline that knows its scope
///    front-end skips detection entirely);
/// 2. the constant row (scale 0, every code 0), when the offset
///    self-reconstructs (`-0.0` does not: `-0.0 + 0.0 == +0.0`);
/// 3. harvested grids: offsets from `{row minimum, 0.0}`, base spacings
///    from the smallest positive sample-to-offset delta, divided by small
///    integers (coarse sub-grids where e.g. only even codes occur) and
///    probed ±2 ULPs (a base harvested from `fl(k·scale)` for small `k`
///    sits within a couple of ULPs of the true scale).
///
/// Rounding makes `fl(offset + c·scale)` land off the real-number grid,
/// so no harvesting heuristic can be complete; the gate means a missed
/// grid only ever costs the raw fallback, never correctness.
fn quantize_row(
    samples: &[f64],
    hint: Option<(f64, f64)>,
    codes: &mut Vec<u64>,
) -> Option<QuantizedRow> {
    let &head = samples.first()?;

    // The hint is tried before any row scan: its verification sweep
    // already rejects non-finite samples (NaN/inf never reproduce their
    // bits through the reconstruction expression), so the happy path of
    // production encodes does no redundant passes.
    if let Some((scale, offset)) = hint {
        if scale.is_finite() && scale > 0.0 && offset.is_finite() {
            if let Some(width) = derive_codes(samples, scale, offset, codes) {
                return Some(QuantizedRow {
                    scale,
                    offset,
                    width,
                });
            }
        }
    }

    let mut min = f64::INFINITY;
    for &s in samples {
        if !s.is_finite() {
            return None;
        }
        if s < min {
            min = s;
        }
    }

    if samples.iter().all(|s| s.to_bits() == head.to_bits()) {
        if (head + 0.0).to_bits() == head.to_bits() {
            codes.clear();
            codes.resize(samples.len(), 0);
            return Some(QuantizedRow {
                scale: 0.0,
                offset: head,
                width: 0,
            });
        }
        return None;
    }

    let mut d_min = f64::INFINITY;
    for &s in samples {
        let d = s - min;
        if d > 0.0 && d < d_min {
            d_min = d;
        }
    }
    // Offset 0.0 is only a distinct candidate for all-positive rows (codes
    // are unsigned); its base spacing is the smallest sample itself.
    let candidates = [Some((min, d_min)), (min > 0.0).then_some((0.0, min))];
    for (offset, base) in candidates.into_iter().flatten() {
        for k in 1..=8u32 {
            let coarse = base / f64::from(k);
            for steps in [0i64, -1, 1, -2, 2] {
                let scale = nudge(coarse, steps);
                if !scale.is_finite() || scale <= 0.0 {
                    continue;
                }
                if let Some(width) = derive_codes(samples, scale, offset, codes) {
                    return Some(QuantizedRow {
                        scale,
                        offset,
                        width,
                    });
                }
            }
        }
    }
    None
}

/// Serializes one block's rows (everything after the 24-byte header) in
/// the `IPMKTRC3` row layout.
///
/// `domain`, when given, is tried as the first quantization candidate for
/// every row — the fast, robust path for pipelines that know the ADC their
/// samples came through. Rows the domain does not reproduce bit-exactly
/// still go through grid detection and, failing that, the raw fallback.
///
/// Rows are encoded [`BATCH_ROWS`] at a time on `pool`: the batch is
/// split into pieces of [`ENCODE_ROWS`] rows, each piece is encoded into
/// its own byte buffer, and the pieces go to `w` in row order. Each row's
/// bytes are a pure function of its samples and the hint, so the output
/// does not depend on the thread count.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub(crate) fn write_rows<W: Write>(
    pool: &Pool,
    block: &TraceBlock,
    w: &mut ChunkWriter<W>,
    domain: Option<&AdcDomain>,
) -> Result<(), IoError> {
    let hint = domain.map(|d| (d.scale(), d.offset()));
    let trace_len = block.trace_len();
    if trace_len == 0 {
        return Ok(());
    }
    let inline = Pool::with_threads(1);
    for batch in block.samples().chunks(BATCH_ROWS * trace_len) {
        let pool = if batch.len() < PARALLEL_MIN_SAMPLES {
            &inline
        } else {
            pool
        };
        let pieces: Vec<&[f64]> = batch.chunks(ENCODE_ROWS * trace_len).collect();
        let encoded = pool.map_indexed(pieces.len(), |p| {
            let mut out = Vec::new();
            let mut codes = Vec::with_capacity(trace_len);
            for row in pieces.get(p).copied().unwrap_or_default().chunks(trace_len) {
                encode_row(row, hint, &mut codes, &mut out);
            }
            out
        });
        for piece in &encoded {
            w.put(piece)?;
        }
    }
    Ok(())
}

/// Appends one row in the `IPMKTRC3` row layout to `out`; `codes` is
/// scratch.
fn encode_row(samples: &[f64], hint: Option<(f64, f64)>, codes: &mut Vec<u64>, out: &mut Vec<u8>) {
    let Some(q) = quantize_row(samples, hint, codes) else {
        out.push(FLAG_RAW);
        let at = out.len();
        out.resize(at + samples.len() * 8, 0);
        let words = out.get_mut(at..).unwrap_or_default().as_chunks_mut::<8>().0;
        for (word, s) in words.iter_mut().zip(samples) {
            *word = s.to_le_bytes();
        }
        return;
    };
    let first = codes.first().copied().unwrap_or(0);
    out.push(FLAG_QUANTIZED);
    out.extend_from_slice(&q.scale.to_le_bytes());
    out.extend_from_slice(&q.offset.to_le_bytes());
    out.extend_from_slice(&first.to_le_bytes());
    out.push(q.width as u8);
    pack_deltas(codes, q.width, out);
}

/// Appends the zigzag deltas of `codes` packed LSB-first at `width` bits
/// each: `ceil((codes.len() − 1) · width / 8)` bytes, zero-padded. Codes
/// are < 2⁵³, so the deltas are exact.
///
/// The mirror of [`fill_quantized`]: eight fields fill exactly `width`
/// bytes, so group `g` is packed by [`pack8`] at byte `g · width` of a
/// zeroed tail that ends 8 bytes past the last group, and the tail is then
/// cut to the payload length. Widths up to 32 get a literal-width body,
/// as in the decoder.
fn pack_deltas(codes: &[u64], width: u32, out: &mut Vec<u8>) {
    let Some((&first, tail)) = codes.split_first() else {
        return;
    };
    let step = width as usize;
    let at = out.len();
    out.resize(at + tail.len().div_ceil(8) * step + 8, 0);
    let dst = out.get_mut(at..).unwrap_or_default();
    macro_rules! by_width {
        ($($w:literal)+) => {
            match width {
                $($w => pack_groups(dst, first, tail, $w),)+
                _ => pack_groups(dst, first, tail, width),
            }
        };
    }
    by_width!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    );
    out.truncate(at + (tail.len() * step).div_ceil(8));
}

/// Packs the zigzag deltas of `tail` (continuing from code `first`) into
/// `dst`, which holds `ceil(tail.len() / 8) · width + 8` zero bytes.
#[inline(always)]
fn pack_groups(dst: &mut [u8], first: u64, tail: &[u64], width: u32) {
    let step = width as usize;
    let mut prev = first;
    let mut delta = |code: u64| {
        let field = zigzag(code.wrapping_sub(prev) as i64);
        prev = code;
        field
    };
    let (groups, rest) = tail.as_chunks::<8>();
    for (g, group) in groups.iter().enumerate() {
        pack8(
            &mut dst[g * step..g * step + step + 8],
            group.map(&mut delta),
            width,
        );
    }
    if !rest.is_empty() {
        // The last, partial group: its missing fields pack as zeros, which
        // is the zero padding.
        let mut fields = [0u64; 8];
        for (field, &code) in fields.iter_mut().zip(rest) {
            *field = delta(code);
        }
        let g = groups.len();
        pack8(&mut dst[g * step..g * step + step + 8], fields, width);
    }
}

/// Packs eight `width`-bit fields LSB-first into the first `width` bytes
/// of `dst` (`width + 8` bytes): the inverse of [`unpack8`]. Fields go
/// through a `u128` accumulator and leave it as whole little-endian
/// words, the last of which may reach 8 bytes past the group; those
/// bytes hold zeros and the next group overwrites them.
#[inline(always)]
fn pack8(dst: &mut [u8], fields: [u64; 8], width: u32) {
    let mut acc = 0u128;
    let mut nbits = 0u32;
    let mut at = 0;
    for field in fields {
        acc |= u128::from(field) << nbits;
        nbits += width;
        if nbits >= 64 {
            dst[at..at + 8].copy_from_slice(&(acc as u64).to_le_bytes());
            at += 8;
            acc >>= 64;
            nbits -= 64;
        }
    }
    // `at` is at most `width` here: 8 fields hold `8 · width` bits.
    dst[at..at + 8].copy_from_slice(&(acc as u64).to_le_bytes());
}

/// Rows per piece of an encode batch: the unit one worker claims.
const ENCODE_ROWS: usize = 16;

/// Rows per decode or encode batch: enough to give every worker a few
/// dozen rows per spawn, few enough that the batch's bytes stay near 1 MB
/// for paper-scale 12-bit rows (4 MiB for raw 2 048-sample rows).
const BATCH_ROWS: usize = 256;

/// Zero bytes after every payload in the batch buffer. A row's last
/// group of eight fields reads `width + 8` bytes from its start, which is
/// at most 64 bytes past the payload's end.
const PAD: usize = 64;

/// Batches (and blocks to quantize) smaller than this many samples run on
/// the calling thread: a few dozen microseconds of work do not pay for
/// spawning workers.
const PARALLEL_MIN_SAMPLES: usize = 1 << 16;

/// Payload bytes requested per `read_exact`: the batch buffer runs at most
/// this far ahead of the bytes that have actually arrived.
const READ_CHUNK: usize = 8192;

/// How one row's payload in the batch buffer decodes.
#[derive(Clone, Copy)]
enum RowPayload {
    /// `trace_len` little-endian `f64`s.
    Raw,
    /// `trace_len - 1` packed zigzag deltas of `width` bits each.
    Quantized {
        scale: f64,
        offset: f64,
        first: u64,
        width: u32,
    },
}

/// Reads `count` rows of `trace_len` samples in the `IPMKTRC3` row layout
/// into a fresh arena.
///
/// The header is untrusted. The arena size (`count × trace_len`, already
/// checked to be representable in bytes) is reserved fallibly, so a
/// header no allocator can back is a typed error, not an abort. The arena
/// itself is then requested zeroed, which the allocator serves as
/// untouched pages: memory is committed only as decoded rows are written,
/// and a row is written only after all of its bytes have arrived. An arena
/// of at least 32 MiB is advised onto transparent huge pages (see
/// [`crate::mmap`]), so where the kernel honours the advice it is committed
/// in steps of up to 2 MiB rather than 4 KiB.
///
/// Rows are read serially, in batches of [`BATCH_ROWS`]: each row's flag
/// and metadata are parsed and its payload is appended to one reused
/// batch buffer. The batch's rows are then decoded into their arena rows
/// in parallel. Rows are independent and the read order is fixed, so the
/// output and the reported error do not depend on the thread count.
///
/// # Errors
///
/// Returns [`IoError::Format`] for an unallocatable arena, corrupt flags,
/// over-wide fields or truncation (naming the lowest failing row), never a
/// panic or an `Io` misclassification for in-memory input.
pub(crate) fn read_rows<R: BufRead>(
    device: &str,
    r: &mut R,
    count: usize,
    trace_len: usize,
) -> Result<TraceBlock, IoError> {
    if count == 0 {
        return Ok(TraceBlock::new(device));
    }
    let total = count.checked_mul(trace_len).ok_or_else(|| {
        IoError::Format(format!(
            "declared size {count} x {trace_len} samples overflows"
        ))
    })?;
    Vec::<f64>::new().try_reserve_exact(total).map_err(|e| {
        IoError::Format(format!(
            "declared size {count} x {trace_len} samples cannot be allocated: {e}"
        ))
    })?;
    let mut data = crate::mmap::zeroed_arena(total);
    let batch_rows = BATCH_ROWS.min(count);
    let mut batch: Vec<u8> = Vec::new();
    let mut rows: Vec<(usize, RowPayload)> = Vec::with_capacity(batch_rows);
    // `batch_rows * trace_len <= total`: no overflow.
    for (b, arena) in data.chunks_mut(batch_rows * trace_len).enumerate() {
        batch.clear();
        rows.clear();
        let first_row = b * batch_rows;
        for t in first_row..first_row + arena.len() / trace_len {
            let start = batch.len();
            rows.push((start, read_row(r, t, trace_len, &mut batch)?));
            batch.resize(batch.len() + PAD, 0);
        }
        decode_batch(arena, trace_len, &rows, &batch);
    }
    Ok(TraceBlock::from_data(device, trace_len, data)?)
}

/// Reads row `t`'s flag and metadata and appends its payload to `batch`.
fn read_row<R: BufRead>(
    r: &mut R,
    t: usize,
    trace_len: usize,
    batch: &mut Vec<u8>,
) -> Result<RowPayload, IoError> {
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)
        .map_err(|_| IoError::Format(format!("truncated at trace {t}: missing row flag")))?;
    match flag[0] {
        FLAG_RAW => {
            // `trace_len * 8` is representable: the header was validated.
            append_exact(r, batch, trace_len * 8).map_err(|arrived| {
                IoError::Format(format!("truncated at trace {t}, sample {}", arrived / 8))
            })?;
            Ok(RowPayload::Raw)
        }
        FLAG_QUANTIZED => {
            // scale f64 | offset f64 | first_code u64, then the width byte.
            let mut words = [[0u8; 8]; 3];
            let mut w = 0u8;
            r.read_exact(words.as_flattened_mut())
                .and_then(|()| r.read_exact(std::slice::from_mut(&mut w)))
                .map_err(|_| {
                    IoError::Format(format!("truncated at trace {t}: missing row metadata"))
                })?;
            let [scale, offset, first] = words;
            let width = u32::from(w);
            if width > 64 {
                return Err(IoError::Format(format!(
                    "trace {t}: delta width {width} exceeds 64 bits"
                )));
            }
            let packed_len = (trace_len - 1)
                .checked_mul(width as usize)
                .map(|bits| bits.div_ceil(8))
                .ok_or_else(|| {
                    IoError::Format(format!("trace {t}: packed payload size overflows"))
                })?;
            append_exact(r, batch, packed_len).map_err(|_| {
                IoError::Format(format!("truncated at trace {t}: packed payload cut short"))
            })?;
            Ok(RowPayload::Quantized {
                scale: f64::from_le_bytes(scale),
                offset: f64::from_le_bytes(offset),
                first: u64::from_le_bytes(first),
                width,
            })
        }
        other => Err(IoError::Format(format!(
            "trace {t}: unknown row flag {other} (0 = quantized, 1 = raw)"
        ))),
    }
}

/// Appends exactly `n` bytes from `r` to `buf`, [`READ_CHUNK`] at a time,
/// so the buffer grows only as bytes arrive. On truncation, returns how
/// many bytes had arrived before the chunk that fell short.
fn append_exact<R: BufRead>(r: &mut R, buf: &mut Vec<u8>, n: usize) -> Result<(), usize> {
    let mut arrived = 0;
    while arrived < n {
        let want = (n - arrived).min(READ_CHUNK);
        let at = buf.len();
        buf.resize(at + want, 0);
        r.read_exact(buf.split_at_mut(at).1).map_err(|_| arrived)?;
        arrived += want;
    }
    Ok(())
}

/// Decodes one batch: arena row `i` from the payload that `rows[i]`
/// locates in `batch`.
fn decode_batch(arena: &mut [f64], trace_len: usize, rows: &[(usize, RowPayload)], batch: &[u8]) {
    let decode = |i: usize, row: &mut [f64]| {
        if let Some(&(start, kind)) = rows.get(i) {
            decode_row(row, kind, batch.get(start..).unwrap_or_default());
        }
    };
    if arena.len() >= PARALLEL_MIN_SAMPLES {
        let filled: Result<(), std::convert::Infallible> = ipmark_parallel::Pool::from_env()
            .try_fill_rows(arena, trace_len, |i, row| {
                decode(i, row);
                Ok(())
            });
        let Ok(()) = filled;
        return;
    }
    for (i, row) in arena.chunks_exact_mut(trace_len).enumerate() {
        decode(i, row);
    }
}

/// Decodes one row from `bytes`: its payload followed by at least [`PAD`]
/// zero bytes.
fn decode_row(row: &mut [f64], kind: RowPayload, bytes: &[u8]) {
    match kind {
        RowPayload::Raw => {
            for (s, b) in row.iter_mut().zip(bytes.as_chunks::<8>().0) {
                *s = f64::from_le_bytes(*b);
            }
        }
        RowPayload::Quantized {
            scale,
            offset,
            first,
            width,
        } => {
            // Each arm inlines the group body with a literal width, so its
            // field offsets, shifts and mask are constants. Widths 0 and
            // 33..=64, which only hostile files carry, share the same body
            // with the width known only at run time.
            macro_rules! by_width {
                ($($w:literal)+) => {
                    match width {
                        $($w => fill_quantized(row, bytes, first, scale, offset, $w),)+
                        _ => fill_quantized(row, bytes, first, scale, offset, width),
                    }
                };
            }
            by_width!(
                1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
                17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            );
        }
    }
}

/// Writes one quantized row: code `first`, then the running sum of the
/// zigzag deltas packed `width` bits each in `bytes`, each code through the
/// reconstruction expression.
///
/// Eight fields of `width` bits fill exactly `width` bytes, so group `g`
/// starts at byte `g · width` and all its windows lie within the `width + 8`
/// bytes from there. The row's byte budget (whole groups, plus the 8 bytes
/// the last window reaches beyond them) is checked once: the payload and
/// its [`PAD`] zero bytes always cover it.
#[inline(always)]
fn fill_quantized(row: &mut [f64], bytes: &[u8], first: u64, scale: f64, offset: f64, width: u32) {
    let Some((head, tail)) = row.split_first_mut() else {
        return;
    };
    let step = width as usize;
    let bytes = &bytes[..tail.len().div_ceil(8) * step + 8];
    // Hostile files may encode arbitrary deltas; reconstruct with wrapping
    // arithmetic (the sample value is then whatever the grid maps it to —
    // decoding is total).
    let mut code = first;
    *head = offset + (code as f64) * scale;
    let (groups, rest) = tail.as_chunks_mut::<8>();
    for (g, out) in groups.iter_mut().enumerate() {
        code = fill_group(out, unpack8(bytes, g * step, width), code, scale, offset);
    }
    if !rest.is_empty() {
        // The last, partial group: its fields past the row's end decode
        // from pad bytes and are dropped.
        let fields = unpack8(bytes, groups.len() * step, width);
        fill_group(rest, fields, code, scale, offset);
    }
}

/// Writes `out` from one group's fields: the running sum continued from
/// `code`, each code through the reconstruction expression. Returns the
/// last code.
#[inline(always)]
fn fill_group(out: &mut [f64], fields: [u64; 8], mut code: u64, scale: f64, offset: f64) -> u64 {
    for (s, field) in out.iter_mut().zip(fields) {
        code = code.wrapping_add(unzigzag(field) as u64);
        *s = offset + (code as f64) * scale;
    }
    code
}

/// The eight `width`-bit fields of the group that starts at byte `at`,
/// all read from one bounds-checked slice of `width + 8` bytes. A window
/// shifted by at most 7 bits keeps 57 (u64) or 121 (u128) valid bits. The
/// encoder's codes stay below 2^53, so its deltas never need more than 54;
/// only hostile files reach the wide path.
#[inline(always)]
fn unpack8(bytes: &[u8], at: usize, width: u32) -> [u64; 8] {
    let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
    let step = width as usize;
    let group = &bytes[at..at + step + 8];
    let mut fields = [0u64; 8];
    for (i, field) in fields.iter_mut().enumerate() {
        let window = if width <= 57 {
            window_u64(group, i * step)
        } else {
            window_u128(group, i * step)
        };
        *field = window & mask;
    }
    fields
}

/// Bits `bit..bit + 57` of an LSB-first packed stream: the unaligned
/// little-endian `u64` at the bit's byte, shifted down.
#[inline]
fn window_u64(bytes: &[u8], bit: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[bit >> 3..(bit >> 3) + 8]);
    u64::from_le_bytes(word) >> (bit & 7)
}

/// The low 64 of bits `bit..bit + 121`: [`window_u64`] over a `u128`.
#[inline]
fn window_u128(bytes: &[u8], bit: usize) -> u64 {
    let mut word = [0u8; 16];
    word.copy_from_slice(&bytes[bit >> 3..(bit >> 3) + 16]);
    (u128::from_le_bytes(word) >> (bit & 7)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LSB-first bit packer: accumulates fields into a byte stream, one
    /// field at a time — the reference the group packer is checked against.
    struct BitPacker {
        acc: u128,
        nbits: u32,
        out: Vec<u8>,
    }

    impl BitPacker {
        /// A packer with `bytes` of output capacity pre-reserved, so hot
        /// encode loops never reallocate mid-row.
        fn with_capacity(bytes: usize) -> Self {
            Self {
                acc: 0,
                nbits: 0,
                out: Vec::with_capacity(bytes),
            }
        }

        /// Appends the low `width` bits of `value`.
        fn push(&mut self, value: u64, width: u32) {
            debug_assert!(width <= 64);
            self.acc |= u128::from(value) << self.nbits;
            self.nbits += width;
            // Flush whole 64-bit words, not bytes: `nbits < 64` on entry and
            // `width <= 64` keep the accumulator within u128, and the LE byte
            // stream is identical to a byte-at-a-time flush.
            if self.nbits >= 64 {
                self.out.extend_from_slice(&(self.acc as u64).to_le_bytes());
                self.acc >>= 64;
                self.nbits -= 64;
            }
        }

        /// Flushes the trailing partial byte (zero-padded) and returns the
        /// packed stream.
        fn finish(mut self) -> Vec<u8> {
            while self.nbits > 0 {
                self.out.push((self.acc & 0xff) as u8);
                self.acc >>= 8;
                self.nbits = self.nbits.saturating_sub(8);
            }
            self.out
        }
    }

    fn grid_row(offset: f64, scale: f64, codes: &[u64]) -> Vec<f64> {
        codes.iter().map(|&c| offset + (c as f64) * scale).collect()
    }

    /// The rows of `block` encoded by [`write_rows`] on `pool`.
    fn encode_on(pool: &Pool, block: &TraceBlock, domain: Option<&AdcDomain>) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ChunkWriter::new(&mut buf, usize::MAX);
        write_rows(pool, block, &mut w, domain).unwrap();
        w.finish().unwrap();
        buf
    }

    fn encode(block: &TraceBlock, domain: Option<&AdcDomain>) -> Vec<u8> {
        encode_on(&Pool::from_env(), block, domain)
    }

    fn round_trip(block: &TraceBlock) -> TraceBlock {
        let buf = encode(block, None);
        read_rows(
            block.device(),
            &mut buf.as_slice(),
            block.len(),
            block.trace_len(),
        )
        .unwrap()
    }

    fn assert_bits_equal(a: &TraceBlock, b: &TraceBlock) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.trace_len(), b.trace_len());
        for (i, (x, y)) in a.samples().iter().zip(b.samples()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "sample {i}: {x:e} vs {y:e}");
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn bit_windows_read_back_mixed_widths() {
        let mut p = BitPacker::with_capacity(0);
        let fields: Vec<(u64, u32)> = vec![
            (5, 3),
            (0, 1),
            (1023, 10),
            (u64::MAX, 64),
            (1, 13),
            ((1 << 57) - 1, 57),
            (0x2aa_aaaa_aaaa_aaaa, 58),
            ((1 << 56) - 3, 56),
            (0, 0),
            (7, 3),
        ];
        for &(v, w) in &fields {
            p.push(v, w);
        }
        let mut bytes = p.finish();
        bytes.resize(bytes.len() + PAD, 0);
        let mut bit = 0;
        for &(v, w) in &fields {
            let mask = u64::MAX.checked_shr(64 - w).unwrap_or(0);
            assert_eq!(window_u128(&bytes, bit) & mask, v, "u128 window, width {w}");
            if w <= 57 {
                assert_eq!(window_u64(&bytes, bit) & mask, v, "u64 window, width {w}");
            }
            bit += w as usize;
        }
    }

    #[test]
    fn grid_rows_take_the_quantized_path() {
        let row = grid_row(0.25, 0.125, &[0, 3, 1, 7, 7, 2]);
        let mut codes = Vec::new();
        let q = quantize_row(&row, None, &mut codes).expect("exact grid must quantize");
        assert_eq!(codes, [0, 3, 1, 7, 7, 2]);
        assert_eq!(q.offset, 0.25);
        assert_eq!(q.scale, 0.125);
    }

    #[test]
    fn coarse_subgrid_rows_still_quantize() {
        // Only even codes present: the min positive delta is 2·scale, which
        // is still an exact divisor of every delta — codes simply halve.
        let row = grid_row(1.0, 0.5, &[0, 4, 2, 8]);
        let mut codes = Vec::new();
        quantize_row(&row, None, &mut codes).expect("sub-grid quantizes");
        assert_eq!(codes, [0, 2, 1, 4]);
    }

    #[test]
    fn hostile_rows_fall_back_to_raw() {
        assert!(quantize_row(&[0.0, f64::NAN], None, &mut Vec::new()).is_none());
        assert!(quantize_row(&[f64::INFINITY, 1.0], None, &mut Vec::new()).is_none());
        assert!(
            quantize_row(&[-0.0, 1.0], None, &mut Vec::new()).is_none(),
            "-0.0 offset is inexact"
        );
        // Irrational-ish spacing that is no grid at all.
        assert!(quantize_row(&[0.0, 0.1, 0.25000001, 0.3], None, &mut Vec::new()).is_none());
    }

    #[test]
    fn constant_rows_cost_only_metadata() {
        let block = TraceBlock::from_data("d", 4096, vec![1.5; 4096]).unwrap();
        let buf = encode(&block, None);
        // flag + scale + offset + first + width, zero packed bytes.
        assert_eq!(buf.len(), 1 + 8 + 8 + 8 + 1);
        assert_bits_equal(&round_trip(&block), &block);
    }

    #[test]
    fn mixed_quantized_and_raw_rows_round_trip_bit_exactly() {
        let mut block = TraceBlock::new("d");
        block
            .push_row(&grid_row(-0.5, 0.0625, &[4, 0, 4095, 17]))
            .unwrap();
        block
            .push_row(&[f64::NAN, f64::NEG_INFINITY, 1.0e-310, 0.1])
            .unwrap();
        block.push_row(&[0.1, 0.2, 0.30000000001, 0.4]).unwrap();
        let back = round_trip(&block);
        assert_bits_equal(&back, &block);
        // NaN bits too.
        assert_eq!(
            back.row(1).unwrap().samples()[0].to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn adc_domain_validates_and_quantizes_idempotently() {
        assert!(AdcDomain::from_range(0.0, 1.0, 0).is_err());
        assert!(AdcDomain::from_range(0.0, 1.0, 33).is_err());
        assert!(AdcDomain::from_range(1.0, 0.0, 12).is_err());
        assert!(AdcDomain::from_range(f64::NAN, 1.0, 12).is_err());
        let adc = AdcDomain::from_range(-1.0, 1.0, 12).unwrap();
        assert_eq!(adc.levels(), 4096);
        assert_eq!(adc.offset(), -1.0);
        for v in [-2.0, -1.0, -0.3337, 0.0, 0.5001, 1.0, 2.0, f64::NAN] {
            let q = adc.quantize(v);
            assert_eq!(q.to_bits(), adc.quantize(q).to_bits(), "idempotent at {v}");
            assert!((-1.0..=1.0).contains(&q), "clamped at {v}");
        }
    }

    fn adc_block(adc: &AdcDomain, span: f64) -> TraceBlock {
        adc_block_sized(adc, span, 8, 2048)
    }

    fn adc_block_sized(adc: &AdcDomain, span: f64, rows: usize, len: usize) -> TraceBlock {
        let mut block = TraceBlock::zeros("d", rows, len).unwrap();
        let mut state = 0x9e3779b97f4a7c15u64;
        for mut row in block.rows_mut() {
            for s in row.samples_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *s = adc.quantize(adc.offset() + span * (state >> 11) as f64 / (1u64 << 53) as f64);
            }
        }
        block
    }

    #[test]
    fn hinted_blocks_shrink_at_least_four_fold() {
        // The realistic pipeline: the encoder is told the ADC the samples
        // came through, so every row takes the quantized path regardless of
        // which codes happen to be present.
        let adc = AdcDomain::from_range(1.2, 4.5, 12).unwrap();
        let block = adc_block(&adc, 3.3);
        let buf = encode(&block, Some(&adc));
        let raw_bytes = block.samples().len() * 8;
        assert!(
            buf.len() * 4 <= raw_bytes,
            "quantized payload {} vs raw {raw_bytes}: under 4x",
            buf.len()
        );
        let back = read_rows("d", &mut buf.as_slice(), block.len(), block.trace_len()).unwrap();
        assert_bits_equal(&back, &block);
    }

    #[test]
    fn zero_offset_grids_are_detected_without_a_hint() {
        // Hint-free detection: a zero-offset ADC is recoverable because the
        // smallest code's value is (a small multiple of) the scale itself,
        // which the ladder's integer-division + ULP probing reaches.
        let adc = AdcDomain::from_range(0.0, 3.3, 12).unwrap();
        let block = adc_block(&adc, 3.3);
        let buf = encode(&block, None);
        let raw_bytes = block.samples().len() * 8;
        assert!(
            buf.len() * 4 <= raw_bytes,
            "detected payload {} vs raw {raw_bytes}: under 4x",
            buf.len()
        );
        assert_bits_equal(&round_trip(&block), &block);
    }

    #[test]
    fn truncations_and_bad_flags_are_format_errors() {
        let block = TraceBlock::from_data("d", 4, grid_row(0.0, 0.5, &[1, 2, 3, 4])).unwrap();
        let buf = encode(&block, None);
        for cut in 0..buf.len() {
            let err = read_rows("d", &mut &buf[..cut], 1, 4).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "cut at {cut}: {err}");
        }
        let mut bad_flag = buf.clone();
        bad_flag[0] = 7;
        assert!(matches!(
            read_rows("d", &mut bad_flag.as_slice(), 1, 4).unwrap_err(),
            IoError::Format(_)
        ));
        let mut bad_width = buf;
        bad_width[25] = 65;
        assert!(matches!(
            read_rows("d", &mut bad_width.as_slice(), 1, 4).unwrap_err(),
            IoError::Format(_)
        ));
    }

    /// `rows` rows of 300 samples on a 12-bit grid, with every third row
    /// holding a NaN (raw under any hint) and every fifth row off the grid
    /// (raw under the hint, raw or detected without one).
    fn mixed_block(adc: &AdcDomain, rows: usize) -> TraceBlock {
        let mut block = adc_block_sized(adc, 2.0, rows, 300);
        for (i, mut row) in block.rows_mut().enumerate() {
            if let Some(s) = row.samples_mut().get_mut(i % 300) {
                if i % 3 == 0 {
                    *s = f64::from_bits(0x7ff8_0000_0000_0000 | i as u64);
                } else if i % 5 == 0 {
                    *s += 1e-9;
                }
            }
        }
        block
    }

    /// Header-less row bytes of `block`, one row at a time: each row's
    /// encoding depends on that row alone.
    fn per_row_encoding(block: &TraceBlock, domain: Option<&AdcDomain>) -> Vec<u8> {
        let one = Pool::with_threads(1);
        let mut want = Vec::new();
        for row in block.rows() {
            let single = TraceBlock::from_data("d", block.trace_len(), row.samples().to_vec());
            want.extend(encode_on(&one, &single.unwrap(), domain));
        }
        want
    }

    #[test]
    fn pooled_encoding_is_byte_identical_at_every_thread_count_and_batch_edge() {
        let adc = AdcDomain::from_range(-1.0, 1.0, 12).unwrap();
        for rows in [BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
            let block = mixed_block(&adc, rows);
            assert!(rows * 300 >= PARALLEL_MIN_SAMPLES, "the batches fan out");
            for domain in [None, Some(&adc)] {
                let want = per_row_encoding(&block, domain);
                for threads in [1, 2, 7] {
                    let got = encode_on(&Pool::with_threads(threads), &block, domain);
                    assert!(
                        got == want,
                        "{rows} rows, {threads} threads, hint {domain:?}"
                    );
                }
                let back = read_rows("d", &mut want.as_slice(), rows, 300).unwrap();
                assert_bits_equal(&back, &block);
            }
        }
    }

    #[test]
    fn pooled_quantization_matches_per_sample_quantize() {
        let adc = AdcDomain::from_range(-1.0, 1.0, 12).unwrap();
        for rows in [BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
            let mut raw = mixed_block(&adc, rows);
            for (i, s) in raw.samples_mut().iter_mut().enumerate() {
                *s = *s * 1.37 + (i % 7) as f64 * 1e-4;
            }
            let want: Vec<u64> = raw
                .samples()
                .iter()
                .map(|&s| adc.quantize(s).to_bits())
                .collect();
            for threads in [1, 2, 7] {
                let mut block = raw.clone();
                adc.quantize_block_on(&Pool::with_threads(threads), &mut block);
                let got: Vec<u64> = block.samples().iter().map(|s| s.to_bits()).collect();
                assert!(got == want, "{rows} rows, {threads} threads");
            }
        }
    }

    #[test]
    fn group_packing_matches_the_bit_at_a_time_packer() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for width in 0..=64u32 {
            for len in [1usize, 2, 8, 9, 16, 17, 23] {
                // Codes whose zigzag deltas need at most `width` bits.
                let half = if width == 0 { 0 } else { 1u64 << (width - 1) };
                let mut codes = vec![half; len];
                let mut prev = half as i64;
                for code in codes.iter_mut().skip(1) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let limit = half.saturating_sub(1) as i64;
                    let step = if limit == 0 {
                        0
                    } else {
                        (state % (limit as u64 + 1)) as i64
                    };
                    let delta = if state & 1 == 0 { step } else { -step };
                    let next = prev.wrapping_add(delta);
                    *code = next as u64;
                    prev = next;
                }
                let mut want = BitPacker::with_capacity(0);
                for pair in codes.windows(2) {
                    want.push(zigzag(pair[1].wrapping_sub(pair[0]) as i64), width);
                }
                let mut got = vec![0xa5];
                pack_deltas(&codes, width, &mut got);
                assert_eq!(got[0], 0xa5, "prefix kept");
                assert_eq!(
                    &got[1..],
                    want.finish().as_slice(),
                    "width {width}, {len} codes"
                );
            }
        }
    }
}
