//! The corpus writers and the ADC quantizer against references written out
//! here, sample by sample.
//!
//! `write_block` copies samples into a 1 MiB buffer and hands each full
//! buffer to the caller's writer in one `write_all`; `write_block_v3*`
//! encode rows in batches on the environment's pool; `AdcDomain::quantize`
//! rounds without libm and `quantize_block` fans rows out over the pool.
//! None of that may change a byte or a bit. CI runs this file at
//! `RAYON_NUM_THREADS=2` and `7` as well as at the machine's count.

use std::io::{self, Write};

use proptest::prelude::*;

use ipmark_traces::io::{
    read_block, write_block, write_block_v3, write_block_v3_with_domain, IoError,
};
use ipmark_traces::{AdcDomain, TraceBlock};

/// The writers' buffer size, restated: blocks below are sized around it.
const CHUNK: usize = 1 << 20;

/// The `IPMKTRC2` bytes of `count` rows of `len` samples, built one
/// sample at a time.
fn v2_reference(count: usize, len: usize, samples: &[f64]) -> Vec<u8> {
    let mut out = b"IPMKTRC2".to_vec();
    out.extend_from_slice(&(count as u64).to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    for s in samples {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

fn v2_bytes(block: &TraceBlock) -> Vec<u8> {
    let mut buf = Vec::new();
    write_block(block, &mut buf).unwrap();
    buf
}

/// SplitMix64 over `state`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count × len` samples with arbitrary bit patterns.
fn random_block(count: usize, len: usize, seed: u64) -> TraceBlock {
    let mut state = seed;
    let samples = (0..count * len)
        .map(|_| f64::from_bits(splitmix(&mut state)))
        .collect();
    TraceBlock::from_data("w", len, samples).unwrap()
}

/// Three rows of four: `-0.0`, NaN payloads, `±inf`, subnormals, `±MAX`.
const SPECIALS: [f64; 12] = [
    -0.0,
    5e-324,
    f64::MAX,
    -f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::from_bits(0x7ff8_dead_beef_0001),
    f64::from_bits(0xfff0_0000_0000_0001),
    -2.5e-310,
    f64::MIN_POSITIVE,
    0.0,
    -1.5,
];

#[test]
fn write_block_matches_the_per_sample_reference() {
    let mut blocks = vec![
        TraceBlock::from_data("w", 4, SPECIALS.to_vec()).unwrap(),
        random_block(3, 5, 1),
        random_block(17, 2048, 2),
    ];
    // Payload sizes around the buffer: the 24-byte header plus the
    // samples end one sample short of, exactly at, and past one or two
    // whole buffers; none is a multiple of the buffer for the others.
    for samples in [CHUNK / 8 - 4, CHUNK / 8 - 3, CHUNK / 8, 2 * CHUNK / 8 + 5] {
        blocks.push(random_block(1, samples, samples as u64));
    }
    for block in &blocks {
        let want = v2_reference(block.len(), block.trace_len(), block.samples());
        assert!(
            v2_bytes(block) == want,
            "{} x {}",
            block.len(),
            block.trace_len()
        );
    }
}

#[test]
fn an_empty_block_writes_only_the_header() {
    let want = v2_reference(0, 0, &[]);
    assert_eq!(v2_bytes(&TraceBlock::new("empty")), want);
    assert_eq!(want.len(), 24);
}

/// A writer that takes at most 7 bytes per call.
struct Trickle(Vec<u8>);

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(7);
        self.0.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn short_writes_give_the_same_bytes() {
    let adc = AdcDomain::from_range(-1.0, 1.0, 12).unwrap();
    let mut block = random_block(3, 300, 3);
    for s in block.samples_mut().iter_mut().skip(300) {
        *s = adc.quantize((s.to_bits() >> 11) as f64 / (1u64 << 53) as f64);
    }
    let mut trickle = Trickle(Vec::new());
    write_block(&block, &mut trickle).unwrap();
    assert!(trickle.0 == v2_bytes(&block));

    let mut whole = Vec::new();
    write_block_v3_with_domain(&block, &adc, &mut whole).unwrap();
    let mut trickle = Trickle(Vec::new());
    write_block_v3_with_domain(&block, &adc, &mut trickle).unwrap();
    assert!(trickle.0 == whole);
}

/// A writer that fails once `limit` bytes have been taken, or on `flush`.
struct Failing {
    taken: usize,
    limit: usize,
    fail_flush: bool,
}

impl Write for Failing {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.taken >= self.limit {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(self.limit - self.taken);
        self.taken += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.fail_flush {
            return Err(io::Error::other("flush failed"));
        }
        Ok(())
    }
}

#[test]
fn writer_failures_surface_as_io_errors() {
    let block = random_block(2, CHUNK / 8, 4);
    type Writer = fn(&TraceBlock, &mut Failing) -> Result<(), IoError>;
    let writers: [(&str, Writer); 3] = [
        ("v2", |b, w| write_block(b, w)),
        ("v3", |b, w| write_block_v3(b, w)),
        ("v3 hinted", |b, w| {
            let adc = AdcDomain::from_range(-1.0, 1.0, 12).unwrap();
            write_block_v3_with_domain(b, &adc, w)
        }),
    ];
    for (name, write) in writers {
        for limit in [0, 1, 23, 24, 25, CHUNK - 1, CHUNK, CHUNK + 1] {
            let mut w = Failing {
                taken: 0,
                limit,
                fail_flush: false,
            };
            let err = write(&block, &mut w).unwrap_err();
            assert!(
                matches!(err, IoError::Io(_)),
                "{name}, fail at {limit}: {err}"
            );
        }
        let mut w = Failing {
            taken: 0,
            limit: usize::MAX,
            fail_flush: true,
        };
        let err = write(&block, &mut w).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{name}, flush: {err}");
    }
}

#[test]
fn reads_report_the_first_missing_sample_of_a_truncated_file() {
    // The reader converts whole pieces of up to 1 MiB; a cut names the
    // first sample that did not arrive, wherever it falls in a piece.
    let block = random_block(3, CHUNK / 8, 5);
    let bytes = v2_bytes(&block);
    for (cut, trace, sample) in [
        (24 + 8 * 5 + 3, 0, 5),
        (24 + CHUNK, 1, 0),
        (24 + CHUNK + 8 * 9, 1, 9),
        (bytes.len() - 1, 2, CHUNK / 8 - 1),
    ] {
        match read_block("w", &bytes[..cut]) {
            Err(IoError::Format(msg)) => {
                assert_eq!(msg, format!("truncated at trace {trace}, sample {sample}"));
            }
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    let back = read_block("w", bytes.as_slice()).unwrap();
    let bits = |b: &TraceBlock| b.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&block));
}

/// The quantizer as it reads with `f64::round`: the clamped nearest code
/// through the reconstruction expression.
fn quantize_reference(vmin: f64, vmax: f64, bits: u32, value: f64) -> f64 {
    let levels = 1u64 << bits;
    let scale = (vmax - vmin) / (levels - 1) as f64;
    let code = if value.is_finite() {
        let raw = ((value - vmin) / scale).round();
        if raw <= 0.0 {
            0
        } else if raw >= (levels - 1) as f64 {
            levels - 1
        } else {
            raw as u64
        }
    } else {
        0
    };
    vmin + (code as f64) * scale
}

fn assert_quantizes_like_round(vmin: f64, vmax: f64, bits: u32, values: &[f64]) {
    let adc = AdcDomain::from_range(vmin, vmax, bits).unwrap();
    for &v in values {
        let want = quantize_reference(vmin, vmax, bits, v);
        assert_eq!(
            adc.quantize(v).to_bits(),
            want.to_bits(),
            "[{vmin}, {vmax}] at {bits} bits, value {v:e} ({:#x})",
            v.to_bits()
        );
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(if x >= 0.0 {
        x.to_bits() + 1
    } else {
        x.to_bits() - 1
    })
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// Values whose `q` is a tie `k + ½` (exact on a power-of-two grid),
/// each with its neighbours one ULP either side.
fn ties_and_neighbours(vmin: f64, scale: f64, ks: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut out = Vec::new();
    for k in ks {
        let tie = vmin + (k + 0.5) * scale;
        out.extend([next_down(tie), tie, next_up(tie)]);
    }
    out
}

#[test]
fn quantize_matches_round_on_ties_and_their_neighbours() {
    // 2^bits − 1 levels over a span of 2^bits − 1: scale 1, so q is exact.
    for bits in [1, 2, 12, 20, 32] {
        let top = ((1u64 << bits) - 1) as f64;
        let ks = (-3..6)
            .map(f64::from)
            .chain([top - 2.0, top - 1.5, top - 1.0, top]);
        let values = ties_and_neighbours(0.0, 1.0, ks);
        assert_quantizes_like_round(0.0, top, bits, &values);
        assert_quantizes_like_round(
            -8.0,
            top - 8.0,
            bits,
            &ties_and_neighbours(-8.0, 1.0, (0..4).map(f64::from)),
        );
    }
    // A binary-fraction scale (1/4 over 4095 levels).
    let scale = 0.25;
    let ks = (0..4096).map(f64::from);
    assert_quantizes_like_round(
        -2.0,
        -2.0 + 4095.0 * scale,
        12,
        &ties_and_neighbours(-2.0, scale, ks),
    );
}

#[test]
fn quantize_matches_round_at_the_top_threshold() {
    for bits in [1, 2, 12, 32] {
        let top = ((1u64 << bits) - 1) as f64;
        // q = levels − 1.5 exactly, and one ULP either side.
        let at = top - 0.5;
        assert_quantizes_like_round(0.0, top, bits, &[next_down(at), at, next_up(at)]);
        assert_quantizes_like_round(0.0, top, bits, &[top - 1.5, top, top + 0.5, top * 4.0]);
    }
}

#[test]
fn quantize_matches_round_on_non_finite_and_huge_values() {
    let extremes = [
        f64::NAN,
        f64::from_bits(0xfff8_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e308,
        -1e308,
        f64::MAX,
        -f64::MAX,
        0.0,
        -0.0,
        5e-324,
    ];
    for bits in [1, 12, 32] {
        assert_quantizes_like_round(-1.0, 1.0, bits, &extremes);
        assert_quantizes_like_round(1e300, 2e300, bits, &extremes);
    }
    // vmax − vmin overflows: the scale is +inf, q is 0 or NaN.
    for bits in [1, 12, 32] {
        assert_quantizes_like_round(-1e308, 1e308, bits, &extremes);
        assert_quantizes_like_round(-f64::MAX, f64::MAX, bits, &[0.5, -3.0, 1e200]);
    }
}

proptest! {
    #[test]
    fn quantize_matches_round_everywhere(
        bits in 1u32..=32,
        vmin in -1e6f64..1e6,
        span_exp in -20i32..40,
        mantissa in 1.0f64..2.0,
        word in any::<u64>(),
        frac in -0.25f64..1.25,
    ) {
        let vmax = vmin + mantissa * 2f64.powi(span_exp);
        prop_assume!(vmax > vmin);
        let adc = AdcDomain::from_range(vmin, vmax, bits).unwrap();
        let top = (adc.levels() - 1) as f64;
        let near = vmin + (frac * top).round() * adc.scale() + 0.5 * adc.scale();
        let values = [
            f64::from_bits(word),
            vmin + frac * (vmax - vmin),
            near,
            next_up(near),
            next_down(near),
        ];
        for v in values {
            let want = quantize_reference(vmin, vmax, bits, v);
            prop_assert_eq!(adc.quantize(v).to_bits(), want.to_bits());
        }
    }
}

/// Rows straddling the encoder's 256-row batch, long enough that batches
/// fan out: every third row holds a NaN payload, every fifth is off the
/// grid, the rest are on it.
fn mixed_block(adc: &AdcDomain, rows: usize, seed: u64) -> TraceBlock {
    let len = 300;
    let mut state = seed;
    let mut block = TraceBlock::zeros("w", rows, len).unwrap();
    for (i, mut row) in block.rows_mut().enumerate() {
        for s in row.samples_mut() {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            *s = adc.quantize(-1.0 + 2.0 * u);
        }
        if i % 3 == 0 {
            row.samples_mut()[i % len] = f64::from_bits(0x7ff8_0000_0000_0000 | i as u64);
        } else if i % 5 == 0 {
            row.samples_mut()[i % len] += 1e-9;
        }
    }
    block
}

#[test]
fn pooled_quantization_and_encoding_match_row_by_row_references() {
    let adc = AdcDomain::from_range(-1.0, 1.0, 12).unwrap();
    for rows in [255, 256, 257] {
        // quantize_block against quantize, one sample at a time.
        let mut raw = mixed_block(&adc, rows, rows as u64);
        for (i, s) in raw.samples_mut().iter_mut().enumerate() {
            *s = *s * 1.37 + (i % 7) as f64 * 1e-4;
        }
        let mut pooled = raw.clone();
        adc.quantize_block(&mut pooled);
        for (i, (&r, &p)) in raw.samples().iter().zip(pooled.samples()).enumerate() {
            assert_eq!(
                adc.quantize(r).to_bits(),
                p.to_bits(),
                "{rows} rows, sample {i}"
            );
        }

        // The v3 file against its rows encoded one at a time: the header,
        // then each single-row file's bytes after its own header.
        let block = mixed_block(&adc, rows, rows as u64);
        for hinted in [false, true] {
            let encode = |b: &TraceBlock| {
                let mut buf = Vec::new();
                if hinted {
                    write_block_v3_with_domain(b, &adc, &mut buf).unwrap();
                } else {
                    write_block_v3(b, &mut buf).unwrap();
                }
                buf
            };
            let whole = encode(&block);
            let mut want = whole[..24].to_vec();
            for row in block.rows() {
                let single = TraceBlock::from_data("w", 300, row.samples().to_vec()).unwrap();
                want.extend_from_slice(&encode(&single)[24..]);
            }
            assert!(whole == want, "{rows} rows, hinted {hinted}");
        }
    }
}
