//! Property-test wall for the `IPMKTRC3` codec.
//!
//! The codec's single load-bearing claim is *unconditional losslessness*:
//! whatever block goes in — ADC-grid data at any bit width, scale and
//! offset, or hostile rows full of NaN/±inf/subnormals — the decoder
//! reconstructs every sample's exact bit pattern. These properties drive
//! randomized blocks through every write/read surface (v3 direct, v1→v3
//! and v2→v3 cross-format, mmap-backed reads) and compare `to_bits` per
//! sample, never values.

use std::path::PathBuf;

use proptest::prelude::*;

use ipmark_traces::io::{
    read_block_any, read_block_v3, write_block, write_block_v3, write_block_v3_with_domain,
    IoError, BINARY_MAGIC, BLOCK_V3_MAGIC,
};
use ipmark_traces::streaming::ChunkedSource;
use ipmark_traces::{read_block_mapped, AdcDomain, TraceBlock};

fn bits_of(block: &TraceBlock) -> Vec<u64> {
    block.samples().iter().map(|s| s.to_bits()).collect()
}

/// An `IPMKTRC1` file: the v2 writer's bytes under the v1 magic (the
/// payloads are byte-identical).
fn v1_bytes(block: &TraceBlock) -> Vec<u8> {
    let mut buf = Vec::new();
    write_block(block, &mut buf).unwrap();
    buf[..8].copy_from_slice(BINARY_MAGIC);
    buf
}

fn assert_bits_equal(decoded: &TraceBlock, original: &TraceBlock) {
    assert_eq!(decoded.len(), original.len());
    assert_eq!(decoded.trace_len(), original.trace_len());
    assert_eq!(bits_of(decoded), bits_of(original));
}

fn v3_round_trip(block: &TraceBlock, domain: Option<&AdcDomain>) -> TraceBlock {
    let mut buf = Vec::new();
    match domain {
        Some(d) => write_block_v3_with_domain(block, d, &mut buf).unwrap(),
        None => write_block_v3(block, &mut buf).unwrap(),
    }
    read_block_v3(block.device(), buf.as_slice()).unwrap()
}

/// A block whose samples all went through one ADC domain — the intended
/// production input for quantized rows.
fn adc_block(
    bits: u32,
    vmin: f64,
    span: f64,
    trace_len: usize,
    rows: &[Vec<f64>],
) -> (AdcDomain, TraceBlock) {
    let adc = AdcDomain::from_range(vmin, vmin + span, bits).expect("valid domain");
    let mut block = TraceBlock::zeros("prop", rows.len(), trace_len).unwrap();
    for (mut row, raw) in block.rows_mut().zip(rows) {
        for (s, r) in row.samples_mut().iter_mut().zip(raw) {
            *s = adc.quantize(vmin + span * r);
        }
    }
    (adc, block)
}

/// Special values a hostile row can carry; index-selected so the shim's
/// integer strategies drive the choice.
fn special(sel: u64, raw: f64) -> f64 {
    match sel % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1.0e-310,  // subnormal
        4 => -1.0e-310, // negative subnormal
        5 => -0.0,
        6 => f64::from_bits(0x7ff8_dead_beef_0001), // payload NaN
        _ => raw,
    }
}

/// SplitMix64: the hand-built files below draw their contents from one
/// property-supplied seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bit-at-a-time LSB-first writer, kept apart from the codec's own
/// packer so the hand-built files check the decoder against a second
/// rendering of the row layout.
struct Bits {
    bytes: Vec<u8>,
    len: usize,
}

impl Bits {
    fn push(&mut self, value: u64, width: u32) {
        for b in 0..width {
            if self.len.is_multiple_of(8) {
                self.bytes.push(0);
            }
            if (value >> b) & 1 == 1 {
                *self.bytes.last_mut().unwrap() |= 1 << (self.len % 8);
            }
            self.len += 1;
        }
    }
}

/// An `IPMKTRC3` file built by hand, with the sample bits it must decode
/// to and the byte offset where each row ends.
struct Handmade {
    bytes: Vec<u8>,
    expected: Vec<u64>,
    row_ends: Vec<usize>,
}

/// `count` rows of `trace_len` samples. With `raw_rows`, about one row in
/// four is raw f64 with arbitrary bits (NaN payloads included). The
/// quantized rows cycle through every delta width 0..=64, starting at
/// `seed % 65`, with random metadata and random fields, so the wide widths
/// that only hostile files carry are covered too. The expected samples
/// follow the format's definition: the wrapping running sum of the zigzag
/// deltas, each code mapped through `offset + code * scale`.
fn handmade_v3(count: usize, trace_len: usize, seed: u64, raw_rows: bool) -> Handmade {
    let mut state = seed;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(BLOCK_V3_MAGIC);
    bytes.extend_from_slice(&(count as u64).to_le_bytes());
    bytes.extend_from_slice(&(trace_len as u64).to_le_bytes());
    let mut expected = Vec::with_capacity(count * trace_len);
    let mut row_ends = Vec::with_capacity(count);
    let mut width = (seed % 65) as u32;
    for _ in 0..count {
        if raw_rows && splitmix(&mut state).is_multiple_of(4) {
            bytes.push(1);
            for _ in 0..trace_len {
                let bits = splitmix(&mut state);
                bytes.extend_from_slice(&bits.to_le_bytes());
                expected.push(bits);
            }
        } else {
            let scale = f64::from(splitmix(&mut state) as u32) * 2f64.powi(-40);
            let offset = (splitmix(&mut state) as i64 >> 11) as f64 * 2f64.powi(-30);
            let mut code = splitmix(&mut state);
            bytes.push(0);
            bytes.extend_from_slice(&scale.to_le_bytes());
            bytes.extend_from_slice(&offset.to_le_bytes());
            bytes.extend_from_slice(&code.to_le_bytes());
            bytes.push(width as u8);
            let mut packed = Bits {
                bytes: Vec::new(),
                len: 0,
            };
            expected.push((offset + (code as f64) * scale).to_bits());
            for _ in 1..trace_len {
                let field = splitmix(&mut state) & u64::MAX.checked_shr(64 - width).unwrap_or(0);
                packed.push(field, width);
                let delta = ((field >> 1) as i64) ^ -((field & 1) as i64);
                code = code.wrapping_add(delta as u64);
                expected.push((offset + (code as f64) * scale).to_bits());
            }
            bytes.extend_from_slice(&packed.bytes);
            width = (width + 1) % 65;
        }
        row_ends.push(bytes.len());
    }
    Handmade {
        bytes,
        expected,
        row_ends,
    }
}

/// One quantized row per delta width 0..=64 at the paper's trace length,
/// through the any-reader: every width's unpacker, the constant-width ones
/// and the run-time ones, against the bit-at-a-time reference.
#[test]
fn paper_length_rows_of_every_width_decode_bit_exactly() {
    let file = handmade_v3(65, 2048, 0, false);
    let decoded = read_block_any("every-width", file.bytes.as_slice()).unwrap();
    assert_eq!(decoded.len(), 65);
    assert_eq!(decoded.trace_len(), 2048);
    for (width, (got, want)) in decoded
        .samples()
        .chunks_exact(2048)
        .zip(file.expected.chunks_exact(2048))
        .enumerate()
    {
        let got: Vec<u64> = got.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, want, "width {width}");
    }
}

proptest! {
    #[test]
    fn every_width_and_batch_edge_decodes_bit_exactly(
        count_sel in 0usize..3,
        len_sel in 0usize..9,
        seed in any::<u64>(),
        cut_sel in any::<u64>(),
    ) {
        // Row counts straddle the decoder's 256-row read batch; trace
        // lengths cover a single sample (no deltas), two, and odd ones.
        // The decoder unpacks deltas in groups of eight: `(trace_len - 1)
        // mod 8` takes every value 0..=7, and the longer rows hold at least
        // three whole groups.
        let count = [255, 256, 257][count_sel];
        let trace_len = [1, 2, 3, 4, 13, 17, 30, 32, 255][len_sel];
        let file = handmade_v3(count, trace_len, seed, true);
        let decoded = read_block_v3("prop", file.bytes.as_slice()).unwrap();
        prop_assert_eq!(decoded.len(), count);
        prop_assert_eq!(decoded.trace_len(), trace_len);
        prop_assert_eq!(bits_of(&decoded), file.expected);

        // A truncated file names the lowest row whose bytes fell short:
        // the row holding the first missing byte.
        let cut = 24 + (cut_sel % (file.bytes.len() as u64 - 24)) as usize;
        let row = file.row_ends.iter().position(|&end| end > cut).unwrap();
        match read_block_v3("prop", &file.bytes[..cut]) {
            Err(IoError::Format(msg)) => prop_assert!(
                msg.contains(&format!("at trace {row}:")) || msg.contains(&format!("at trace {row},")),
                "cut at byte {} (row {}): {}", cut, row, msg
            ),
            other => panic!("cut at byte {cut}: expected a format error, got {other:?}"),
        }

        // The library's own encoder over a mixed block of the same shape:
        // ADC-grid rows quantize, rows holding a special value stay raw.
        let adc = AdcDomain::from_range(-1.0, 3.0, 12).unwrap();
        let mut state = seed;
        let mut block = TraceBlock::zeros("prop", count, trace_len).unwrap();
        for (r, mut row) in block.rows_mut().enumerate() {
            for s in row.samples_mut() {
                *s = adc.quantize(-1.0 + 4.0 * (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64);
            }
            if r % 3 == 0 {
                row.samples_mut()[0] = special(splitmix(&mut state), 0.5);
            }
        }
        assert_bits_equal(&v3_round_trip(&block, Some(&adc)), &block);
        assert_bits_equal(&v3_round_trip(&block, None), &block);
    }

    #[test]
    fn adc_grid_blocks_round_trip_bit_exactly(
        bits in 1u32..=16,
        vmin in -5.0f64..5.0,
        span in 0.01f64..50.0,
        trace_len in 1usize..96,
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 96), 1..6),
    ) {
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r[..trace_len].to_vec()).collect();
        let (adc, block) = adc_block(bits, vmin, span, trace_len, &rows);
        // Hinted and hint-free encodes must both reconstruct exactly —
        // they may differ in how many rows quantize, never in content.
        assert_bits_equal(&v3_round_trip(&block, Some(&adc)), &block);
        assert_bits_equal(&v3_round_trip(&block, None), &block);
    }

    #[test]
    fn hinted_adc_blocks_never_fall_back_to_raw(
        bits in 1u32..=16,
        vmin in -5.0f64..5.0,
        span in 0.01f64..50.0,
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 32), 1..5),
    ) {
        // Quantized-through-the-domain samples are by construction values
        // of the decoder's reconstruction expression, so the domain hint
        // must quantize every row: the whole file stays within the
        // metadata + packed-codes budget, strictly below raw f64 size.
        let (adc, block) = adc_block(bits, vmin, span, 32, &rows);
        let mut buf = Vec::new();
        write_block_v3_with_domain(&block, &adc, &mut buf).unwrap();
        let raw_row = 1 + 32 * 8; // flag + raw samples
        let quantized_row_max = 1 + 25 + (31usize * 17).div_ceil(8); // flag+meta+deltas@17b
        prop_assert!(
            buf.len() <= 24 + block.len() * quantized_row_max,
            "{} bytes for {} rows: some row fell back to raw ({} would be raw size)",
            buf.len(),
            block.len(),
            24 + block.len() * raw_row
        );
        assert_bits_equal(&v3_round_trip(&block, Some(&adc)), &block);
    }

    #[test]
    fn hostile_rows_round_trip_bit_exactly(
        trace_len in 1usize..64,
        selectors in prop::collection::vec((0u64..1000, 0.0f64..1.0), 64),
        density in 0u64..8,
    ) {
        // Rows sprinkled with NaN/±inf/subnormal/-0.0 at random positions:
        // these must take the raw fallback (or quantize where still exact)
        // and reproduce bit patterns exactly — including NaN payloads.
        let mut block = TraceBlock::zeros("prop", 3, trace_len).unwrap();
        let mut it = selectors.iter().cycle();
        for mut row in block.rows_mut() {
            for s in row.samples_mut() {
                let &(sel, raw) = it.next().unwrap();
                *s = if sel % 8 <= density {
                    special(sel / 8, raw)
                } else {
                    raw
                };
            }
        }
        assert_bits_equal(&v3_round_trip(&block, None), &block);
    }

    #[test]
    fn v1_and_v2_blocks_cross_convert_to_v3_exactly(
        bits in 1u32..=16,
        span in 0.01f64..50.0,
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 24), 1..5),
    ) {
        let (_, block) = adc_block(bits, 0.0, span, 24, &rows);

        // v1 (IPMKTRC1) -> any-reader -> v3 -> decode.
        let v1 = v1_bytes(&block);
        let from_v1 = read_block_any("prop", v1.as_slice()).unwrap();
        assert_bits_equal(&v3_round_trip(&from_v1, None), &block);

        // v2 (arena IPMKTRC2) -> any-reader -> v3 -> decode.
        let mut v2 = Vec::new();
        write_block(&block, &mut v2).unwrap();
        let from_v2 = read_block_any("prop", v2.as_slice()).unwrap();
        assert_bits_equal(&v3_round_trip(&from_v2, None), &block);

        // The any-reader accepts the v3 bytes themselves.
        let mut v3 = Vec::new();
        write_block_v3(&block, &mut v3).unwrap();
        assert_bits_equal(&read_block_any("prop", v3.as_slice()).unwrap(), &block);
    }

    #[test]
    fn re_encoding_a_decoded_v3_file_is_byte_stable(
        bits in 1u32..=12,
        span in 0.01f64..10.0,
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 16), 1..4),
        hostile in 0u64..1000,
    ) {
        let (_, mut block) = adc_block(bits, 0.0, span, 16, &rows);
        // One arbitrary special value keeps mixed quantized/raw blocks in
        // the loop.
        let idx = (hostile as usize) % block.samples().len();
        let raw = block.samples()[idx];
        block.samples_mut()[idx] = special(hostile, raw);

        let mut first = Vec::new();
        write_block_v3(&block, &mut first).unwrap();
        let decoded = read_block_v3("prop", first.as_slice()).unwrap();
        let mut second = Vec::new();
        write_block_v3(&decoded, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn mapped_reads_match_streamed_reads(
        bits in 1u32..=12,
        span in 0.01f64..10.0,
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 16), 1..4),
        which in 0u32..3,
        chunk in 1usize..7,
    ) {
        let (adc, block) = adc_block(bits, 0.0, span, 16, &rows);
        let mut buf = Vec::new();
        let name = match which {
            0 => {
                buf = v1_bytes(&block);
                "prop.trc1"
            }
            1 => {
                write_block(&block, &mut buf).unwrap();
                "prop.trc2"
            }
            _ => {
                write_block_v3_with_domain(&block, &adc, &mut buf).unwrap();
                "prop.trc3"
            }
        };
        let dir = std::env::temp_dir().join("ipmark-codec-props");
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join(name);
        std::fs::write(&path, &buf).unwrap();

        let mapped = read_block_mapped("prop", &path).unwrap();
        prop_assert_eq!(mapped.len(), block.len());
        prop_assert_eq!(mapped.trace_len(), block.trace_len());
        let mapped_bits: Vec<u64> = mapped.samples().iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(mapped_bits, bits_of(&block));

        // ChunkedSource over the mapping streams the same rows the owned
        // block yields — the seam the streaming session consumes.
        let mut chunks = ChunkedSource::new(&mapped, chunk).unwrap();
        let mut streamed: Vec<Vec<u64>> = Vec::new();
        while let Some(c) = chunks.next_chunk().unwrap() {
            streamed.extend(
                c.rows()
                    .map(|r| r.samples().iter().map(|s| s.to_bits()).collect::<Vec<u64>>()),
            );
        }
        let direct: Vec<Vec<u64>> = block
            .rows()
            .map(|r| r.samples().iter().map(|s| s.to_bits()).collect())
            .collect();
        prop_assert_eq!(streamed, direct);
    }
}
