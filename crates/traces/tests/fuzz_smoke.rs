//! Bounded, deterministic fuzz smoke for the untrusted-input readers.
//!
//! The full coverage-guided harness lives in `fuzz/` (cargo-fuzz layout,
//! nightly-only, excluded from the workspace). This in-tree twin replays
//! the same mutation strategies — seeded from the committed `IPMKTRC2`
//! campaign fixture — with a fixed RNG seed, so every CI run exercises a
//! reproducible sample of hostile inputs under `overflow-checks = true`.
//!
//! The contract under test: [`read_block_any`] / [`read_csv`] on arbitrary
//! bytes either return a decoded container or a structured [`IoError`] —
//! never a panic, an abort, or an unbounded allocation. Files opened with
//! [`read_block_mapped`] either fail the same way or serve, through
//! `accumulate_indices`, exactly the rows [`read_block_any`] decodes.

use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ipmark_traces::io::{
    read_block, read_block_any, read_block_v3, read_csv, write_block, write_block_v3, IoError,
    BINARY_MAGIC,
};
use ipmark_traces::{read_block_mapped, TraceSource};

/// Iterations per strategy; override with `FUZZ_SMOKE_ITERS` for longer
/// local soaks. The default keeps the job inside a few hundred ms.
fn iters() -> usize {
    std::env::var("FUZZ_SMOKE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The committed campaign fixture: a real 16x256 `IPMKTRC2` file that the
/// golden suite pins byte-exactly, reused here as the mutation seed corpus.
fn fixture_bytes() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/campaign_b.trc2");
    std::fs::read(path).expect("committed campaign_b.trc2 fixture")
}

/// The committed quantized fixture: the `IPMKTRC3` golden that the tier-2
/// suite pins byte-exactly, reused as the v3 mutation seed.
fn fixture_bytes_v3() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/block.trc3");
    std::fs::read(path).expect("committed block.trc3 fixture")
}

/// Byte offset of every row-flag byte in a well-formed v3 file, found by
/// walking the same layout the reader decodes: targeted corruption needs
/// to know where the structure-bearing bytes live.
fn v3_flag_offsets(bytes: &[u8]) -> Vec<usize> {
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let trace_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let mut offsets = Vec::with_capacity(count);
    let mut at = 24usize;
    for _ in 0..count {
        offsets.push(at);
        at += match bytes[at] {
            1 => 1 + trace_len * 8,
            0 => {
                let width = usize::from(bytes[at + 25]);
                1 + 25 + ((trace_len - 1) * width).div_ceil(8)
            }
            other => panic!("fixture has unknown row flag {other}"),
        };
    }
    assert_eq!(at, bytes.len(), "fixture walk must consume the whole file");
    offsets
}

/// The only acceptable outcomes for hostile input: clean decode or a
/// structured format/container error. An `Io` error would mean the reader
/// leaked an underlying-reader failure for in-memory input.
fn assert_contained<T>(result: Result<T, IoError>, what: &str) {
    if let Err(e) = result {
        assert!(
            matches!(e, IoError::Format(_) | IoError::Trace(_)),
            "{what}: unexpected error class: {e}"
        );
    }
}

#[test]
fn mutated_fixture_never_panics_the_block_reader() {
    let seed = fixture_bytes();
    let mut rng = SmallRng::seed_from_u64(0x1b07_5eed);
    for _ in 0..iters() {
        let mut buf = seed.clone();
        // A burst of byte-level mutations: flips, splices, truncation.
        for _ in 0..rng.gen_range(1usize..16) {
            match rng.gen_range(0u32..4) {
                0 => {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] ^= 1 << rng.gen_range(0u32..8);
                }
                1 => {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] = rng.gen::<u8>();
                }
                2 => {
                    let keep = rng.gen_range(0..buf.len());
                    buf.truncate(keep);
                    if buf.is_empty() {
                        break;
                    }
                }
                _ => {
                    let extra = rng.gen_range(1usize..64);
                    buf.extend(std::iter::repeat_with(|| rng.gen::<u8>()).take(extra));
                }
            }
        }
        assert_contained(read_block_any("fuzz", buf.as_slice()), "mutated fixture");
    }
}

/// The mapped leg of the block-reader wall: mutated `IPMKTRC1`/`IPMKTRC2`
/// fixtures go through a file, as a stored corpus does. Opening must fail
/// exactly when the streaming reader fails, and an opened file's rows, read
/// back with `accumulate_indices`, must match the streaming decode bit for
/// bit.
#[test]
fn mutated_fixture_reads_back_through_the_mapped_source() {
    let seed = fixture_bytes();
    let dir = std::env::temp_dir().join("ipmark-fuzz-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mutant.trc");
    let mut rng = SmallRng::seed_from_u64(0x3a99_ed5e);
    let mut opened = 0usize;
    for _ in 0..iters() {
        let mut buf = seed.clone();
        if rng.gen::<bool>() {
            buf[..8].copy_from_slice(BINARY_MAGIC);
        }
        for _ in 0..rng.gen_range(1usize..4) {
            match rng.gen_range(0u32..4) {
                0 => {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] ^= 1 << rng.gen_range(0u32..8);
                }
                1 => {
                    let i = rng.gen_range(0..buf.len().min(64));
                    buf[i] = rng.gen::<u8>();
                }
                2 => {
                    let keep = rng.gen_range(0..buf.len());
                    buf.truncate(keep);
                    if buf.is_empty() {
                        break;
                    }
                }
                _ => {
                    let extra = rng.gen_range(1usize..64);
                    buf.extend(std::iter::repeat_with(|| rng.gen::<u8>()).take(extra));
                }
            }
        }
        std::fs::write(&path, &buf).expect("write mutant");
        let streamed = read_block_any("fuzz", buf.as_slice());
        let mapped = match read_block_mapped("fuzz", &path) {
            Ok(mapped) => mapped,
            Err(e) => {
                assert_contained::<()>(Err(e), "mutated fixture (mapped)");
                assert!(
                    streamed.is_err(),
                    "the mapped reader refused a file read_block_any decodes"
                );
                continue;
            }
        };
        let streamed = streamed.expect("read_block_any refused a file the mapped reader opened");
        opened += 1;
        assert_eq!(mapped.len(), streamed.len());
        let mut rows = Vec::with_capacity(streamed.samples().len());
        // `-0.0` is the additive identity: the row reads back every stored
        // sample bit, the sign of a stored zero included.
        let mut row = vec![-0.0; mapped.trace_len()];
        for i in 0..mapped.len() {
            row.fill(-0.0);
            mapped
                .accumulate_indices(&[i], &mut row)
                .expect("an opened file serves every row");
            rows.extend(row.iter().map(|s| s.to_bits()));
        }
        let want: Vec<u64> = streamed.samples().iter().map(|s| s.to_bits()).collect();
        assert_eq!(rows, want, "mapped rows must match the streaming decode");
    }
    assert!(opened > 0, "payload mutations should usually open");
}

#[test]
fn hostile_headers_fail_fast_without_huge_allocations() {
    let mut rng = SmallRng::seed_from_u64(0x4ead_0000_5eed);
    for _ in 0..iters() {
        // Valid magic (any version), adversarial count/len words chosen
        // to probe the overflow guard: powers of two, usize::MAX-adjacent
        // values, and random giants.
        let mut buf = Vec::new();
        buf.extend_from_slice(match rng.gen_range(0u32..3) {
            0 => ipmark_traces::io::BINARY_MAGIC,
            1 => ipmark_traces::io::BLOCK_MAGIC,
            _ => ipmark_traces::io::BLOCK_V3_MAGIC,
        });
        let word = |rng: &mut SmallRng| -> u64 {
            match rng.gen_range(0u32..4) {
                0 => 1u64 << rng.gen_range(0u32..64),
                1 => u64::MAX - u64::from(rng.gen_range(0u32..8)),
                2 => rng.gen::<u64>(),
                _ => u64::from(rng.gen_range(0u32..32)),
            }
        };
        buf.extend_from_slice(&word(&mut rng).to_le_bytes());
        buf.extend_from_slice(&word(&mut rng).to_le_bytes());
        // A sliver of payload so small declared sizes can also hit the
        // truncation path rather than succeeding vacuously.
        let tail = rng.gen_range(0usize..64);
        buf.extend(std::iter::repeat_with(|| rng.gen::<u8>()).take(tail));
        assert_contained(read_block_any("fuzz", buf.as_slice()), "hostile header");
    }
    // v3 headers whose `count x len x 8` fits in u64 (so the overflow guard
    // passes) but that no allocator can back: the v3 reader reserves its
    // arena up front and must report the failure as a format error, never
    // abort.
    for (count, len) in [
        (1u64 << 40, 1u64 << 10),
        (1 << 50, 1),
        (1, 1 << 55),
        ((1 << 60) - 1, 1),
    ] {
        for tail in [&[][..], &[0u8; 26][..], &[1u8; 9][..]] {
            let mut buf = Vec::new();
            buf.extend_from_slice(ipmark_traces::io::BLOCK_V3_MAGIC);
            buf.extend_from_slice(&count.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(tail);
            for result in [
                read_block_any("fuzz", buf.as_slice()),
                read_block_v3("fuzz", buf.as_slice()),
            ] {
                match result {
                    Err(IoError::Format(_)) => {}
                    other => panic!("{count} x {len}: expected a format error, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn random_bytes_never_panic_either_reader() {
    let mut rng = SmallRng::seed_from_u64(0xfee1_dead_beef);
    for _ in 0..iters() {
        let len = rng.gen_range(0usize..512);
        let buf: Vec<u8> = std::iter::repeat_with(|| rng.gen::<u8>())
            .take(len)
            .collect();
        assert_contained(read_block_any("fuzz", buf.as_slice()), "random bytes");
        assert_contained(read_csv("fuzz", buf.as_slice()), "random csv bytes");
    }
}

#[test]
fn mutated_csv_text_never_panics_the_csv_reader() {
    let mut rng = SmallRng::seed_from_u64(0xc5_0b5e55);
    const PIECES: &[&str] = &[
        "1.0", "-2.5e3", "nan", "NaN", "inf", "-inf", "0", "", " ", ",", ",,", "1e", "e1", "+",
        "-", ".", "..", "1.2.3", "0x10", "_", "\u{fffd}", "1_000", "9e999", "-9e999",
    ];
    for _ in 0..iters() {
        let mut text = String::new();
        for _ in 0..rng.gen_range(0usize..8) {
            let cols = rng.gen_range(0usize..6);
            for c in 0..cols {
                if c > 0 {
                    text.push(',');
                }
                text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
            }
            text.push('\n');
        }
        assert_contained(read_csv("fuzz", text.as_bytes()), "mutated csv");
    }
}

/// Decodes that survive mutation must still round-trip bit-exactly: the
/// reader may not "repair" payloads into something the writer would encode
/// differently.
#[test]
fn surviving_decodes_round_trip_bit_exactly() {
    let seed = fixture_bytes();
    let mut rng = SmallRng::seed_from_u64(0x0707_0707);
    let mut survivors = 0usize;
    for _ in 0..iters() {
        let mut buf = seed.clone();
        // Payload-only bit flips: the header stays valid, so most mutants
        // decode successfully and exercise the round-trip arm.
        let i = rng.gen_range(24..buf.len());
        buf[i] ^= 1 << rng.gen_range(0u32..8);
        if let Ok(block) = read_block_any("fuzz", buf.as_slice()) {
            survivors += 1;
            let mut out = Vec::new();
            write_block(&block, &mut out).expect("in-memory write");
            // Header: magic upgraded to v2; payload: byte-identical.
            assert_eq!(
                &out[8..],
                &buf[8..],
                "decode/encode must preserve payload bytes"
            );
        }
    }
    assert!(survivors > 0, "payload flips should usually decode");
}

/// The v3 twin of the `IPMKTRC2` mutation strategy: random flips, splices
/// and truncations over the committed quantized fixture, through both the
/// strict v3 reader and the lenient any-reader.
#[test]
fn mutated_v3_fixture_never_panics_the_reader() {
    let seed = fixture_bytes_v3();
    let mut rng = SmallRng::seed_from_u64(0x7ac3_5eed);
    for _ in 0..iters() {
        let mut buf = seed.clone();
        for _ in 0..rng.gen_range(1usize..16) {
            match rng.gen_range(0u32..4) {
                0 => {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] ^= 1 << rng.gen_range(0u32..8);
                }
                1 => {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] = rng.gen::<u8>();
                }
                2 => {
                    let keep = rng.gen_range(0..buf.len());
                    buf.truncate(keep);
                    if buf.is_empty() {
                        break;
                    }
                }
                _ => {
                    let extra = rng.gen_range(1usize..64);
                    buf.extend(std::iter::repeat_with(|| rng.gen::<u8>()).take(extra));
                }
            }
        }
        assert_contained(read_block_v3("fuzz", buf.as_slice()), "mutated v3 fixture");
        assert_contained(
            read_block_any("fuzz", buf.as_slice()),
            "mutated v3 fixture (any)",
        );
    }
}

/// Structure-targeted corruption: unknown row flags and over-wide delta
/// widths must be *specifically* `Format` — the reader knows these bytes'
/// meaning and must name the violation, not stumble into a generic error.
#[test]
fn v3_row_flag_and_width_corruption_is_a_format_error() {
    let seed = fixture_bytes_v3();
    let flags = v3_flag_offsets(&seed);
    assert!(!flags.is_empty(), "fixture must have rows");

    // Any flag byte outside {0, 1} invalidates that row outright.
    for &at in &flags {
        for bad in [2u8, 0x42, 0xff] {
            let mut buf = seed.clone();
            buf[at] = bad;
            match read_block_v3("fuzz", buf.as_slice()) {
                Err(IoError::Format(msg)) => {
                    assert!(
                        msg.contains("flag"),
                        "diagnostic should name the flag: {msg}"
                    )
                }
                other => panic!("unknown flag {bad:#x} at {at}: expected Format, got {other:?}"),
            }
        }
    }

    // A quantized row's width byte > 64 cannot describe u64 deltas.
    let quantized: Vec<usize> = flags.iter().copied().filter(|&at| seed[at] == 0).collect();
    assert!(!quantized.is_empty(), "fixture must have quantized rows");
    for &at in &quantized {
        for bad in [65u8, 0x80, 0xff] {
            let mut buf = seed.clone();
            buf[at + 25] = bad;
            assert!(
                matches!(
                    read_block_v3("fuzz", buf.as_slice()),
                    Err(IoError::Format(_))
                ),
                "width {bad} at row offset {at}: expected Format"
            );
        }
    }

    // Flipping a flag between raw and quantized re-interprets the payload:
    // either it still parses (and must re-encode cleanly) or it fails with
    // a structured error — typically truncation, since row sizes shifted.
    for &at in &flags {
        let mut buf = seed.clone();
        buf[at] ^= 1;
        assert_contained(read_block_v3("fuzz", buf.as_slice()), "flipped row flag");
    }

    // Truncating inside the bit-packed payload (anywhere past the header)
    // must surface as `Format`, never a panic or short read.
    for keep in (25..seed.len()).step_by(7) {
        let buf = &seed[..keep];
        assert!(
            matches!(read_block_v3("fuzz", buf), Err(IoError::Format(_))),
            "truncation at {keep} bytes: expected Format"
        );
    }
}

/// The streamed `IPMKTRC2` reader's header guard: `count * trace_len * 8`
/// products engineered to overflow `u64`/`usize` must fail as `Format`
/// immediately — before any allocation is attempted.
#[test]
fn v2_header_dimension_overflow_is_a_format_error() {
    let giants: &[(u64, u64)] = &[
        (u64::MAX, u64::MAX),
        (u64::MAX, 1),
        (1, u64::MAX),
        (u64::MAX / 8 + 1, 1),
        (1u64 << 61, 8),
        (1u64 << 32, 1u64 << 32),
        ((1u64 << 32) + 1, (1u64 << 31) + 3),
        (u64::MAX / 3, 3),
    ];
    for &(count, trace_len) in giants {
        let mut buf = Vec::new();
        buf.extend_from_slice(ipmark_traces::io::BLOCK_MAGIC);
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&trace_len.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]); // a sliver of "payload"
        assert!(
            matches!(read_block("fuzz", buf.as_slice()), Err(IoError::Format(_))),
            "count={count} trace_len={trace_len}: expected Format from read_block"
        );
        assert!(
            matches!(
                read_block_any("fuzz", buf.as_slice()),
                Err(IoError::Format(_))
            ),
            "count={count} trace_len={trace_len}: expected Format from read_block_any"
        );
    }
}

/// v3 decodes that survive payload mutation must re-encode into a file
/// that decodes back bit-identically. Byte equality with the mutant is
/// *not* required (a flipped width byte may be wider than minimal, which
/// the re-encoder tightens) — but the sample bits are the contract.
#[test]
fn surviving_v3_decodes_re_encode_bit_stably() {
    let seed = fixture_bytes_v3();
    let mut rng = SmallRng::seed_from_u64(0x003c_0dec);
    let mut survivors = 0usize;
    for _ in 0..iters() {
        let mut buf = seed.clone();
        let i = rng.gen_range(24..buf.len());
        buf[i] ^= 1 << rng.gen_range(0u32..8);
        if let Ok(block) = read_block_v3("fuzz", buf.as_slice()) {
            survivors += 1;
            let mut out = Vec::new();
            write_block_v3(&block, &mut out).expect("in-memory write");
            let again = read_block_v3("fuzz", out.as_slice()).expect("re-encode must decode");
            assert_eq!(again.len(), block.len());
            let a: Vec<u64> = again.samples().iter().map(|s| s.to_bits()).collect();
            let b: Vec<u64> = block.samples().iter().map(|s| s.to_bits()).collect();
            assert_eq!(a, b, "re-encode round trip must be bit-exact");
        }
    }
    assert!(survivors > 0, "payload flips should sometimes decode");
}
