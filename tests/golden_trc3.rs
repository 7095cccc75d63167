//! Golden-vector suite for the `IPMKTRC3` quantized wire format (tier 2,
//! `#[ignore]`): a committed `.trc3` fixture must keep decoding into a
//! bit-identical `TraceBlock`, re-encode to byte-identical file content,
//! stay ≥ 4× smaller than its `IPMKTRC2` rendering, and drive the
//! correlation process to the pinned coefficients.
//!
//! Run with:
//!
//! ```text
//! cargo test --release --test golden_trc3 -- --ignored
//! ```
//!
//! To re-bless after an *intentional* change (format or numerics):
//!
//! ```text
//! IPMARK_BLESS=1 cargo test --release --test golden_trc3 -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use ipmark::prelude::*;
use ipmark::traces::io;
use ipmark::traces::AdcDomain;
use serde_json::{json, Value};

/// The fixture's ADC front-end: a 12-bit converter spanning `[0, 64]`
/// power units — wide enough that the pinned campaign never clamps. The
/// same domain is used to bless, decode-verify and re-encode; it is part
/// of the fixture's definition.
fn adc() -> AdcDomain {
    AdcDomain::from_range(0.0, 64.0, 12).expect("static domain")
}

/// The pinned campaign: IP_B, die seed 5, 16 traces x 32 cycles,
/// acquisition seed 11 (the same pipeline as the `trc2` suite), snapped
/// onto the ADC grid — quantization is what `IPMKTRC3` exists to exploit.
fn campaign_block() -> TraceBlock {
    let chain = default_chain().expect("built-in chain");
    let mut die = FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 5)
        .expect("fabricate die");
    let acq = die.acquisition(&chain, 32, 16, 11).expect("acquisition");
    let mut block = acq.acquire_block().expect("campaign block");
    adc().quantize_block(&mut block);
    block
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("IPMARK_BLESS").is_some_and(|v| v == "1")
}

/// Bytes of the committed `.trc3` fixture. Under `IPMARK_BLESS=1` the
/// file is regenerated exactly once, before any test reads it.
fn fixture_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = fixture_path("block.trc3");
        if blessing() {
            let block = campaign_block();
            let mut buf = Vec::new();
            io::write_block_v3_with_domain(&block, &adc(), &mut buf).expect("serialize fixture");
            std::fs::write(&path, &buf).expect("write fixture");
        }
        std::fs::read(&path).expect("fixture exists; bless with IPMARK_BLESS=1")
    })
}

/// The m pinned correlation coefficients: the fixture campaign verified
/// against itself at `n1 = 16, n2 = 16, k = 4, m = 3`, seed 2014.
fn coefficients_of(block: &TraceBlock) -> Vec<f64> {
    use rand::SeedableRng;
    let params = CorrelationParams {
        n1: 16,
        n2: 16,
        k: 4,
        m: 3,
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2014);
    correlation_process(block, block, &params, &mut rng)
        .expect("correlation process")
        .coefficients()
        .to_vec()
}

#[test]
#[ignore = "tier 2: run with -- --ignored"]
fn trc3_fixture_loads_bit_identical_to_requantization() {
    let block = campaign_block();
    let loaded = io::read_block_v3("block", fixture_bytes()).expect("read v3");

    assert_eq!(loaded.len(), block.len());
    assert_eq!(loaded.trace_len(), block.trace_len());
    for (i, (a, b)) in loaded.samples().iter().zip(block.samples()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sample {i} drifted: fixture {a:e} vs requantized {b:e}"
        );
    }
}

#[test]
#[ignore = "tier 2: run with -- --ignored"]
fn trc3_fixture_reencodes_byte_identical_and_beats_v2_four_fold() {
    let bytes = fixture_bytes();
    assert_eq!(&bytes[..8], io::BLOCK_V3_MAGIC, "magic drifted");

    let loaded = io::read_block_v3("block", bytes).expect("read v3");
    let mut rewritten = Vec::new();
    io::write_block_v3_with_domain(&loaded, &adc(), &mut rewritten).expect("rewrite");
    assert_eq!(rewritten, bytes, "IPMKTRC3 writer is not byte-stable");

    // Hint-free re-encode is byte-stable against its own decode too (the
    // encoder is pure in sample bits + hint).
    let mut first = Vec::new();
    io::write_block_v3(&loaded, &mut first).expect("encode");
    let decoded = io::read_block_v3("block", first.as_slice()).expect("decode");
    let mut second = Vec::new();
    io::write_block_v3(&decoded, &mut second).expect("re-encode");
    assert_eq!(first, second, "hint-free writer is not byte-stable");

    // The wire-size contract against the raw-f64 v2 rendering.
    let mut v2 = Vec::new();
    io::write_block(&loaded, &mut v2).expect("v2 rendering");
    assert!(
        bytes.len() * 4 <= v2.len(),
        "trc3 {} bytes vs trc2 {}: under the 4x contract",
        bytes.len(),
        v2.len()
    );

    // The lenient reader accepts the same file; the strict v2 reader
    // refuses it; the mmap entry point (owned fallback for v3) agrees.
    assert!(io::read_block_any("block", bytes).is_ok());
    assert!(io::read_block("block", bytes).is_err());
    let mapped =
        ipmark::traces::read_block_mapped("block", &fixture_path("block.trc3")).expect("mapped");
    assert_eq!(
        mapped
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        loaded
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
    );
}

#[test]
#[ignore = "tier 2: run with -- --ignored"]
fn correlation_over_trc3_fixture_matches_pinned_coefficients() {
    let json_path = fixture_path("trc3_coefficients.json");
    let block = io::read_block_v3("block", fixture_bytes()).expect("read v3");
    let coefficients = coefficients_of(&block);

    if blessing() {
        let value = json!({
            "_comment": "correlation coefficients over tests/golden/block.trc3 \
                         (12-bit ADC [0,64] quantized campaign, self-verification, \
                         n1=16 n2=16 k=4 m=3, seed 2014); bits are exact IEEE-754 \
                         patterns, values are for humans",
            "bits": coefficients.iter().map(|c| format!("{:016x}", c.to_bits())).collect::<Vec<_>>(),
            "values": coefficients.clone(),
        });
        std::fs::write(
            &json_path,
            serde_json::to_string_pretty(&value).expect("json"),
        )
        .expect("write fixture");
    }

    let text = std::fs::read_to_string(&json_path).expect("fixture exists");
    let value: Value = serde_json::from_str(&text).expect("valid json");
    let pinned: Vec<u64> = value
        .get("bits")
        .expect("bits field")
        .as_array()
        .expect("bits array")
        .iter()
        .map(|b| u64::from_str_radix(b.as_str().expect("hex string"), 16).expect("hex"))
        .collect();

    assert_eq!(
        pinned.len(),
        coefficients.len(),
        "coefficient count drifted"
    );
    for (i, (p, c)) in pinned.iter().zip(&coefficients).enumerate() {
        assert_eq!(
            *p,
            c.to_bits(),
            "coefficient {i} drifted: pinned {:016x} ({:e}) vs computed {:016x} ({c:e})",
            p,
            f64::from_bits(*p),
            c.to_bits(),
        );
    }
}
