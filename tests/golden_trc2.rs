//! Golden-vector suite for the `IPMKTRC2` block format (tier 2,
//! `#[ignore]`): a committed binary campaign fixture must keep loading
//! into a bit-identical `TraceBlock`, rewrite to byte-identical file
//! content, and drive the correlation process to the pinned coefficients.
//!
//! Run with:
//!
//! ```text
//! cargo test --release --test golden_trc2 -- --ignored
//! ```
//!
//! To re-bless after an *intentional* change (format or numerics):
//!
//! ```text
//! IPMARK_BLESS=1 cargo test --release --test golden_trc2 -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use ipmark::prelude::*;
use ipmark::traces::io;
use serde_json::{json, Value};

/// The pinned campaign: IP_B, die seed 5, 16 traces x 32 cycles,
/// acquisition seed 11 — small enough to commit (~32 KiB), produced by
/// the same deterministic pipeline as every experiment.
fn campaign_block() -> TraceBlock {
    let chain = default_chain().expect("built-in chain");
    let mut die = FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 5)
        .expect("fabricate die");
    let acq = die.acquisition(&chain, 32, 16, 11).expect("acquisition");
    acq.acquire_block().expect("campaign block")
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("IPMARK_BLESS").is_some_and(|v| v == "1")
}

/// Bytes of the committed binary fixture. Under `IPMARK_BLESS=1` the file
/// is regenerated exactly once, before any test reads it — the tests run
/// concurrently, so the write is serialized through the `OnceLock`.
fn fixture_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = fixture_path("campaign_b.trc2");
        if blessing() {
            let block = campaign_block();
            let mut buf = Vec::new();
            io::write_block(&block, &mut buf).expect("serialize fixture");
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
fn trc2_fixture_loads_bit_identical_to_reacquisition() {
    let block = campaign_block();
    let loaded = io::read_block("campaign_b", fixture_bytes()).expect("read v2");

    assert_eq!(loaded.len(), block.len());
    assert_eq!(loaded.trace_len(), block.trace_len());
    for (i, (a, b)) in loaded.samples().iter().zip(block.samples()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sample {i} drifted: fixture {a:e} vs reacquired {b:e}"
        );
    }
}

#[test]
#[ignore = "tier 2: run with -- --ignored"]
fn trc2_fixture_rewrites_byte_identical() {
    let bytes = fixture_bytes();
    assert_eq!(&bytes[..8], io::BLOCK_MAGIC, "magic drifted");

    let loaded = io::read_block("campaign_b", bytes).expect("read v2");
    let mut rewritten = Vec::new();
    io::write_block(&loaded, &mut rewritten).expect("rewrite");
    assert_eq!(rewritten, bytes, "IPMKTRC2 writer is not byte-stable");

    // The lenient reader accepts the same file.
    assert!(io::read_block_any("campaign_b", bytes).is_ok());
}

#[test]
#[ignore = "tier 2: run with -- --ignored"]
fn correlation_over_trc2_fixture_matches_pinned_coefficients() {
    let json_path = fixture_path("trc2_coefficients.json");
    let block = io::read_block("campaign_b", fixture_bytes()).expect("read v2");
    let coefficients = coefficients_of(&block);

    if blessing() {
        let value = json!({
            "_comment": "correlation coefficients over tests/golden/campaign_b.trc2 \
                         (self-verification, n1=16 n2=16 k=4 m=3, seed 2014); \
                         bits are exact IEEE-754 patterns, values are for humans",
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
