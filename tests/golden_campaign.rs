//! Golden campaign regression (tier 2, `#[ignore]`): pins the reduced
//! 8-cell X10 campaign — every per-cell verdict statistic and every
//! per-adversary AUC — against `tests/golden/campaign.json`, bit-exactly.
//!
//! The same fixture must hold on both execution backends and for every
//! worker-pool thread count (the CI golden job runs the pooled and
//! sequential builds; the thread sweep is checked inside the test itself).
//!
//! Run with:
//!
//! ```text
//! cargo test --release --test golden_campaign -- --ignored
//! ```
//!
//! To re-bless after an *intentional* numeric change:
//!
//! ```text
//! IPMARK_BLESS=1 cargo test --release --test golden_campaign -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use ipmark::core::DistinguisherKind;
use ipmark_bench::campaign::{Campaign, CampaignReport, Pool};
use serde_json::{Number, Value};

const FIXTURE: &str = "campaign.json";
const REBLESS: &str =
    "re-bless with: IPMARK_BLESS=1 cargo test --release --test golden_campaign -- --ignored";

/// The pinned campaign: [`Campaign::reduced`], run once per test binary
/// with the ambient pool.
fn report() -> &'static CampaignReport {
    static REPORT: OnceLock<CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        Campaign::reduced()
            .run(&Pool::from_env())
            .expect("reduced campaign")
    })
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(FIXTURE)
}

fn blessing() -> bool {
    std::env::var_os("IPMARK_BLESS").is_some()
}

/// One pinned scalar: exact IEEE-754 bits plus a readable decimal.
fn pinned(x: f64) -> Value {
    Value::Object(vec![
        (
            "bits".into(),
            Value::String(format!("{:016x}", x.to_bits())),
        ),
        ("value".into(), Value::Number(Number::Float(x))),
    ])
}

fn pinned_row(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| pinned(x)).collect())
}

fn unpin(value: &Value, at: &str) -> f64 {
    let hex = value
        .get("bits")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("fixture entry {at} has no `bits` field; {REBLESS}"));
    let bits = u64::from_str_radix(hex, 16)
        .unwrap_or_else(|e| panic!("fixture entry {at} has malformed bits {hex:?}: {e}"));
    f64::from_bits(bits)
}

/// Echoes everything that defines the campaign, so the fixture refuses to
/// compare against a different grid or configuration.
fn config_value(campaign: &Campaign) -> Value {
    let config = campaign.config();
    let grid = campaign.grid();
    Value::Object(vec![
        ("ip".into(), Value::String(campaign.ip().name().to_string())),
        (
            "cells".into(),
            Value::Number(Number::PosInt(grid.len() as u64)),
        ),
        (
            "cycles".into(),
            Value::Number(Number::PosInt(config.cycles as u64)),
        ),
        (
            "n1".into(),
            Value::Number(Number::PosInt(config.params.n1 as u64)),
        ),
        (
            "n2".into(),
            Value::Number(Number::PosInt(config.params.n2 as u64)),
        ),
        (
            "k".into(),
            Value::Number(Number::PosInt(config.params.k as u64)),
        ),
        (
            "m".into(),
            Value::Number(Number::PosInt(config.params.m as u64)),
        ),
        (
            "master_seed".into(),
            Value::Number(Number::PosInt(config.master_seed)),
        ),
    ])
}

/// The fixture sections: one row of `[pos.mean, pos.var, neg.mean,
/// neg.var]` per cell, labelled by its coordinate, then one row of
/// `[AUC(mean), AUC(variance)]` per adversary.
fn sections() -> Vec<(String, Vec<f64>)> {
    let report = report();
    let mut rows: Vec<(String, Vec<f64>)> = report
        .outcomes()
        .iter()
        .map(|outcome| {
            let c = outcome.coord;
            (
                format!(
                    "cell[{} {} corner{} sigma{}]",
                    c.index,
                    report.adversary_labels()[c.adversary],
                    c.corner,
                    c.noise
                ),
                outcome.stats().to_vec(),
            )
        })
        .collect();
    for (label, mean_roc, var_roc) in report.adversary_rocs().expect("roc aggregation") {
        rows.push((format!("auc[{label}]"), vec![mean_roc.auc(), var_roc.auc()]));
    }
    rows
}

#[test]
#[ignore = "tier 2: release-mode golden campaign (~seconds); run with -- --ignored"]
fn golden_campaign_cells_and_aucs() {
    let campaign = Campaign::reduced();
    let rows = sections();
    let path = fixture_path();

    if blessing() {
        let mut fields = vec![("config".into(), config_value(&campaign))];
        for (label, values) in &rows {
            fields.push((label.clone(), pinned_row(values)));
        }
        let text = serde_json::to_string_pretty(&Value::Object(fields)).expect("render fixture");
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create tests/golden");
        std::fs::write(&path, text + "\n").expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it first: {REBLESS}",
            path.display()
        )
    });
    let fixture: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("unparseable fixture {}: {e:?}", path.display()));

    let expected_config = serde_json::to_string(&config_value(&campaign)).expect("render");
    let stored_config = fixture
        .get("config")
        .map(|c| serde_json::to_string(c).expect("render"))
        .unwrap_or_default();
    assert_eq!(
        stored_config, expected_config,
        "fixture pins a different campaign; {REBLESS}"
    );

    let mut drift: Vec<String> = Vec::new();
    for (label, values) in &rows {
        let Some(stored) = fixture.get(label).and_then(Value::as_array) else {
            drift.push(format!("section {label}: missing from fixture"));
            continue;
        };
        if stored.len() != values.len() {
            drift.push(format!(
                "section {label}: fixture has {} entries, campaign produced {}",
                stored.len(),
                values.len()
            ));
            continue;
        }
        for (i, (entry, &got)) in stored.iter().zip(values.iter()).enumerate() {
            let at = format!("{label}[{i}]");
            let expected = unpin(entry, &at);
            if expected.to_bits() != got.to_bits() {
                drift.push(format!(
                    "{at}: expected {:016x} ({expected}), got {:016x} ({got})",
                    expected.to_bits(),
                    got.to_bits()
                ));
            }
        }
    }

    assert!(
        drift.is_empty(),
        "golden campaign drift in {} ({} cell(s)):\n  {}\nif the change is intentional, {REBLESS}",
        path.display(),
        drift.len(),
        drift.join("\n  ")
    );
}

#[test]
#[ignore = "tier 2: release-mode golden campaign (~seconds); run with -- --ignored"]
fn golden_campaign_is_thread_invariant() {
    // The fixture pins the from_env run; explicit 1- and 3-worker pools
    // must reproduce it bit-for-bit (DESIGN.md §12 seeding contract).
    let campaign = Campaign::reduced();
    for threads in [1, 3] {
        let rerun = campaign
            .run(&Pool::with_threads(threads))
            .expect("reduced campaign");
        assert_eq!(
            &rerun,
            report(),
            "campaign diverged at {threads} worker threads"
        );
    }
}

#[test]
#[ignore = "tier 2: release-mode golden campaign (~seconds); run with -- --ignored"]
fn golden_campaign_separates_honest_from_forger() {
    // Shape pin, independent of the fixture: on the reduced grid the
    // honest adversary's mean-distinguisher AUC must dominate the
    // guessed-key forger's.
    let report = report();
    let honest = report
        .adversary_roc(0, DistinguisherKind::Mean)
        .expect("honest roc")
        .auc();
    let forger = report
        .adversary_roc(1, DistinguisherKind::Mean)
        .expect("forger roc")
        .auc();
    assert!(
        honest >= forger,
        "honest AUC {honest:.3} below forger AUC {forger:.3}"
    );
}
