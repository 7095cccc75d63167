//! Structural validation of the SARIF 2.1.0 renderer: the output must
//! parse as JSON and satisfy the schema's required properties for the
//! subset of objects we emit (run, tool.driver, reportingDescriptor,
//! result, physicalLocation). The offline environment has no JSON-Schema
//! validator, so the required/typed constraints of sarif-schema-2.1.0 are
//! asserted directly against the parsed tree.

use serde_json::Value;

use xtask::config::AllowlistOutcome;
use xtask::report::{render, Format, RunStats};
use xtask::rules::{Finding, RULES};

fn render_sarif(outcome: &AllowlistOutcome) -> Value {
    let stats = RunStats {
        files: 1,
        suppressed: 0,
    };
    let text = render(outcome, &stats, Format::Sarif);
    serde_json::from_str(&text).expect("SARIF output is valid JSON")
}

fn sample_outcome() -> AllowlistOutcome {
    AllowlistOutcome {
        kept: vec![
            Finding {
                rule: "CC001",
                path: "crates/core/src/helpers.rs".into(),
                line: 13,
                message: "ad-hoc accumulation with \"quotes\" and a\nnewline".into(),
            },
            Finding {
                rule: "PF006",
                path: "crates/traces/src/stats.rs".into(),
                line: 190,
                message: "non-literal index".into(),
            },
        ],
        suppressed: Vec::new(),
        unused: Vec::new(),
        stale_entry_points: Vec::new(),
    }
}

#[test]
fn log_has_the_required_top_level_properties() {
    let log = render_sarif(&sample_outcome());
    // sarif-schema-2.1.0: `version` and `runs` are required; version is
    // the literal "2.1.0".
    assert_eq!(log.get("version").and_then(Value::as_str), Some("2.1.0"));
    assert!(log
        .get("$schema")
        .and_then(Value::as_str)
        .is_some_and(|s| s.contains("sarif-2.1.0")));
    let runs = log
        .get("runs")
        .and_then(Value::as_array)
        .expect("runs array");
    assert_eq!(runs.len(), 1);
}

#[test]
fn run_declares_the_tool_driver_with_the_full_rule_catalogue() {
    let log = render_sarif(&sample_outcome());
    let run = &log.get("runs").and_then(Value::as_array).unwrap()[0];
    // schema: run.tool is required; tool.driver is required; driver.name
    // is required.
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Value::as_str),
        Some("ipmark-xtask-lint")
    );
    let rules = driver
        .get("rules")
        .and_then(Value::as_array)
        .expect("driver.rules");
    assert_eq!(rules.len(), RULES.len());
    for rule in rules {
        // schema: reportingDescriptor requires `id`; our renderer also
        // promises a shortDescription with text.
        assert!(rule.get("id").and_then(Value::as_str).is_some());
        assert!(rule
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Value::as_str)
            .is_some());
    }
    // Every finding's ruleId must exist in the catalogue.
    let ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Value::as_str))
        .collect();
    assert!(ids.contains(&"CC001") && ids.contains(&"PF006"));
}

#[test]
fn results_carry_message_and_physical_location() {
    let log = render_sarif(&sample_outcome());
    let run = &log.get("runs").and_then(Value::as_array).unwrap()[0];
    let results = run
        .get("results")
        .and_then(Value::as_array)
        .expect("results");
    assert_eq!(results.len(), 2);
    for res in results {
        // schema: result.message is required (with text for plain
        // messages); ruleId ties back to the catalogue.
        assert!(res
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .is_some());
        assert!(res.get("ruleId").and_then(Value::as_str).is_some());
        let loc = &res
            .get("locations")
            .and_then(Value::as_array)
            .expect("locations")[0];
        let phys = loc.get("physicalLocation").expect("physicalLocation");
        // schema: artifactLocation.uri is a string; region.startLine is a
        // positive integer.
        assert!(phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Value::as_str)
            .is_some_and(|u| u.starts_with("crates/")));
        let line = phys
            .get("region")
            .and_then(|r| r.get("startLine"))
            .expect("startLine");
        assert!(matches!(line, Value::Number(_)));
    }
    // Embedded quotes/newlines survived the round trip.
    let msg = results[0]
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(msg.contains("\"quotes\"") && msg.contains('\n'));
}

#[test]
fn clean_run_is_marked_successful_and_stale_entries_fail_it() {
    let clean = render_sarif(&AllowlistOutcome {
        kept: Vec::new(),
        suppressed: Vec::new(),
        unused: Vec::new(),
        stale_entry_points: Vec::new(),
    });
    let run = &clean.get("runs").and_then(Value::as_array).unwrap()[0];
    assert_eq!(
        run.get("results").and_then(Value::as_array).map(<[_]>::len),
        Some(0)
    );
    let inv = &run
        .get("invocations")
        .and_then(Value::as_array)
        .expect("invocations")[0];
    assert_eq!(
        inv.get("executionSuccessful"),
        Some(&Value::Bool(true)),
        "clean run reports success"
    );

    let stale = render_sarif(&AllowlistOutcome {
        kept: Vec::new(),
        suppressed: Vec::new(),
        unused: vec![xtask::config::AllowEntry {
            rule: "NS004".into(),
            path: "gone.rs".into(),
            reason: "stale".into(),
        }],
        stale_entry_points: vec!["Gone::entry".into()],
    });
    let run = &stale.get("runs").and_then(Value::as_array).unwrap()[0];
    let inv = &run.get("invocations").and_then(Value::as_array).unwrap()[0];
    assert_eq!(inv.get("executionSuccessful"), Some(&Value::Bool(false)));
    let notes = inv
        .get("toolExecutionNotifications")
        .and_then(Value::as_array)
        .expect("notifications");
    let text = |i: usize| {
        notes[i]
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    assert_eq!(notes.len(), 2);
    assert!(text(0).contains("stale") && text(0).contains("NS004"));
    assert!(text(1).contains("stale") && text(1).contains("Gone::entry"));
}

/// The real workspace's SARIF output parses and round-trips: guards the
/// renderer against escaping bugs in actual rule messages and paths.
#[test]
fn workspace_sarif_parses() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (outcome, stats) = xtask::run_lint(&root).expect("lint run succeeds");
    let text = render(&outcome, &stats, Format::Sarif);
    let log: Value = serde_json::from_str(&text).expect("workspace SARIF is valid JSON");
    assert_eq!(log.get("version").and_then(Value::as_str), Some("2.1.0"));
}
