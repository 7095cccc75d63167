//! DA001 over the fixture mini-workspace in `tests/fixtures/dead_api/`:
//! which callers count, which do not, and how the findings render.

use std::path::{Path, PathBuf};

use serde_json::Value;
use xtask::config::{self, AllowlistOutcome};
use xtask::report::{render, Format, RunStats};
use xtask::rules::RULES;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_api")
}

fn relative(paths: &[PathBuf]) -> Vec<String> {
    paths
        .iter()
        .map(|p| {
            p.strip_prefix(root())
                .expect("under the fixture root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect()
}

fn lint_fixture() -> (AllowlistOutcome, RunStats) {
    let root = root();
    let cfg = config::parse("[scope]\nlibrary_crates = [\"core\"]\nnumeric_crates = []\n")
        .expect("valid scope");
    let files = xtask::workspace_sources(&root).expect("library sources");
    let callers = xtask::caller_sources(&root).expect("caller sources");
    xtask::lint_files(&root, &files, &callers, &cfg).expect("lint run succeeds")
}

#[test]
fn caller_trees_exclude_the_crates_own_tests() {
    let root = root();
    assert_eq!(
        relative(&xtask::caller_sources(&root).unwrap()),
        [
            "examples/demo.rs",
            "fuzz/fuzz_targets/limits.rs",
            "perf_e2e/src/main.rs",
            "tests/flow.rs",
        ]
    );
    // Bench binaries live under `crates/*/src`, so they are graph nodes.
    assert!(relative(&xtask::workspace_sources(&root).unwrap())
        .contains(&"crates/bench/src/bin/tool.rs".to_owned()));
}

#[test]
fn reports_exactly_the_items_only_test_code_uses() {
    let (outcome, _) = lint_fixture();
    let found: Vec<(&str, &str, u32)> = outcome
        .kept
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        found,
        [
            ("DA001", "crates/core/src/lib.rs", 7),
            ("DA001", "crates/core/src/lib.rs", 12),
            ("DA001", "crates/core/src/lib.rs", 37),
        ],
        "{:#?}",
        outcome.kept
    );
    let messages: Vec<&str> = outcome.kept.iter().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("fn `ipmark_core::test_only_helper`"));
    assert!(messages[1].contains("fn `ipmark_core::crate_test_only`"));
    assert!(messages[2].contains("const `ipmark_core::TEST_ONLY_LIMIT`"));
}

#[test]
fn an_allow_entry_keeps_only_the_items_it_names_and_goes_stale_without_one() {
    let root = root();
    let files = xtask::workspace_sources(&root).unwrap();
    let callers = xtask::caller_sources(&root).unwrap();
    let cfg = config::parse(
        "[scope]\nlibrary_crates = [\"core\"]\n\n[[allow]]\nrule = \"DA001\"\n\
         path = \"crates/core/src/lib.rs\"\n\
         reason = \"fixture: test_only_helper and TEST_ONLY_LIMIT wait for a planned caller\"\n\n\
         [[allow]]\nrule = \"DA001\"\npath = \"crates/core/src/widget.rs\"\n\
         reason = \"fixture: nothing here is dead\"\n",
    )
    .unwrap();
    let (outcome, stats) = xtask::lint_files(&root, &files, &callers, &cfg).unwrap();
    assert_eq!(stats.suppressed, 2);
    // The entry does not name `crate_test_only`, so it is still reported.
    let kept: Vec<(&str, u32)> = outcome
        .kept
        .iter()
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    assert_eq!(kept, [("crates/core/src/lib.rs", 12)]);
    assert_eq!(outcome.unused.len(), 1);
    assert_eq!(outcome.unused[0].path, "crates/core/src/widget.rs");
}

#[test]
fn findings_render_in_text_json_and_sarif() {
    let (outcome, stats) = lint_fixture();
    let text = render(&outcome, &stats, Format::Text);
    assert!(text.contains("crates/core/src/lib.rs:7: [DA001]"));
    let json: Value = serde_json::from_str(&render(&outcome, &stats, Format::Json)).unwrap();
    let rules: Vec<&str> = json
        .get("findings")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(|f| f.get("rule").and_then(Value::as_str))
        .collect();
    assert_eq!(rules, ["DA001"; 3]);
    let sarif: Value = serde_json::from_str(&render(&outcome, &stats, Format::Sarif)).unwrap();
    let run = &sarif.get("runs").and_then(Value::as_array).unwrap()[0];
    let da001 = RULES.iter().position(|r| r.id == "DA001").unwrap();
    let catalogue = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(
        catalogue[da001].get("id").and_then(Value::as_str),
        Some("DA001")
    );
    let results = run.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 3);
    for result in results {
        assert_eq!(result.get("ruleId").and_then(Value::as_str), Some("DA001"));
        let index = match result.get("ruleIndex") {
            Some(Value::Number(n)) => n.as_u64(),
            _ => None,
        };
        assert_eq!(index, Some(da001 as u64));
    }
}
