//! Integration tests for the lint driver: every rule's positive and
//! negative fixtures, allowlist exactness, and the workspace itself.

use std::path::{Path, PathBuf};

use xtask::config::{self, AllowEntry};
use xtask::rules::{lint_source, FileClass, Finding, RULES};

const ALL: FileClass = FileClass {
    library: true,
    numeric: true,
};

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    (name.to_owned(), src)
}

fn findings_of(name: &str) -> Vec<Finding> {
    let (path, src) = fixture(name);
    lint_source(&path, &src, ALL)
}

fn rule_lines(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn panic_free_fixture_detects_each_rule_with_file_and_line() {
    let findings = findings_of("panic_free.rs");
    for f in &findings {
        assert_eq!(f.path, "panic_free.rs");
    }
    assert_eq!(
        rule_lines(&findings),
        vec![
            ("PF001", 6),
            ("PF002", 11),
            ("PF003", 15),
            ("PF004", 19),
            ("PF004", 23),
            ("PF005", 27),
            ("PF001", 32),
            ("PF006", 36),
            ("PF006", 40),
            ("PF006", 44),
        ]
    );
}

#[test]
fn determinism_fixture_detects_each_rule_with_line() {
    assert_eq!(
        rule_lines(&findings_of("determinism.rs")),
        vec![
            ("DT001", 4),
            ("DT001", 7),
            ("DT002", 12),
            ("DT002", 13),
            ("DT002", 14),
            ("DT003", 18),
            ("DT004", 22),
            ("DT004", 23),
            ("DT005", 27),
            ("PF001", 27),
            ("DT005", 28),
            ("DT005", 29),
            ("PF001", 29),
        ]
    );
}

#[test]
fn numeric_fixture_detects_each_rule_with_line() {
    assert_eq!(
        rule_lines(&findings_of("numeric.rs")),
        vec![
            ("NS001", 5),
            ("NS002", 9),
            ("NS002", 13),
            ("NS003", 17),
            ("NS003", 21),
            ("NS004", 25),
            ("NS004", 32)
        ]
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = findings_of("clean.rs");
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn every_rule_id_has_a_positive_fixture_case() {
    let mut seen: Vec<&str> = ["panic_free.rs", "determinism.rs", "numeric.rs"]
        .iter()
        .flat_map(|n| findings_of(n).into_iter().map(|f| f.rule))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    // Contract rules (CC*) and DA001 need the graph passes; their positive
    // fixture cases live in `tests/contract_flow.rs` and `tests/dead_api.rs`.
    let mut all: Vec<&str> = RULES
        .iter()
        .filter(|r| r.scope != "contract-reachable" && r.id != "DA001")
        .map(|r| r.id)
        .collect();
    all.sort_unstable();
    assert_eq!(
        seen, all,
        "each catalogued line-local rule must be exercised"
    );
}

#[test]
fn allowlist_suppresses_exactly_the_listed_findings_and_nothing_else() {
    let findings: Vec<Finding> = ["panic_free.rs", "determinism.rs", "numeric.rs"]
        .iter()
        .flat_map(|n| findings_of(n))
        .collect();
    let total = findings.len();
    let allow = vec![
        AllowEntry {
            rule: "PF004".into(),
            path: "panic_free.rs".into(),
            reason: "fixture exception".into(),
        },
        AllowEntry {
            rule: "DT001".into(),
            path: "determinism.rs".into(),
            reason: "fixture exception".into(),
        },
        // Same rule, different file: must NOT suppress determinism.rs DT002.
        AllowEntry {
            rule: "DT002".into(),
            path: "numeric.rs".into(),
            reason: "fixture exception (stale: numeric.rs has no DT002)".into(),
        },
    ];
    let out = config::apply_allowlist(findings, &allow);
    // Exactly the two PF004 and two DT001 findings are suppressed.
    assert_eq!(out.suppressed.len(), 4);
    assert!(out
        .suppressed
        .iter()
        .all(|f| (f.rule == "PF004" && f.path == "panic_free.rs")
            || (f.rule == "DT001" && f.path == "determinism.rs")));
    assert_eq!(out.kept.len(), total - 4);
    assert!(out
        .kept
        .iter()
        .all(|f| f.rule != "PF004" || f.path != "panic_free.rs"));
    // The entry that matched nothing is reported as stale.
    assert_eq!(out.unused.len(), 1);
    assert_eq!(out.unused[0].rule, "DT002");
}

#[test]
fn lint_toml_requires_a_reason_for_every_exception() {
    let e = config::parse("[[allow]]\nrule = \"PF001\"\npath = \"x.rs\"\nreason = \"  \"\n")
        .unwrap_err();
    assert!(e.message.contains("reason"));
}

/// The acceptance gate: the real workspace, filtered through the real
/// `lint.toml`, is clean — no findings, no stale allowlist entries and
/// every contract entry point resolving to a function.
#[test]
fn workspace_is_lint_clean_under_the_committed_allowlist() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (outcome, stats) = xtask::run_lint(&root).expect("lint run succeeds");
    assert!(stats.files > 50, "scanner saw the workspace");
    assert!(
        outcome.kept.is_empty(),
        "non-allowlisted findings:\n{}",
        outcome
            .kept
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.unused.is_empty(),
        "stale lint.toml entries: {:?}",
        outcome
            .unused
            .iter()
            .map(|a| format!("{} in {}", a.rule, a.path))
            .collect::<Vec<_>>()
    );
    assert!(
        outcome.stale_entry_points.is_empty(),
        "stale lint.toml entry points: {:?}",
        outcome.stale_entry_points
    );
    // The committed allowlist is exercised (not vacuous).
    assert!(stats.suppressed > 0);
}

#[test]
fn classify_maps_paths_to_crate_classes() {
    let scope = config::parse(
        "[scope]\nlibrary_crates = [\".\", \"traces\"]\nnumeric_crates = [\"traces\"]\n",
    )
    .expect("valid scope")
    .scope;
    let c = xtask::classify("crates/traces/src/stats.rs", &scope);
    assert!(c.library && c.numeric);
    let c = xtask::classify("src/lib.rs", &scope);
    assert!(c.library && !c.numeric);
    let c = xtask::classify("crates/cli/src/main.rs", &scope);
    assert!(!c.library && !c.numeric);
}
