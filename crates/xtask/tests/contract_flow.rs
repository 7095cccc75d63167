//! Integration tests for the graph + flow passes over the fixture
//! mini-workspace in `tests/fixtures/graph/` — shadowed names, trait
//! dispatch, re-exports, and the planted two-hop CC001 accumulation.

use std::path::Path;

use xtask::config::{AllowEntry, Contract};
use xtask::graph::SymbolGraph;
use xtask::rules::{lint_source, FileClass, Finding};
use xtask::{flow, rules};

/// Loads the fixture tree as `(workspace-relative path, source)` pairs.
fn fixture_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph");
    let mut out = Vec::new();
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("fixture dir readable") {
            let path = entry.expect("fixture entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under fixture root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let src = std::fs::read_to_string(&path).expect("fixture readable");
                out.push((rel, src));
            }
        }
    }
    out.sort();
    out
}

fn contract() -> Contract {
    Contract {
        entry_points: vec!["correlation_process".to_owned()],
        canonical: vec!["crates/traces/src/kernels.rs".to_owned()],
    }
}

/// NS003 allow entry + the raw local findings the flow pass derives the
/// justified-API map from (mirrors what `run_lint` feeds it).
fn conv_allow_and_locals(sources: &[(String, String)]) -> (Vec<AllowEntry>, Vec<Finding>) {
    let allow = vec![AllowEntry {
        rule: "NS003".into(),
        path: "crates/power/src/conv.rs".into(),
        reason: "fixture: owned-conversion API".into(),
    }];
    let class = FileClass {
        library: true,
        numeric: true,
    };
    let locals = sources
        .iter()
        .flat_map(|(rel, src)| lint_source(rel, src, class))
        .collect();
    (allow, locals)
}

fn analyze() -> Vec<Finding> {
    let sources = fixture_sources();
    let g = SymbolGraph::build(&sources, &[]);
    let (allow, locals) = conv_allow_and_locals(&sources);
    flow::analyze(&g, &contract(), &allow, &locals).findings
}

#[test]
fn cc001_fires_through_the_two_hop_helper_chain() {
    let findings = analyze();
    let cc001: Vec<_> = findings.iter().filter(|f| f.rule == "CC001").collect();
    assert_eq!(
        cc001.len(),
        1,
        "exactly the planted accumulation: {findings:?}"
    );
    assert_eq!(cc001[0].path, "crates/core/src/helpers.rs");
    assert_eq!(cc001[0].line, 13, "the `acc += x` inside stage_two");
}

#[test]
fn cc001_fires_through_the_screen_panel_method_entry_point() {
    // The production lint.toml routes contract analysis through
    // `CounterfeitScreen::screen_panel`; this pins that a method-style
    // entry point reaches float accumulation planted one hop below it.
    let sources = fixture_sources();
    let g = SymbolGraph::build(&sources, &[]);
    let (allow, locals) = conv_allow_and_locals(&sources);
    let contract = Contract {
        entry_points: vec!["CounterfeitScreen::screen_panel".to_owned()],
        canonical: vec!["crates/traces/src/kernels.rs".to_owned()],
    };
    let findings = flow::analyze(&g, &contract, &allow, &locals).findings;
    let cc001: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "CC001" && f.path == "crates/core/src/screen.rs")
        .collect();
    assert_eq!(
        cc001.len(),
        1,
        "exactly the accumulation under screen_panel: {findings:?}"
    );
    assert_eq!(cc001[0].line, 15, "the `acc += x` inside panel_variance");
    // The helper-chain accumulation is NOT reachable from this entry
    // point, so swapping entry points must swap which site fires.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "CC001" && f.path == "crates/core/src/helpers.rs"),
        "helpers.rs is unreachable from screen_panel: {findings:?}"
    );
}

#[test]
fn canonical_kernels_are_exempt_from_cc001() {
    let findings = analyze();
    assert!(
        !findings
            .iter()
            .any(|f| f.path == "crates/traces/src/kernels.rs"),
        "kernels.rs accumulates but is canonical: {findings:?}"
    );
}

#[test]
fn cc003_fires_inside_the_trait_impl_reached_by_dispatch() {
    let findings = analyze();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "CC003" && f.path == "crates/core/src/session.rs" && f.line == 15),
        "the partial_cmp branch is reachable only via `.ingest(..)`: {findings:?}"
    );
}

#[test]
fn cc002_fires_on_the_cross_file_call_into_the_justified_api() {
    let findings = analyze();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "CC002" && f.path == "crates/core/src/verify.rs"),
        "verify.rs calls conv::standardize across files: {findings:?}"
    );
}

#[test]
fn every_contract_rule_has_a_positive_fixture_case() {
    let mut seen: Vec<&str> = analyze().iter().map(|f| f.rule).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut all: Vec<&str> = rules::RULES
        .iter()
        .filter(|r| r.scope == "contract-reachable")
        .map(|r| r.id)
        .collect();
    all.sort_unstable();
    assert_eq!(seen, all, "each contract rule must be exercised");
}

#[test]
fn resolved_edges_respect_imports_shadowing_and_reexports() {
    let sources = fixture_sources();
    let g = SymbolGraph::build(&sources, &[]);
    let entry = g
        .fns
        .iter()
        .position(|f| f.qual == "ipmark_core::verify::correlation_process")
        .expect("entry parsed");
    let callees: Vec<&str> = g.edges[entry]
        .iter()
        .map(|e| g.fns[e.callee].qual.as_str())
        .collect();
    // Shadowing: the explicit `use crate::shadow::helper` wins over the
    // sibling `helpers::helper`.
    assert!(
        callees.contains(&"ipmark_core::shadow::helper"),
        "{callees:?}"
    );
    assert!(
        !callees.contains(&"ipmark_core::helpers::helper"),
        "{callees:?}"
    );
    // Re-export: `use crate::stage_one` resolves through the lib.rs
    // `pub use helpers::stage_one`.
    assert!(
        callees.contains(&"ipmark_core::helpers::stage_one"),
        "{callees:?}"
    );
    // Cross-crate import of the justified API.
    assert!(
        callees.contains(&"ipmark_power::conv::standardize"),
        "{callees:?}"
    );
    // Trait dispatch: `.ingest(..)` reaches the impl's method.
    assert!(
        callees
            .iter()
            .any(|q| q.ends_with("VerificationSession::ingest")),
        "{callees:?}"
    );
}

#[test]
fn unreachable_shadow_twin_is_not_in_the_contract_surface() {
    let sources = fixture_sources();
    let g = SymbolGraph::build(&sources, &[]);
    let entries = g.entry_indices(&contract().entry_points);
    let reachable = g.reachable_from(&entries);
    let twin = g
        .fns
        .iter()
        .position(|f| f.qual == "ipmark_core::helpers::helper")
        .expect("twin parsed");
    assert!(!reachable.contains(&twin));
}

#[test]
fn dot_dump_emits_the_reachable_subgraph_with_entries_highlighted() {
    let sources = fixture_sources();
    let g = SymbolGraph::build(&sources, &[]);
    let entries = g.entry_indices(&contract().entry_points);
    let reachable = g.reachable_from(&entries);
    let dot = g.to_dot(&reachable, &entries);
    assert!(dot.starts_with("digraph contract {"));
    assert!(dot.contains("correlation_process"));
    assert!(dot.contains("stage_two"));
    // The unreachable twin stays out of the dump.
    assert!(!dot.contains("helpers::helper\\n"));
    assert!(dot.trim_end().ends_with('}'));
}
