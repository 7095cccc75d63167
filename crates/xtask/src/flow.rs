//! Reachability ("flow") queries over the [`crate::graph`] call graph: the
//! contract rules CC001–CC003.
//!
//! The determinism contract (DESIGN.md §7/§9/§11/§12) is anchored at its
//! entry points — batch correlation, the correlate stage's row loops,
//! streaming chunk ingestion, panel screening and campaign cell
//! evaluation. Everything those functions
//! can reach *is* the contract surface, whether or not the line-local rules
//! of [`crate::rules`] apply to its crate. The flow pass walks that surface
//! and enforces:
//!
//! * **CC001** — a reachable function that accumulates floats outside the
//!   canonical `ipmark_traces::kernels` module reintroduces an ad-hoc
//!   summation order three calls away from the kernel ("laundering the
//!   loop through a helper"). Transitive closure of NS004.
//! * **CC002** — a reachable function calls an API whose numeric-safety
//!   exception (`lint.toml` `[[allow]]` for an NS rule) was justified for
//!   *its own file only*; the cross-file dependency must be re-justified
//!   or removed.
//! * **CC003** — a reachable function branches on `Ordering` obtained from
//!   raw `partial_cmp`, which silently yields `None` for NaN.
//!
//! [`dead_api`] asks the opposite question of the same graph: which public
//! library items nothing outside test code calls (**DA001**).

use std::collections::BTreeSet;

use crate::config::{AllowEntry, Contract};
use crate::graph::SymbolGraph;
use crate::rules::Finding;

/// Outcome of the flow pass: findings plus the reachable surface (for the
/// DOT dump and diagnostics).
pub struct FlowOutcome {
    /// CC001–CC003 findings, in (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Indices (into the graph) of the entry-point functions found.
    pub entries: Vec<usize>,
    /// Indices of every contract-reachable function.
    pub reachable: BTreeSet<usize>,
}

/// Runs the contract rules.
///
/// `local_findings` must be the *unfiltered* line-local findings of the
/// same run — CC002 derives the "justified API" set from them: a function
/// counts as allowlisted-only when an `[[allow]]` entry suppresses a
/// numeric-safety finding inside its body.
#[must_use]
pub fn analyze(
    graph: &SymbolGraph,
    contract: &Contract,
    allow: &[AllowEntry],
    local_findings: &[Finding],
) -> FlowOutcome {
    let entries = graph.entry_indices(&contract.entry_points);
    let reachable = graph.reachable_from(&entries);
    let canonical = |file: &str| contract.canonical.iter().any(|c| c == file);
    let mut findings = Vec::new();

    // CC001: transitive ad-hoc float accumulation.
    for &i in &reachable {
        let f = &graph.fns[i];
        if canonical(&f.file) {
            continue;
        }
        for (line, what) in &f.facts.accum_lines {
            findings.push(Finding {
                rule: "CC001",
                path: f.file.clone(),
                line: *line,
                message: format!(
                    "`{}` is contract-reachable and accumulates floats outside the \
                     canonical kernels ({what}); route the reduction through \
                     `ipmark_traces::kernels` or justify the summation order",
                    f.qual
                ),
            });
        }
    }

    // CC002: reachable cross-file calls into allowlisted-only APIs.
    // A function is "justified" when a numeric-safety allowlist entry for
    // its file suppresses a local finding inside its span.
    let mut justified: Vec<usize> = Vec::new();
    for entry in allow {
        if !entry.rule.starts_with("NS") {
            continue;
        }
        if canonical(&entry.path) {
            continue; // the kernels are everyone's legitimate dependency
        }
        for lf in local_findings {
            if entry.covers(lf) {
                if let Some(fi) = graph.fn_at(&lf.path, lf.line) {
                    justified.push(fi);
                }
            }
        }
    }
    justified.sort_unstable();
    justified.dedup();
    for &i in &reachable {
        let caller = &graph.fns[i];
        for edge in &graph.edges[i] {
            if !justified.contains(&edge.callee) {
                continue;
            }
            let callee = &graph.fns[edge.callee];
            if callee.file == caller.file {
                continue;
            }
            findings.push(Finding {
                rule: "CC002",
                path: caller.file.clone(),
                line: edge.line,
                message: format!(
                    "`{}` is contract-reachable and calls `{}`, whose numeric-safety \
                     exception is justified only within {}; fix the call or add a \
                     justified entry for this file",
                    caller.qual, callee.qual, callee.file
                ),
            });
        }
    }

    // CC003: raw partial_cmp in contract-reachable code.
    for &i in &reachable {
        let f = &graph.fns[i];
        if canonical(&f.file) {
            continue;
        }
        for line in &f.facts.partial_cmp_lines {
            findings.push(Finding {
                rule: "CC003",
                path: f.file.clone(),
                line: *line,
                message: format!(
                    "`{}` is contract-reachable and branches on raw `partial_cmp`; \
                     NaN yields `None` — validate finiteness and use `total_cmp`",
                    f.qual
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup();
    FlowOutcome {
        findings,
        entries,
        reachable,
    }
}

/// DA001: every plain-`pub` fn, method and const of an in-scope file that
/// no non-test code uses.
///
/// `graph` must include the caller-only sources. A function
/// counts as used when an edge from another function reaches it, or when
/// its name is among the [`crate::graph::NameUses`] the resolver could not
/// pin down; a const counts as used when its name appears anywhere outside
/// `use` declarations. Both over-approximate, so the rule under-reports.
/// Trait-impl methods cannot be `pub` and are never reported.
#[must_use]
pub fn dead_api(graph: &SymbolGraph, in_scope: impl Fn(&str) -> bool) -> Vec<Finding> {
    let mut called = vec![false; graph.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges.iter().filter(|e| e.callee != caller) {
            called[e.callee] = true;
        }
    }
    let uses = &graph.uses;
    let mut findings = Vec::new();
    let mut report = |what: &str, qual: &str, path: &str, line: u32| {
        findings.push(Finding {
            rule: "DA001",
            path: path.to_owned(),
            line,
            message: format!(
                "public {what} `{qual}` has no caller outside test code; delete it, \
                 or justify keeping it in lint.toml"
            ),
        });
    };
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.is_pub || f.caller_only || called[i] || !in_scope(&f.file) {
            continue;
        }
        let named = uses.unresolved_calls.contains(&f.name)
            || uses.path_refs.contains(&f.name)
            || (f.impl_type.is_none() && uses.bare_refs.contains(&f.name));
        if !named {
            let what = if f.impl_type.is_some() {
                "method"
            } else {
                "fn"
            };
            report(what, &f.qual, &f.file, f.line);
        }
    }
    for c in &graph.consts {
        if in_scope(&c.file) && !uses.idents.contains(&c.name) {
            report("const", &c.qual, &c.file, c.line);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// The bare name of the item a DA001 finding reports: `wilson_interval`
/// for `` public fn `ipmark_traces::stats::wilson_interval` ``.
#[must_use]
pub fn dead_item(f: &Finding) -> Option<&str> {
    let qual = f.message.split('`').nth(1)?;
    qual.rsplit("::").next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Contract;
    use crate::graph::SymbolGraph;

    fn graph(files: &[(&str, &str)]) -> SymbolGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        SymbolGraph::build(&owned, &[])
    }

    fn contract(entries: &[&str]) -> Contract {
        Contract {
            entry_points: entries.iter().map(|s| (*s).to_owned()).collect(),
            canonical: vec!["crates/traces/src/kernels.rs".to_owned()],
        }
    }

    #[test]
    fn cc001_fires_through_a_helper_chain() {
        let g = graph(&[
            (
                "crates/core/src/verify.rs",
                "use crate::helpers::stage_one;\n\
                 pub fn correlation_process() { stage_one(); }",
            ),
            (
                "crates/core/src/helpers.rs",
                "pub fn stage_one() { stage_two(); }\n\
                 fn stage_two() -> f64 {\n\
                     let mut acc = 0.0;\n\
                     for x in [1.0, 2.0] { acc += x; }\n\
                     acc\n\
                 }",
            ),
        ]);
        let out = analyze(&g, &contract(&["correlation_process"]), &[], &[]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "CC001");
        assert_eq!(out.findings[0].path, "crates/core/src/helpers.rs");
        assert_eq!(out.findings[0].line, 4);
    }

    #[test]
    fn cc001_exempts_the_canonical_kernels() {
        let g = graph(&[(
            "crates/traces/src/kernels.rs",
            "pub fn blocked_sum() -> f64 {\n\
                 let mut acc = 0.0;\n\
                 for x in [1.0] { acc += x; }\n\
                 acc\n\
             }",
        )]);
        let out = analyze(&g, &contract(&["blocked_sum"]), &[], &[]);
        assert!(out.findings.is_empty());
    }

    #[test]
    fn unreachable_accumulation_is_not_flagged() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn entry() {}\n\
             pub fn cold() -> f64 { let mut s = 0.0; s += 1.0; s }",
        )]);
        let out = analyze(&g, &contract(&["entry"]), &[], &[]);
        assert!(out.findings.is_empty());
    }

    #[test]
    fn cc003_fires_on_reachable_partial_cmp() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn entry(a: f64, b: f64) { let _ = a.partial_cmp(&b); }",
        )]);
        let out = analyze(&g, &contract(&["entry"]), &[], &[]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "CC003");
    }

    #[test]
    fn cc002_fires_on_cross_file_calls_into_justified_apis() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "use crate::conv::standardize;\npub fn entry() { standardize(); }",
            ),
            (
                "crates/core/src/conv.rs",
                "pub fn standardize() { owned_copy(); }\nfn owned_copy() {}",
            ),
        ]);
        let allow = vec![AllowEntry {
            rule: "NS003".into(),
            path: "crates/core/src/conv.rs".into(),
            reason: "owned-conversion API".into(),
        }];
        let local = vec![Finding {
            rule: "NS003",
            path: "crates/core/src/conv.rs".into(),
            line: 1,
            message: String::new(),
        }];
        let out = analyze(&g, &contract(&["entry"]), &allow, &local);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "CC002");
        assert_eq!(out.findings[0].path, "crates/core/src/a.rs");
        // Same-file calls into the justified API are not flagged.
        assert!(!out
            .findings
            .iter()
            .any(|f| f.path == "crates/core/src/conv.rs"));
    }
}
