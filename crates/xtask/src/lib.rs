//! Project-specific static analysis for the ipmark workspace.
//!
//! Run as `cargo xtask lint`. The pass enforces invariants no off-the-shelf
//! tool covers (see DESIGN.md, "Static analysis"):
//!
//! * **Determinism** (`DT*`) — the numeric crates must stay bit-identical
//!   across thread counts and runs, so unordered collections, wall-clock
//!   reads and entropy-seeded RNGs are banned there.
//! * **Panic-freedom** (`PF*`) — library crates return typed errors;
//!   `unwrap`/`expect`/`panic!` are banned outside tests, the CLI and
//!   benches.
//! * **Numeric safety** (`NS*`) — trace math stays in f64 and routes
//!   reductions through the audited kernels.
//!
//! Vetted exceptions live in `lint.toml` with a mandatory justification;
//! stale entries fail the run so the allowlist tracks reality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use config::{AllowlistOutcome, Config};
use report::RunStats;
use rules::{FileClass, Finding};

/// Crates never scanned: vendored API shims, the lint driver itself.
const SKIP_CRATES: &[&str] = &["shims", "xtask"];

/// A lint run failure (I/O or configuration).
#[derive(Debug)]
pub enum XtaskError {
    /// Reading a source file or directory failed.
    Io(PathBuf, std::io::Error),
    /// `lint.toml` was missing or malformed.
    Config(config::ConfigError),
}

impl std::fmt::Display for XtaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XtaskError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            XtaskError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for XtaskError {}

impl From<config::ConfigError> for XtaskError {
    fn from(e: config::ConfigError) -> Self {
        XtaskError::Config(e)
    }
}

/// Classifies a workspace-relative source path into rule families.
#[must_use]
pub fn classify(rel_path: &str, scope: &config::Scope) -> FileClass {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or(".");
    FileClass {
        library: scope.library_crates.iter().any(|c| c == crate_name),
        numeric: scope.numeric_crates.iter().any(|c| c == crate_name),
    }
}

/// Collects the workspace-relative paths of every `.rs` file under the
/// library source trees: `src/` at the root and `crates/*/src/`.
///
/// Test directories (`tests/`), benches and examples are not scanned — the
/// panic-freedom contract is about library code. Paths are sorted so runs
/// are deterministic.
///
/// # Errors
///
/// Returns [`XtaskError::Io`] when a directory cannot be read.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, XtaskError> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| XtaskError::Io(crates.clone(), e))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIP_CRATES.contains(&name.as_str()) {
                continue;
            }
            let src = entry.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), XtaskError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| XtaskError::Io(dir.to_path_buf(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the files, applying the configuration's scope and allowlist.
///
/// `root` anchors the workspace-relative paths used in findings and
/// allowlist matching.
///
/// # Errors
///
/// Returns [`XtaskError::Io`] when a file cannot be read.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    cfg: &Config,
) -> Result<(AllowlistOutcome, RunStats), XtaskError> {
    let sources = read_sources(root, files)?;
    let mut findings = local_findings(&sources, cfg);
    let mut stale_entry_points = Vec::new();
    if !cfg.contract.entry_points.is_empty() {
        let g = graph::SymbolGraph::build(&sources);
        let flow = flow::analyze(&g, &cfg.contract, &cfg.allow, &findings);
        findings.extend(flow.findings);
        stale_entry_points = g.unmatched_entry_points(&cfg.contract.entry_points);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let mut outcome = config::apply_allowlist(findings, &cfg.allow);
    outcome.stale_entry_points = stale_entry_points;
    let stats = RunStats {
        files: files.len(),
        suppressed: outcome.suppressed.len(),
    };
    Ok((outcome, stats))
}

/// Reads every file into `(workspace-relative path, source)` pairs.
fn read_sources(root: &Path, files: &[PathBuf]) -> Result<Vec<(String, String)>, XtaskError> {
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| XtaskError::Io(path.clone(), e))?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Runs the line-local rule families over in-scope files.
fn local_findings(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, src) in sources {
        let class = classify(rel, &cfg.scope);
        if !class.library && !class.numeric {
            continue;
        }
        findings.extend(rules::lint_source(rel, src, class));
    }
    findings
}

/// CI guard for allowlist growth: compares the head `[[allow]]` entries
/// against a base revision and reports entries that grew the list without
/// a justification diff.
///
/// A new `(rule, path)` entry is legitimate when it arrives with its own
/// reason — the PR diff then necessarily shows the new justification. It
/// is flagged when its reason is a verbatim copy of another entry's (the
/// "widen coverage by copy-paste" hole), and an existing entry is flagged
/// when its scope key changed while the reason text did not.
#[must_use]
pub fn allowlist_growth(base: &[config::AllowEntry], head: &[config::AllowEntry]) -> Vec<String> {
    let mut flagged = Vec::new();
    for h in head {
        let existed = base.iter().any(|b| b.rule == h.rule && b.path == h.path);
        if existed {
            continue;
        }
        let copied_from = base
            .iter()
            .find(|b| b.reason.trim() == h.reason.trim())
            .or_else(|| {
                head.iter().find(|other| {
                    (other.rule != h.rule || other.path != h.path)
                        && base
                            .iter()
                            .any(|b| b.rule == other.rule && b.path == other.path)
                        && other.reason.trim() == h.reason.trim()
                })
            });
        if let Some(src) = copied_from {
            flagged.push(format!(
                "new [[allow]] entry {} in {} copies the reason of {} in {} verbatim; \
                 write a justification specific to this exception",
                h.rule, h.path, src.rule, src.path
            ));
        }
    }
    flagged
}

/// Builds the call graph and renders the contract-reachable subgraph as
/// Graphviz DOT (the `--graph dot` debug dump).
///
/// # Errors
///
/// Returns [`XtaskError`] for I/O or configuration failures.
pub fn contract_graph_dot(root: &Path) -> Result<String, XtaskError> {
    let cfg_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&cfg_path).map_err(|e| XtaskError::Io(cfg_path, e))?;
    let cfg = config::parse(&text)?;
    let files = workspace_sources(root)?;
    let sources = read_sources(root, &files)?;
    let g = graph::SymbolGraph::build(&sources);
    let entries = g.entry_indices(&cfg.contract.entry_points);
    let reachable = g.reachable_from(&entries);
    Ok(g.to_dot(&reachable, &entries))
}

/// Full run: load `lint.toml` from `root`, scan the workspace, filter.
///
/// # Errors
///
/// Returns [`XtaskError`] for I/O or configuration failures.
pub fn run_lint(root: &Path) -> Result<(AllowlistOutcome, RunStats), XtaskError> {
    let cfg_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&cfg_path).map_err(|e| XtaskError::Io(cfg_path, e))?;
    let cfg = config::parse(&text)?;
    let files = workspace_sources(root)?;
    lint_files(root, &files, &cfg)
}
