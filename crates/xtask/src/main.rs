//! `cargo xtask` — the workspace's project-specific task runner.
//!
//! Tasks: `lint` (the static-analysis pass enforcing the determinism
//! contract and panic-freedom, DESIGN.md §13), `rules` (the catalogue) and
//! `allowlist-diff` (the CI guard that rejects allowlist growth without a
//! justification diff).
//!
//! Exit codes: `0` clean, `1` findings or stale allowlist entries, `2`
//! usage, I/O or configuration error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::report::{render, Format};
use xtask::rules::RULES;

const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  lint [--format text|json|sarif] [--graph dot] [--root <dir>]
                                       run the static-analysis pass
                                       (--graph dot dumps the contract-
                                       reachable call graph instead)
  rules                                list the lint rules
  allowlist-diff <base-lint.toml> [--root <dir>]
                                       fail if lint.toml gained entries
                                       whose reasons did not change
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("rules") => {
            for r in RULES {
                println!("{}  [{}]  {}", r.id, r.scope, r.summary);
            }
            ExitCode::SUCCESS
        }
        Some("allowlist-diff") => allowlist_diff(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut root = PathBuf::from(".");
    let mut graph_dot = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!("--format expects `text`, `json` or `sarif`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--graph" => match it.next().map(String::as_str) {
                Some("dot") => graph_dot = true,
                other => {
                    eprintln!("--graph expects `dot`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root expects a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if graph_dot {
        return match xtask::contract_graph_dot(&root) {
            Ok(dot) => {
                print!("{dot}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cargo xtask lint --graph dot: {e}");
                ExitCode::from(2)
            }
        };
    }
    match xtask::run_lint(&root) {
        Ok((outcome, stats)) => {
            print!("{}", render(&outcome, &stats, format));
            if outcome.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("cargo xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn allowlist_diff(args: &[String]) -> ExitCode {
    let mut base_path: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root expects a directory");
                    return ExitCode::from(2);
                }
            },
            other if base_path.is_none() && !other.starts_with('-') => {
                base_path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown allowlist-diff option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(base_path) = base_path else {
        eprintln!("allowlist-diff needs the base lint.toml to compare against\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &PathBuf| -> Result<xtask::config::Config, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        xtask::config::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (base, head) = match (read(&base_path), read(&root.join("lint.toml"))) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cargo xtask allowlist-diff: {e}");
            return ExitCode::from(2);
        }
    };
    match xtask::allowlist_growth(&base.allow, &head.allow) {
        growth if growth.is_empty() => {
            println!(
                "allowlist ok: {} entr{} (base {})",
                head.allow.len(),
                if head.allow.len() == 1 { "y" } else { "ies" },
                base.allow.len()
            );
            ExitCode::SUCCESS
        }
        growth => {
            for g in &growth {
                eprintln!("{g}");
            }
            eprintln!(
                "lint.toml grew without a justification diff: every new or widened \
                 [[allow]] entry must carry a new `reason`"
            );
            ExitCode::from(1)
        }
    }
}
