//! `lint.toml` parsing: scope configuration plus the vetted-exception
//! allowlist.
//!
//! The offline build has no `toml` crate, so this module parses the small
//! TOML subset the file actually uses: `[section]` / `[[array-of-tables]]`
//! headers, `key = "string"` and `key = ["a", "b"]` entries, `#` comments.
//! Anything outside that subset is a hard error — a config typo must fail
//! the lint run, not silently allow violations through.

use std::collections::BTreeMap;
use std::fmt;

/// Scope configuration: which crates each rule family applies to.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Crate directory names (under `crates/`) holding panic-free library
    /// code. The workspace root package is included via the `"."` entry.
    pub library_crates: Vec<String>,
    /// Crate directory names whose kernels carry the determinism contract.
    pub numeric_crates: Vec<String>,
}

/// One vetted exception: suppresses `rule` findings in `path`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry suppresses, e.g. `NS002`.
    pub rule: String,
    /// Workspace-relative file the entry applies to.
    pub path: String,
    /// Mandatory justification; an empty reason is a config error.
    pub reason: String,
}

/// Contract-analysis configuration: where reachability starts and which
/// files hold the canonical (exempt) reduction kernels.
#[derive(Debug, Clone, Default)]
pub struct Contract {
    /// Entry-point patterns, matched against fully-qualified function
    /// names (exact, or a `::`-aligned suffix such as
    /// `VerificationSession::ingest_chunk`).
    pub entry_points: Vec<String>,
    /// Workspace-relative files exempt from CC001/CC003 — the audited
    /// kernels every reduction is *supposed* to route through.
    pub canonical: Vec<String>,
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Rule-family scope.
    pub scope: Scope,
    /// Contract-analysis configuration.
    pub contract: Contract,
    /// Vetted exceptions.
    pub allow: Vec<AllowEntry>,
}

/// A `lint.toml` syntax or semantic error.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry (0 for file-level errors).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the configuration text.
///
/// # Errors
///
/// Returns [`ConfigError`] for syntax outside the supported subset, unknown
/// sections or keys, missing mandatory keys, or empty reasons.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Scope,
        Contract,
        Allow(usize),
    }
    let mut cfg = Config::default();
    let mut section = Section::None;

    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx as u32 + 1;
        let mut line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        // Multi-line lists: join until the brackets balance.
        while line.contains('[')
            && !line.starts_with('[')
            && line.matches('[').count() > line.matches(']').count()
        {
            match lines.next() {
                Some((_, cont)) => {
                    line.push(' ');
                    line.push_str(strip_comment(cont).trim());
                }
                None => return Err(err(lineno, "unterminated list".to_owned())),
            }
        }
        if line == "[[allow]]" {
            cfg.allow.push(AllowEntry {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
            });
            section = Section::Allow(cfg.allow.len() - 1);
            continue;
        }
        if line == "[scope]" {
            section = Section::Scope;
            continue;
        }
        if line == "[contract]" {
            section = Section::Contract;
            continue;
        }
        if line.starts_with('[') {
            return Err(err(lineno, format!("unknown section `{line}`")));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
        let (key, value) = (key.trim(), value.trim());
        match &section {
            Section::None => {
                return Err(err(lineno, format!("key `{key}` outside any section")));
            }
            Section::Scope => {
                let list = parse_string_list(value).map_err(|m| err(lineno, m))?;
                match key {
                    "library_crates" => cfg.scope.library_crates = list,
                    "numeric_crates" => cfg.scope.numeric_crates = list,
                    other => {
                        return Err(err(lineno, format!("unknown [scope] key `{other}`")));
                    }
                }
            }
            Section::Contract => {
                let list = parse_string_list(value).map_err(|m| err(lineno, m))?;
                match key {
                    "entry_points" => cfg.contract.entry_points = list,
                    "canonical" => cfg.contract.canonical = list,
                    other => {
                        return Err(err(lineno, format!("unknown [contract] key `{other}`")));
                    }
                }
            }
            Section::Allow(i) => {
                let s = parse_string(value).map_err(|m| err(lineno, m))?;
                let entry = &mut cfg.allow[*i];
                match key {
                    "rule" => entry.rule = s,
                    "path" => entry.path = s,
                    "reason" => entry.reason = s,
                    other => {
                        return Err(err(lineno, format!("unknown [[allow]] key `{other}`")));
                    }
                }
            }
        }
    }

    for (i, entry) in cfg.allow.iter().enumerate() {
        if entry.rule.is_empty() || entry.path.is_empty() {
            return Err(err(
                0,
                format!("[[allow]] entry #{} needs both `rule` and `path`", i + 1),
            ));
        }
        if entry.reason.trim().is_empty() {
            return Err(err(
                0,
                format!(
                    "[[allow]] entry #{} ({} in {}) has no `reason`; every exception \
                     must be justified",
                    i + 1,
                    entry.rule,
                    entry.path
                ),
            ));
        }
    }
    Ok(cfg)
}

/// Splits findings into (kept, suppressed) and reports allowlist entries
/// that matched nothing — a stale exception is itself an error, so the
/// allowlist can only ever shrink to fit reality.
#[must_use]
pub fn apply_allowlist(
    findings: Vec<crate::rules::Finding>,
    allow: &[AllowEntry],
) -> AllowlistOutcome {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    let mut used: BTreeMap<usize, usize> = BTreeMap::new();
    for f in findings {
        match allow
            .iter()
            .position(|a| a.rule == f.rule && a.path == f.path)
        {
            Some(i) => {
                *used.entry(i).or_insert(0) += 1;
                suppressed.push(f);
            }
            None => kept.push(f),
        }
    }
    let unused: Vec<AllowEntry> = allow
        .iter()
        .enumerate()
        .filter(|(i, _)| !used.contains_key(i))
        .map(|(_, a)| a.clone())
        .collect();
    AllowlistOutcome {
        kept,
        suppressed,
        unused,
        stale_entry_points: Vec::new(),
    }
}

/// Result of filtering findings through the allowlist.
pub struct AllowlistOutcome {
    /// Findings not covered by any entry — these fail the run.
    pub kept: Vec<crate::rules::Finding>,
    /// Findings suppressed by an entry.
    pub suppressed: Vec<crate::rules::Finding>,
    /// Entries that suppressed nothing — stale, also fails the run.
    pub unused: Vec<AllowEntry>,
    /// `[contract] entry_points` patterns that match no function — stale,
    /// also fails the run.
    pub stale_entry_points: Vec<String>,
}

impl AllowlistOutcome {
    /// `true` when the run passes: no kept finding and nothing stale.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.kept.is_empty() && self.unused.is_empty() && self.stale_entry_points.is_empty()
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside a quoted string does not start a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_owned())
    } else {
        Err(format!("expected a quoted string, got `{v}`"))
    }
}

fn parse_string_list(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"...\"] list, got `{v}`"))?;
    let inner = inner.trim().trim_end_matches(',').trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner.split(',').map(parse_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn parses_scope_and_allow() {
        let cfg = parse(
            "# comment\n[scope]\nlibrary_crates = [\"traces\", \"power\"]\n\
             numeric_crates = []\n\n[[allow]]\nrule = \"NS002\"\n\
             path = \"crates/traces/src/stats.rs\"\nreason = \"canonical kernel\"\n",
        )
        .unwrap();
        assert_eq!(cfg.scope.library_crates, vec!["traces", "power"]);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "NS002");
    }

    #[test]
    fn rejects_missing_reason() {
        let e = parse("[[allow]]\nrule = \"PF001\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(e.message.contains("reason"));
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(parse("[scope]\nbogus = []\n").is_err());
        assert!(parse("[weird]\n").is_err());
        assert!(parse("key = \"v\"\n").is_err());
    }

    #[test]
    fn allowlist_matches_rule_and_path_exactly() {
        let allow = vec![AllowEntry {
            rule: "NS002".into(),
            path: "a.rs".into(),
            reason: "ok".into(),
        }];
        let findings = vec![
            Finding {
                rule: "NS002",
                path: "a.rs".into(),
                line: 1,
                message: String::new(),
            },
            Finding {
                rule: "NS002",
                path: "b.rs".into(),
                line: 2,
                message: String::new(),
            },
            Finding {
                rule: "PF001",
                path: "a.rs".into(),
                line: 3,
                message: String::new(),
            },
        ];
        let out = apply_allowlist(findings, &allow);
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.kept.len(), 2);
        assert!(out.unused.is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let allow = vec![AllowEntry {
            rule: "PF003".into(),
            path: "gone.rs".into(),
            reason: "ok".into(),
        }];
        let out = apply_allowlist(Vec::new(), &allow);
        assert_eq!(out.unused.len(), 1);
    }
}
