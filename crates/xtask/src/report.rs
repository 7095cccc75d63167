//! Text and machine-readable JSON rendering of a lint run.

use std::fmt::Write as _;

use crate::config::AllowlistOutcome;

/// Output format selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable, `file:line: [RULE] message` per finding.
    Text,
    /// Single JSON object for CI consumption.
    Json,
    /// SARIF 2.1.0 for code-scanning annotations.
    Sarif,
}

/// Summary counters of one run.
pub struct RunStats {
    /// Files scanned.
    pub files: usize,
    /// Findings suppressed by the allowlist.
    pub suppressed: usize,
}

/// Renders the outcome; returns the full report as a string.
#[must_use]
pub fn render(outcome: &AllowlistOutcome, stats: &RunStats, format: Format) -> String {
    match format {
        Format::Text => render_text(outcome, stats),
        Format::Json => render_json(outcome, stats),
        Format::Sarif => render_sarif(outcome),
    }
}

fn render_text(outcome: &AllowlistOutcome, stats: &RunStats) -> String {
    let mut s = String::new();
    for f in &outcome.kept {
        let _ = writeln!(s, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
    }
    for a in &outcome.unused {
        let _ = writeln!(
            s,
            "lint.toml: stale [[allow]] entry: {} in {} matched no finding — remove it",
            a.rule, a.path
        );
    }
    for p in &outcome.stale_entry_points {
        let _ = writeln!(
            s,
            "lint.toml: stale [contract] entry point `{p}` matches no function — remove it",
        );
    }
    let _ = writeln!(
        s,
        "{} file(s) checked, {} finding(s), {} suppressed by lint.toml, {} stale allowlist entr{}, \
         {} stale entry point(s)",
        stats.files,
        outcome.kept.len(),
        stats.suppressed,
        outcome.unused.len(),
        if outcome.unused.len() == 1 { "y" } else { "ies" },
        outcome.stale_entry_points.len(),
    );
    s
}

fn render_json(outcome: &AllowlistOutcome, stats: &RunStats) -> String {
    let mut s = String::new();
    s.push_str("{\"findings\":[");
    for (i, f) in outcome.kept.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.message)
        );
    }
    s.push_str("],\"stale_allow\":[");
    for (i, a) in outcome.unused.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rule\":{},\"path\":{}}}",
            json_str(&a.rule),
            json_str(&a.path)
        );
    }
    s.push_str("],\"stale_entry_points\":[");
    for (i, p) in outcome.stale_entry_points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json_str(p));
    }
    let _ = write!(
        s,
        "],\"files_checked\":{},\"suppressed\":{}}}",
        stats.files, stats.suppressed
    );
    s.push('\n');
    s
}

/// Renders a SARIF 2.1.0 log: one run, the full rule catalogue in the tool
/// driver, one `result` per kept finding. Stale allowlist entries surface
/// as tool-level `notifications` so they still annotate the CI run.
fn render_sarif(outcome: &AllowlistOutcome) -> String {
    let rules = crate::rules::RULES;
    let mut s = String::new();
    s.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    s.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    s.push_str("\"name\":\"ipmark-xtask-lint\",");
    s.push_str("\"informationUri\":\"https://github.com/ipmark/ipmark/blob/main/DESIGN.md\",");
    s.push_str("\"rules\":[");
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
             \"defaultConfiguration\":{{\"level\":\"error\"}},\
             \"properties\":{{\"scope\":{}}}}}",
            json_str(r.id),
            json_str(r.summary),
            json_str(r.scope)
        );
    }
    s.push_str("]}},\"results\":[");
    for (i, f) in outcome.kept.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let rule_index = rules.iter().position(|r| r.id == f.rule);
        let _ = write!(
            s,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},",
            json_str(f.rule),
            json_str(&f.message)
        );
        if let Some(idx) = rule_index {
            let _ = write!(s, "\"ruleIndex\":{idx},");
        }
        let _ = write!(
            s,
            "\"locations\":[{{\"physicalLocation\":{{\
             \"artifactLocation\":{{\"uri\":{},\"uriBaseId\":\"%SRCROOT%\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_str(&f.path),
            f.line.max(1)
        );
    }
    s.push_str("],\"invocations\":[{\"executionSuccessful\":");
    s.push_str(if outcome.is_clean() { "true" } else { "false" });
    s.push_str(",\"toolExecutionNotifications\":[");
    let stale =
        outcome
            .unused
            .iter()
            .map(|a| {
                format!(
                    "stale lint.toml [[allow]] entry: {} in {} matched no finding",
                    a.rule, a.path
                )
            })
            .chain(outcome.stale_entry_points.iter().map(|p| {
                format!("stale lint.toml [contract] entry point `{p}` matches no function")
            }));
    for (i, text) in stale.enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"level\":\"error\",\"message\":{{\"text\":{}}}}}",
            json_str(&text)
        );
    }
    s.push_str("]}]}]}\n");
    s
}

/// Escapes `v` as a JSON string literal.
fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn json_escapes_and_shapes() {
        let outcome = AllowlistOutcome {
            kept: vec![Finding {
                rule: "PF001",
                path: "a\"b.rs".into(),
                line: 3,
                message: "x\ny".into(),
            }],
            suppressed: Vec::new(),
            unused: Vec::new(),
            stale_entry_points: vec!["Gone::entry".into()],
        };
        let stats = RunStats {
            files: 1,
            suppressed: 0,
        };
        let j = render(&outcome, &stats, Format::Json);
        assert!(j.contains("\"rule\":\"PF001\""));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"files_checked\":1"));
        assert!(j.contains("\"stale_entry_points\":[\"Gone::entry\"]"));
        assert!(!outcome.is_clean());
    }
}
