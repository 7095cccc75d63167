//! The lint rules and the per-file matching pass.
//!
//! Every rule works on the comment- and string-stripped token stream from
//! [`crate::lexer`], restricted to the crate classes configured in
//! `lint.toml` and to code outside `#[cfg(test)]` modules. Rule identifiers
//! are stable: the allowlist and CI reference them.

use crate::lexer::{tokenize, Tok, TokKind};

/// Which rule families apply to a file, derived from its crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Panic-freedom rules (`PF*`): library crates; CLI, benches, tests
    /// and the lint driver itself are exempt.
    pub library: bool,
    /// Determinism (`DT*`) and numeric-safety (`NS*`) rules: the numeric
    /// kernels whose bit-exact behaviour the determinism contract locks.
    pub numeric: bool,
}

/// One finding, reported with a stable rule id and a 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `PF001`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based source line of the match.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Static description of one rule, for `xtask lint --rules` and the docs.
pub struct RuleInfo {
    /// Stable identifier.
    pub id: &'static str,
    /// Which files it applies to.
    pub scope: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule the pass knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "PF001",
        scope: "library",
        summary: "`.unwrap()` / `.unwrap_err()` in library code; return the crate's typed error",
    },
    RuleInfo {
        id: "PF002",
        scope: "library",
        summary: "`.expect()` / `.expect_err()` in library code; return the crate's typed error",
    },
    RuleInfo {
        id: "PF003",
        scope: "library",
        summary: "`panic!` in library code; library crates must be panic-free",
    },
    RuleInfo {
        id: "PF004",
        scope: "library",
        summary: "`todo!` / `unimplemented!` placeholder left in library code",
    },
    RuleInfo {
        id: "PF005",
        scope: "library",
        summary: "literal index into a call result (`f(..)[0]`); bind and guard the value first",
    },
    RuleInfo {
        id: "DT001",
        scope: "numeric",
        summary: "`HashMap`/`HashSet` in a numeric crate; iteration order is nondeterministic — \
                  use a sorted Vec or BTree collection",
    },
    RuleInfo {
        id: "DT002",
        scope: "numeric",
        summary: "wall-clock or thread-identity (`Instant`, `SystemTime`, `ThreadId`, \
                  `thread::current`) in a numeric kernel",
    },
    RuleInfo {
        id: "DT003",
        scope: "numeric",
        summary: "unordered parallel iteration (`par_iter`-family, `reduce_with`, `fold_with`); \
                  use the deterministic `ipmark-parallel` index-ordered primitives",
    },
    RuleInfo {
        id: "DT004",
        scope: "numeric",
        summary: "entropy-seeded RNG construction (`thread_rng`, `from_entropy`, `OsRng`); \
                  derive seeds via the seed-derivation helpers (e.g. `screen::panel_seed`)",
    },
    RuleInfo {
        id: "NS001",
        scope: "numeric",
        summary: "`as f32` narrowing cast in trace math; the workspace computes in f64",
    },
    RuleInfo {
        id: "NS002",
        scope: "numeric",
        summary: "naive `sum::<f32|f64>()` reduction; use the `RunningStats`/`PearsonRef` \
                  kernels unless the summation order is itself part of the contract",
    },
    RuleInfo {
        id: "NS003",
        scope: "library",
        summary: "per-trace heap copy (`samples().to_vec()` / `Trace::clone`) in library code; \
                  borrow a `TraceView` or accumulate into the preallocated arena instead",
    },
    RuleInfo {
        id: "NS004",
        scope: "library",
        summary: "hand-rolled `.zip(..)` accumulate loop in library code; route the reduction \
                  through the blocked `ipmark_traces::kernels` primitives",
    },
    RuleInfo {
        id: "PF006",
        scope: "library",
        summary: "slice/array indexing with a non-literal index (`v[i]`) in library code; \
                  panics when out of bounds — use `.get(i)` with a typed error, or justify \
                  the bound in lint.toml",
    },
    RuleInfo {
        id: "DT005",
        scope: "numeric",
        summary: "float sort/extremum via a `partial_cmp` comparator; `partial_cmp` is not a \
                  total order over NaN — use `f64::total_cmp` after validating finiteness",
    },
    RuleInfo {
        id: "CC001",
        scope: "contract-reachable",
        summary: "function reachable from a contract entry point accumulates floats outside \
                  `ipmark_traces::kernels`; the canonical blocked summation order is part of \
                  the determinism contract (transitive NS004)",
    },
    RuleInfo {
        id: "CC002",
        scope: "contract-reachable",
        summary: "contract-reachable call into an API whose numeric-safety exception is \
                  justified only for its own file; the cross-file dependency must be fixed \
                  or justified separately",
    },
    RuleInfo {
        id: "CC003",
        scope: "contract-reachable",
        summary: "contract-reachable code branches on `Ordering` from raw `partial_cmp`; NaN \
                  yields `None` and silently changes the branch — validate finiteness and \
                  use `total_cmp`",
    },
    RuleInfo {
        id: "DA001",
        scope: "library-public",
        summary: "public fn, method or const in a library crate that no code outside \
                  `#[cfg(test)]` and the crates' own `tests/` calls; delete it or justify \
                  keeping it",
    },
];

/// How many tokens past a `.zip(..)` call NS004 scans for a `+=` update.
/// Large enough to cover a `for`-loop header or closure destructuring, small
/// enough not to bridge into unrelated statements.
const NS004_WINDOW: usize = 40;

/// Identifiers that are Rust keywords (or keyword-like) and therefore can
/// never be the base expression of an index — `if x[i]` indexes `x`, not
/// `if`. Used by PF006 to tell `base[idx]` apart from array types, array
/// literals, attributes and patterns.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Float comparator sinks DT005 watches for a raw `partial_cmp` inside.
const DT005_IDENTS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

const DT002_IDENTS: &[&str] = &["Instant", "SystemTime", "ThreadId"];
const DT003_IDENTS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
    "par_sort",
    "par_sort_unstable",
    "par_extend",
    "reduce_with",
    "fold_with",
];
const DT004_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "from_os_rng"];

/// Lints one file's source text. `path` is used verbatim in the findings.
#[must_use]
pub fn lint_source(path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    if !class.library && !class.numeric {
        return Vec::new();
    }
    let toks = tokenize(src);
    let excluded = cfg_test_ranges(&toks);
    let mut out = Vec::new();
    let in_test = |idx: usize| excluded.iter().any(|&(a, b)| idx >= a && idx < b);

    let push = |out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String| {
        out.push(Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
        });
    };

    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        let t = &toks[i];

        if class.library {
            // PF001/PF002: `.unwrap(` / `.expect(` method calls.
            if i >= 1 && toks[i - 1].is_punct('.') && next_is_punct(&toks, i + 1, '(') {
                if t.is_ident("unwrap") || t.is_ident("unwrap_err") {
                    push(
                        &mut out,
                        "PF001",
                        t.line,
                        format!("`.{}()` may panic; return the crate error instead", t.text),
                    );
                } else if t.is_ident("expect") || t.is_ident("expect_err") {
                    push(
                        &mut out,
                        "PF002",
                        t.line,
                        format!(
                            "`.{}(..)` may panic; return the crate error instead",
                            t.text
                        ),
                    );
                }
            }
            // PF003/PF004: panicking macros.
            if next_is_punct(&toks, i + 1, '!') {
                if t.is_ident("panic") {
                    push(
                        &mut out,
                        "PF003",
                        t.line,
                        "`panic!` in library code".to_owned(),
                    );
                } else if t.is_ident("todo") || t.is_ident("unimplemented") {
                    push(
                        &mut out,
                        "PF004",
                        t.line,
                        format!("`{}!` placeholder in library code", t.text),
                    );
                }
            }
            // PF005: `)[<int>]` — indexing a temporary call result.
            if t.is_punct(')')
                && next_is_punct(&toks, i + 1, '[')
                && toks.get(i + 2).is_some_and(|x| x.kind == TokKind::Int)
                && next_is_punct(&toks, i + 3, ']')
            {
                push(
                    &mut out,
                    "PF005",
                    t.line,
                    format!(
                        "indexing a call result with literal `[{}]` can panic; \
                         bind the value and use `.get({})`",
                        toks[i + 2].text,
                        toks[i + 2].text
                    ),
                );
            }
            // NS003: per-trace heap copies that the TraceBlock arena makes
            // unnecessary on every hot path.
            if t.is_ident("samples")
                && next_is_punct(&toks, i + 1, '(')
                && next_is_punct(&toks, i + 2, ')')
                && next_is_punct(&toks, i + 3, '.')
                && toks.get(i + 4).is_some_and(|x| x.is_ident("to_vec"))
            {
                push(
                    &mut out,
                    "NS003",
                    t.line,
                    "`samples().to_vec()` copies a whole trace; borrow a view or \
                     accumulate into a preallocated buffer"
                        .to_owned(),
                );
            }
            if t.is_ident("Trace")
                && next_is_punct(&toks, i + 1, ':')
                && next_is_punct(&toks, i + 2, ':')
                && toks.get(i + 3).is_some_and(|x| x.is_ident("clone"))
            {
                push(
                    &mut out,
                    "NS003",
                    t.line,
                    "`Trace::clone` duplicates trace storage; flow borrowed rows \
                     from the TraceBlock arena instead"
                        .to_owned(),
                );
            }
            // PF006: `base[expr]` indexing with a non-literal index. The base
            // must be an expression end (identifier, `)`, `]`), so array
            // types `[f64; 8]`, literals, attributes and patterns don't
            // match; a lone integer-literal index is PF005's domain and a
            // range `[a..b]` is slicing (tracked separately if ever needed).
            if t.is_punct('[') && i >= 1 {
                let base_ok = match &toks[i - 1] {
                    p if p.is_punct(')') || p.is_punct(']') => true,
                    x if x.kind == TokKind::Ident => !KEYWORDS.contains(&x.text.as_str()),
                    _ => false,
                };
                if base_ok {
                    if let Some((start, end)) = bracket_group(&toks, i) {
                        let single_int = end - start == 1 && toks[start].kind == TokKind::Int;
                        let has_range = (start..end.saturating_sub(1))
                            .any(|j| toks[j].is_punct('.') && toks[j + 1].is_punct('.'));
                        if start != end && !single_int && !has_range {
                            push(
                                &mut out,
                                "PF006",
                                t.line,
                                "non-literal index can panic out of bounds; bind with \
                                 `.get(..)` and return a typed error, or justify the bound"
                                    .to_owned(),
                            );
                        }
                    }
                }
            }
            // NS004: `.zip(..)` whose consuming loop/closure performs a `+=`
            // accumulation — a hand-rolled reduction that bypasses the
            // canonical blocked kernels.
            if i >= 1
                && toks[i - 1].is_punct('.')
                && t.is_ident("zip")
                && next_is_punct(&toks, i + 1, '(')
                && zip_body_accumulates(&toks, i + 1)
            {
                push(
                    &mut out,
                    "NS004",
                    t.line,
                    "hand-rolled `.zip(..)` accumulate loop; use the blocked \
                     `ipmark_traces::kernels` reductions (sum/dot/accumulate) \
                     so the summation order stays canonical"
                        .to_owned(),
                );
            }
        }

        if class.numeric {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                push(
                    &mut out,
                    "DT001",
                    t.line,
                    format!(
                        "`{}` in a numeric crate: iteration order is nondeterministic",
                        t.text
                    ),
                );
            }
            if DT002_IDENTS.iter().any(|s| t.is_ident(s)) {
                push(
                    &mut out,
                    "DT002",
                    t.line,
                    format!("`{}` introduces wall-clock/thread nondeterminism", t.text),
                );
            }
            if t.is_ident("thread")
                && next_is_punct(&toks, i + 1, ':')
                && next_is_punct(&toks, i + 2, ':')
                && toks.get(i + 3).is_some_and(|x| x.is_ident("current"))
            {
                push(
                    &mut out,
                    "DT002",
                    t.line,
                    "`thread::current` introduces thread-identity nondeterminism".to_owned(),
                );
            }
            if DT003_IDENTS.iter().any(|s| t.is_ident(s)) {
                push(
                    &mut out,
                    "DT003",
                    t.line,
                    format!(
                        "`{}` reduces in nondeterministic order; use ipmark-parallel's \
                         index-ordered map/reduce",
                        t.text
                    ),
                );
            }
            if DT004_IDENTS.iter().any(|s| t.is_ident(s)) {
                push(
                    &mut out,
                    "DT004",
                    t.line,
                    format!(
                        "`{}` seeds an RNG from ambient entropy; construct RNGs from \
                         derived seeds only",
                        t.text
                    ),
                );
            }
            // DT005: a float sort/extremum whose comparator closure calls
            // raw `partial_cmp` — not a total order over NaN, and the usual
            // `.unwrap()`/`unwrap_or` recovery silently reorders.
            if i >= 1
                && toks[i - 1].is_punct('.')
                && DT005_IDENTS.iter().any(|s| t.is_ident(s))
                && next_is_punct(&toks, i + 1, '(')
            {
                if let Some((start, end)) = paren_group(&toks, i + 1) {
                    if (start..end).any(|j| toks[j].is_ident("partial_cmp")) {
                        push(
                            &mut out,
                            "DT005",
                            t.line,
                            format!(
                                "`.{}(..)` comparator uses raw `partial_cmp`; validate \
                                 finiteness and compare with `f64::total_cmp`",
                                t.text
                            ),
                        );
                    }
                }
            }
            if t.is_ident("as") && toks.get(i + 1).is_some_and(|x| x.is_ident("f32")) {
                push(
                    &mut out,
                    "NS001",
                    t.line,
                    "`as f32` narrows trace math below f64".to_owned(),
                );
            }
            if let Some(ty) = sum_turbofish_at(&toks, i) {
                push(
                    &mut out,
                    "NS002",
                    t.line,
                    format!(
                        "naive `sum::<{ty}>()` loop; prefer the RunningStats/PearsonRef kernels"
                    ),
                );
            }
        }
    }
    out
}

pub(crate) fn next_is_punct(toks: &[Tok], idx: usize, c: char) -> bool {
    toks.get(idx).is_some_and(|t| t.is_punct(c))
}

/// `open_idx` points at a `[`; returns the token range strictly inside the
/// (balanced) bracket group, or `None` when unterminated.
fn bracket_group(toks: &[Tok], open_idx: usize) -> Option<(usize, usize)> {
    balanced_group(toks, open_idx, '[', ']')
}

/// `open_idx` points at a `(`; returns the token range strictly inside the
/// (balanced) paren group, or `None` when unterminated.
pub(crate) fn paren_group(toks: &[Tok], open_idx: usize) -> Option<(usize, usize)> {
    balanced_group(toks, open_idx, '(', ')')
}

fn balanced_group(
    toks: &[Tok],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<(usize, usize)> {
    let mut depth = 1usize;
    let mut j = open_idx + 1;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some((open_idx + 1, j));
            }
        }
        j += 1;
    }
    None
}

/// Whether token `i` starts a `sum::<f32|f64>` turbofish; returns the float
/// type name. Shared by NS002 and the call-graph accumulation facts.
pub(crate) fn sum_turbofish_at(toks: &[Tok], i: usize) -> Option<&'static str> {
    if toks[i].is_ident("sum")
        && next_is_punct(toks, i + 1, ':')
        && next_is_punct(toks, i + 2, ':')
        && next_is_punct(toks, i + 3, '<')
        && next_is_punct(toks, i + 5, '>')
    {
        match toks.get(i + 4) {
            Some(t) if t.is_ident("f64") => Some("f64"),
            Some(t) if t.is_ident("f32") => Some("f32"),
            _ => None,
        }
    } else {
        None
    }
}

/// NS004 helper: `open_idx` points at the `(` of a `.zip(` call. Skips the
/// (possibly nested) argument list, then scans the tokens that consume the
/// zip — the `for`-loop body or the closure chained onto it — for a compound
/// `+=` assignment, which marks the loop as a hand-rolled accumulation. The
/// scan stops at the statement boundary (the matching `}` of the first block,
/// or a `;` outside any block) so a `+=` in the *next* statement cannot
/// trigger a finding; the token window caps malformed input.
pub(crate) fn zip_body_accumulates(toks: &[Tok], open_idx: usize) -> bool {
    let mut j = open_idx + 1;
    let mut depth = 1usize;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
        }
        j += 1;
    }
    let end = (j + NS004_WINDOW).min(toks.len().saturating_sub(1));
    let mut braces = 0usize;
    for k in j..end {
        if toks[k].is_punct('+') && toks[k + 1].is_punct('=') {
            return true;
        }
        if toks[k].is_punct('{') {
            braces += 1;
        } else if toks[k].is_punct('}') {
            if braces <= 1 {
                break;
            }
            braces -= 1;
        } else if toks[k].is_punct(';') && braces == 0 {
            break;
        }
    }
    false
}

/// Token-index ranges `[start, end)` that belong to `#[cfg(test)]` (or
/// `#[cfg(any/all(.., test, ..))]`) modules, which every rule exempts.
pub(crate) fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Match `# [ cfg ( .. test .. ) ]`.
        if toks[i].is_punct('#')
            && next_is_punct(toks, i + 1, '[')
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && next_is_punct(toks, i + 3, '(')
        {
            let mut j = i + 4;
            let mut depth = 1usize;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                } else if toks[j].is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            // Expect the closing `]`, then skip any further attributes to
            // find the item; only `mod <name> {` blocks are excluded.
            if has_test && next_is_punct(toks, j, ']') {
                let mut k = j + 1;
                while k < toks.len() && toks[k].is_punct('#') && next_is_punct(toks, k + 1, '[') {
                    let mut d = 0usize;
                    k += 1;
                    loop {
                        if k >= toks.len() {
                            break;
                        }
                        if toks[k].is_punct('[') {
                            d += 1;
                        } else if toks[k].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                if toks.get(k).is_some_and(|t| t.is_ident("mod"))
                    && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && next_is_punct(toks, k + 2, '{')
                {
                    let start = i;
                    let mut depth = 1usize;
                    let mut m = k + 3;
                    while m < toks.len() && depth > 0 {
                        if toks[m].is_punct('{') {
                            depth += 1;
                        } else if toks[m].is_punct('}') {
                            depth -= 1;
                        }
                        m += 1;
                    }
                    ranges.push((start, m));
                    i = m;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileClass = FileClass {
        library: true,
        numeric: false,
    };
    const NUM: FileClass = FileClass {
        library: true,
        numeric: true,
    };

    fn rules_of(src: &str, class: FileClass) -> Vec<&'static str> {
        lint_source("t.rs", src, class)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn unwrap_and_expect_fire_only_as_method_calls() {
        assert_eq!(rules_of("x.unwrap();", LIB), vec!["PF001"]);
        assert_eq!(rules_of("x.expect(\"m\");", LIB), vec!["PF002"]);
        // `unwrap_or` / a fn named unwrap are not method-call panics.
        assert!(rules_of("x.unwrap_or(0); fn unwrap() {}", LIB).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn a() { b.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { c.unwrap(); } }";
        let findings = lint_source("t.rs", src, LIB);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn numeric_rules_do_not_apply_to_plain_library_files() {
        assert!(rules_of("use std::collections::HashMap;", LIB).is_empty());
        assert_eq!(
            rules_of("use std::collections::HashMap;", NUM),
            vec!["DT001"]
        );
    }

    #[test]
    fn call_result_indexing() {
        assert_eq!(rules_of("let x = f()[0];", LIB), vec!["PF005"]);
        assert!(rules_of("let x = arr[0];", LIB).is_empty());
        // Non-literal indexing of a call result is PF006 territory now.
        assert_eq!(rules_of("let x = f()[i];", LIB), vec!["PF006"]);
    }

    #[test]
    fn sum_turbofish() {
        assert_eq!(rules_of("v.iter().sum::<f64>()", NUM), vec!["NS002"]);
        assert!(rules_of("v.iter().sum::<u32>()", NUM).is_empty());
    }

    #[test]
    fn per_trace_copies_fire_in_library_code() {
        assert_eq!(
            rules_of("let v = trace.samples().to_vec();", LIB),
            vec!["NS003"]
        );
        assert_eq!(
            rules_of("duts.iter().map(Trace::clone)", LIB),
            vec!["NS003"]
        );
        // Views and non-samples to_vec calls are fine.
        assert!(rules_of("let v = row.samples();", LIB).is_empty());
        assert!(rules_of("let v = names.to_vec();", LIB).is_empty());
        // `samples(x).to_vec()` (with arguments) is some other function.
        assert!(rules_of("samples(x).to_vec()", LIB).is_empty());
    }

    #[test]
    fn zip_accumulate_loops_fire_in_library_code() {
        // `for`-loop accumulation over a zip.
        assert_eq!(
            rules_of("for (a, b) in acc.iter_mut().zip(xs) { *a += b; }", LIB),
            vec!["NS004"]
        );
        // Closure-style accumulation chained onto the zip.
        assert_eq!(
            rules_of("acc.iter_mut().zip(xs).for_each(|(a, b)| *a += b);", LIB),
            vec!["NS004"]
        );
        // Nested parens inside the zip argument are skipped correctly.
        assert_eq!(
            rules_of(
                "for (a, b) in acc.iter_mut().zip(xs.iter().rev()) { *a += b; }",
                LIB
            ),
            vec!["NS004"]
        );
    }

    #[test]
    fn non_accumulating_zips_are_fine() {
        // Pairing without a compound assignment is not a reduction.
        assert!(rules_of("let pairs: Vec<_> = xs.iter().zip(ys).collect();", LIB).is_empty());
        assert!(rules_of("for (a, b) in xs.iter().zip(ys) { check(a, b); }", LIB).is_empty());
        // A free function named `zip` is not the iterator adapter.
        assert!(rules_of("let z = zip(xs, ys); *a += b;", LIB).is_empty());
        // An accumulation far past the zip statement is out of the window.
        let far = format!(
            "let p = xs.iter().zip(ys).count();{}\ntotal += 1;",
            "f();".repeat(30)
        );
        assert!(rules_of(&far, LIB).is_empty());
        // A `+=` in the statement *after* the zip loop's block must not leak
        // into the finding (statement-boundary stop).
        assert!(rules_of(
            "for (p, v) in prev.iter_mut().zip(vals.iter_mut()) { *p = v.take(); }\n\
             self.cycle += 1;",
            LIB
        )
        .is_empty());
        assert!(rules_of("let n = xs.iter().zip(ys).count();\ntotal += n;", LIB).is_empty());
    }
}
