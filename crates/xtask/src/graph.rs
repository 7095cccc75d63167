//! Workspace-wide symbol table and call graph, built from the lexer's
//! token streams.
//!
//! The local rules in [`crate::rules`] are line-local by design; the
//! contract rules (CC001–CC003, see [`crate::flow`]) need to know what is
//! *reachable* from the verification pipeline's entry points. This module
//! provides that: it parses every library source file into a set of
//! function definitions (free functions, inherent/trait methods), records
//! the call expressions inside each body (bare calls, `path::to::fn(..)`
//! calls, `.method(..)` calls, turbofish calls), resolves them against the
//! symbol table, and exposes the resulting edge list.
//!
//! ## Resolution strategy
//!
//! Without type inference the resolver is a deliberate *over-approximation*
//! (a lint must not miss reachable code):
//!
//! * **Path calls** resolve through `use` imports, `crate`/`self`/`super`
//!   heads, workspace crate idents (`ipmark_traces` → `crates/traces`) and
//!   `Self`/`Type::method` fallbacks.
//! * **Bare calls** resolve in the caller's module first, then through the
//!   file's imports, then to a unique same-crate or workspace-wide match.
//! * **Method calls** resolve to *every* known associated function of that
//!   name — trait dispatch without types cannot be narrowed further, and
//!   for reachability lints the union is the sound choice.
//!
//! Calls into `std` or the vendored shims simply resolve to nothing.
//! `#[cfg(test)]` modules are skipped entirely, matching the local rules.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{tokenize, Tok, TokKind};
use crate::rules::{cfg_test_ranges, next_is_punct, sum_turbofish_at, zip_body_accumulates};

/// One call site inside a function body, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(..)` — an unqualified call.
    Bare(String),
    /// `a::b::f(..)` — a path call, segments in source order.
    Path(Vec<String>),
    /// `.method(..)` — a method call on an inferred receiver.
    Method(String),
}

/// A call expression with its source line.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What kind of call and through which name/path.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: u32,
}

/// Body-derived facts the flow pass queries per function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Lines of ad-hoc float accumulation: `sum::<f64>()` turbofish,
    /// `.zip(..)` accumulate loops, and `+=` onto a float-typed local.
    pub accum_lines: Vec<(u32, String)>,
    /// Lines calling `.partial_cmp(..)`.
    pub partial_cmp_lines: Vec<u32>,
}

/// One function definition in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`correlate`).
    pub name: String,
    /// Fully qualified name (`ipmark_traces::stats::PearsonRef::correlate`).
    pub qual: String,
    /// Enclosing `impl`/`trait` type name, if this is an associated fn.
    pub impl_type: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (for finding→fn mapping).
    pub end_line: u32,
    /// Crate ident, e.g. `ipmark_traces`.
    pub crate_ident: String,
    /// Module path of the defining scope, e.g. `ipmark_traces::stats`.
    pub module: String,
    /// Unresolved call sites in the body.
    pub calls: Vec<CallSite>,
    /// Accumulation/comparison facts for the contract rules.
    pub facts: FnFacts,
}

/// A resolved call edge: callee function index plus the call-site line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the callee in [`SymbolGraph::fns`].
    pub callee: usize,
    /// 1-based line of the call site in the *caller's* file.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Every function definition, in deterministic (file, line) order.
    pub fns: Vec<FnDef>,
    /// Resolved outgoing edges per function (sorted, deduplicated).
    pub edges: Vec<Vec<Edge>>,
}

impl SymbolGraph {
    /// Builds the graph from `(workspace-relative path, source)` pairs.
    /// Files whose path does not look like a workspace crate source are
    /// ignored.
    #[must_use]
    pub fn build(files: &[(String, String)]) -> SymbolGraph {
        let mut fns: Vec<FnDef> = Vec::new();
        let mut imports_by_file: BTreeMap<String, Vec<Import>> = BTreeMap::new();
        for (rel, src) in files {
            let Some((crate_ident, module)) = module_path_of(rel) else {
                continue;
            };
            let parsed = parse_file(rel, src, &crate_ident, &module);
            imports_by_file.insert(rel.clone(), parsed.imports);
            fns.extend(parsed.fns);
        }
        fns.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let resolver = Resolver::new(&fns, &imports_by_file);
        let edges = fns
            .iter()
            .map(|f| resolver.resolve_fn(f))
            .collect::<Vec<_>>();
        SymbolGraph { fns, edges }
    }

    /// Indices of the functions whose qualified name matches one of the
    /// `entry_points` patterns. A pattern matches when it equals the
    /// qualified name or a `::`-aligned suffix of it (`correlate`,
    /// `PearsonRef::correlate`, …).
    #[must_use]
    pub fn entry_indices(&self, entry_points: &[String]) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            if entry_points.iter().any(|p| qual_matches(&f.qual, p)) {
                out.push(i);
            }
        }
        out
    }

    /// The `entry_points` patterns that match no function. A stale pattern
    /// would silently shrink the contract surface, so the lint run fails
    /// on it as it does on a stale `[[allow]]` entry.
    #[must_use]
    pub fn unmatched_entry_points(&self, entry_points: &[String]) -> Vec<String> {
        entry_points
            .iter()
            .filter(|p| !self.fns.iter().any(|f| qual_matches(&f.qual, p)))
            .cloned()
            .collect()
    }

    /// The set of function indices reachable from `entries` (inclusive),
    /// via breadth-first traversal in deterministic order.
    #[must_use]
    pub fn reachable_from(&self, entries: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = entries.iter().copied().collect();
        let mut queue: VecDeque<usize> = entries.iter().copied().collect();
        while let Some(i) = queue.pop_front() {
            for e in &self.edges[i] {
                if seen.insert(e.callee) {
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }

    /// Renders the subgraph induced by `nodes` in Graphviz DOT syntax.
    #[must_use]
    pub fn to_dot(&self, nodes: &BTreeSet<usize>, entries: &[usize]) -> String {
        use std::fmt::Write as _;
        let mut s =
            String::from("digraph contract {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for &i in nodes {
            let f = &self.fns[i];
            let shape = if entries.contains(&i) {
                ", style=bold, color=blue"
            } else if !f.facts.accum_lines.is_empty() {
                ", style=filled, fillcolor=lightsalmon"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "  n{} [label=\"{}\\n{}:{}\"{}];",
                i,
                f.qual.replace('"', "'"),
                f.file,
                f.line,
                shape
            );
        }
        for &i in nodes {
            for e in &self.edges[i] {
                if nodes.contains(&e.callee) {
                    let _ = writeln!(s, "  n{} -> n{};", i, e.callee);
                }
            }
        }
        s.push_str("}\n");
        s
    }

    /// The function (index) whose span in `file` contains `line`, if any.
    #[must_use]
    pub fn fn_at(&self, file: &str, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.file == file && f.line <= line && line <= f.end_line)
    }
}

/// Whether `pattern` equals `qual` or is a `::`-aligned suffix of it.
fn qual_matches(qual: &str, pattern: &str) -> bool {
    qual == pattern
        || qual
            .strip_suffix(pattern)
            .is_some_and(|head| head.ends_with("::"))
}

/// Maps a workspace-relative path to `(crate ident, module path)`.
/// `crates/traces/src/io.rs` → (`ipmark_traces`, `ipmark_traces::io`);
/// the root facade `src/lib.rs` → (`ipmark`, `ipmark`). Returns `None` for
/// paths outside a recognized source tree (shims, tests, fixtures).
fn module_path_of(rel: &str) -> Option<(String, String)> {
    let (crate_ident, rest) = if let Some(rest) = rel.strip_prefix("crates/") {
        let (dir, rest) = rest.split_once('/')?;
        if dir == "shims" || dir == "xtask" {
            return None;
        }
        let ident = match dir {
            "cli" => "ipmark_cli".to_owned(),
            d => format!("ipmark_{}", d.replace('-', "_")),
        };
        (ident, rest)
    } else if let Some(rest) = rel.strip_prefix("src/") {
        ("ipmark".to_owned(), rest)
    } else {
        return None;
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let stem = rest.strip_suffix(".rs")?;
    let mut module = crate_ident.clone();
    if stem != "lib" && stem != "main" {
        for seg in stem.split('/') {
            if seg == "mod" {
                continue;
            }
            module.push_str("::");
            module.push_str(seg);
        }
    }
    Some((crate_ident, module))
}

/// One `use` declaration entry after flattening `{..}` groups.
#[derive(Debug, Clone)]
struct Import {
    /// The name the import binds locally (last segment or `as` alias).
    alias: String,
    /// Full path segments with `crate`/`self`/`super` already normalized
    /// to absolute crate-rooted form.
    path: Vec<String>,
    /// Whether this is a `pub use` re-export.
    reexport: bool,
    /// Module the `use` lives in (the file's module).
    module: String,
}

struct ParsedFile {
    fns: Vec<FnDef>,
    imports: Vec<Import>,
}

/// Scope kinds the item walker tracks while matching braces.
#[derive(Debug, Clone)]
enum Scope {
    Module(String),
    Impl(String),
    Trait(String),
    Block,
}

fn parse_file(rel: &str, src: &str, crate_ident: &str, base_module: &str) -> ParsedFile {
    let toks = tokenize(src);
    let excluded = cfg_test_ranges(&toks);
    let in_test = |idx: usize| excluded.iter().any(|&(a, b)| idx >= a && idx < b);

    let mut fns = Vec::new();
    let mut imports = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0usize;
    let n = toks.len();

    let module_of = |scopes: &[Scope], base: &str| -> String {
        let mut m = base.to_owned();
        for s in scopes {
            if let Scope::Module(name) = s {
                m.push_str("::");
                m.push_str(name);
            }
        }
        m
    };
    let impl_type_of = |scopes: &[Scope]| -> Option<String> {
        scopes.iter().rev().find_map(|s| match s {
            Scope::Impl(t) | Scope::Trait(t) => Some(t.clone()),
            _ => None,
        })
    };

    while i < n {
        if in_test(i) {
            // Skip whole test ranges; keep brace tracking consistent by
            // jumping over them (ranges cover balanced `mod .. { .. }`).
            let (_, end) = excluded
                .iter()
                .find(|&&(a, b)| i >= a && i < b)
                .copied()
                .unwrap_or((i, i + 1));
            i = end.max(i + 1);
            continue;
        }
        let t = &toks[i];
        if t.is_ident("use") {
            let module = module_of(&scopes, base_module);
            let reexport = i >= 1 && toks[i - 1].is_ident("pub");
            let (entries, next) = parse_use_tree(&toks, i + 1, crate_ident, base_module);
            for (alias, path) in entries {
                imports.push(Import {
                    alias,
                    path,
                    reexport,
                    module: module.clone(),
                });
            }
            i = next;
            continue;
        }
        if t.is_ident("mod")
            && toks.get(i + 1).is_some_and(|x| x.kind == TokKind::Ident)
            && next_is_punct(&toks, i + 2, '{')
        {
            scopes.push(Scope::Module(toks[i + 1].text.clone()));
            i += 3;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, body_open)) = parse_impl_header(&toks, i) {
                scopes.push(Scope::Impl(ty));
                i = body_open + 1;
                continue;
            }
        }
        if t.is_ident("trait") && toks.get(i + 1).is_some_and(|x| x.kind == TokKind::Ident) {
            // Find the body `{` (skip supertraits/generics); a `;` at depth 0
            // would be `trait A = ..;` alias — not used, but stay safe.
            let name = toks[i + 1].text.clone();
            if let Some(open) = find_body_open(&toks, i + 2) {
                scopes.push(Scope::Trait(name));
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|x| x.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = t.line;
            match find_body_open(&toks, i + 2) {
                Some(open) => {
                    let close = matching_brace(&toks, open);
                    let module = module_of(&scopes, base_module);
                    let impl_type = impl_type_of(&scopes);
                    let qual = match &impl_type {
                        Some(ty) => format!("{module}::{ty}::{name}"),
                        None => format!("{module}::{name}"),
                    };
                    let body = (open + 1, close);
                    let calls = collect_calls(&toks, body);
                    let facts = collect_facts(&toks, body);
                    let end_line = toks
                        .get(close)
                        .or_else(|| toks.last())
                        .map_or(line, |tk| tk.line);
                    fns.push(FnDef {
                        name,
                        qual,
                        impl_type,
                        file: rel.to_owned(),
                        line,
                        end_line,
                        crate_ident: crate_ident.to_owned(),
                        module,
                        calls,
                        facts,
                    });
                    i = close.saturating_add(1).max(open + 1);
                    continue;
                }
                None => {
                    // Bodyless: trait method declaration or extern. Skip the
                    // signature up to the `;`.
                    i += 2;
                    continue;
                }
            }
        }
        if t.is_punct('{') {
            scopes.push(Scope::Block);
        } else if t.is_punct('}') {
            scopes.pop();
        }
        i += 1;
    }
    ParsedFile { fns, imports }
}

/// From `start` (just past `impl`), extracts the implemented type name and
/// the index of the body `{`. For `impl Trait for Type` the type after
/// `for` wins; generic parameters and paths collapse to their last
/// type-looking segment.
fn parse_impl_header(toks: &[Tok], impl_idx: usize) -> Option<(String, usize)> {
    let open = find_body_open(toks, impl_idx + 1)?;
    let mut last_ident: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    let mut angle = 0i32;
    let mut j = impl_idx + 1;
    while j < open {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_ident("for") && angle == 0 {
            saw_for = true;
        } else if t.is_ident("where") && angle == 0 {
            break;
        } else if t.kind == TokKind::Ident && angle == 0 {
            // Keep the last path segment seen outside generics: for
            // `impl<T> Trait<T> for path::to::Type<T>` that is `Type`.
            if saw_for {
                after_for = Some(&t.text);
            } else {
                last_ident = Some(&t.text);
            }
        }
        j += 1;
    }
    let ty = after_for.or(last_ident)?.to_owned();
    Some((ty, open))
}

/// Finds the `{` opening a body, scanning from `start` and skipping over
/// parenthesized/bracketed signature parts. Returns `None` when a `;` at
/// top level ends the item first (bodyless declaration).
fn find_body_open(toks: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct('{') {
                return Some(j);
            }
            if t.is_punct(';') {
                return None;
            }
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Parses one `use` tree starting at `start` (just past the `use` keyword);
/// returns the flattened `(alias, absolute path)` entries and the index
/// just past the terminating `;`.
fn parse_use_tree(
    toks: &[Tok],
    start: usize,
    crate_ident: &str,
    base_module: &str,
) -> (Vec<(String, Vec<String>)>, usize) {
    // Collect the raw token slice of the declaration.
    let mut end = start;
    let mut depth = 0i32;
    while end < toks.len() {
        let t = &toks[end];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            break;
        }
        end += 1;
    }
    let mut entries = Vec::new();
    expand_use(toks, start, end, &mut Vec::new(), &mut entries);
    // Normalize heads.
    let entries = entries
        .into_iter()
        .filter_map(|(alias, mut path)| {
            match path.first().map(String::as_str) {
                Some("crate") => {
                    path[0] = crate_ident.to_owned();
                }
                Some("self") => {
                    path.remove(0);
                    let mut abs: Vec<String> = base_module.split("::").map(str::to_owned).collect();
                    abs.extend(path);
                    path = abs;
                }
                Some("super") => {
                    path.remove(0);
                    let mut abs: Vec<String> = base_module.split("::").map(str::to_owned).collect();
                    abs.pop();
                    abs.extend(path);
                    path = abs;
                }
                Some(
                    "std" | "core" | "alloc" | "serde" | "serde_json" | "rand" | "rand_chacha",
                ) => {
                    return None;
                }
                _ => {}
            }
            Some((alias, path))
        })
        .collect();
    (entries, end + 1)
}

/// Recursively expands a use tree in `toks[start..end]` with `prefix`
/// segments already accumulated.
fn expand_use(
    toks: &[Tok],
    start: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<(String, Vec<String>)>,
) {
    let mut segs: Vec<String> = Vec::new();
    let mut j = start;
    while j < end {
        let t = &toks[j];
        if t.kind == TokKind::Ident && t.text != "as" {
            segs.push(t.text.clone());
            j += 1;
        } else if t.is_punct(':') {
            j += 1;
        } else if t.is_punct('{') {
            // Group: split on top-level commas, recurse on each arm.
            let close = {
                let mut d = 1i32;
                let mut k = j + 1;
                while k < end && d > 0 {
                    if toks[k].is_punct('{') {
                        d += 1;
                    } else if toks[k].is_punct('}') {
                        d -= 1;
                    }
                    k += 1;
                }
                k - 1
            };
            let mut arm_start = j + 1;
            let mut d = 0i32;
            let mut k = j + 1;
            let base_len = prefix.len();
            prefix.extend(segs.iter().cloned());
            while k <= close {
                let at_end = k == close;
                let is_comma = k < close && toks[k].is_punct(',') && d == 0;
                if toks[k].is_punct('{') {
                    d += 1;
                } else if toks[k].is_punct('}') && k != close {
                    d -= 1;
                }
                if is_comma || at_end {
                    if k > arm_start {
                        expand_use(toks, arm_start, k, prefix, out);
                    }
                    arm_start = k + 1;
                }
                k += 1;
            }
            prefix.truncate(base_len);
            return;
        } else {
            j += 1;
        }
        // `as` alias: `path as name`.
        if j < end
            && toks[j - 1].kind == TokKind::Ident
            && toks.get(j).is_some_and(|x| x.is_ident("as"))
        {
            if let Some(alias_tok) = toks.get(j + 1) {
                if alias_tok.kind == TokKind::Ident {
                    let mut path = prefix.clone();
                    path.extend(segs.iter().cloned());
                    out.push((alias_tok.text.clone(), path));
                    return;
                }
            }
        }
    }
    if let Some(last) = segs.last() {
        if last == "*" {
            return; // glob imports are not tracked
        }
        let mut path = prefix.clone();
        path.extend(segs.iter().cloned());
        out.push((last.clone(), path));
    }
}

/// Keywords that look like calls when followed by `(` but are not.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "move", "fn", "as", "let", "else",
    "break", "continue", "await", "where", "impl", "dyn", "mut", "ref",
];

/// Collects the unresolved call sites in a body token range.
fn collect_calls(toks: &[Tok], body: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = body;
    let mut out = Vec::new();
    let mut j = start;
    while j < end {
        let t = &toks[j];
        // Turbofish call `f::<T>(..)`: `>` immediately before `(`.
        if t.is_punct('(') && j >= 1 && toks[j - 1].is_punct('>') {
            if let Some((name_idx, _)) = turbofish_target(toks, j - 1, start) {
                let (kind, _) = classify_callee(toks, name_idx);
                if let Some(kind) = kind {
                    out.push(CallSite {
                        kind,
                        line: toks[name_idx].line,
                    });
                }
            }
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident
            && next_is_punct(toks, j + 1, '(')
            && !CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let (kind, _) = classify_callee(toks, j);
            if let Some(kind) = kind {
                out.push(CallSite { kind, line: t.line });
            }
        }
        j += 1;
    }
    out
}

/// For a `>` just before a call paren, walks back over the balanced `<..>`
/// and the `::` to the callee ident; returns its index.
fn turbofish_target(toks: &[Tok], close_angle: usize, floor: usize) -> Option<(usize, ())> {
    let mut depth = 1i32;
    let mut k = close_angle;
    while k > floor {
        k -= 1;
        if toks[k].is_punct('>') {
            depth += 1;
        } else if toks[k].is_punct('<') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
    }
    if depth != 0 || k < floor + 3 {
        return None;
    }
    // Expect `ident :: <`.
    if toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':') && toks[k - 3].kind == TokKind::Ident
    {
        Some((k - 3, ()))
    } else {
        None
    }
}

/// Classifies the callee ident at `j` into bare/path/method and extracts
/// the path segments; returns `None` for shapes that are not calls (macro
/// bangs are already excluded by the caller's `(`-lookahead).
fn classify_callee(toks: &[Tok], j: usize) -> (Option<CallKind>, usize) {
    let name = toks[j].text.clone();
    if j >= 1 && toks[j - 1].is_punct('.') {
        return (Some(CallKind::Method(name)), j);
    }
    if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        // Walk back `seg :: seg :: name`.
        let mut segs = vec![name];
        let mut k = j;
        while k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':') {
            if k >= 3 && toks[k - 3].kind == TokKind::Ident {
                segs.push(toks[k - 3].text.clone());
                k -= 3;
            } else if k >= 3 && toks[k - 3].is_punct('>') {
                // Qualified path `<T as Tr>::f` — give up on the head, keep
                // what we have as a relative path.
                break;
            } else {
                break;
            }
        }
        segs.reverse();
        return (Some(CallKind::Path(segs)), k);
    }
    (Some(CallKind::Bare(name)), j)
}

/// Gathers the accumulation / comparison facts of one body.
fn collect_facts(toks: &[Tok], body: (usize, usize)) -> FnFacts {
    let (start, end) = body;
    let mut facts = FnFacts::default();
    // Pass 1: float-typed locals (`let [mut] x = <float literal>` or
    // `let [mut] x: f64`), so `x += ..` can be recognized as a float
    // accumulation without type inference.
    let mut float_locals: BTreeSet<String> = BTreeSet::new();
    let mut j = start;
    while j < end {
        if toks[j].is_ident("let") {
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name_tok) = toks.get(k).filter(|t| t.kind == TokKind::Ident) {
                let name = name_tok.text.clone();
                // `: f64` annotation, or `= <float literal>` initializer.
                let is_float =
                    if next_is_punct(toks, k + 1, ':') && !next_is_punct(toks, k + 2, ':') {
                        toks.get(k + 2)
                            .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"))
                    } else if next_is_punct(toks, k + 1, '=') {
                        toks.get(k + 2).is_some_and(is_float_literal)
                            || (toks.get(k + 2).is_some_and(|t| t.is_punct('-'))
                                && toks.get(k + 3).is_some_and(is_float_literal))
                    } else {
                        false
                    };
                if is_float {
                    float_locals.insert(name);
                }
            }
        }
        j += 1;
    }
    // Pass 2: the accumulation/comparison sites themselves.
    let mut j = start;
    while j < end {
        let t = &toks[j];
        if let Some(ty) = sum_turbofish_at(toks, j) {
            facts
                .accum_lines
                .push((t.line, format!("`sum::<{ty}>()` reduction")));
        }
        if j >= 1
            && toks[j - 1].is_punct('.')
            && t.is_ident("zip")
            && next_is_punct(toks, j + 1, '(')
            && zip_body_accumulates(toks, j + 1)
        {
            facts
                .accum_lines
                .push((t.line, "`.zip(..)` accumulate loop".to_owned()));
        }
        if t.kind == TokKind::Ident
            && float_locals.contains(&t.text)
            && next_is_punct(toks, j + 1, '+')
            && next_is_punct(toks, j + 2, '=')
        {
            facts
                .accum_lines
                .push((t.line, format!("`{} += ..` onto a float local", t.text)));
        }
        if t.is_ident("partial_cmp")
            && j >= 1
            && toks[j - 1].is_punct('.')
            && next_is_punct(toks, j + 1, '(')
        {
            facts.partial_cmp_lines.push(t.line);
        }
        j += 1;
    }
    facts
}

/// Whether a token is a float literal (`0.0`, `1e-9`, `2f64`, …).
fn is_float_literal(t: &Tok) -> bool {
    t.kind == TokKind::OtherLit
        && t.text.as_bytes().first().is_some_and(u8::is_ascii_digit)
        && (t.text.contains('.')
            || t.text.contains('e')
            || t.text.contains('E')
            || t.text.ends_with("f64")
            || t.text.ends_with("f32"))
}

/// The resolver: lookup tables over the collected definitions.
struct Resolver<'a> {
    fns: &'a [FnDef],
    by_qual: BTreeMap<&'a str, Vec<usize>>,
    methods: BTreeMap<&'a str, Vec<usize>>,
    by_module_name: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    by_crate_name: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    imports_by_file: &'a BTreeMap<String, Vec<Import>>,
}

impl<'a> Resolver<'a> {
    fn new(fns: &'a [FnDef], imports_by_file: &'a BTreeMap<String, Vec<Import>>) -> Self {
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_module_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_crate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_qual.entry(&f.qual).or_default().push(i);
            if f.impl_type.is_some() {
                methods.entry(&f.name).or_default().push(i);
            }
            by_module_name
                .entry((&f.module, &f.name))
                .or_default()
                .push(i);
            by_crate_name
                .entry((&f.crate_ident, &f.name))
                .or_default()
                .push(i);
            by_name.entry(&f.name).or_default().push(i);
        }
        Resolver {
            fns,
            by_qual,
            methods,
            by_module_name,
            by_crate_name,
            by_name,
            imports_by_file,
        }
    }

    fn imports_of(&self, file: &str) -> &[Import] {
        self.imports_by_file.get(file).map_or(&[], Vec::as_slice)
    }

    /// Looks up an import by bound name in the caller's file.
    fn import_target(&self, file: &str, alias: &str) -> Option<&Import> {
        self.imports_of(file).iter().find(|im| im.alias == alias)
    }

    fn resolve_fn(&self, caller: &FnDef) -> Vec<Edge> {
        let mut out: Vec<Edge> = Vec::new();
        for call in &caller.calls {
            let targets = match &call.kind {
                CallKind::Method(name) => {
                    self.methods.get(name.as_str()).cloned().unwrap_or_default()
                }
                CallKind::Path(segs) => self.resolve_path(caller, segs),
                CallKind::Bare(name) => self.resolve_bare(caller, name),
            };
            for t in targets {
                out.push(Edge {
                    callee: t,
                    line: call.line,
                });
            }
        }
        out.sort_by_key(|e| (e.callee, e.line));
        out.dedup();
        out
    }

    fn resolve_path(&self, caller: &FnDef, segs: &[String]) -> Vec<usize> {
        if segs.is_empty() {
            return Vec::new();
        }
        let mut segs: Vec<String> = segs.to_vec();
        // Normalize the head.
        match segs[0].as_str() {
            "crate" => segs[0] = caller.crate_ident.clone(),
            "self" => {
                let mut abs: Vec<String> = caller.module.split("::").map(str::to_owned).collect();
                segs.remove(0);
                abs.extend(segs);
                segs = abs;
            }
            "super" => {
                let mut abs: Vec<String> = caller.module.split("::").map(str::to_owned).collect();
                abs.pop();
                segs.remove(0);
                abs.extend(segs);
                segs = abs;
            }
            "Self" => {
                if let Some(ty) = &caller.impl_type {
                    segs[0] = ty.clone();
                } else {
                    return Vec::new();
                }
            }
            _ => {}
        }
        // Import substitution on the head: `use crate::kernels;` makes
        // `kernels::sum(..)` resolve through the import.
        if let Some(im) = self.import_target(&caller.file, &segs[0]) {
            let mut abs = im.path.clone();
            abs.extend(segs.into_iter().skip(1));
            segs = abs;
        }
        let qual = segs.join("::");
        if let Some(ids) = self.by_qual.get(qual.as_str()) {
            return ids.clone();
        }
        // `module::Type::method` and `Type::method` fallbacks: match by
        // (type, name) over all associated fns.
        if segs.len() >= 2 {
            let name = &segs[segs.len() - 1];
            let ty = &segs[segs.len() - 2];
            let ids: Vec<usize> = self
                .methods
                .get(name.as_str())
                .into_iter()
                .flatten()
                .copied()
                .filter(|&i| self.fns[i].impl_type.as_deref() == Some(ty.as_str()))
                .collect();
            if !ids.is_empty() {
                return ids;
            }
            // Re-exported path: an import in the named module may forward to
            // the real definition (`pub use` chains).
            if let Some(reexp) = self.resolve_reexport(&segs) {
                return reexp;
            }
        }
        Vec::new()
    }

    /// Follows one level of `pub use` re-export: for `a::b::f`, if module
    /// `a::b` re-exports `f` from somewhere, resolve the target path —
    /// absolute, or relative to `a::b` (`pub use inner::f;` names a child
    /// module).
    fn resolve_reexport(&self, segs: &[String]) -> Option<Vec<usize>> {
        let name = segs.last()?;
        let module = segs[..segs.len() - 1].join("::");
        for imports in self.imports_by_file.values() {
            for im in imports {
                if im.reexport && im.module == module && im.alias == *name {
                    let qual = im.path.join("::");
                    let relative = format!("{module}::{qual}");
                    if let Some(ids) = self
                        .by_qual
                        .get(qual.as_str())
                        .or_else(|| self.by_qual.get(relative.as_str()))
                    {
                        return Some(ids.clone());
                    }
                }
            }
        }
        None
    }

    fn resolve_bare(&self, caller: &FnDef, name: &str) -> Vec<usize> {
        // 1. Same module.
        if let Some(ids) = self.by_module_name.get(&(caller.module.as_str(), name)) {
            return ids.clone();
        }
        // 2. Imported name.
        if let Some(im) = self.import_target(&caller.file, name) {
            let qual = im.path.join("::");
            if let Some(ids) = self.by_qual.get(qual.as_str()) {
                return ids.clone();
            }
        }
        // 3. Unique match within the caller's crate.
        if let Some(ids) = self.by_crate_name.get(&(caller.crate_ident.as_str(), name)) {
            if ids.len() == 1 {
                return ids.clone();
            }
        }
        // 4. Unique match across the workspace (free functions only).
        if let Some(ids) = self.by_name.get(name) {
            let free: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_type.is_none())
                .collect();
            if free.len() == 1 {
                return free;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(files: &[(&str, &str)]) -> SymbolGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        SymbolGraph::build(&owned)
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(
            module_path_of("crates/traces/src/io.rs"),
            Some(("ipmark_traces".into(), "ipmark_traces::io".into()))
        );
        assert_eq!(
            module_path_of("crates/traces/src/lib.rs"),
            Some(("ipmark_traces".into(), "ipmark_traces".into()))
        );
        assert_eq!(
            module_path_of("src/lib.rs"),
            Some(("ipmark".into(), "ipmark".into()))
        );
        assert_eq!(module_path_of("crates/shims/rand/src/lib.rs"), None);
        assert_eq!(module_path_of("crates/xtask/src/lib.rs"), None);
    }

    #[test]
    fn bare_and_path_calls_resolve() {
        let g = build(&[
            (
                "crates/core/src/a.rs",
                "pub fn top() { helper(); crate::b::other(); }\nfn helper() {}",
            ),
            ("crates/core/src/b.rs", "pub fn other() {}"),
        ]);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        let names: Vec<&str> = g.edges[top]
            .iter()
            .map(|e| g.fns[e.callee].name.as_str())
            .collect();
        assert_eq!(names, vec!["helper", "other"]);
    }

    #[test]
    fn method_calls_resolve_to_all_impls() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "struct A; struct B;\nimpl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
             pub fn top(x: &A) { x.go(); }",
        )]);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        assert_eq!(g.edges[top].len(), 2, "method calls over-approximate");
    }

    #[test]
    fn use_imports_resolve_cross_crate() {
        let g = build(&[
            (
                "crates/core/src/a.rs",
                "use ipmark_traces::kernels::sum;\npub fn top(v: &[f64]) { sum(v); }",
            ),
            (
                "crates/traces/src/kernels.rs",
                "pub fn sum(v: &[f64]) -> f64 { 0.0 }",
            ),
        ]);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        assert_eq!(g.edges[top].len(), 1);
        assert_eq!(
            g.fns[g.edges[top][0].callee].qual,
            "ipmark_traces::kernels::sum"
        );
    }

    #[test]
    fn float_accumulation_facts_are_detected() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "pub fn acc(v: &[f64]) -> f64 {\n    let mut s = 0.0;\n    for x in v { s += x; }\n    s\n}",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].facts.accum_lines.len(), 1);
        assert_eq!(g.fns[0].facts.accum_lines[0].0, 3);
    }

    #[test]
    fn cfg_test_modules_are_invisible() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn fake() { } }",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }

    #[test]
    fn reachability_walks_transitively() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn unrelated() {}",
        )]);
        let entries = g.entry_indices(&["entry".to_owned()]);
        assert_eq!(entries.len(), 1);
        let reach = g.reachable_from(&entries);
        let names: Vec<&str> = reach.iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["entry", "mid", "leaf"]);
    }

    #[test]
    fn entry_patterns_match_type_qualified_suffixes() {
        let g = build(&[(
            "crates/core/src/session.rs",
            "pub struct VerificationSession;\nimpl VerificationSession {\n    pub fn ingest_chunk(&mut self) {}\n}",
        )]);
        assert_eq!(
            g.entry_indices(&["VerificationSession::ingest_chunk".to_owned()])
                .len(),
            1
        );
        assert_eq!(g.entry_indices(&["ingest_chunk".to_owned()]).len(), 1);
        assert_eq!(
            g.entry_indices(&["Session::ingest_chunk".to_owned()]).len(),
            0
        );
    }

    #[test]
    fn reexports_from_a_child_module_resolve() {
        let g = build(&[
            (
                "crates/traces/src/kernels.rs",
                "mod scalar {\n    pub fn sum() {}\n}\npub use scalar::sum;",
            ),
            (
                "crates/traces/src/stats.rs",
                "use crate::kernels;\npub fn mean() { kernels::sum(); }",
            ),
        ]);
        let entries = g.entry_indices(&["stats::mean".to_owned()]);
        let reach = g.reachable_from(&entries);
        let quals: Vec<&str> = reach.iter().map(|&i| g.fns[i].qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "ipmark_traces::kernels::scalar::sum",
                "ipmark_traces::stats::mean"
            ]
        );
    }

    #[test]
    fn entry_patterns_that_match_no_function_are_reported() {
        let g = build(&[(
            "crates/core/src/session.rs",
            "pub struct VerificationSession;\nimpl VerificationSession {\n    pub fn ingest_chunk(&mut self) {}\n}",
        )]);
        let patterns = [
            "VerificationSession::ingest_chunk".to_owned(),
            "PearsonRef::retired".to_owned(),
            "Session::ingest_chunk".to_owned(),
        ];
        assert_eq!(
            g.unmatched_entry_points(&patterns),
            vec![
                "PearsonRef::retired".to_owned(),
                "Session::ingest_chunk".to_owned()
            ]
        );
        assert!(g.unmatched_entry_points(&patterns[..1]).is_empty());
    }
}
