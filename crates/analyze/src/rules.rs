//! The five rule passes.
//!
//! Every pass is a token-shape scan over a [`Scoped`] file — no type
//! information, no name resolution. The rules are deliberately narrow:
//! each one encodes a single invariant this repo's earlier PRs introduced
//! in prose, and matches the exact code shapes the workspace uses, so the
//! false-positive surface stays small enough for a ratcheting baseline.

use crate::lexer::TokKind;
use crate::report::{Finding, Rule};
use crate::scopes::Scoped;
use std::collections::BTreeSet;

/// Marker comment that opens a hot-path region (the next `{ ... }` block).
pub const HOT_MARKER: &str = "analyze: hot-path";

/// Guard constructors from `engine/shared.rs` whose `MutexGuard` scopes
/// rule 1 patrols.
pub const LOCK_FNS: [&str; 2] = ["lock_shard", "lock_recovering"];

/// The only files allowed to contain `unsafe` at all (rule 3): the
/// counting allocator of the allocation-free hot-path test. Both library
/// crates are `#![forbid(unsafe_code)]`.
pub const UNSAFE_ALLOWED: [&str; 1] = ["tests/alloc.rs"];

/// Stats structs whose every field must be observed (rule 4).
pub const STATS_STRUCTS: [&str; 3] = ["SchedulerStats", "EngineStats", "SharedCacheStats"];

/// One file ready for the per-file passes.
pub struct FileUnit {
    /// Root-relative, `/`-separated path.
    pub rel: String,
    pub scoped: Scoped,
}

impl FileUnit {
    fn finding(&self, line: u32, rule: Rule, msg: impl Into<String>) -> Finding {
        Finding {
            file: self.rel.clone(),
            line,
            rule,
            msg: msg.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1: lock discipline
// ---------------------------------------------------------------------------

/// Denies planning, snapshot codec, and file IO calls inside a guard scope
/// obtained from [`LOCK_FNS`]. A `let`-bound guard lives to the end of the
/// enclosing block; a temporary guard (`self.lock_shard(s).cache.len()`)
/// lives to the end of its statement.
pub fn lock_discipline(f: &FileUnit) -> Vec<Finding> {
    let s = &f.scoped;
    let mut out = Vec::new();
    for i in 0..s.toks.len() {
        let t = &s.toks[i];
        if t.kind != TokKind::Ident || !LOCK_FNS.iter().any(|n| t.is_ident(n)) {
            continue;
        }
        if !next_is_call_paren(s, i) || is_fn_definition(s, i) {
            continue;
        }
        let end = guard_region_end(s, i);
        for j in i + 1..end.min(s.toks.len()) {
            let tj = &s.toks[j];
            if tj.kind != TokKind::Ident || !next_is_call_paren(s, j) || is_fn_definition(s, j) {
                continue;
            }
            if let Some(what) = denied_under_lock(s, j) {
                out.push(f.finding(
                    tj.line,
                    Rule::LockDiscipline,
                    format!(
                        "`{}` ({what}) called inside a `{}` guard scope \
                         (line {}); do this before taking the lock",
                        tj.text, t.text, t.line
                    ),
                ));
            }
        }
    }
    out
}

/// The end (exclusive token index) of the guard scope opened by the lock
/// call at `i`.
fn guard_region_end(s: &Scoped, i: usize) -> usize {
    let start = s.statement_start(i);
    let starts_with_let = s
        .next_code(start)
        .is_some_and(|k| k <= i && s.toks[k].is_ident("let"));
    // The guard itself is bound (not a temporary in a larger expression)
    // only if the lock call's closing paren ends the statement.
    let directly_bound = s
        .next_code(i + 1)
        .and_then(|open| s.matching(open))
        .and_then(|close| s.next_code(close + 1))
        .is_some_and(|after| s.toks[after].is_punct(';'));
    if starts_with_let && directly_bound {
        match s.enclosing_brace(i).and_then(|b| s.matching(b)) {
            Some(close) => close,
            None => s.toks.len(),
        }
    } else {
        s.statement_end(i)
    }
}

/// Classifies the callee ident at `j` if it is denied under a lock.
fn denied_under_lock(s: &Scoped, j: usize) -> Option<&'static str> {
    const SNAPSHOT_CODEC: [&str; 4] = ["encode", "encode_into", "encode_entry", "decode"];
    const FILE_IO: [&str; 9] = [
        "atomic_write",
        "sync_all",
        "write_all",
        "save",
        "load_latest_valid",
        "load_newer_than",
        "create_dir_all",
        "remove_file",
        "rename",
    ];
    // Qualified-only file IO names: too generic to deny bare (atomics have
    // `.load(...)`/`.store(...)`), but `fs::read` and `File::open` are the
    // real thing.
    const FILE_IO_QUALIFIED: [&str; 7] = [
        "load",
        "read",
        "write",
        "open",
        "create",
        "read_to_string",
        "read_dir",
    ];
    let name = s.toks[j].text.as_str();
    if name.starts_with("build_tiled") {
        return Some("planning");
    }
    if SNAPSHOT_CODEC.contains(&name) {
        return Some("snapshot codec");
    }
    if FILE_IO.contains(&name) {
        return Some("file IO");
    }
    if FILE_IO_QUALIFIED.contains(&name) && path_qualified(s, j) {
        return Some("file IO");
    }
    None
}

/// Whether the ident at `j` is preceded by `::` (a path call, not a method).
fn path_qualified(s: &Scoped, j: usize) -> bool {
    let Some(p1) = j.checked_sub(1).and_then(|k| s.prev_code(k)) else {
        return false;
    };
    let Some(p2) = p1.checked_sub(1).and_then(|k| s.prev_code(k)) else {
        return false;
    };
    s.toks[p1].is_punct(':') && s.toks[p2].is_punct(':')
}

// ---------------------------------------------------------------------------
// Rule 2: hot-path panic-freedom
// ---------------------------------------------------------------------------

/// Within each `// analyze: hot-path` region (the next brace block after
/// the marker), denies `.unwrap()`, `.expect()`, the panicking macros, and
/// `[...]` indexing whose index is not a literal/const expression.
pub fn hot_path(f: &FileUnit) -> Vec<Finding> {
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    let s = &f.scoped;
    let mut out = Vec::new();
    for i in 0..s.toks.len() {
        if !(s.toks[i].is_comment() && is_hot_marker(&s.toks[i].text)) {
            continue;
        }
        let Some(open) = (i + 1..s.toks.len()).find(|&j| s.toks[j].is_punct('{')) else {
            continue;
        };
        let close = s.matching(open).unwrap_or(s.toks.len());
        for j in open + 1..close {
            let t = &s.toks[j];
            if t.is_comment() {
                continue;
            }
            // `.unwrap(` / `.expect(`
            if (t.is_ident("unwrap") || t.is_ident("expect"))
                && next_is_call_paren(s, j)
                && j.checked_sub(1)
                    .and_then(|k| s.prev_code(k))
                    .is_some_and(|p| s.toks[p].is_punct('.'))
            {
                out.push(f.finding(
                    t.line,
                    Rule::HotPathPanic,
                    format!(
                        "`.{}()` in a hot-path region; use an infallible pattern",
                        t.text
                    ),
                ));
                continue;
            }
            // `panic!(` and friends
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && s.next_code(j + 1).is_some_and(|n| s.toks[n].is_punct('!'))
            {
                out.push(f.finding(
                    t.line,
                    Rule::HotPathPanic,
                    format!("`{}!` in a hot-path region", t.text),
                ));
                continue;
            }
            // indexing `[...]` with a non-literal index
            if t.is_punct('[') && is_index_expr(s, j) {
                let close_b = s.matching(j).unwrap_or(close);
                if !index_is_const(s, j + 1, close_b) {
                    out.push(f.finding(
                        t.line,
                        Rule::HotPathPanic,
                        "unchecked `[...]` indexing with a non-literal index in a \
                         hot-path region; use `get`/iterators",
                    ));
                }
            }
        }
    }
    out
}

/// Whether a comment token *is* the hot-path marker: exactly
/// `// analyze: hot-path` (modulo comment punctuation and whitespace), so
/// prose that merely mentions the marker does not open a region.
fn is_hot_marker(comment: &str) -> bool {
    comment.trim_start_matches(['/', '*', '!']).trim() == HOT_MARKER
}

/// Whether the `[` at `j` starts an index expression (vs. an array literal,
/// attribute, or slice type).
fn is_index_expr(s: &Scoped, j: usize) -> bool {
    const NOT_AN_EXPR_BEFORE: [&str; 16] = [
        "let", "mut", "return", "in", "as", "if", "else", "match", "move", "ref", "break",
        "continue", "unsafe", "where", "box", "yield",
    ];
    let Some(p) = j.checked_sub(1).and_then(|k| s.prev_code(k)) else {
        return false;
    };
    let t = &s.toks[p];
    match t.kind {
        TokKind::Ident => !NOT_AN_EXPR_BEFORE.contains(&t.text.as_str()),
        TokKind::Punct => t.is_punct(')') || t.is_punct(']') || t.is_punct('?'),
        _ => false,
    }
}

/// Whether the index tokens in `(from..to)` are all literal/const material:
/// numbers, range punctuation (`.`/`=`), and SCREAMING_CASE constants.
fn index_is_const(s: &Scoped, from: usize, to: usize) -> bool {
    for j in from..to.min(s.toks.len()) {
        let t = &s.toks[j];
        let ok = match t.kind {
            TokKind::Num => true,
            TokKind::Punct => t.is_punct('.') || t.is_punct('='),
            TokKind::Ident => is_const_ident(&t.text),
            TokKind::Comment | TokKind::DocComment => true,
            _ => false,
        };
        if !ok {
            return false;
        }
    }
    true
}

fn is_const_ident(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

// ---------------------------------------------------------------------------
// Rule 3: unsafe hygiene
// ---------------------------------------------------------------------------

/// Every `unsafe` site must be in an allowlisted file; every `unsafe fn`,
/// `unsafe {}`, `unsafe impl`, or `unsafe trait` must carry a nearby
/// `// SAFETY:` comment (or, for fns, an attached `# Safety` doc section);
/// every public `unsafe fn` must have the `# Safety` doc section.
pub fn unsafe_hygiene(f: &FileUnit) -> Vec<Finding> {
    let s = &f.scoped;
    // Lines on which a SAFETY: comment appears (either comment kind).
    let safety_lines: BTreeSet<u32> = s
        .toks
        .iter()
        .filter(|t| t.is_comment() && t.text.contains("SAFETY:"))
        .map(|t| t.line)
        .collect();
    let allowed_here = UNSAFE_ALLOWED.contains(&f.rel.as_str());
    let mut out = Vec::new();
    for i in 0..s.toks.len() {
        let t = &s.toks[i];
        if !t.is_ident("unsafe") {
            continue;
        }
        if !allowed_here {
            out.push(f.finding(
                t.line,
                Rule::UnsafeHygiene,
                format!(
                    "`unsafe` outside the allowlisted files ({}); keep unsafe \
                     confined to the counting allocators",
                    UNSAFE_ALLOWED.join(", ")
                ),
            ));
            continue;
        }
        let Some(n) = s.next_code(i + 1) else {
            continue;
        };
        let next = &s.toks[n];
        let (is_fn, what) = if next.is_ident("fn") {
            (true, "unsafe fn")
        } else if next.is_punct('{') {
            (false, "unsafe block")
        } else if next.is_ident("impl") {
            (false, "unsafe impl")
        } else if next.is_ident("trait") {
            (false, "unsafe trait")
        } else {
            continue; // e.g. `unsafe extern` / fn-pointer type
        };
        let (docs, is_pub) = attached_docs(s, i);
        let has_safety_doc = docs.iter().any(|d| d.contains("# Safety"));
        let has_safety_comment =
            (t.line.saturating_sub(3)..=t.line + 1).any(|l| safety_lines.contains(&l));
        if is_fn && is_pub && !has_safety_doc {
            out.push(f.finding(
                t.line,
                Rule::UnsafeHygiene,
                "public `unsafe fn` without a `# Safety` doc section",
            ));
        } else if !(has_safety_comment || (is_fn && has_safety_doc)) {
            out.push(f.finding(
                t.line,
                Rule::UnsafeHygiene,
                format!("{what} without a `// SAFETY:` comment"),
            ));
        }
    }
    out
}

/// Walks backwards from the `unsafe` token over visibility modifiers and
/// attributes, collecting attached doc comments. Returns `(docs, is_pub)`.
fn attached_docs(s: &Scoped, i: usize) -> (Vec<String>, bool) {
    let mut docs = Vec::new();
    let mut is_pub = false;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &s.toks[j];
        match t.kind {
            TokKind::DocComment => docs.push(t.text.clone()),
            TokKind::Comment => {}
            TokKind::Ident
                if matches!(
                    t.text.as_str(),
                    "pub" | "crate" | "super" | "self" | "const"
                ) =>
            {
                if t.text == "pub" {
                    is_pub = true;
                }
            }
            TokKind::Punct if t.is_punct('(') || t.is_punct(')') => {}
            // An attribute `#[...]`: jump from `]` back over it.
            TokKind::Punct if t.is_punct(']') => {
                let Some(open) = s.matching(j) else { break };
                // Expect `#` (or `#!`) just before the `[`.
                let Some(h) = open.checked_sub(1) else { break };
                if s.toks[h].is_punct('#') {
                    j = h;
                } else if s.toks[h].is_punct('!')
                    && h.checked_sub(1).is_some_and(|k| s.toks[k].is_punct('#'))
                {
                    j = h - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    (docs, is_pub)
}

// ---------------------------------------------------------------------------
// Rule 4: counter coverage
// ---------------------------------------------------------------------------

/// A field of one of the [`STATS_STRUCTS`].
#[derive(Debug, Clone)]
pub struct StatsField {
    pub strukt: String,
    pub name: String,
    pub file: String,
    pub line: u32,
}

/// Extracts the fields of any [`STATS_STRUCTS`] definitions in `f`.
pub fn stats_fields(f: &FileUnit) -> Vec<StatsField> {
    let s = &f.scoped;
    let mut out = Vec::new();
    for i in 0..s.toks.len() {
        if !s.toks[i].is_ident("struct") {
            continue;
        }
        let Some(ni) = s.next_code(i + 1) else {
            continue;
        };
        let name = &s.toks[ni];
        if name.kind != TokKind::Ident || !STATS_STRUCTS.contains(&name.text.as_str()) {
            continue;
        }
        let Some(open) = (ni + 1..s.toks.len()).find(|&j| s.toks[j].is_punct('{')) else {
            continue;
        };
        let close = s.matching(open).unwrap_or(s.toks.len());
        let mut depth = 0i32;
        for j in open + 1..close {
            let t = &s.toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(') | Some(b'[') | Some(b'{') => depth += 1,
                    Some(b')') | Some(b']') | Some(b'}') => depth -= 1,
                    _ => {}
                }
                continue;
            }
            if depth != 0 || t.kind != TokKind::Ident {
                continue;
            }
            let colon_next = s.next_code(j + 1).is_some_and(|n| s.toks[n].is_punct(':'));
            let starts_field = j
                .checked_sub(1)
                .and_then(|k| s.prev_code(k))
                .is_some_and(|p| {
                    s.toks[p].is_punct('{') || s.toks[p].is_punct(',') || s.toks[p].is_ident("pub")
                });
            if colon_next && starts_field && !t.is_ident("pub") {
                out.push(StatsField {
                    strukt: name.text.clone(),
                    name: t.text.clone(),
                    file: f.rel.clone(),
                    line: t.line,
                });
            }
        }
    }
    out
}

/// Collects the identifiers a file's test code *observes*: field accesses
/// (`.name`) plus words inside string literals (JSON key assertions). When
/// `whole_file` is set (a `tests/` integration file), the entire file
/// counts; otherwise only `#[cfg(test)]` regions do.
pub fn test_mentions(f: &FileUnit, whole_file: bool, out: &mut BTreeSet<String>) {
    let s = &f.scoped;
    if whole_file {
        collect_mentions(s, 0, s.toks.len(), out);
        return;
    }
    for (open, close) in cfg_test_regions(s) {
        collect_mentions(s, open, close, out);
    }
}

/// Brace regions guarded by a `#[cfg(test)]`-style attribute.
fn cfg_test_regions(s: &Scoped) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for i in 0..s.toks.len() {
        if !s.toks[i].is_punct('#') {
            continue;
        }
        let Some(b) = s.next_code(i + 1) else {
            continue;
        };
        if !s.toks[b].is_punct('[') {
            continue;
        }
        let Some(bc) = s.matching(b) else { continue };
        let slice_has = |name: &str| (b + 1..bc).any(|j| s.toks[j].is_ident(name));
        if !(slice_has("cfg") && slice_has("test")) {
            continue;
        }
        if let Some(open) = (bc + 1..s.toks.len()).find(|&j| s.toks[j].is_punct('{')) {
            let close = s.matching(open).unwrap_or(s.toks.len());
            regions.push((open, close));
        }
    }
    regions
}

fn collect_mentions(s: &Scoped, from: usize, to: usize, out: &mut BTreeSet<String>) {
    for j in from..to.min(s.toks.len()) {
        let t = &s.toks[j];
        match t.kind {
            TokKind::Ident => {
                let field_access = j
                    .checked_sub(1)
                    .and_then(|k| s.prev_code(k))
                    .is_some_and(|p| s.toks[p].is_punct('.'));
                if field_access {
                    out.insert(t.text.clone());
                }
            }
            TokKind::Str => {
                for w in t
                    .text
                    .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                {
                    if !w.is_empty() {
                        out.insert(w.to_string());
                    }
                }
            }
            _ => {}
        }
    }
}

/// Flags every stats field neither mentioned by test code nor named in the
/// bench JSON contract script.
pub fn counter_coverage(
    fields: &[StatsField],
    mentions: &BTreeSet<String>,
    script_text: &str,
) -> Vec<Finding> {
    fields
        .iter()
        .filter(|f| !mentions.contains(&f.name) && !script_text.contains(&f.name))
        .map(|f| Finding {
            file: f.file.clone(),
            line: f.line,
            rule: Rule::CounterCoverage,
            msg: format!(
                "field `{}.{}` is never read by any test or scripts/check_bench_json.sh; \
                 counters must be observed so they cannot rot",
                f.strukt, f.name
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 5: cfg/feature consistency
// ---------------------------------------------------------------------------

/// Flags `feature = "..."` strings inside `#[cfg(...)]`/`#[cfg_attr(...)]`
/// attributes that name a feature the owning crate's `Cargo.toml` does not
/// declare.
pub fn cfg_feature(f: &FileUnit, declared: &BTreeSet<String>) -> Vec<Finding> {
    let s = &f.scoped;
    let mut out = Vec::new();
    for i in 0..s.toks.len() {
        if !s.toks[i].is_punct('#') {
            continue;
        }
        // `#[` or `#![`
        let Some(mut b) = s.next_code(i + 1) else {
            continue;
        };
        if s.toks[b].is_punct('!') {
            let Some(b2) = s.next_code(b + 1) else {
                continue;
            };
            b = b2;
        }
        if !s.toks[b].is_punct('[') {
            continue;
        }
        let Some(bc) = s.matching(b) else { continue };
        let head = s.next_code(b + 1);
        let is_cfg =
            head.is_some_and(|h| s.toks[h].is_ident("cfg") || s.toks[h].is_ident("cfg_attr"));
        if !is_cfg {
            continue;
        }
        let mut j = b + 1;
        while j < bc {
            if s.toks[j].is_ident("feature") {
                let eq = s.next_code(j + 1);
                let val = eq.and_then(|e| {
                    if s.toks[e].is_punct('=') {
                        s.next_code(e + 1)
                    } else {
                        None
                    }
                });
                if let Some(v) = val {
                    if s.toks[v].kind == TokKind::Str {
                        let name = s.toks[v].text.trim_matches('"');
                        if !declared.contains(name) {
                            out.push(f.finding(
                                s.toks[v].line,
                                Rule::CfgFeature,
                                format!(
                                    "`feature = \"{name}\"` is not declared in the owning \
                                     crate's Cargo.toml"
                                ),
                            ));
                        }
                        j = v + 1;
                        continue;
                    }
                }
            }
            j += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

/// Whether the next code token after `i` is `(` — i.e. `ident(...)`.
fn next_is_call_paren(s: &Scoped, i: usize) -> bool {
    s.next_code(i + 1).is_some_and(|n| s.toks[n].is_punct('('))
}

/// Whether the ident at `i` is a definition (`fn name(...)`), not a call.
fn is_fn_definition(s: &Scoped, i: usize) -> bool {
    i.checked_sub(1)
        .and_then(|k| s.prev_code(k))
        .is_some_and(|p| s.toks[p].is_ident("fn"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unit(src: &str) -> FileUnit {
        FileUnit {
            rel: "tests/alloc.rs".into(),
            scoped: Scoped::new(lex(src)),
        }
    }

    #[test]
    fn lock_rule_flags_planning_under_let_bound_guard() {
        let f = unit(
            "fn x(&self) {\n\
             let mut shard = self.lock_shard(0);\n\
             let plan = build_tiled_plan(&m);\n\
             shard.insert(plan);\n\
             }",
        );
        let found = lock_discipline(&f);
        assert_eq!(found.len(), 1);
        assert!(found[0].msg.contains("planning"));
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn lock_rule_temporary_guard_ends_at_statement() {
        let f = unit(
            "fn x(&self) {\n\
             let n = self.lock_shard(0).cache.len();\n\
             let plan = build_tiled_plan(&m);\n\
             }",
        );
        assert!(lock_discipline(&f).is_empty());
    }

    #[test]
    fn lock_rule_allows_atomic_load_but_not_qualified_io() {
        let ok = unit(
            "fn x(&self) {\n\
             let g = lock_recovering(&self.states);\n\
             let gen = self.generation.load(Ordering::Relaxed);\n\
             }",
        );
        assert!(lock_discipline(&ok).is_empty());
        let bad = unit(
            "fn x(&self) {\n\
             let g = lock_recovering(&self.states);\n\
             let bytes = fs::read(path);\n\
             }",
        );
        let found = lock_discipline(&bad);
        assert_eq!(found.len(), 1);
        assert!(found[0].msg.contains("file IO"));
    }

    #[test]
    fn hot_path_flags_unwrap_and_variable_index() {
        let f = unit(
            "// analyze: hot-path\n\
             fn step(&mut self, i: usize) {\n\
             let x = self.rows.get(i).unwrap();\n\
             let y = self.cols[i];\n\
             let z = self.buf[12..HEADER_BYTES].len();\n\
             }",
        );
        let found = hot_path(&f);
        assert_eq!(found.len(), 2);
        assert!(found[0].msg.contains("unwrap"));
        assert!(found[1].msg.contains("indexing"));
    }

    #[test]
    fn hot_path_region_is_bounded_by_the_next_block() {
        let f = unit(
            "// analyze: hot-path\n\
             fn hot(&self) { let a = self.x.first(); }\n\
             fn cold(&self) { let b = self.v[i]; b.unwrap(); }",
        );
        assert!(hot_path(&f).is_empty());
    }

    #[test]
    fn hot_path_ignores_attribute_brackets_and_array_types() {
        let f = unit(
            "// analyze: hot-path\n\
             fn hot(&self) {\n\
             #[cfg(feature = \"simd\")]\n\
             let a: [u64; 4] = [0; 4];\n\
             let b = [x, y];\n\
             }",
        );
        assert!(hot_path(&f).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let f = FileUnit {
            rel: "crates/core/src/engine/session.rs".into(),
            scoped: Scoped::new(lex("fn f() { unsafe { g(); } }")),
        };
        let found = unsafe_hygiene(&f);
        assert_eq!(found.len(), 1);
        assert!(found[0].msg.contains("outside the allowlisted files"));
    }

    #[test]
    fn unsafe_block_needs_safety_comment() {
        let bad = unit("fn f() { unsafe { g(); } }");
        assert_eq!(unsafe_hygiene(&bad).len(), 1);
        let good = unit("fn f() {\n// SAFETY: g has no preconditions.\nunsafe { g(); } }");
        assert!(unsafe_hygiene(&good).is_empty());
    }

    #[test]
    fn public_unsafe_fn_needs_safety_doc() {
        let bad = unit(
            "// SAFETY: covered by a comment only.\n\
             pub(crate) unsafe fn f() {}",
        );
        let found = unsafe_hygiene(&bad);
        assert_eq!(found.len(), 1);
        assert!(found[0].msg.contains("# Safety"));
        let good = unit(
            "/// Does things.\n\
             ///\n\
             /// # Safety\n\
             /// Caller must pass a valid pointer.\n\
             #[inline]\n\
             pub(crate) unsafe fn f() {}",
        );
        assert!(unsafe_hygiene(&good).is_empty());
    }

    #[test]
    fn private_unsafe_fn_accepts_either_form() {
        let with_comment = unit("// SAFETY: internal.\nunsafe fn f() {}");
        assert!(unsafe_hygiene(&with_comment).is_empty());
        let with_doc = unit("/// # Safety\n/// Internal.\nunsafe fn f() {}");
        assert!(unsafe_hygiene(&with_doc).is_empty());
        let bare = unit("unsafe fn f() {}");
        assert_eq!(unsafe_hygiene(&bare).len(), 1);
    }

    #[test]
    fn stats_fields_and_coverage() {
        let def = unit(
            "pub struct SchedulerStats {\n\
             pub lane_steps: u64,\n\
             pub deadline_misses: u64,\n\
             }",
        );
        let fields = stats_fields(&def);
        assert_eq!(fields.len(), 2);
        let tests = unit(
            "#[cfg(test)]\nmod tests {\n\
             fn t() { assert_eq!(stats.lane_steps, 1); }\n\
             }",
        );
        let mut mentions = BTreeSet::new();
        test_mentions(&tests, false, &mut mentions);
        assert!(mentions.contains("lane_steps"));
        let findings = counter_coverage(&fields, &mentions, "");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("deadline_misses"));
        // The script text also counts.
        assert!(counter_coverage(&fields, &mentions, "jq .deadline_misses").is_empty());
    }

    #[test]
    fn string_mentions_count_in_test_files() {
        let f = unit("fn t() { assert!(json.contains(\"gossip_imports\")); }");
        let mut mentions = BTreeSet::new();
        test_mentions(&f, true, &mut mentions);
        assert!(mentions.contains("gossip_imports"));
    }

    #[test]
    fn cfg_feature_checks_declarations() {
        let f = unit(
            "#[cfg(feature = \"simd\")]\nfn a() {}\n\
             #[cfg(all(test, feature = \"parralel\"))]\nfn b() {}\n\
             #[cfg(target_arch = \"x86_64\")]\nfn c() {}",
        );
        let declared: BTreeSet<String> =
            ["simd", "parallel"].iter().map(|s| s.to_string()).collect();
        let found = cfg_feature(&f, &declared);
        assert_eq!(found.len(), 1);
        assert!(found[0].msg.contains("parralel"));
    }

    #[test]
    fn cfg_feature_ignores_non_cfg_attributes() {
        let f = unit("#[doc = \"feature = \\\"nope\\\"\"]\nfn a() {}");
        assert!(cfg_feature(&f, &BTreeSet::new()).is_empty());
    }
}
