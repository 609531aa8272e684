//! `prosperity-analyze`: a self-contained static analyzer for this
//! workspace's load-bearing invariants.
//!
//! Nine PRs of serving-runtime growth accumulated invariants that lived
//! only as prose in ARCHITECTURE.md. This crate turns five of them into
//! machine-checked rules (see [`report::Rule`]):
//!
//! 1. **lock-discipline** — no planning / snapshot codec / file IO inside
//!    a `lock_shard`/`lock_recovering` guard scope (PR 3: "misses are
//!    planned outside the shard lock").
//! 2. **hot-path-panic** — no `unwrap`/`expect`/`panic!`/non-literal
//!    indexing inside `// analyze: hot-path` regions (PR 7: "zero
//!    allocations and no panic paths in the warm step loop").
//! 3. **unsafe-hygiene** — `unsafe` confined to the counting allocator in
//!    `tests/alloc.rs`, always with `// SAFETY:` comments and `# Safety`
//!    docs; the library crates forbid it outright.
//! 4. **counter-coverage** — every stats field observed by a test or the
//!    bench JSON contract script (PR 6: "every absorbed fault shows up in
//!    a counter").
//! 5. **cfg-feature** — every `#[cfg(feature = "...")]` names a declared
//!    feature (keeps the `fault-injection` forwarding chain honest).
//!
//! Like the repo's `trace_io` codec, the crate has **zero dependencies**:
//! the lexer, scope tracker, and TOML-subset allowlist parser are all
//! hand-rolled here.

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scopes;

use report::Finding;
use rules::FileUnit;
use scopes::Scoped;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", "node_modules"];

/// Root-relative subtrees never analyzed (the rule fixtures contain
/// intentional violations).
const SKIP_SUBTREES: [&str; 1] = ["crates/analyze/tests/fixtures"];

/// Runs every rule pass over the workspace rooted at `root` and returns
/// the sorted findings (before allowlist screening).
pub fn analyze_root(root: &Path) -> Result<Vec<Finding>, String> {
    let mut rs_files = Vec::new();
    let mut manifest_dirs = Vec::new();
    walk(root, String::new(), &mut rs_files, &mut manifest_dirs)?;
    rs_files.sort();
    manifest_dirs.sort();

    let features: Vec<(String, BTreeSet<String>)> = manifest_dirs
        .iter()
        .map(|dir| {
            let path = if dir.is_empty() {
                root.join("Cargo.toml")
            } else {
                root.join(dir).join("Cargo.toml")
            };
            let text = fs::read_to_string(&path).unwrap_or_default();
            (dir.clone(), declared_features(&text))
        })
        .collect();

    let script_text =
        fs::read_to_string(root.join("scripts/check_bench_json.sh")).unwrap_or_default();

    let mut findings = Vec::new();
    let mut fields = Vec::new();
    let mut mentions = BTreeSet::new();
    for rel in &rs_files {
        let text =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: read failed: {e}"))?;
        let unit = FileUnit {
            rel: rel.clone(),
            scoped: Scoped::new(lexer::lex(&text)),
        };
        findings.extend(rules::lock_discipline(&unit));
        findings.extend(rules::hot_path(&unit));
        findings.extend(rules::unsafe_hygiene(&unit));
        findings.extend(rules::cfg_feature(&unit, features_for(&features, rel)));
        fields.extend(rules::stats_fields(&unit));
        rules::test_mentions(&unit, is_test_file(rel), &mut mentions);
    }
    findings.extend(rules::counter_coverage(&fields, &mentions, &script_text));

    report::sort_findings(&mut findings);
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    Ok(findings)
}

/// Finds the workspace root at or above `start`: the nearest directory
/// whose `Cargo.toml` contains a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn walk(
    root: &Path,
    rel: String,
    rs_files: &mut Vec<String>,
    manifest_dirs: &mut Vec<String>,
) -> Result<(), String> {
    let dir = if rel.is_empty() {
        root.to_path_buf()
    } else {
        root.join(&rel)
    };
    let entries =
        fs::read_dir(&dir).map_err(|e| format!("{}: read_dir failed: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let child_rel = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        let ty = entry.file_type().map_err(|e| format!("{child_rel}: {e}"))?;
        if ty.is_dir() {
            if name.starts_with('.')
                || SKIP_DIRS.contains(&name.as_str())
                || SKIP_SUBTREES.contains(&child_rel.as_str())
            {
                continue;
            }
            walk(root, child_rel, rs_files, manifest_dirs)?;
        } else if ty.is_file() {
            if name == "Cargo.toml" {
                manifest_dirs.push(rel.clone());
            } else if name.ends_with(".rs") {
                rs_files.push(child_rel);
            }
        }
    }
    Ok(())
}

/// The features the crate owning `rel` declares: the longest manifest-dir
/// prefix wins (the workspace root manifest has the empty prefix).
fn features_for<'a>(features: &'a [(String, BTreeSet<String>)], rel: &str) -> &'a BTreeSet<String> {
    static EMPTY: BTreeSet<String> = BTreeSet::new();
    features
        .iter()
        .filter(|(dir, _)| dir.is_empty() || rel.starts_with(&format!("{dir}/")))
        .max_by_key(|(dir, _)| dir.len())
        .map(|(_, f)| f)
        .unwrap_or(&EMPTY)
}

/// Whether `rel` is test code in its entirety (integration tests and
/// `_tests.rs` modules); `#[cfg(test)]` regions are handled separately.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.ends_with("_tests.rs")
}

/// Parses the features a `Cargo.toml` declares: `[features]` keys plus
/// `optional = true` dependencies (whose names double as features).
fn declared_features(toml: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut section = String::new();
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some((key, rest)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let optional_dep = section.split('.').next_back() == Some("dependencies")
            && rest.contains("optional")
            && rest.contains("true");
        if section == "features" || optional_dep {
            out.insert(key.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_features_from_manifest() {
        let toml = r#"
            [package]
            name = "x"

            [features]
            default = ["parallel"]
            parallel = ["dep:rayon"]
            simd = []
            fault-injection = []

            [dependencies]
            rayon = { path = "../vendor/rayon", optional = true }
            bytes = { path = "../vendor/bytes" }
        "#;
        let f = declared_features(toml);
        assert!(f.contains("parallel"));
        assert!(f.contains("simd"));
        assert!(f.contains("fault-injection"));
        assert!(f.contains("rayon"));
        assert!(!f.contains("bytes"));
    }

    #[test]
    fn longest_manifest_prefix_wins() {
        let features = vec![
            (String::new(), ["root".to_string()].into_iter().collect()),
            (
                "crates/core".to_string(),
                ["core".to_string()].into_iter().collect(),
            ),
        ];
        assert!(features_for(&features, "crates/core/src/lib.rs").contains("core"));
        assert!(features_for(&features, "tests/alloc.rs").contains("root"));
        assert!(features_for(&features, "crates/corelike/src/lib.rs").contains("root"));
    }

    #[test]
    fn test_file_classification() {
        assert!(is_test_file("tests/alloc.rs"));
        assert!(is_test_file("crates/core/tests/engine.rs"));
        assert!(is_test_file("crates/core/src/engine/snapshot_tests.rs"));
        assert!(!is_test_file("crates/core/src/exec.rs"));
    }
}
