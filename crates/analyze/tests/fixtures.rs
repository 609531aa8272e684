//! End-to-end rule tests against the fixture micro-repos under
//! `tests/fixtures/`, plus the self-check that the real workspace is clean.
//!
//! Each rule has a `bad` fixture that must fire and a `good` twin that must
//! be silent; the `allowlist` fixture drives the binary to prove both
//! suppression and the stale-entry ratchet through the real exit codes.

use prosperity_analyze::allowlist::Allowlist;
use prosperity_analyze::report::{Finding, Rule};
use prosperity_analyze::{analyze_root, find_workspace_root};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn findings(name: &str) -> Vec<Finding> {
    analyze_root(&fixture(name)).expect("fixture analyzes")
}

/// Runs the binary on a fixture root, returning (exit code, stdout).
fn run_bin(root: &Path, allowlist: Option<&Path>) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prosperity-analyze"));
    cmd.arg("--root").arg(root);
    if let Some(a) = allowlist {
        cmd.arg("--allowlist").arg(a);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn lock_bad_fires_good_is_silent() {
    let bad = findings("lock/bad");
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == Rule::LockDiscipline));
    assert!(bad.iter().any(|f| f.msg.contains("planning")));
    assert!(bad.iter().any(|f| f.msg.contains("file IO")));
    assert!(findings("lock/good").is_empty());
}

#[test]
fn hot_bad_fires_good_is_silent() {
    let bad = findings("hot/bad");
    assert_eq!(bad.len(), 3, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == Rule::HotPathPanic));
    assert!(bad.iter().any(|f| f.msg.contains("unwrap")));
    assert!(bad.iter().any(|f| f.msg.contains("indexing")));
    assert!(bad.iter().any(|f| f.msg.contains("panic")));
    assert!(findings("hot/good").is_empty());
}

#[test]
fn unsafe_bad_fires_good_is_silent() {
    let bad = findings("unsafe/bad");
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == Rule::UnsafeHygiene));
    assert!(bad
        .iter()
        .all(|f| f.msg.contains("outside the allowlisted files")));
    // The good twin puts the same code at tests/alloc.rs with
    // full `# Safety` / `// SAFETY:` hygiene.
    assert!(findings("unsafe/good").is_empty());
}

#[test]
fn counter_bad_fires_good_is_silent() {
    let bad = findings("counter/bad");
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::CounterCoverage);
    assert!(bad[0].msg.contains("SchedulerStats.deadline_misses"));
    assert!(findings("counter/good").is_empty());
}

#[test]
fn cfg_bad_fires_good_is_silent() {
    let bad = findings("cfg/bad");
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::CfgFeature);
    assert!(bad[0].msg.contains("\"simd\""));
    assert!(findings("cfg/good").is_empty());
}

#[test]
fn binary_exits_nonzero_on_every_bad_fixture() {
    for name in [
        "lock/bad",
        "hot/bad",
        "unsafe/bad",
        "counter/bad",
        "cfg/bad",
    ] {
        let (code, out) = run_bin(&fixture(name), None);
        assert_eq!(code, 1, "{name} should fail: {out}");
    }
    for name in [
        "lock/good",
        "hot/good",
        "unsafe/good",
        "counter/good",
        "cfg/good",
    ] {
        let (code, out) = run_bin(&fixture(name), None);
        assert_eq!(code, 0, "{name} should pass: {out}");
    }
}

#[test]
fn allowlist_suppresses_and_stale_entries_fail() {
    let repo = fixture("allowlist/repo");
    // Unscreened, the fixture has exactly one finding.
    let raw = findings("allowlist/repo");
    assert_eq!(raw.len(), 1, "{raw:?}");

    let (code, out) = run_bin(&repo, Some(&fixture("allowlist/cover.toml")));
    assert_eq!(code, 0, "covered finding should pass: {out}");
    assert!(out.contains("1 allowlisted"), "{out}");

    let (code, out) = run_bin(&repo, Some(&fixture("allowlist/stale.toml")));
    assert_eq!(code, 1, "stale entry should fail: {out}");
    assert!(out.contains("stale allowlist entry"), "{out}");
    assert!(out.contains("src/gone.rs"), "{out}");
}

#[test]
fn real_workspace_is_clean_and_baseline_has_no_hot_or_lock_entries() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("enclosing workspace");
    let found = analyze_root(&root).expect("workspace analyzes");

    // The two serving invariants hold unconditionally — no baseline entry
    // may grandfather them, and indeed nothing fires at HEAD.
    assert!(
        !found
            .iter()
            .any(|f| f.rule == Rule::HotPathPanic || f.rule == Rule::LockDiscipline),
        "hot-path/lock-discipline findings at HEAD: {found:?}"
    );

    let baseline = std::fs::read_to_string(root.join("analyze.toml")).expect("analyze.toml");
    let allow = Allowlist::parse(&baseline).expect("baseline parses");
    assert!(allow
        .entries
        .iter()
        .all(|e| e.rule != Rule::HotPathPanic && e.rule != Rule::LockDiscipline));

    let screened = allow.screen(found);
    assert!(
        screened.unallowed.is_empty(),
        "non-allowlisted findings: {:?}",
        screened.unallowed
    );
    assert!(screened.stale.is_empty(), "stale: {:?}", screened.stale);
}
