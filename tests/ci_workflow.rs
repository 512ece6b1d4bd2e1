//! Structural sanity checks for `.github/workflows/ci.yml`.
//!
//! The build environment has no YAML parser crate, so this validates the
//! subset of YAML that workflow files actually use: indentation-scoped
//! mappings with no tabs. It pins the structure CI depends on — all six
//! jobs exist, run the gate scripts, and cache `target/` keyed on
//! `Cargo.lock` with `restore-keys` fallbacks — so an edit that breaks
//! the pipeline fails locally, not on the runner.

use std::path::Path;

fn workflow() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Leading-space count of a line (YAML indentation).
fn indent(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

#[test]
fn workflow_is_plausible_yaml() {
    let text = workflow();
    assert!(!text.is_empty(), "ci.yml is empty");
    let mut in_block_scalar_deeper_than = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        assert!(!line.contains('\t'), "ci.yml:{n}: tab character in YAML");
        assert!(
            line.trim_end() == line,
            "ci.yml:{n}: trailing whitespace breaks some parsers"
        );
        // Skip the contents of `|`/`>` block scalars (multi-line run/path
        // values); they are free-form text, not mappings.
        if let Some(level) = in_block_scalar_deeper_than {
            if line.trim().is_empty() || indent(line) > level {
                continue;
            }
            in_block_scalar_deeper_than = None;
        }
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        // Mapping levels step by exactly two spaces, so every indent in a
        // workflow file is even (list items add "- " which is also two).
        assert_eq!(indent(line) % 2, 0, "ci.yml:{n}: odd indentation: {line:?}");
        let content = line.trim_start().trim_start_matches("- ");
        assert!(
            content.contains(':') || content.starts_with('-'),
            "ci.yml:{n}: expected a `key: value` mapping or list item: {line:?}"
        );
        let trimmed = line.trim_end();
        if trimmed.ends_with(": |") || trimmed.ends_with(": >") {
            in_block_scalar_deeper_than = Some(indent(line));
        }
    }
}

/// A top-level (given indent) `key:` line exists.
fn has_key_at(text: &str, indent_spaces: usize, key: &str) -> bool {
    let prefix = format!("{}{key}:", " ".repeat(indent_spaces));
    text.lines().any(|l| {
        l.starts_with(&prefix) && (l.len() == prefix.len() || l.as_bytes()[prefix.len()] == b' ')
    })
}

#[test]
fn workflow_triggers_on_push_and_pull_request() {
    let text = workflow();
    assert!(has_key_at(&text, 0, "name"), "missing top-level name:");
    assert!(has_key_at(&text, 0, "on"), "missing top-level on:");
    assert!(has_key_at(&text, 2, "push"), "missing push trigger");
    assert!(has_key_at(&text, 2, "pull_request"), "missing PR trigger");
    assert!(
        has_key_at(&text, 2, "workflow_dispatch"),
        "missing manual-dispatch trigger (re-run without an empty commit)"
    );
}

#[test]
fn superseded_runs_are_cancelled() {
    let text = workflow();
    assert!(
        has_key_at(&text, 0, "concurrency"),
        "missing top-level concurrency: block"
    );
    assert!(
        text.contains("group: ci-${{ github.ref }}"),
        "concurrency group must be per-ref so unrelated branches don't queue"
    );
    assert!(
        text.contains("cancel-in-progress: true"),
        "a newer push to the same ref must cancel the stale run"
    );
}

#[test]
fn all_jobs_run_their_gate_scripts_on_a_runner() {
    let text = workflow();
    assert!(has_key_at(&text, 0, "jobs"), "missing top-level jobs:");
    for job in [
        "verify",
        "bench-smoke",
        "loadgen-smoke",
        "scale-smoke",
        "wal-smoke",
        "train-smoke",
    ] {
        assert!(has_key_at(&text, 2, job), "missing job {job}");
    }
    assert_eq!(
        text.matches("runs-on:").count(),
        6,
        "every job needs a runs-on"
    );
    assert_eq!(
        text.matches("uses: actions/checkout@").count(),
        6,
        "every job checks out the repo"
    );
    assert!(
        text.contains("run: scripts/verify.sh --full"),
        "verify job must run scripts/verify.sh --full (the crate suites run only there)"
    );
    assert!(
        text.contains("scripts/check_bench.sh"),
        "bench-smoke job must run scripts/check_bench.sh"
    );
    assert!(
        text.contains("run: scripts/loadgen_smoke.sh"),
        "loadgen-smoke job must run scripts/loadgen_smoke.sh"
    );
    assert!(
        text.contains("run: scripts/train_smoke.sh"),
        "train-smoke job must run scripts/train_smoke.sh"
    );
    assert!(
        text.contains("run: scripts/wal_smoke.sh"),
        "wal-smoke job must run scripts/wal_smoke.sh"
    );
    assert!(
        text.contains("SCALE_PRESETS=medium"),
        "scale-smoke job must gate the medium preset via check_bench.sh"
    );
    assert!(
        text.contains("SCALE_GATE=0 scripts/check_bench.sh"),
        "bench-smoke must skip the scale gate (scale-smoke owns it)"
    );
}

#[test]
fn all_jobs_cache_target_keyed_on_the_lockfile() {
    let text = workflow();
    assert_eq!(
        text.matches("uses: actions/cache@").count(),
        6,
        "every job caches the build"
    );
    assert_eq!(
        text.matches("hashFiles('Cargo.lock')").count(),
        6,
        "cache keys must invalidate when Cargo.lock changes"
    );
    // `target` appears in each job's cached-path block.
    assert!(
        text.lines().filter(|l| l.trim() == "target").count() >= 6,
        "every cache must include target/"
    );
    // A lockfile bump should warm-start from the previous cache rather
    // than rebuild the world from scratch, so every cache step needs a
    // restore-keys fallback prefix.
    assert_eq!(
        text.matches("restore-keys:").count(),
        6,
        "every cache step must declare restore-keys"
    );
}
