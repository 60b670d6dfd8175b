//! Fixture tests for ring-lint: one positive and one negative case per
//! rule, asserting the exact (file, line, rule) of every diagnostic.
//!
//! Each fixture is linted in its own run so the cross-module hash-name
//! collection of one fixture cannot leak into another (fixture paths
//! all map to the same crate key).

use std::collections::BTreeSet;
use std::path::Path;

use ring_verify::{rules, Workspace};

/// The workspace root (`crates/verify` → two levels up).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("repo root")
}

/// Lints one fixture as deterministic-path code and returns
/// `(line, rule)` pairs, asserting every diagnostic names the fixture.
fn lint_fixture(name: &str, allowlist: Option<&str>) -> Vec<(u32, &'static str)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rel = format!("tests/fixtures/{name}");
    let allow = match allowlist {
        Some(a) => rules::load_relaxed_allowlist(&root.join("tests/fixtures").join(a))
            .expect("fixture allowlist readable"),
        None => BTreeSet::new(),
    };
    let ws = Workspace::explicit(root, vec![rel.clone()], true, allow);
    let diags = ws.lint().expect("fixture readable");
    for d in &diags {
        assert_eq!(d.file, rel, "diagnostic names the linted file");
    }
    diags.into_iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn ambient_time_positive() {
    assert_eq!(
        lint_fixture("ambient_time_bad.rs", None),
        vec![(6, rules::AMBIENT_TIME), (10, rules::AMBIENT_TIME)]
    );
}

#[test]
fn ambient_time_negative() {
    // Fabric clock, an allow-directive site, and a #[cfg(test)] module
    // all pass.
    assert_eq!(lint_fixture("ambient_time_ok.rs", None), vec![]);
}

#[test]
fn ambient_entropy_positive() {
    // The `use` of thread_rng is itself a violation (line 2), as are
    // the call (line 5) and the OsRng path expression (line 10).
    assert_eq!(
        lint_fixture("ambient_entropy_bad.rs", None),
        vec![
            (2, rules::AMBIENT_ENTROPY),
            (5, rules::AMBIENT_ENTROPY),
            (10, rules::AMBIENT_ENTROPY)
        ]
    );
}

#[test]
fn ambient_entropy_negative() {
    assert_eq!(lint_fixture("ambient_entropy_ok.rs", None), vec![]);
}

#[test]
fn guard_across_send_positive() {
    assert_eq!(
        lint_fixture("guard_across_send_bad.rs", None),
        vec![
            (5, rules::GUARD_ACROSS_SEND),
            (10, rules::GUARD_ACROSS_SEND)
        ]
    );
}

#[test]
fn guard_across_send_negative() {
    // drop() before send and a block-scoped guard both pass.
    assert_eq!(lint_fixture("guard_across_send_ok.rs", None), vec![]);
}

#[test]
fn guard_moved_into_inner_block_negative() {
    // A guard *moved* into an inner block dies there; the send after
    // the block is clean. Brace-depth liveness would fire on line 10.
    assert_eq!(lint_fixture("guard_inner_block_ok.rs", None), vec![]);
}

#[test]
fn relaxed_ordering_positive() {
    assert_eq!(
        lint_fixture("relaxed_ordering_bad.rs", None),
        vec![(6, rules::RELAXED_ORDERING)]
    );
}

#[test]
fn relaxed_ordering_negative_via_allowlist() {
    // On the allowlist: clean. Off the allowlist: the same file is a
    // violation — proving the allowlist is what's doing the work.
    assert_eq!(
        lint_fixture("relaxed_ordering_ok.rs", Some("allowlist.txt")),
        vec![]
    );
    assert_eq!(
        lint_fixture("relaxed_ordering_ok.rs", None),
        vec![(7, rules::RELAXED_ORDERING)]
    );
}

#[test]
fn hashmap_iteration_positive() {
    assert_eq!(
        lint_fixture("hashmap_iteration_bad.rs", None),
        vec![
            (11, rules::HASHMAP_ITERATION),
            (18, rules::HASHMAP_ITERATION)
        ]
    );
}

#[test]
fn hashmap_iteration_negative() {
    // BTreeMap iteration and HashMap point lookups both pass.
    assert_eq!(lint_fixture("hashmap_iteration_ok.rs", None), vec![]);
}

/// Lints one fixture as a model-mirror file against the hermetic
/// fixture spec and returns `(line, rule)` pairs.
fn lint_model_fixture(name: &str) -> Vec<(u32, &'static str)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rel = format!("tests/fixtures/{name}");
    let spec = std::fs::read_to_string(root.join("tests/fixtures/model_drift_spec.tla"))
        .expect("fixture spec readable");
    let ws = Workspace::explicit(root, vec![rel.clone()], false, BTreeSet::new())
        .with_tla_actions(rules::parse_tla_actions(&spec));
    let diags = ws.lint().expect("fixture readable");
    for d in &diags {
        assert_eq!(d.file, rel, "diagnostic names the linted file");
    }
    diags.into_iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn model_drift_positive() {
    // An unmarked step and a marker naming a nonexistent action; the
    // correctly marked step is clean.
    assert_eq!(
        lint_model_fixture("model_drift_bad.rs"),
        vec![(5, rules::MODEL_DRIFT), (10, rules::MODEL_DRIFT)]
    );
}

#[test]
fn model_drift_negative() {
    // Valid markers (including one separated from the fn by an
    // attribute), an allow-directive helper, and a #[cfg(test)] module
    // all pass.
    assert_eq!(lint_model_fixture("model_drift_ok.rs"), vec![]);
}

#[test]
fn tla_action_parser_reads_top_level_definitions() {
    let spec = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model_drift_spec.tla"),
    )
    .expect("fixture spec readable");
    let actions = rules::parse_tla_actions(&spec);
    for a in ["CoordPrepare", "RedundancyAck", "CommitFlag"] {
        assert!(actions.contains(a), "missing {a}");
    }
    assert_eq!(actions.len(), 3, "{actions:?}");
}

/// The real spec and the real steps module must agree — the workspace
/// run of the linter over the live tree reports no model drift.
#[test]
fn live_steps_module_matches_live_spec() {
    let spec = std::fs::read_to_string(repo_root().join(ring_verify::TLA_SPEC))
        .expect("RingWriteSemantics.tla present");
    let actions = rules::parse_tla_actions(&spec);
    // The canonical action set is all there.
    for a in [
        "IssuePut",
        "CoordPrepare",
        "RedundancyAck",
        "CommitFlag",
        "RetryDeliver",
        "GetBind",
        "DegradedBind",
        "SparePromote",
        "CoordCrashRecover",
    ] {
        assert!(actions.contains(a), "spec lost action {a}");
    }
    let ws = Workspace::discover(repo_root()).expect("discover");
    let drift: Vec<_> = ws
        .lint()
        .expect("lint")
        .into_iter()
        .filter(|d| d.rule == rules::MODEL_DRIFT)
        .collect();
    assert!(drift.is_empty(), "model drift in live tree: {drift:?}");
}

#[test]
fn wire_crate_idioms_flagged() {
    // Codec-shaped code: hash-ordered decoder dispatch and a wall-clock
    // stamp are both violations on the (now deterministic) wire path.
    assert_eq!(
        lint_fixture("wire_codec_bad.rs", None),
        vec![(14, rules::HASHMAP_ITERATION), (19, rules::AMBIENT_TIME)]
    );
}

#[test]
fn server_crate_idioms_clean() {
    // Harness-shaped code written the sanctioned way (clock::now,
    // BTreeMap, acquire/release shutdown flag) lints clean.
    assert_eq!(lint_fixture("server_harness_ok.rs", None), vec![]);
}

#[test]
fn deterministic_scope_covers_wire_and_server() {
    for p in [
        "crates/net/src/tcp.rs",
        "crates/core/src/node/mod.rs",
        "crates/wire/src/table.rs",
        "crates/server/src/harness.rs",
        "crates/model/src/explore.rs",
    ] {
        assert!(rules::is_deterministic_path(p), "{p} must be in scope");
    }
    for p in [
        "crates/bench/src/measure.rs",
        "crates/wire/tests/roundtrip.rs",
        "crates/server/tests/loopback.rs",
        "shims/proptest/src/lib.rs",
    ] {
        assert!(!rules::is_deterministic_path(p), "{p} must be exempt");
    }
}

/// The live tree lints clean under all nine rules and carries no stale
/// suppression: tier-1 itself enforces the lint, and a file the parser
/// cannot read fails here (`run` returns `LintError::Parse`).
#[test]
fn live_workspace_lints_clean() {
    let outcome = Workspace::discover(repo_root())
        .expect("discover")
        .run()
        .expect("live tree parses");
    assert!(
        outcome.diagnostics.is_empty(),
        "findings in live tree: {:#?}",
        outcome.diagnostics
    );
    assert!(
        outcome.warnings.is_empty(),
        "stale suppressions in live tree: {:#?}",
        outcome.warnings
    );
}

/// The workspace walk (crate-dir glob) picks up the new crates — a
/// regression guard against hard-coded crate lists creeping back in.
#[test]
fn discover_walks_wire_and_server() {
    let ws = Workspace::discover(repo_root()).expect("discover");
    for expect in [
        "crates/wire/src/lib.rs",
        "crates/wire/src/table.rs",
        "crates/server/src/harness.rs",
        "crates/server/src/bin/ring_server.rs",
    ] {
        assert!(
            ws.files().iter().any(|f| f == expect),
            "walk missed {expect}"
        );
    }
    // Test trees and shims stay out of the lint surface.
    assert!(ws
        .files()
        .iter()
        .all(|f| !f.contains("/tests/") && !f.starts_with("shims/")));
}

/// End-to-end through the binary: JSON output carries the same
/// file/line/rule triples and the exit code signals findings.
#[test]
fn binary_reports_json_and_exit_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ring-lint"))
        .current_dir(root)
        .args([
            "--det",
            "--json",
            "--root",
            ".",
            "tests/fixtures/ambient_time_bad.rs",
        ])
        .output()
        .expect("ring-lint runs");
    assert_eq!(out.status.code(), Some(1), "findings exit with code 1");
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        json.contains(
            "{\"file\": \"tests/fixtures/ambient_time_bad.rs\", \"line\": 6, \
             \"rule\": \"ambient-time\""
        ),
        "JSON names the first finding: {json}"
    );
    assert!(json.contains("\"line\": 10"), "JSON has the second finding");

    // Clean fixture: exit 0, empty array.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ring-lint"))
        .current_dir(root)
        .args([
            "--det",
            "--json",
            "--root",
            ".",
            "tests/fixtures/ambient_time_ok.rs",
        ])
        .output()
        .expect("ring-lint runs");
    assert_eq!(out.status.code(), Some(0), "clean run exits 0");
    assert_eq!(String::from_utf8(out.stdout).expect("utf8"), "[]\n");
}

// ---------------------------------------------------------------------
// Tree-engine workspace passes: lock-order, protocol-drift,
// payload-copy. Each positive fixture seeds the bug; assertions pin
// the exact anchor lines.
// ---------------------------------------------------------------------

#[test]
fn lock_order_positive() {
    // Line 19: `reverse` takes conns while holding peers — the edge
    // that closes the AB/BA cycle against `forward`. Line 26: the
    // `self.count()` call re-acquiring conns under conns.
    assert_eq!(
        lint_fixture("lock_order_bad.rs", None),
        vec![(19, rules::LOCK_ORDER), (26, rules::LOCK_ORDER)]
    );
}

#[test]
fn lock_order_negative() {
    // Consistent order everywhere; a guard that dies in an inner block
    // before the next acquisition creates no edge.
    assert_eq!(lint_fixture("lock_order_ok.rs", None), vec![]);
}

#[test]
fn protocol_drift_positive() {
    // 11: dispatch hides Ack behind `_`. The fixture declares no tag
    // consts: the wildcard check needs only the `Msg` enum.
    assert_eq!(
        lint_fixture("protocol_drift_bad.rs", None),
        vec![(11, rules::PROTOCOL_DRIFT)]
    );
}

#[test]
fn protocol_drift_negative() {
    // Exhaustive dispatch; the single-variant accessor with a wildcard
    // arm (if-let-shaped) and the match over a plain `u8` are exempt.
    assert_eq!(lint_fixture("protocol_drift_ok.rs", None), vec![]);
}

#[test]
fn payload_copy_positive() {
    // A field copy, a `Vec::from` on a param, and a copy through a
    // payload-initialized let.
    assert_eq!(
        lint_fixture("payload_copy_bad.rs", None),
        vec![
            (8, rules::PAYLOAD_COPY),
            (12, rules::PAYLOAD_COPY),
            (17, rules::PAYLOAD_COPY)
        ]
    );
}

#[test]
fn payload_copy_negative() {
    // `.clone()` (refcount bump), `as_slice()`, non-Payload `.to_vec`,
    // and test-module copies all pass.
    assert_eq!(lint_fixture("payload_copy_ok.rs", None), vec![]);
}

// ---------------------------------------------------------------------
// Binary exit codes: 1 = findings, 2 = usage or internal (parse) error.
// ---------------------------------------------------------------------

/// A structurally damaged file is exit 2 with a parse report — not a
/// silent "clean" and not a finding.
#[test]
fn binary_parse_error_exits_2() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ring-lint"))
        .current_dir(root)
        .args([
            "--det",
            "--root",
            ".",
            "tests/fixtures/parse_error.rs.broken",
        ])
        .output()
        .expect("ring-lint runs");
    assert_eq!(out.status.code(), Some(2), "parse failure exits 2");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        err.contains("failed to parse") && err.contains("parse_error.rs.broken"),
        "stderr names the unparseable file: {err}"
    );
}

/// There is one engine: the old `--token` fallback flag is rejected like
/// any unknown flag, before any file is read.
#[test]
fn binary_rejects_token_flag() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ring-lint"))
        .current_dir(root)
        .args([
            "--token",
            "--det",
            "--root",
            ".",
            "tests/fixtures/ambient_time_ok.rs",
        ])
        .output()
        .expect("ring-lint runs");
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        err.contains("usage: ring-lint"),
        "stderr shows usage: {err}"
    );
}
