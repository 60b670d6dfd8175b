//! The `ring-bench` driver: usage errors and one analytic artefact run
//! end to end.

use std::process::Command;

use ring_bench::output::scratch_dir;
use ring_bench::{cli, COMMANDS};

#[test]
fn unknown_subcommand_exits_2_listing_every_subcommand() {
    let out = Command::new(env!("CARGO_BIN_EXE_ring-bench"))
        .arg("nope")
        .output()
        .expect("run ring-bench");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let usage = stderr.lines().find(|l| l.starts_with("usage: ring-bench"));
    let usage = usage.unwrap_or_else(|| panic!("no usage line in {stderr}"));
    for c in &COMMANDS {
        assert!(usage.contains(c.name), "{} missing from {usage}", c.name);
    }
}

#[test]
fn bad_flags_are_usage_errors() {
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(cli(&args(&[])), 2);
    assert_eq!(cli(&args(&["fig16_availability", "--smoke"])), 2);
    assert_eq!(cli(&args(&["fig16_availability", "--out"])), 2);
}

#[test]
fn fig16_quick_writes_its_rows_in_process() {
    let dir = scratch_dir("driver-fig16");
    let args = [
        "fig16_availability",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
    ];
    assert_eq!(cli(&args.map(String::from)), 0);
    let text = std::fs::read_to_string(dir.join("fig16_availability.json")).unwrap();
    let rows: serde_json::Value = serde_json::from_str(&text).unwrap();
    let rows = rows.as_array().expect("a JSON array of rows");
    // k = 2..5, m < k, s = k..8.
    assert_eq!(rows.len(), 50);
    for key in ["k", "m", "s", "availability", "nines"] {
        assert!(rows.iter().all(|r| r.get(key).is_some()), "rows lack {key}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
