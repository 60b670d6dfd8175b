//! End-to-end trace conformance: a real seeded soak's recorded history,
//! projected through the refinement mapping, must replay cleanly
//! against the abstract model — version numbers included.

use ring_chaos::{run_soak, SoakConfig, Verdict};
use ring_model::conform::check_conformance;

#[test]
fn sequential_soak_history_conforms() {
    let report = run_soak(&SoakConfig::sequential(0xC0DE));
    assert!(report.passed(), "sequential soak must linearize");
    let verdict = check_conformance(&report.history);
    match &verdict {
        Verdict::Ok { keys, states, .. } => {
            assert!(*keys > 0);
            assert!(*states > 0);
        }
        other => panic!("sequential history must conform, got: {other}"),
    }
}

#[test]
fn straggler_soak_history_conforms() {
    // Stragglers force client-level retries: timed-out attempts
    // re-execute under fresh request ids, landing one tag at several
    // versions. The execution split must absorb exactly that. Seed
    // matches the tier-1 straggler smoke (`soak_smoke.rs`).
    let report = run_soak(&SoakConfig::quick_straggler(0x57A6));
    // The seed reproduces the schedule, not the thread interleaving:
    // under heavy parallel test load the soak's own checker can go
    // Inconclusive on a contention-dense interleaving. The conformance
    // verdict is only meaningful for histories the baseline checker
    // accepts, so bow out rather than duplicate soak_smoke's
    // (isolation-run) linearizability assertion here.
    if !report.passed() {
        eprintln!(
            "skipping conformance assert: baseline checker reported {:?}",
            report.checker
        );
        return;
    }
    let verdict = check_conformance(&report.history);
    assert!(
        !matches!(verdict, Verdict::Violation(_)),
        "straggler history must not violate conformance: {verdict}"
    );
}
