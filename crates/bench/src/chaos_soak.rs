//! Seeded chaos soak: YCSB-style ops against REP3 + SRS(3,2) under
//! message faults, transient partitions and crash-plus-promotion, with
//! the history checked for per-key linearizability afterwards.
//!
//! Environment knobs:
//! - `RING_CHAOS_SEED` (default 0x52494E47): master seed; every random
//!   choice in the run derives from it.
//! - `RING_CHAOS_OPS` (default 2500): scripted ops per client.
//! - `RING_CHAOS_CLIENTS` (default 4): concurrent clients.
//! - `RING_CHAOS_RUNS` (default 1): repeat the soak (same seed) to
//!   exercise many interleavings of one schedule.
//! - `RING_CHAOS_STRAGGLER` (default 0): set to 1 to layer the seeded
//!   slow-node straggler profile over the message faults.
//!
//! To replay a seed's schedule (at the default ops and clients) against
//! the RingWriteSemantics abstract model instead — version numbers
//! included — run `ring-model --conform acceptance --seed <seed>`.

use ring_chaos::{run_soak, SoakConfig, StragglerSpec, Verdict};

use crate::output::write_json;
use crate::Args;

#[derive(serde::Serialize)]
struct Row {
    run: usize,
    seed: u64,
    schedule_digest: u64,
    ops: usize,
    timeouts: usize,
    failures: usize,
    partitions: usize,
    crashes: usize,
    msgs_decided: u64,
    msgs_dropped: u64,
    msgs_duplicated: u64,
    msgs_delayed: u64,
    straggles: u64,
    linearizable: bool,
    wall_s: f64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| {
            let v = v.trim();
            match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            }
        })
        .unwrap_or(default)
}

/// The `chaos_soak` subcommand: exit code 1 on a violation.
pub fn run(args: &Args) -> i32 {
    let seed = env_u64("RING_CHAOS_SEED", 0x52_49_4E_47);
    let ops = env_u64("RING_CHAOS_OPS", 2500) as usize;
    let clients = env_u64("RING_CHAOS_CLIENTS", 4) as usize;
    let runs = env_u64("RING_CHAOS_RUNS", 1) as usize;
    let straggler = env_u64("RING_CHAOS_STRAGGLER", 0) != 0;

    let mut cfg = SoakConfig::acceptance(seed);
    cfg.ops_per_client = ops;
    cfg.clients = clients;
    if straggler {
        cfg.straggler = Some(StragglerSpec::light());
    }

    let faults = if straggler { " + straggler" } else { "" };
    println!("Chaos soak: REP3 + SRS(3,2) under drop/dup/delay + partition + crash{faults}");
    println!("run\tops\ttimeouts\tdropped\tverdict\twall");

    let mut rows = Vec::new();
    let mut all_ok = true;
    for run in 0..runs {
        let began = std::time::Instant::now();
        let report = run_soak(&cfg);
        let wall_s = began.elapsed().as_secs_f64();
        let verdict = match &report.checker {
            Verdict::Ok { states, .. } => format!("linearizable ({states} states)"),
            Verdict::Violation(v) => format!("VIOLATION on key {}", v.key),
            Verdict::Inconclusive { keys, .. } => {
                format!("inconclusive on {} key(s)", keys.len())
            }
        };
        println!(
            "{run}\t{}\t{}\t{}\t{verdict}\t{wall_s:.1}s",
            report.ops, report.timeouts, report.message_faults.1
        );
        if let Verdict::Violation(v) = &report.checker {
            println!("{v}");
        }
        all_ok &= report.passed();
        rows.push(Row {
            run,
            seed: report.seed,
            schedule_digest: report.schedule_digest,
            ops: report.ops,
            timeouts: report.timeouts,
            failures: report.failures,
            partitions: report.partitions,
            crashes: report.crashes,
            msgs_decided: report.message_faults.0,
            msgs_dropped: report.message_faults.1,
            msgs_duplicated: report.message_faults.2,
            msgs_delayed: report.message_faults.3,
            straggles: report.straggles.1,
            linearizable: report.passed(),
            wall_s,
        });
    }

    println!(
        "\nseed {seed:#x}: {} run(s), schedule digest {:#018x}",
        rows.len(),
        rows[0].schedule_digest
    );
    write_json(&args.results(), "chaos_soak", &rows);
    if !all_ok {
        println!(
            "RESULT: FAILED (non-linearizable history; replay with RING_CHAOS_SEED={seed:#x})"
        );
        return 1;
    }
    println!("RESULT: PASSED");
    0
}
