//! `ring-model`: explicit-state exploration and trace conformance.
//!
//! ```text
//! ring-model --exhaustive
//!     Exhaustively explore the RingWriteSemantics transition system
//!     for every built-in configuration (rep2, rep3, srs21); print
//!     state counts and exit non-zero on any invariant violation,
//!     with a minimal counterexample.
//!
//! ring-model --conform <preset> [--seed N] [--budget N]
//!     Run the named soak preset (sequential, sequential_straggler,
//!     quick, quick_straggler, or acceptance — the 10k-op schedule the
//!     chaos_soak binary runs), project its recorded history onto the
//!     abstract model, and check conformance. Exits non-zero on a
//!     non-conformant history.
//! ```

use std::process::ExitCode;

use ring_chaos::{run_soak, SoakConfig, Verdict};
use ring_model::conform::{check_conformance_with_budget, DEFAULT_BUDGET};
use ring_model::explore::explore;
use ring_model::spec::Config;

/// Default seed for `--conform` runs; override with `--seed`.
const DEFAULT_SEED: u64 = 0xB10C_5EED;

/// Accepts both decimal and `0x`-prefixed hex.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ring-model --exhaustive\n       \
         ring-model --conform \
         <sequential|sequential_straggler|quick|quick_straggler|acceptance> \
         [--seed N] [--budget N]"
    );
    ExitCode::from(2)
}

fn run_exhaustive() -> ExitCode {
    let configs = [Config::rep2(), Config::rep3(), Config::srs21()];
    let mut failed = false;
    for cfg in configs {
        let report = explore(&cfg);
        match &report.violation {
            None => println!(
                "{:>6}: {} states, {} transitions, depth {}, 0 violations",
                cfg.name, report.states, report.transitions, report.depth
            ),
            Some(trace) => {
                failed = true;
                println!(
                    "{:>6}: {} states explored, VIOLATION",
                    cfg.name, report.states
                );
                println!("{trace}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_conform(preset: &str, seed: u64, budget: u64) -> ExitCode {
    let cfg = match preset {
        "sequential" => SoakConfig::sequential(seed),
        "sequential_straggler" => SoakConfig::sequential_straggler(seed),
        "quick" => SoakConfig::quick(seed),
        "quick_straggler" => SoakConfig::quick_straggler(seed),
        "acceptance" => SoakConfig::acceptance(seed),
        other => {
            eprintln!("unknown preset: {other}");
            return usage();
        }
    };
    println!("soaking preset {preset} (seed {seed:#x}) ...");
    let report = run_soak(&cfg);
    println!(
        "  {} ops, {} timeouts, {} failures, checker: {}",
        report.ops,
        report.timeouts,
        report.failures,
        if report.passed() { "ok" } else { "VIOLATION" }
    );
    let verdict = check_conformance_with_budget(&report.history, budget);
    println!("  conformance: {verdict}");
    match verdict {
        Verdict::Ok { .. } => ExitCode::SUCCESS,
        // Budget exhaustion is a capacity statement, not a verdict;
        // surface it without failing CI (mirrors the linearizability
        // checker's treatment of Inconclusive).
        Verdict::Inconclusive { .. } => ExitCode::SUCCESS,
        Verdict::Violation(_) => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut preset: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut budget = DEFAULT_BUDGET;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exhaustive" => mode = Some("exhaustive"),
            "--conform" => {
                mode = Some("conform");
                i += 1;
                preset = args.get(i).cloned();
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| parse_u64(s)) {
                    Some(s) => seed = s,
                    None => return usage(),
                }
            }
            "--budget" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(b) => budget = b,
                    None => return usage(),
                }
            }
            _ => return usage(),
        }
        i += 1;
    }
    match (mode, preset) {
        (Some("exhaustive"), _) => run_exhaustive(),
        (Some("conform"), Some(p)) => run_conform(&p, seed, budget),
        _ => usage(),
    }
}
