//! ```text
//! ringbench --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--out <trace.json>]
//! ringbench [--runs <n>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke] [--out <suite.json>]
//! ringbench --compare <a.json> <b.json>
//! ```
//!
//! With `--workload`: runs that workload once and prints, as the last
//! line of standard output, one JSON object `{correct, attempted,
//! failed, metrics}` — the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. Without: runs all four workloads `--runs` times
//! (seeds `seed`, `seed+1`, …) and writes a suite file; `--compare`
//! judges one suite file against another. Exits non-zero on any failed
//! or unverifiable operation, on a regression, and when `ring-server` is
//! not built.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ringbench::report;
use ringbench::run::{run, Outcome, Plan};
use ringbench::workload::{by_name, Workload, WORKLOADS};

/// Waiting for steal episodes to pass: at most this long per run …
const PATIENCE_PER_RUN: Duration = Duration::from_secs(90);
/// … and this long over all runs from one build directory, kept in
/// [`WAITED_FILE`] there. The driver's 92 runs of ~25 s and two builds
/// leave ~1000 s of its 3420 s; two checkouts may each spend 300 s of
/// that on waiting, so a host that never quietens still finishes in time.
const PATIENCE_PER_BUILD: Duration = Duration::from_secs(300);
const WAITED_FILE: &str = "waited_for_quiet_s";
/// Seconds of measurement per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 12.0;
/// `--smoke`: sixteen 0.15 s rounds.
const SMOKE_SECONDS: f64 = 2.4;

struct Args {
    workload: Option<&'static Workload>,
    plan: Plan,
    runs: u64,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        plan: Plan {
            seed: 1,
            seconds: 0.0,
            traced: false,
            smoke: false,
            patience: Duration::ZERO,
        },
        runs: 1,
        out: None,
        compare: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |text: &String| text.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                parsed.workload = Some(by_name(name).ok_or(format!(
                    "unknown workload {name}; the workloads are {}",
                    known.join(", ")
                ))?);
            }
            "--seed" => parsed.plan.seed = number(value("a number")?)?,
            "--runs" => parsed.runs = number(value("a number")?)?.max(1),
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` (the driver).
                parsed.plan.traced = it.peek().is_none_or(|v| v.as_str() != "0");
                if matches!(it.peek().map(|v| v.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            "--smoke" => parsed.plan.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two suite files")?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two suite files")?);
                parsed.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.plan.seconds = seconds.unwrap_or(if parsed.plan.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(parsed)
}

/// Where run artefacts go: next to the build, inside the checkout.
fn artefact_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("ringbench")
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(path, text).map_err(io)
}

/// Runs `w` once, prints its table and writes its trace file, if any.
fn run_one(
    w: &'static Workload,
    plan: &Plan,
    trace_out: Option<&PathBuf>,
) -> Result<Outcome, String> {
    // What this build directory has left to spend on waiting.
    let waited_file = artefact_dir().join(WAITED_FILE);
    let waited_so_far = std::fs::read_to_string(&waited_file)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .map_or(Duration::ZERO, Duration::from_secs_f64);
    let plan = Plan {
        patience: PATIENCE_PER_RUN.min(PATIENCE_PER_BUILD.saturating_sub(waited_so_far)),
        ..plan.clone()
    };
    let outcome = run(w, &plan).map_err(|e| format!("{}: {e}", w.name))?;
    let waited = (waited_so_far + outcome.waited).as_secs_f64();
    write(&waited_file, &format!("{waited}\n"))?;
    println!("== {} seed {} — {}", w.name, plan.seed, w.why);
    print!("{}", report::table(&outcome));
    if let Some(trace) = &outcome.trace {
        let default = artefact_dir().join(format!("trace_{}.json", w.name));
        let path = trace_out.unwrap_or(&default);
        write(path, &trace.to_json(&report::metrics_json(&outcome)))?;
        println!("  trace: {}", path.display());
    }
    Ok(outcome)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv)?;
    if let Some((a, b)) = &args.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let (table, regressed) = report::compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(!regressed);
    }
    let plan = &args.plan;
    println!(
        "ringbench: {} s of {} per run, closed loop, 1 generator thread, 1 client, {} cores",
        plan.seconds,
        if plan.traced {
            "per-layer measurement"
        } else {
            "end-to-end measurement"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if let Some(w) = args.workload {
        let outcome = run_one(w, plan, args.out.as_ref())?;
        println!("{}", report::result_line(&outcome));
        return Ok(outcome.failed == 0);
    }
    let mut suite = Vec::new();
    for w in &WORKLOADS {
        let mut outcomes = Vec::new();
        for i in 0..args.runs {
            let plan = Plan {
                seed: plan.seed + i,
                ..plan.clone()
            };
            outcomes.push(run_one(w, &plan, None)?);
        }
        print!("{}", report::suite_table(w, &outcomes));
        suite.push((w, outcomes));
    }
    let default = artefact_dir().join(if plan.traced {
        "suite_trace.json"
    } else {
        "suite.json"
    });
    let path = args.out.as_ref().unwrap_or(&default);
    write(
        path,
        &report::suite_json(plan.seed, plan.seconds, plan.traced, &suite),
    )?;
    println!("suite: {}", path.display());
    Ok(suite.iter().flat_map(|(_, o)| o).all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ringbench: {e}");
            ExitCode::from(2)
        }
    }
}
