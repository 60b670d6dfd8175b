//! Benchmark harness regenerating every table and figure of the Ring
//! paper's evaluation (Section 6 and Appendix A).
//!
//! One binary, `ring-bench <subcommand> [--quick] [--out P] [--check P]`,
//! dispatched through [`COMMANDS`]:
//!
//! | Subcommand | Artefact |
//! |---|---|
//! | `table1` | §1 trade-off table (Simple / Rep(3) / RS(3,2)) |
//! | `fig2_reliability` | Fig. 2 reliability of SRS codes |
//! | `fig7_latency` | Fig. 7a/b put + get latency vs object size |
//! | `fig7c_baselines` | Fig. 7c baseline latencies |
//! | `fig8_move` | Fig. 8 move latency vs object size |
//! | `fig9_throughput` | Fig. 9 put throughput, 1→4 clients |
//! | `fig10_pricing` | Fig. 10 storage pricing of five SPC traces |
//! | `fig11_mixes` | Fig. 11 throughput under get:put mixes |
//! | `fig12_recovery` | Fig. 12 coordinator recovery vs metadata size |
//! | `fig13_block_recovery` | Fig. 13 block recovery vs block size |
//! | `fig16_availability` | Fig. 16 availability of SRS codes |
//! | `balance_ablation` | §5.4 memgest-group balancing ablation |
//! | `spc_replay` | SPC trace replay against live clusters |
//! | `bench` | `BENCH_ring.json`: GF kernels, hops, e2e, tail latency, TCP |
//! | `chaos_soak` | seeded chaos soak + linearizability verdict |
//! | `all` | every artefact above `bench`, in this order, in-process |
//! | `report` | regenerates EXPERIMENTS.md from `results/` |
//!
//! Each artefact lives in `figures/<name>.rs`: it writes JSON rows to
//! the results directory and renders its own EXPERIMENTS.md section
//! back from those rows, which is also what it prints when it runs.
//!
//! Flags: `--quick` runs fewer repetitions. `--out P` is where output
//! goes: the results directory (artefacts, `all`, `chaos_soak`; default
//! `<repo>/results`), the JSON file (`bench`; default
//! `<repo>/BENCH_ring.json`) or the markdown file (`report`; default
//! `<repo>/EXPERIMENTS.md`). `--check P` audits a `bench` run against
//! a committed baseline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

pub mod bench;
pub mod chaos_soak;
pub mod figures;
pub mod hist;
pub mod measure;
pub mod output;
pub mod report;
pub mod workbench;

/// The parsed command line after the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--quick`: fewer repetitions, noisier numbers.
    pub quick: bool,
    /// `--out P`.
    pub out: Option<PathBuf>,
    /// `--check P`.
    pub check: Option<PathBuf>,
}

impl Args {
    /// The results directory: `--out`, else `<repo>/results`.
    pub fn results(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(output::results_dir)
    }
}

/// One subcommand.
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// Runs it; the return value is the process exit code.
    pub run: fn(&Args) -> i32,
    /// The artefact's EXPERIMENTS.md section. `Some` exactly for the
    /// paper artefacts, which `all` runs and `report` renders.
    pub report: Option<Report>,
}

/// Renders an artefact's EXPERIMENTS.md section from the rows in a
/// results directory; `None` once it finds its rows missing, after at
/// most the section heading.
pub type Report = fn(&mut String, &Path) -> Option<()>;

macro_rules! figure {
    ($m:ident) => {
        Command {
            name: stringify!($m),
            run: |a| run_figure(a, figures::$m::run, figures::$m::report),
            report: Some(figures::$m::report),
        }
    };
}

/// Every subcommand, in `all` / EXPERIMENTS.md order.
pub static COMMANDS: [Command; 17] = [
    figure!(table1),
    figure!(fig2_reliability),
    figure!(fig7_latency),
    figure!(fig7c_baselines),
    figure!(fig8_move),
    figure!(fig9_throughput),
    figure!(fig10_pricing),
    figure!(fig11_mixes),
    figure!(fig12_recovery),
    figure!(fig13_block_recovery),
    figure!(fig16_availability),
    figure!(balance_ablation),
    figure!(spc_replay),
    tool("bench", bench::run),
    tool("chaos_soak", chaos_soak::run),
    tool("all", run_all),
    tool("report", report::run),
];

const fn tool(name: &'static str, run: fn(&Args) -> i32) -> Command {
    let report = None;
    Command { name, run, report }
}

/// The one-line usage message, naming every subcommand.
pub fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!(
        "usage: ring-bench <{}> [--quick] [--out P] [--check P]",
        names.join("|")
    )
}

/// Parses `args` (without the program name) into a subcommand and its
/// flags.
pub fn parse(args: &[String]) -> Result<(&'static Command, Args), String> {
    let (name, rest) = args.split_first().ok_or("no subcommand")?;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or(format!("unknown subcommand `{name}`"))?;
    let mut parsed = Args::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut path = || {
            it.next()
                .map(PathBuf::from)
                .ok_or(format!("{flag} needs a path"))
        };
        match flag.as_str() {
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(path()?),
            "--check" => parsed.check = Some(path()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((cmd, parsed))
}

/// Runs the command line `args` (without the program name) and returns
/// the process exit code: 2 on a usage error.
pub fn cli(args: &[String]) -> i32 {
    match parse(args) {
        Ok((cmd, parsed)) => (cmd.run)(&parsed),
        Err(e) => {
            eprintln!("ring-bench: {e}\n{}", usage());
            2
        }
    }
}

/// Runs one artefact, then prints its EXPERIMENTS.md section rendered
/// from the rows it just wrote.
fn run_figure(args: &Args, run: fn(bool, &Path), report: Report) -> i32 {
    let results = args.results();
    run(args.quick, &results);
    let mut md = String::new();
    report::section(&mut md, report, &results);
    println!("\n{md}");
    0
}

/// `all`: every paper artefact in turn, in this process. A failing
/// artefact is reported and the rest still run.
fn run_all(args: &Args) -> i32 {
    let figures: Vec<&Command> = COMMANDS.iter().filter(|c| c.report.is_some()).collect();
    let mut failed = Vec::new();
    for c in &figures {
        println!("\n######## {} ########", c.name);
        if !matches!(catch_unwind(AssertUnwindSafe(|| (c.run)(args))), Ok(0)) {
            failed.push(c.name);
        }
    }
    if failed.is_empty() {
        println!("\nAll {} experiments completed.", figures.len());
        0
    } else {
        eprintln!("\nFailed experiments: {failed:?}");
        1
    }
}

/// The object sizes of Figures 7/8: 2^1 .. 2^11 bytes.
pub fn object_sizes() -> Vec<usize> {
    (1..=11).map(|p| 1usize << p).collect()
}
