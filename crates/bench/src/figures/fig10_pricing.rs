//! Figure 10: normalised storage price of five SPC traces under the
//! hot (Rep(3)), cold (SRS(3,2,3)) and simple (Rep(1)) schemes, using
//! Azure Blob pricing (Feb 2018).
//!
//! Expected shape: for the put-heavy Financial1 trace cold ≈ 5.5x
//! simple and ≈ 2x hot; the get-dominant WebSearch traces compress the
//! three schemes together.
//!
//! The real SPC traces are proprietary; the cost model consumes their
//! published aggregate statistics. A test in `ring_workload::cost`
//! checks that synthetic records generated from those statistics price
//! within a few percent of them.

use std::fmt::Write as _;
use std::path::Path;

use ring_workload::cost::normalized_prices;
use ring_workload::spc::{TraceStats, TRACES};
use serde_json::Value;

use crate::output::write_json;
use crate::report::{find, load, s};

#[derive(serde::Serialize)]
struct Row {
    trace: String,
    scheme: String,
    write: f64,
    read: f64,
    transfer: f64,
    storage: f64,
    relative_price: f64,
}

pub fn run(_quick: bool, results: &Path) {
    let mut rows = Vec::new();
    for profile in &TRACES {
        let stats = TraceStats::from_profile(profile);
        for (class, b, rel) in normalized_prices(&stats) {
            rows.push(Row {
                trace: profile.name.to_string(),
                scheme: class.label().to_string(),
                write: b.write,
                read: b.read,
                transfer: b.transfer,
                storage: b.storage,
                relative_price: rel,
            });
        }
    }

    write_json(results, "fig10_pricing", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 10: storage pricing of the five SPC traces\n");
    let v = load(results, "fig10_pricing")?;
    let rel = |trace: &str, scheme: &str| {
        let pick = |r: &Value| s(r, "trace") == trace && s(r, "scheme") == scheme;
        find(&v, pick, "relative_price")
    };
    let _ = writeln!(md, "Price relative to the simple scheme:\n");
    let _ = writeln!(md, "| trace | hot | cold | paper |\n|---|---|---|---|");
    for (trace, paper) in [
        ("Financial1", "cold ≈ 5.5x simple, ≈ 2x hot"),
        ("Financial2", "cold > hot > simple"),
        ("WebSearch1", "schemes compressed"),
        ("WebSearch2", "schemes compressed"),
        ("WebSearch3", "schemes compressed"),
    ] {
        let _ = writeln!(
            md,
            "| {trace} | {:.2}x | {:.2}x | {paper} |",
            rel(trace, "hot"),
            rel(trace, "cold")
        );
    }
    let _ = writeln!(md);
    Some(())
}
