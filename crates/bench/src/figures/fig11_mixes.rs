//! Figure 11: single-client throughput under YCSB get:put mixes
//! ((100:0), (95:5), (50:50), (0:100)) with Zipfian keys and 1 KiB
//! values, for REP1, REP3, SRS21 and SRS32.
//!
//! Expected shape (Section 6.3): get-only throughput identical across
//! memgests (gets share one code path); throughput drops as the put
//! ratio rises; REP1 has the highest put-only rate with the others
//! slightly below it.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use ring_workload::{KeyDistribution, WorkloadGen, WorkloadSpec};
use serde_json::Value;

use crate::measure::mixed_throughput;
use crate::output::write_json;
use crate::report::{f, find, load, s};
use crate::workbench::{memgest_id, paper_cluster};

const SCHEMES: [&str; 4] = ["REP1", "REP3", "SRS21", "SRS32"];

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    get_ratio: f64,
    req_per_sec: f64,
}

pub fn run(quick: bool, results: &Path) {
    let duration = Duration::from_millis(if quick { 300 } else { 2000 });
    let key_count = if quick { 2_000 } else { 20_000 };
    let mut rows = Vec::new();

    for label in SCHEMES {
        for get_ratio in [1.0, 0.95, 0.5, 0.0] {
            let cluster = paper_cluster();
            let spec = WorkloadSpec {
                key_count,
                value_len: 1024,
                get_ratio,
                distribution: KeyDistribution::ScrambledZipfian,
            };
            let mut gen = WorkloadGen::new(spec, cluster.spec().derived_seed("fig11"));
            let rate = mixed_throughput(&cluster, memgest_id(label), &mut gen, duration, 64);
            rows.push(Row {
                scheme: label.to_string(),
                get_ratio,
                req_per_sec: rate,
            });
            cluster.shutdown();
        }
    }
    write_json(results, "fig11_mixes", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(
        md,
        "## Figure 11: throughput under get:put mixes (Zipfian, 1 KiB)\n"
    );
    let v = load(results, "fig11_mixes")?;
    let _ = writeln!(
        md,
        "| scheme | 100:0 | 95:5 | 50:50 | 0:100 (req/s) |\n|---|---|---|---|---|"
    );
    for scheme in SCHEMES {
        let get = |ratio: f64| {
            let pick =
                |r: &Value| s(r, "scheme") == scheme && (f(r, "get_ratio") - ratio).abs() < 1e-9;
            find(&v, pick, "req_per_sec")
        };
        let _ = writeln!(
            md,
            "| {scheme} | {:.0} | {:.0} | {:.0} | {:.0} |",
            get(1.0),
            get(0.95),
            get(0.5),
            get(0.0)
        );
    }
    let _ = writeln!(
        md,
        "\nShape check (paper): get-only rates equal across schemes (one shared\nget path); throughput declines as the put share grows; REP1 has the\nhighest put-only rate.\n"
    );
    Some(())
}
