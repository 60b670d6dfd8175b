//! Figure 9: aggregate put throughput over time as clients join
//! (one new client per interval, 1 KiB values), for REP1, REP3 and
//! SRS32, plus the baseline models as reference lines.
//!
//! Expected shape (Section 6.3): REP1 the highest; REP3 roughly 2x
//! slower; SRS32 roughly 4x slower; memcached/Cocytus below the
//! comparable Ring memgests. Absolute rates are scaled to the
//! simulated fabric — relative factors are what reproduces the figure.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use ring_kvs::baseline::all_baselines;
use ring_kvs::Cluster;

use crate::measure::{ramp_throughput, ThroughputSample};
use crate::output::write_json;
use crate::report::{f, load, rows, s};
use crate::workbench::{memgest_id, paper_cluster};

#[derive(serde::Serialize)]
struct Series {
    system: String,
    samples: Vec<ThroughputSample>,
}

pub fn run(quick: bool, results: &Path) {
    let max_clients = if quick { 2 } else { 4 };
    let interval = Duration::from_millis(if quick { 300 } else { 1000 });
    let offered = 400_000.0; // The paper's offered rate per client.
    let mut series = Vec::new();

    for label in ["REP1", "REP3", "SRS32"] {
        let cluster = paper_cluster();
        let samples = ramp_throughput(
            &cluster,
            memgest_id(label),
            1024,
            offered,
            max_clients,
            interval,
        );
        series.push(Series {
            system: label.to_string(),
            samples,
        });
        cluster.shutdown();
    }

    for b in all_baselines() {
        let cluster = Cluster::start(b.spec.clone());
        let samples = ramp_throughput(&cluster, b.memgest, 1024, offered, max_clients, interval);
        series.push(Series {
            system: b.name.to_string(),
            samples,
        });
        cluster.shutdown();
    }

    write_json(results, "fig9_throughput", &series);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 9: put throughput as clients join (1 KiB)\n");
    let v = load(results, "fig9_throughput")?;
    let peak = |name: &str| -> f64 {
        rows(&v)
            .iter()
            .filter(|r| s(r, "system") == name)
            .flat_map(|r| {
                rows(&r["samples"])
                    .iter()
                    .map(|x| f(x, "completed_per_sec"))
            })
            .fold(0.0, f64::max)
    };
    let _ = writeln!(md, "| system | peak req/s | paper |\n|---|---|---|");
    for (name, paper) in [
        ("REP1", "~1.5M (4 clients)"),
        ("REP3", "REP1 / 2"),
        ("SRS32", "REP1 / 4.3"),
        ("memcached", "below comparable REP1"),
        ("Dare", "below comparable REP3"),
        ("Cocytus", "below comparable SRS32"),
        ("RAMCloud", "—"),
    ] {
        let _ = writeln!(md, "| {name} | {:.0} | {paper} |", peak(name));
    }
    let rep1 = peak("REP1");
    let _ = writeln!(
        md,
        "\nMeasured ratios: REP1/REP3 = {:.1}x (paper 2x), REP1/SRS32 = {:.1}x (paper 4.3x).\n",
        rep1 / peak("REP3").max(1.0),
        rep1 / peak("SRS32").max(1.0)
    );
    Some(())
}
