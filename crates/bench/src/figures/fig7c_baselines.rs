//! Figure 7c: put and get latency of the baseline system models
//! (memcached, Dare, RAMCloud, Cocytus — see `ring_kvs::baseline` for
//! the substitution rationale).
//!
//! Expected shape (Section 6.1): memcached ~10x slower than Ring's REP1
//! (kernel TCP); Dare comparable to REP3 (same transport, same
//! replication); RAMCloud's put well above Dare's (disk-backed
//! backups) with gets as fast as Ring's; Cocytus get/put far above
//! Ring's SRS32.

use std::fmt::Write as _;
use std::path::Path;

use ring_kvs::baseline::all_baselines;
use ring_kvs::Cluster;

use crate::measure::{get_latency, put_latency, LatencySummary};
use crate::object_sizes;
use crate::output::write_json;
use crate::report::{load, med_at};

#[derive(serde::Serialize)]
struct Row {
    system: String,
    size: usize,
    put: LatencySummary,
    get: LatencySummary,
}

pub fn run(quick: bool, results: &Path) {
    let n = if quick { 30 } else { 500 };
    let mut rows = Vec::new();
    for b in all_baselines() {
        let cluster = Cluster::start(b.spec.clone());
        let mut client = cluster.client();
        let mut key_base = 0u64;
        for size in object_sizes() {
            let put = put_latency(&mut client, b.memgest, size, n, key_base);
            let keys: Vec<u64> = (key_base..key_base + n as u64).collect();
            let get = get_latency(&mut client, &keys, n);
            key_base += n as u64;
            rows.push(Row {
                system: b.name.to_string(),
                size,
                put,
                get,
            });
        }
        cluster.shutdown();
    }
    write_json(results, "fig7c_baselines", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 7c: baseline latencies\n");
    let v = load(results, "fig7c_baselines")?;
    let _ = writeln!(md, "Median at 1 KiB (µs):\n");
    let _ = writeln!(
        md,
        "| system | put | get | paper shape |\n|---|---|---|---|"
    );
    let paper = [
        ("memcached", "~10x Ring REP1 (kernel TCP)"),
        ("Dare", "≈ Ring REP3 (same transport + scheme)"),
        ("RAMCloud", "put ≫ Dare (disk-backed backups), get fast"),
        ("Cocytus", "get ~100x / put ~30x Ring SRS32"),
    ];
    for (system, shape) in paper {
        let p = med_at(&v, "system", system, 1024, "put");
        let g = med_at(&v, "system", system, 1024, "get");
        let _ = writeln!(md, "| {system} | {p:.1} | {g:.1} | {shape} |");
    }
    let _ = writeln!(md);
    Some(())
}
