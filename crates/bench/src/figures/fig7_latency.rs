//! Figure 7a/7b: put latency of all seven memgests and the (shared)
//! get latency, vs object size (2^1 .. 2^11 bytes).
//!
//! Expected shape (Section 6.1): REP1 lowest (no replication, immediate
//! commit), REP2/REP3 above it (one quorum ack), REP4 above those (two
//! acks), SRS21/SRS31 near each other (one parity update each), SRS32
//! highest (two parity updates plus coding work); get latency identical
//! across memgests.

use std::fmt::Write as _;
use std::path::Path;

use crate::measure::{get_latency, put_latency, LatencySummary};
use crate::object_sizes;
use crate::output::write_json;
use crate::report::{find, load, med_at};
use crate::workbench::{paper_cluster, MEMGESTS};

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    size: usize,
    put: LatencySummary,
}

#[derive(serde::Serialize)]
struct GetRow {
    size: usize,
    get: LatencySummary,
}

pub fn run(quick: bool, results: &Path) {
    let n = if quick { 50 } else { 1000 };
    let cluster = paper_cluster();
    let mut client = cluster.client();
    let mut rows = Vec::new();
    let mut get_rows = Vec::new();
    let mut key_base = 0u64;

    for (mid, label) in MEMGESTS {
        for size in object_sizes() {
            let s = put_latency(&mut client, mid, size, n, key_base);
            key_base += n as u64;
            rows.push(Row {
                scheme: label.to_string(),
                size,
                put: s,
            });
        }
    }

    for size in object_sizes() {
        // Get latency is scheme-independent (Section 6.1); sample it
        // over keys spread across all memgests.
        let keys: Vec<u64> = (0..64u64).map(|i| key_base + i).collect();
        let value = vec![0x11u8; size];
        for (i, &k) in keys.iter().enumerate() {
            client
                .put_to(k, &value, MEMGESTS[i % 7].0)
                .expect("preload");
        }
        key_base += keys.len() as u64;
        let s = get_latency(&mut client, &keys, n);
        get_rows.push(GetRow { size, get: s });
    }

    write_json(results, "fig7_put_latency", &rows);
    write_json(results, "fig7_get_latency", &get_rows);
    cluster.shutdown();
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 7a/7b: put and get latency vs object size\n");
    let put = load(results, "fig7_put_latency")?;
    let _ = writeln!(md, "Median put latency at 1 KiB (µs):\n");
    let _ = writeln!(md, "| scheme | measured | paper |\n|---|---|---|");
    let paper = [
        ("REP1", "~7"),
        ("REP2", "~11"),
        ("REP3", "~11"),
        ("REP4", "~13"),
        ("SRS21", "~14"),
        ("SRS31", "~14"),
        ("SRS32", "~22"),
    ];
    for (scheme, p) in paper {
        let m = med_at(&put, "scheme", scheme, 1024, "put");
        let _ = writeln!(md, "| {scheme} | {m:.1} | {p} |");
    }
    if let Some(get) = load(results, "fig7_get_latency") {
        let g = find(&get, |r| r["size"].as_u64() == Some(1024), "get.median_us");
        let _ = writeln!(
            md,
            "\nGet latency at 1 KiB: {g:.1} µs, identical across memgests (paper: ~5 µs, one shared line).\n"
        );
    }
    let _ = writeln!(
        md,
        "Shape check: REP1 lowest; REP2 ≈ REP3 (quorum needs one ack for both);\nSRS21 ≈ SRS31 (one parity each); SRS32 highest among SRS.\n"
    );
    Some(())
}
