//! Figure 8a/8b: move latency vs object size, by destination memgest.
//!
//! Expected shape (Section 6.2): only the destination scheme matters
//! (the source data is locally available); moving to the unreliable
//! REP1 is roughly size-independent (no client transfer — the object is
//! copied from main memory) and cheaper than a direct put of the same
//! object.

use std::fmt::Write as _;
use std::path::Path;

use crate::measure::{move_latency, LatencySummary};
use crate::object_sizes;
use crate::output::write_json;
use crate::report::{load, med_at};
use crate::workbench::{memgest_id, paper_cluster, MEMGESTS};

#[derive(serde::Serialize)]
struct Row {
    dst: String,
    size: usize,
    mv: LatencySummary,
}

pub fn run(quick: bool, results: &Path) {
    let n = if quick { 30 } else { 500 };
    let cluster = paper_cluster();
    let mut client = cluster.client();
    let mut rows = Vec::new();
    let mut key_base = 0u64;

    for (dst, label) in MEMGESTS {
        // Source is the unreliable memgest unless it IS the destination,
        // in which case REP3 is the source (the source scheme does not
        // influence the latency — Section 6.2).
        let src = if label == "REP1" {
            memgest_id("REP3")
        } else {
            memgest_id("REP1")
        };
        for size in object_sizes() {
            let s = move_latency(&mut client, src, dst, size, n, key_base);
            key_base += n as u64;
            rows.push(Row {
                dst: label.to_string(),
                size,
                mv: s,
            });
        }
    }
    write_json(results, "fig8_move", &rows);
    cluster.shutdown();
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 8: move latency vs object size\n");
    let v = load(results, "fig8_move")?;
    let _ = writeln!(
        md,
        "| destination | move @2 B (µs) | move @2 KiB (µs) |\n|---|---|---|"
    );
    for (_, dst) in MEMGESTS {
        let small = med_at(&v, "dst", dst, 2, "mv");
        let big = med_at(&v, "dst", dst, 2048, "mv");
        let _ = writeln!(md, "| {dst} | {small:.1} | {big:.1} |");
    }
    let _ = writeln!(
        md,
        "\nShape check: moving to REP1 is roughly size-independent (no client\ntransfer, copy from main memory); erasure-coded destinations cost the\nmost, like a put to the same scheme minus the client hop.\n"
    );
    Some(())
}
