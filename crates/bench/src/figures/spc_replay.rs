//! Trace-driven replay: runs synthetic SPC traces (Financial1 and
//! WebSearch2 profiles) against live clusters configured as the hot
//! (Rep(3)), cold (SRS(3,2)) and simple (Rep(1)) schemes of Figure 10,
//! reporting achieved latency and throughput per scheme — the
//! performance side of the cost story the paper prices.
//!
//! LBAs are mapped to KV keys at 4 KiB granularity; reads of unwritten
//! blocks count as misses and are skipped (the cost model already
//! accounts for them).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ring_kvs::{Cluster, ClusterSpec, MemgestDescriptor};
use ring_workload::spc::{synthesize, trace_by_name, SpcRecord};

use crate::output::write_json;
use crate::report::{f, load, rows, s};

#[derive(serde::Serialize)]
struct Row {
    trace: String,
    scheme: String,
    ops_replayed: usize,
    req_per_sec: f64,
    mean_put_us: f64,
    mean_get_us: f64,
}

const BLOCK: u64 = 4096 / 512; // Trace LBAs are 512-byte sectors.

/// The KV keys of the 4 KiB blocks `r` touches.
fn block_keys(r: &SpcRecord) -> impl Iterator<Item = u64> {
    let first = r.lba / BLOCK;
    let last = (r.lba + (r.size as u64 / 512).max(1) - 1) / BLOCK;
    let asu = (r.asu as u64) << 48;
    (first..=last).map(move |block| asu | block)
}

pub fn run(quick: bool, results: &Path) {
    let n_records = if quick { 2_000 } else { 20_000 };
    let schemes: [(&str, MemgestDescriptor); 3] = [
        ("hot/Rep(3)", MemgestDescriptor::rep(3)),
        ("cold/SRS(3,2)", MemgestDescriptor::srs(3, 2)),
        ("simple/Rep(1)", MemgestDescriptor::rep(1)),
    ];
    let mut rows = Vec::new();
    for trace_name in ["Financial1", "WebSearch2"] {
        let profile = trace_by_name(trace_name).expect("known trace");
        let records = synthesize(profile, n_records, 11);
        for (label, desc) in schemes {
            let cluster = Cluster::start(ClusterSpec {
                memgests: vec![desc],
                ..ClusterSpec::default()
            });
            let mut client = cluster.client();
            let mut written: HashSet<u64> = HashSet::new();
            // Preload every block the trace will read, so replayed reads
            // hit the store (the replay measures service latency, not
            // cold-cache misses).
            for r in &records {
                if !r.is_read {
                    continue;
                }
                for key in block_keys(r) {
                    if written.insert(key) {
                        client.put_to(key, &[0x11u8; 4096], 0).expect("preload");
                    }
                }
            }
            let mut put_time = 0.0f64;
            let mut get_time = 0.0f64;
            let mut puts = 0usize;
            let mut gets = 0usize;
            let t0 = Instant::now();
            for r in &records {
                for key in block_keys(r) {
                    if r.is_read {
                        if written.contains(&key) {
                            let s = Instant::now();
                            client.get(key).expect("replay get");
                            get_time += s.elapsed().as_secs_f64();
                            gets += 1;
                        }
                    } else {
                        let s = Instant::now();
                        client.put_to(key, &[0xA5u8; 4096], 0).expect("replay put");
                        put_time += s.elapsed().as_secs_f64();
                        puts += 1;
                        written.insert(key);
                    }
                }
            }
            let total = puts + gets;
            let rate = total as f64 / t0.elapsed().as_secs_f64();
            let mean_us = |time: f64, n: usize| if n > 0 { time / n as f64 * 1e6 } else { 0.0 };
            rows.push(Row {
                trace: trace_name.to_string(),
                scheme: label.to_string(),
                ops_replayed: total,
                req_per_sec: rate,
                mean_put_us: mean_us(put_time, puts),
                mean_get_us: mean_us(get_time, gets),
            });
            cluster.shutdown();
        }
    }
    write_json(results, "spc_replay", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## SPC trace replay (performance face of Fig. 10)\n");
    let v = load(results, "spc_replay")?;
    let _ = writeln!(
        md,
        "| trace | scheme | req/s | put µs | get µs |\n|---|---|---|---|---|"
    );
    for r in rows(&v) {
        let _ = writeln!(
            md,
            "| {} | {} | {:.0} | {:.1} | {:.1} |",
            s(r, "trace"),
            s(r, "scheme"),
            f(r, "req_per_sec"),
            f(r, "mean_put_us"),
            f(r, "mean_get_us")
        );
    }
    let _ = writeln!(
        md,
        "\nShape check: the put-heavy Financial trace pays redundancy in\nthroughput (simple fastest, hot slowest); the get-dominant WebSearch\ntrace is scheme-insensitive.\n"
    );
    Some(())
}
