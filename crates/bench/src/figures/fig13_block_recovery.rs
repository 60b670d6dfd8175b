//! Figure 13: on-the-fly block recovery latency vs recovered block
//! size, for SRS21, SRS31 and SRS32.
//!
//! Method (Section 6.4): store an object, kill its coordinator, wait
//! until the promoted spare finished *metadata* recovery (probed with a
//! warm-up key whose data lives in a replicated memgest), then measure
//! the first get of the victim object — which triggers the online
//! decode. Since the late-binding read path (DESIGN §8.5) that is a
//! speculative `k + Δ` shard read: the promoted coordinator asks the
//! surviving lane peers and `1 + Δ` parity nodes for their rows and
//! decodes locally from the first `k` to arrive. The paper's shape —
//! one parity node collecting the lane blocks from the survivors and
//! reconstructing the range (`RecoverBlock`) — remains as the fallback
//! when the speculative read runs out of peers or time.
//!
//! Expected shape: latency grows with block size; SRS21 recovers faster
//! than SRS31/SRS32 (2 blocks to collect instead of 3).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ring_kvs::{Cluster, ClusterSpec};
use serde_json::Value;

use crate::measure::summarize;
use crate::output::write_json;
use crate::report::{find, load, s};
use crate::workbench::memgest_id;

const SCHEMES: [&str; 3] = ["SRS21", "SRS31", "SRS32"];

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    block: usize,
    median_us: f64,
    p90_us: f64,
    samples: usize,
}

pub fn run(quick: bool, results: &Path) {
    let n = if quick { 3 } else { 15 };
    // 512 B .. 64 KiB, doubling.
    let sizes: Vec<usize> = if quick {
        vec![512, 4096]
    } else {
        (9..=16).map(|p| 1 << p).collect()
    };

    let mut rows = Vec::new();
    for label in SCHEMES {
        let mid = memgest_id(label);
        for &size in &sizes {
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let spec = ClusterSpec {
                    spares: 1,
                    fail_timeout: Duration::from_millis(250),
                    client_timeout: Duration::from_millis(50),
                    ..ClusterSpec::paper_evaluation()
                };
                let cluster = Cluster::start(spec);
                let mut client = cluster.client();
                // Victim object on node 0's shard in the SRS memgest,
                // plus a replicated warm-up key on the same shard.
                let victim = (0..200u64)
                    .find(|&k| cluster.coordinator_of(k) == 0)
                    .expect("key on node 0");
                let warmup = (victim + 1..victim + 500)
                    .find(|&k| cluster.coordinator_of(k) == 0)
                    .expect("second key on node 0");
                let value = vec![0x77u8; size];
                client.put_to(victim, &value, mid).expect("preload victim");
                client.put_to(warmup, b"w", 2).expect("preload warmup");

                cluster.kill(0);
                // Wait until metadata recovery is done (warm-up key
                // served from the replica path).
                let t0 = Instant::now();
                loop {
                    if client.get(warmup).is_ok() {
                        break;
                    }
                    assert!(
                        t0.elapsed() < Duration::from_secs(30),
                        "metadata recovery never finished"
                    );
                }
                // Now measure the decode itself.
                let t1 = Instant::now();
                let recovered = client.get(victim).expect("online decode");
                samples.push(t1.elapsed());
                assert_eq!(recovered, value, "decode must be correct");
                cluster.shutdown();
            }
            let s = summarize(samples);
            rows.push(Row {
                scheme: label.to_string(),
                block: size,
                median_us: s.median_us,
                p90_us: s.p90_us,
                samples: s.samples,
            });
        }
    }
    write_json(results, "fig13_block_recovery", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 13: online block recovery vs block size\n");
    let v = load(results, "fig13_block_recovery")?;
    let _ = writeln!(md, "| scheme | 512 B (µs) | 64 KiB (µs) |\n|---|---|---|");
    for scheme in SCHEMES {
        let at = |block: u64| {
            let pick = |r: &Value| s(r, "scheme") == scheme && r["block"].as_u64() == Some(block);
            find(&v, pick, "median_us")
        };
        let _ = writeln!(md, "| {scheme} | {:.0} | {:.0} |", at(512), at(65536));
    }
    let _ = writeln!(
        md,
        "\nShape check (paper): recovery time grows with block size; SRS21\ncollects 2 blocks instead of 3 and recovers fastest; SRS32 ≈ SRS31.\n"
    );
    Some(())
}
