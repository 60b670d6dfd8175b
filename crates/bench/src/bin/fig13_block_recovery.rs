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

use std::time::{Duration, Instant};

use ring_bench::output::{header, us, write_json};
use ring_bench::reps;
use ring_kvs::{Cluster, ClusterSpec};

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    block: usize,
    median_us: f64,
    p90_us: f64,
    samples: usize,
}

fn main() {
    let n = reps(15, 3);
    let sizes: &[usize] = if ring_bench::quick_mode() {
        &[512, 4096]
    } else {
        &[
            512,
            1 << 10,
            2 << 10,
            4 << 10,
            8 << 10,
            16 << 10,
            32 << 10,
            64 << 10,
        ]
    };
    let schemes = [("SRS21", 4u32), ("SRS31", 5u32), ("SRS32", 6u32)];

    header(
        "Figure 13: block recovery latency vs recovered block size",
        &["scheme", "block", "median_us", "p90_us"],
    );
    let mut rows = Vec::new();
    for (label, mid) in schemes {
        for &size in sizes {
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
            let s = ring_bench::measure::summarize(samples);
            println!("{label}\t{}B\t{}\t{}", size, us(s.median_us), us(s.p90_us));
            rows.push(Row {
                scheme: label.to_string(),
                block: size,
                median_us: s.median_us,
                p90_us: s.p90_us,
                samples: s.samples,
            });
        }
    }
    write_json("fig13_block_recovery", &rows);
}
