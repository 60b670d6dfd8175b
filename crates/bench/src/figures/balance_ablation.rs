//! Section 5.4 ablation: memory and load balance with 1 memgest group
//! versus `s + d` rotated groups.
//!
//! Records the analytical per-node storage weights (what Figure 3's
//! unfilled rectangles depict) and then measures actual per-node message
//! load under a mixed workload on real clusters with both settings.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use ring_kvs::balance::{role_mix, storage_balance};
use ring_kvs::{Cluster, ClusterSpec, Scheme};
use ring_workload::{KeyDistribution, WorkloadGen, WorkloadSpec};

use crate::output::write_json;
use crate::report::{f, load, rows};

#[derive(serde::Serialize)]
struct Row {
    groups: usize,
    node: u32,
    storage_weight: f64,
    coordinated_shards: usize,
    redundancy_slots: usize,
    msgs_received: u64,
    measured_bytes: usize,
}

fn paper_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Rep { r: 1 },
        Scheme::Rep { r: 2 },
        Scheme::Rep { r: 3 },
        Scheme::Rep { r: 4 },
        Scheme::Srs { k: 2, m: 1 },
        Scheme::Srs { k: 3, m: 1 },
        Scheme::Srs { k: 3, m: 2 },
    ]
}

/// Max/min of the per-node bytes (infinite when a node holds nothing).
fn imbalance(bytes: &[f64]) -> f64 {
    let max = bytes.iter().copied().fold(0.0, f64::max);
    let min = bytes.iter().copied().fold(f64::INFINITY, f64::min);
    if min > 0.0 {
        max / min
    } else {
        f64::INFINITY
    }
}

pub fn run(quick: bool, results: &Path) {
    let ops = if quick { 2_000 } else { 20_000 };
    let mut rows = Vec::new();
    for groups in [1usize, 5] {
        let spec = ClusterSpec {
            groups,
            ..ClusterSpec::paper_evaluation()
        };
        let cluster = Cluster::start(spec);
        let analytical = storage_balance(cluster.config(), &paper_schemes());

        // Drive a mixed workload and sample per-node message counts.
        let mut client = cluster.client();
        let mut gen = WorkloadGen::new(
            WorkloadSpec {
                key_count: 2_000,
                value_len: 512,
                get_ratio: 0.5,
                distribution: KeyDistribution::Uniform,
            },
            cluster.spec().derived_seed("balance_ablation"),
        );
        let value = vec![9u8; 512];
        for op in gen.batch(ops) {
            match op {
                ring_workload::Op::Get { key } => {
                    let _ = client.get(key);
                }
                ring_workload::Op::Put { key, .. } => {
                    let mid = (key % 7) as u32;
                    client.put_to(key, &value, mid).expect("put");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));

        for (i, &node) in cluster.config().nodes.iter().enumerate() {
            let (coords, redundants) = role_mix(cluster.config(), node);
            let msgs = cluster
                .fabric()
                .stats_of(node)
                .map(|s| s.msgs_received)
                .unwrap_or(0);
            let stats = client.node_stats(node).expect("stats");
            let bytes = stats.data_bytes() + stats.redundancy_bytes();
            rows.push(Row {
                groups,
                node,
                storage_weight: analytical.weights[i],
                coordinated_shards: coords,
                redundancy_slots: redundants,
                msgs_received: msgs,
                measured_bytes: bytes,
            });
        }
        cluster.shutdown();
    }
    write_json(results, "balance_ablation", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## §5.4 ablation: memgest-group balancing\n");
    let v = load(results, "balance_ablation")?;
    for groups in [1u64, 5] {
        let bytes: Vec<f64> = rows(&v)
            .iter()
            .filter(|r| r["groups"].as_u64() == Some(groups))
            .map(|r| f(r, "measured_bytes"))
            .collect();
        if bytes.is_empty() {
            continue;
        }
        let _ = writeln!(
            md,
            "- {groups} group(s): measured per-node memory imbalance (max/min) = {:.2}x",
            imbalance(&bytes)
        );
    }
    let _ = writeln!(
        md,
        "\nShape check (paper, Figure 3 + §5.4): a single group leaves parity\nnodes overloaded; rotating s + d groups evens memory and load out.\n"
    );
    Some(())
}
