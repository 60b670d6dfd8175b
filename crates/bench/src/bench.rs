//! The `bench` subcommand, the performance baseline: GF kernel
//! throughput, the parity-delta vs re-encode ablation, one fabric and
//! one loopback-TCP hop, one fabric send, the metadata table's per-call
//! cost, end-to-end put/get latency and pipelined put throughput per
//! scheme, degraded-read tail latency and the same ops over real
//! `ring-server` processes.
//!
//! Writes `BENCH_ring.json` at the repo root (committed, so regressions
//! are visible in review) and can audit a fresh run against a committed
//! baseline:
//!
//! ```text
//! ring-bench bench [--quick] [--out <path>] [--check <path>]
//! ```
//!
//! - `--quick`: few iterations; numbers are noisy but the file is
//!   produced quickly (the CI smoke job). The report records it as
//!   `smoke`.
//! - `--out <path>`: where to write the JSON (default
//!   `<repo>/BENCH_ring.json`).
//! - `--check <path>`: compare this run's GF kernel throughput against
//!   a previously committed baseline file; exits non-zero if any kernel
//!   regressed by more than 3x (a guard against accidentally reverting
//!   to byte-at-a-time loops, loose enough for shared-runner noise).
//!   Also guards this run's own `tail_latency` section: the rows must
//!   exist and p999 at Δ=1 must not exceed p999 at Δ=0; and its own
//!   `fabric_hop` row: what the host adds to a hop (`rdma_us −
//!   instant_us`) may not exceed 25 µs; its own `fabric_send` row: one
//!   fabric send may not exceed 300 ns; and its own `meta_table` row:
//!   no metadata-table call at 100 k keys may exceed 500 ns. The
//!   `tcp_hop` and `parity_update` rows are recorded, not guarded.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ring_chaos::{StragglerProfile, StragglerSpec};
use ring_erasure::Rs;
use ring_gf::{region, Gf256};
use ring_kvs::storage::{MetaTable, ObjectEntry};
use ring_kvs::{Cluster, ClusterSpec};
use ring_net::{
    Codec, Fabric, FrameBuf, LatencyModel, NetError, NodeId, TcpTransport, Transport, WireSize,
};
use ring_server::harness::{find_binary, LoopbackCluster, LoopbackSpec};
use serde::Serialize;

use crate::hist::LatencyHistogram;
use crate::measure::{get_latency, move_latency, put_latency};
use crate::output::repo_root;
use crate::report::{f, s};
use crate::workbench::{memgest_id, paper_cluster};
use crate::Args;

/// Maximum tolerated slowdown vs the committed baseline before
/// `--check` fails the run.
const MAX_REGRESSION: f64 = 3.0;

/// Most a fabric hop may cost beyond `LatencyModel::instant()` before
/// `--check` fails the run: 10x the 2.5 µs `LatencyModel::rdma()`
/// injects for 1 KiB. A receiver parked in a timed condvar wait costs
/// ~70 µs here; one that polls its mailbox, 2–3 µs.
const MAX_HOP_OVERHEAD_US: f64 = 25.0;

/// Most one `Endpoint::send` may cost in the `fabric_send` row before
/// `--check` fails the run. On a 2-vCPU shared host a send costs
/// 110–150 ns; one that issues a `FUTEX_WAKE` nobody waits for and
/// reads three fabric-wide `RwLock`s costs 360–490 ns.
const MAX_SEND_NS: f64 = 300.0;

/// Messages queued per `fabric_send` batch before the receiver drains.
const SEND_BATCH: usize = 64;

/// Keys in the `meta_table` row's table.
const META_KEYS: usize = 100_000;

/// Most one metadata-table call may cost in the `meta_table` row before
/// `--check` fails the run. On a 2-vCPU shared host the flat table's
/// dearest calls (insert, remove_below) cost 140–260 ns and `highest`
/// 45–70 ns; the nested B-tree it replaced cost 500–730 ns per call.
const MAX_META_NS: f64 = 500.0;

/// One-way latency of a 1 KiB message between two fabric endpoints on
/// two threads — the mailbox layer alone, no protocol above it.
#[derive(Serialize)]
struct FabricHop {
    /// Under `LatencyModel::rdma()`: every message is queued 2.5 µs
    /// before it is due.
    rdma_us: f64,
    /// Under `LatencyModel::instant()`: due when pushed.
    instant_us: f64,
}

/// Cost of one `Endpoint::send` of a 16-byte message to an endpoint
/// whose receiver is not parked, with at most [`SEND_BATCH`] queued:
/// the sender's side of a hop, no wake-up and no receive.
#[derive(Serialize)]
struct FabricSend {
    ns: f64,
}

/// One-way latency of a 1 KiB message between two in-process
/// `TcpTransport`s over loopback: framing, sockets and each owner's
/// epoll receive path, no protocol above them.
#[derive(Serialize)]
struct TcpHop {
    us: f64,
}

/// Per-call cost of one memgest's metadata table holding
/// [`META_KEYS`] keys, each call on a key in shuffled order, so every
/// probe lands cold as it does on a busy coordinator.
#[derive(Serialize)]
struct MetaTableRow {
    keys: usize,
    /// A put's new entry: version 1 of a key not yet in the table.
    insert_ns: f64,
    /// Version assignment and gets: a key's newest entry.
    highest_ns: f64,
    /// A commit's prune: the one version below the committed one goes.
    remove_below_ns: f64,
}

/// Throughput of one coding operation over `len`-byte inputs.
#[derive(Serialize)]
struct GfRow {
    op: &'static str,
    len: usize,
    mbps: f64,
}

#[derive(Serialize)]
struct E2eRow {
    scheme: String,
    value_len: usize,
    put_p50_us: f64,
    get_p50_us: f64,
    /// Single pipelined client, window 64, closed loop.
    put_throughput_rps: f64,
}

#[derive(Serialize)]
struct TcpRow {
    scheme: String,
    value_len: usize,
    put_p50_us: f64,
    put_p99_us: f64,
    get_p50_us: f64,
    get_p99_us: f64,
    move_p50_us: f64,
    move_p99_us: f64,
}

/// One tail-latency measurement: degraded SRS(3,2) gets after a
/// coordinator failure, with a pinned straggler on the first-choice
/// parity node and the speculative read fan-out at `k + delta`.
#[derive(Serialize)]
struct TailRow {
    op: &'static str,
    /// The Δ of the `k + Δ` fan-out this row ran with.
    delta: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    samples: u64,
}

#[derive(Serialize)]
struct Report {
    schema: u32,
    /// Master seed of the benchmark cluster (echoed for replayability).
    seed: u64,
    smoke: bool,
    gf: Vec<GfRow>,
    /// The paper's put-path ablation (§3.2 "Update"): one data block of
    /// an RS(3,2) object changes; `delta` ships parity deltas,
    /// `reencode` re-encodes the stripe. MB/s counts object bytes.
    parity_update: Vec<GfRow>,
    fabric_hop: FabricHop,
    fabric_send: FabricSend,
    tcp_hop: TcpHop,
    meta_table: MetaTableRow,
    e2e: Vec<E2eRow>,
    /// Degraded-read tail latency at Δ ∈ {0, 1, 2}: the late-binding
    /// `k + Δ` fan-out must collapse the p999 a straggling redundancy
    /// target would otherwise impose on every unlucky read.
    tail_latency: Vec<TailRow>,
    /// Same protocol over real OS processes and loopback TCP (the
    /// `ring-server` deployment path). Empty when the server binaries
    /// were not built alongside the bench.
    tcp_loopback: Vec<TcpRow>,
}

/// MB/s of `f` run repeatedly over `len`-byte regions for ~`budget`.
fn gf_mbps(len: usize, budget: Duration, mut f: impl FnMut(&mut [u8], &[u8])) -> f64 {
    let src = vec![0x5Au8; len];
    let mut dst = vec![0xA5u8; len];
    // Warm up, then time whole passes until the budget is spent.
    f(&mut dst, &src);
    let t0 = Instant::now();
    let mut bytes = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..8 {
            f(&mut dst, &src);
            bytes += len as u64;
        }
    }
    bytes as f64 / t0.elapsed().as_secs_f64() / 1e6
}

fn run_gf(quick: bool) -> Vec<GfRow> {
    let budget = Duration::from_millis(if quick { 20 } else { 200 });
    const C: Gf256 = Gf256(0x53);
    let kernels = [
        ("xor_into", region::xor_into as fn(&mut [u8], &[u8])),
        ("mul_acc", |d, s| region::mul_acc(d, s, C)),
        ("mul_into", |d, s| region::mul_into(d, s, C)),
        ("mul_in_place", |d, _| region::mul_in_place(d, C)),
    ];
    // 64 B sits at the SWAR threshold; 4 KiB and 64 KiB are firmly in
    // word-wide territory (parity blocks, recovery transfers).
    let mut rows = Vec::new();
    for len in [64usize, 4096, 65536] {
        for (op, f) in kernels {
            let mbps = gf_mbps(len, budget, f);
            rows.push(GfRow { op, len, mbps });
        }
    }
    rows
}

/// Delta update vs full re-encode of a `len`-byte object whose second
/// data block changes, timed by [`gf_mbps`].
fn run_parity_update(quick: bool) -> Vec<GfRow> {
    let budget = Duration::from_millis(if quick { 20 } else { 200 });
    let rs = Rs::new(3, 2).expect("valid params");
    let mut rows = Vec::new();
    for len in [4096usize, 65536] {
        let object: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let stripe = rs.encode_object(&object).expect("encode");
        let new_block: Vec<u8> = stripe.data[1].iter().map(|b| b ^ 0x5A).collect();
        let delta = gf_mbps(len, budget, |_, _| {
            let delta = region::delta(&stripe.data[1], &new_block);
            let mut parity = stripe.parity.clone();
            for (p, block) in parity.iter_mut().enumerate() {
                Rs::apply_parity_delta(block, &rs.parity_delta(p, 1, &delta));
            }
            black_box(parity);
        });
        let reencode = gf_mbps(len, budget, |_, _| {
            let mut data = stripe.data.clone();
            data[1] = new_block.clone();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            black_box(rs.encode(&refs).expect("encode"));
        });
        for (op, mbps) in [("delta", delta), ("reencode", reencode)] {
            rows.push(GfRow { op, len, mbps });
        }
    }
    rows
}

#[derive(Clone)]
struct Ping(Vec<u8>);

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

struct PingCodec;

impl Codec<Ping> for PingCodec {
    fn encode(&self, msg: &Ping, out: &mut FrameBuf) {
        out.put_bytes(&msg.0);
    }

    fn decode(&self, body: &[u8]) -> Result<Ping, NetError> {
        Ok(Ping(body.to_vec()))
    }
}

/// Half the median round trip of a 1 KiB ping-pong from `a` to an echo
/// on node 1, `b`, after 100 warm-up round trips (the first also opens
/// a TCP connection); `stop` ends the echo.
fn ping_pong_us<T: Transport<Ping> + Sync>(
    a: &T,
    b: &T,
    round_trips: usize,
    stop: impl FnOnce(),
) -> f64 {
    const WARM_UP: usize = 100;
    let mut hist = LatencyHistogram::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Ok((from, msg)) = b.recv_timeout(Duration::from_secs(5)) {
                if b.send(from, msg).is_err() {
                    break;
                }
            }
        });
        for i in 0..WARM_UP + round_trips {
            let t0 = Instant::now();
            a.send(1, Ping(vec![7; 1024])).expect("a is open");
            a.recv_timeout(Duration::from_secs(5))
                .expect("echo answers");
            if i >= WARM_UP {
                hist.record(t0.elapsed());
            }
        }
        stop();
    });
    hist.quantile(0.5).as_secs_f64() * 1e6 / 2.0
}

/// One fabric hop under `latency`.
fn hop_us(latency: LatencyModel, round_trips: usize) -> f64 {
    let fabric: Fabric<Ping> = Fabric::new(latency);
    let a = fabric.register(0).expect("fresh fabric");
    let b = fabric.register(1).expect("fresh fabric");
    ping_pong_us(&a, &b, round_trips, || fabric.kill(1))
}

fn run_fabric_hop(quick: bool) -> FabricHop {
    let round_trips = if quick { 2_000 } else { 20_000 };
    FabricHop {
        rdma_us: hop_us(LatencyModel::rdma(), round_trips),
        instant_us: hop_us(LatencyModel::instant(), round_trips),
    }
}

/// Median per-send ns over batches of [`SEND_BATCH`] sends from one
/// thread to an endpoint nobody receives on, drained between batches.
fn run_fabric_send(quick: bool) -> FabricSend {
    let batches = if quick { 2_000 } else { 20_000 };
    let fabric: Fabric<Ping> = Fabric::new(LatencyModel::instant());
    let a = fabric.register(0).expect("fresh fabric");
    let b = fabric.register(1).expect("fresh fabric");
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let batch: Vec<Ping> = (0..SEND_BATCH).map(|_| Ping(vec![7; 16])).collect();
        let t0 = Instant::now();
        for msg in batch {
            a.send(1, msg).expect("a is open");
        }
        samples.push(t0.elapsed().as_nanos() as f64 / SEND_BATCH as f64);
        while b.try_recv().expect("b is open").is_some() {}
    }
    samples.sort_by(f64::total_cmp);
    FabricSend {
        ns: samples[samples.len() / 2],
    }
}

/// Guards the fabric-send row: a send may cost at most
/// [`MAX_SEND_NS`].
fn check_fabric_send(row: &FabricSend) -> Vec<String> {
    if row.ns <= MAX_SEND_NS {
        return Vec::new();
    }
    vec![format!(
        "fabric_send: one send costs {:.0}ns (limit {MAX_SEND_NS}ns) — a send to a \
         receiver that is not parked is making a wake-up call or reading shared fabric locks",
        row.ns
    )]
}

/// One loopback hop between two `TcpTransport`s in this process.
fn run_tcp_hop(quick: bool) -> TcpHop {
    let round_trips = if quick { 2_000 } else { 20_000 };
    let peers: BTreeMap<NodeId, SocketAddr> = (0..2)
        .map(|id| {
            let probe = TcpListener::bind("127.0.0.1:0").expect("loopback port");
            (id, probe.local_addr().expect("local addr"))
        })
        .collect();
    let bind = |id: NodeId| {
        let codec = Arc::new(PingCodec);
        TcpTransport::bind(id, peers[&id], peers.clone(), codec).expect("bind loopback")
    };
    let (a, b) = (bind(0), bind(1));
    TcpHop {
        us: ping_pong_us(&a, &b, round_trips, || b.close()),
    }
}

/// Guards the fabric-hop row: the receive path may add at most
/// [`MAX_HOP_OVERHEAD_US`] to a hop whose message is queued ahead of
/// its due time.
fn check_fabric_hop(hop: &FabricHop) -> Vec<String> {
    let overhead = hop.rdma_us - hop.instant_us;
    if overhead <= MAX_HOP_OVERHEAD_US {
        return Vec::new();
    }
    vec![format!(
        "fabric_hop: an rdma hop costs {overhead:.1}us more than an instant one \
         ({:.1}us vs {:.1}us, limit {MAX_HOP_OVERHEAD_US}us) — receivers are \
         sleeping through the injected latency instead of polling across it",
        hop.rdma_us, hop.instant_us
    )]
}

/// `0..n` in a seeded shuffled order (Fisher–Yates over an LCG).
fn shuffled(n: usize, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n as u64).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        keys.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
    }
    keys
}

/// Median per-call ns of each metadata-table operation over a few
/// rounds, each on a fresh table filled in shuffled key order.
fn run_meta_table(quick: bool) -> MetaTableRow {
    let rounds = if quick { 5 } else { 15 };
    let order = shuffled(META_KEYS, 0x4D45_5441); // "META"
    let entry = || ObjectEntry::new(1024, 0, false);
    let per_call = |t0: Instant| t0.elapsed().as_nanos() as f64 / META_KEYS as f64;
    let mut samples = [(); 3].map(|_| Vec::with_capacity(rounds));
    for _ in 0..rounds {
        let mut meta = MetaTable::new();
        let t0 = Instant::now();
        for &key in &order {
            meta.insert(key, 1, entry());
        }
        samples[0].push(per_call(t0));
        // Reversed, the shuffled order is as cold as a fresh one.
        let t0 = Instant::now();
        for &key in order.iter().rev() {
            black_box(meta.highest(key));
        }
        samples[1].push(per_call(t0));
        for &key in &order {
            meta.insert(key, 2, entry());
        }
        let t0 = Instant::now();
        for &key in order.iter().rev() {
            black_box(meta.remove_below(key, 2));
        }
        samples[2].push(per_call(t0));
    }
    let [insert_ns, highest_ns, remove_below_ns] = samples.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    MetaTableRow {
        keys: META_KEYS,
        insert_ns,
        highest_ns,
        remove_below_ns,
    }
}

/// Guards the metadata-table row: no operation may cost more than
/// [`MAX_META_NS`] per call.
fn check_meta_table(row: &MetaTableRow) -> Vec<String> {
    let ops = [
        ("insert", row.insert_ns),
        ("highest", row.highest_ns),
        ("remove_below", row.remove_below_ns),
    ];
    ops.into_iter()
        .filter(|&(_, ns)| ns > MAX_META_NS)
        .map(|(op, ns)| {
            format!(
                "meta_table: {op} costs {ns:.0}ns per call at {} keys (limit {MAX_META_NS}ns) \
                 — a put's table work is no longer one cold hash probe",
                row.keys
            )
        })
        .collect()
}

fn run_e2e(quick: bool) -> (u64, Vec<E2eRow>) {
    let reps = if quick { 40 } else { 400 };
    let throughput_budget = Duration::from_millis(if quick { 150 } else { 1000 });
    let value_len = 1024usize;
    let cluster = paper_cluster();
    let seed = 0x52_49_4E_47; // ClusterSpec::default().seed ("RING").
    let mut rows = Vec::new();
    for scheme in ["REP1", "REP3", "SRS32"] {
        let memgest = memgest_id(scheme);
        let mut client = cluster.client();
        let key_base = u64::from(memgest) * 1_000_000;
        let put = put_latency(&mut client, memgest, value_len, reps, key_base);
        let keys: Vec<u64> = (0..reps as u64).map(|i| key_base + i).collect();
        let get = get_latency(&mut client, &keys, reps);

        // Closed-loop pipelined put throughput: one client, window 64.
        client.set_window(64);
        client.set_timeout(Duration::from_secs(2));
        let mut key = key_base + 10_000_000;
        let t0 = Instant::now();
        let mut done = 0u64;
        let value = vec![0xCDu8; value_len];
        while t0.elapsed() < throughput_budget {
            client
                .put_nb(key, &value, Some(memgest))
                .expect("pipelined put");
            key += 1;
            done += client.poll().len() as u64;
        }
        done += client.drain().len() as u64;
        let rps = done as f64 / t0.elapsed().as_secs_f64();

        println!(
            "{scheme:>6}  put p50 {:8.1}us  get p50 {:8.1}us  pipelined put {:9.0} req/s",
            put.median_us, get.median_us, rps
        );
        rows.push(E2eRow {
            scheme: scheme.to_string(),
            value_len,
            put_p50_us: put.median_us,
            get_p50_us: get.median_us,
            put_throughput_rps: rps,
        });
    }
    cluster.shutdown();
    (seed, rows)
}

/// Degraded-read tail latency vs the speculative fan-out Δ.
///
/// For each Δ ∈ {0, 1, 2}: boot the paper cluster with one spare and
/// `read_fanout_extra = Δ`, preload SRS(3,2) keys, kill coordinator 0
/// and wait for the spare's (metadata-only) promotion, then pin a
/// seeded straggler on parity node 3 — the *first-choice* redundancy
/// target of the rotation — and time one degraded get per surviving
/// victim key into an HDR histogram. With Δ = 0 every decode must hear
/// from the straggler; with Δ >= 1 the fan-out also contacts parity 4
/// and the decode binds to the first `k` rows, so the straggle drops
/// out of the tail.
fn run_tail_latency(quick: bool) -> Vec<TailRow> {
    let keys_total = if quick { 900u64 } else { 4500 };
    let straggle = StragglerSpec {
        slow_nodes: 1,
        slow_prob: 0.4,
        min_extra: Duration::from_millis(2),
        max_extra: Duration::from_millis(8),
    };
    let mut rows = Vec::new();
    for delta in [0usize, 1, 2] {
        let cluster = Cluster::start(ClusterSpec {
            spares: 1,
            read_fanout_extra: delta,
            // Generous client timeout: a straggled decode must be
            // measured as latency, not amplified into retry traffic.
            client_timeout: Duration::from_secs(2),
            ..ClusterSpec::paper_evaluation()
        });
        let seed = cluster.spec().derived_seed("bench-tail-straggler");
        let mut client = cluster.client();
        let value = vec![0xEEu8; 1024];
        let mut victims = Vec::new();
        for key in 0..keys_total {
            client
                .put_to(key, &value, memgest_id("SRS32"))
                .expect("preload");
            if cluster.coordinator_of(key) == 0 {
                victims.push(key);
            }
        }

        // Kill the coordinator and wait out the spare promotion on a
        // sacrificial probe key, so the measured gets see a promoted
        // coordinator with data holes rather than failover noise.
        cluster.kill(0);
        let probe = victims.remove(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client.get(probe) {
                Ok(_) => break,
                Err(e) if Instant::now() >= deadline => {
                    panic!("tail_latency: promotion never completed: {e:?}")
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }

        // Straggle the first-choice parity only; decisions are seeded,
        // so each Δ faces the identical slow-node schedule.
        let prof = StragglerProfile::pinned(seed, straggle, BTreeSet::from([3u32]), None);
        cluster.fabric().set_fault_injector(Arc::new(prof));

        let mut hist = LatencyHistogram::new();
        for key in victims {
            let t0 = Instant::now();
            loop {
                match client.get(key) {
                    Ok(_) => break,
                    Err(e) if Instant::now() > t0 + Duration::from_secs(30) => {
                        panic!("tail_latency: degraded get stuck at Δ={delta}: {e:?}")
                    }
                    Err(_) => {}
                }
            }
            hist.record(t0.elapsed());
        }
        let t = hist.tail_summary();
        println!(
            "  Δ={delta}  degraded get p50 {:8.1}us  p99 {:8.1}us  p999 {:8.1}us  ({} samples)",
            t.p50_us, t.p99_us, t.p999_us, t.samples
        );
        rows.push(TailRow {
            op: "get_degraded_srs32",
            delta,
            p50_us: t.p50_us,
            p99_us: t.p99_us,
            p999_us: t.p999_us,
            samples: t.samples,
        });
        cluster.shutdown();
    }
    rows
}

/// End-to-end latency over real `ring-server` processes on loopback
/// TCP: the same put/get/move measurements as the simulated-fabric
/// section, so the two transports sit side by side in the report.
///
/// Skips (returning an empty vec) when the server binaries are not
/// next to the bench executable — `cargo run -p ring-bench` does not
/// build them; `cargo build --release -p ring-server` first, or let CI
/// do it.
fn run_tcp_loopback(quick: bool) -> Vec<TcpRow> {
    if find_binary("ring-server").is_none() || find_binary("ring-cli").is_none() {
        println!(
            "tcp_loopback: skipped (ring-server / ring-cli binaries not found; \
             build them with `cargo build -p ring-server`)"
        );
        return Vec::new();
    }
    let reps = if quick { 20 } else { 200 };
    let value_len = 1024usize;
    let cluster = match LoopbackCluster::start(LoopbackSpec::default()) {
        Ok(c) => c,
        Err(e) => {
            println!("tcp_loopback: skipped (cluster failed to boot: {e})");
            return Vec::new();
        }
    };
    let mut client = cluster.client();

    // Warm up: the processes are accepting but the leader may still be
    // assembling the first epoch; retry one throwaway put until it
    // lands instead of folding startup noise into the samples.
    let warm_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.put_to(u64::MAX, &[0u8; 8], 0) {
            Ok(_) => break,
            Err(e) if Instant::now() >= warm_deadline => {
                println!("tcp_loopback: skipped (cluster never became ready: {e:?})");
                return Vec::new();
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }

    // Memgest 0 is REP(2), memgest 1 is SRS(2,1) in the default spec.
    let mut rows = Vec::new();
    for (scheme, memgest, other) in [("REP2", 0u32, 1u32), ("SRS21", 1, 0)] {
        let key_base = u64::from(memgest + 1) * 1_000_000;
        let put = put_latency(&mut client, memgest, value_len, reps, key_base);
        let keys: Vec<u64> = (0..reps as u64).map(|i| key_base + i).collect();
        let get = get_latency(&mut client, &keys, reps);
        let mv = move_latency(
            &mut client,
            memgest,
            other,
            value_len,
            reps,
            key_base + 10_000_000,
        );
        println!(
            "{scheme:>6} (tcp)  put p50 {:8.1}us p99 {:8.1}us  get p50 {:8.1}us p99 {:8.1}us  \
             move p50 {:8.1}us p99 {:8.1}us",
            put.median_us, put.p99_us, get.median_us, get.p99_us, mv.median_us, mv.p99_us
        );
        rows.push(TcpRow {
            scheme: scheme.to_string(),
            value_len,
            put_p50_us: put.median_us,
            put_p99_us: put.p99_us,
            get_p50_us: get.median_us,
            get_p99_us: get.p99_us,
            move_p50_us: mv.median_us,
            move_p99_us: mv.p99_us,
        });
    }
    drop(client);
    cluster.shutdown();
    rows
}

/// Guards the tail-latency section: the rows must exist and the
/// speculative fan-out must actually have bought its win — p999 at
/// Δ = 1 may not exceed p999 at Δ = 0, where a pinned straggler sat on
/// the only contacted parity.
fn check_tail(rows: &[TailRow]) -> Vec<String> {
    let p999 = |d: usize| rows.iter().find(|r| r.delta == d).map(|r| r.p999_us);
    match (p999(0), p999(1)) {
        (Some(d0), Some(d1)) if d1 <= d0 => Vec::new(),
        (Some(d0), Some(d1)) => vec![format!(
            "tail_latency: p999 at Δ=1 ({d1:.0}us) exceeds Δ=0 ({d0:.0}us) — \
             the speculative fan-out lost its late-binding win"
        )],
        _ => vec!["tail_latency rows for Δ=0 / Δ=1 missing".to_string()],
    }
}

/// Compares GF throughput against a baseline report, returning the
/// regressions worse than [`MAX_REGRESSION`].
fn check_against(baseline: &serde_json::Value, current: &[GfRow]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(rows) = baseline.get("gf").and_then(|g| g.as_array()) else {
        return vec!["baseline file has no `gf` section".to_string()];
    };
    for row in rows {
        let (op, len, base_mbps) = (s(row, "op"), f(row, "len") as usize, f(row, "mbps"));
        let Some(cur) = current.iter().find(|r| r.op == op && r.len == len) else {
            problems.push(format!("kernel {op}/{len} missing from this run"));
            continue;
        };
        if base_mbps > 0.0 && cur.mbps * MAX_REGRESSION < base_mbps {
            problems.push(format!(
                "{op}/{len}: {:.0} MB/s vs baseline {:.0} MB/s (> {MAX_REGRESSION}x regression)",
                cur.mbps, base_mbps
            ));
        }
    }
    problems
}

/// The `bench` subcommand: exit code 1 when `--check` finds a problem.
pub fn run(args: &Args) -> i32 {
    let quick = args.quick;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| repo_root().join("BENCH_ring.json"));

    println!(
        "GF kernel and RS(3,2) parity-update throughput ({}):",
        if quick { "quick" } else { "full" }
    );
    let gf = run_gf(quick);
    let parity_update = run_parity_update(quick);
    for r in gf.iter().chain(&parity_update) {
        println!("  {:>12} len {:>6}: {:9.0} MB/s", r.op, r.len, r.mbps);
    }
    let fabric_hop = run_fabric_hop(quick);
    println!(
        "Fabric hop (1 KiB ping-pong, one way): rdma {:.1}us  instant {:.1}us",
        fabric_hop.rdma_us, fabric_hop.instant_us
    );
    let fabric_send = run_fabric_send(quick);
    println!(
        "Fabric send (16 B, receiver not parked, <= {SEND_BATCH} queued): {:.0}ns",
        fabric_send.ns
    );
    let tcp_hop = run_tcp_hop(quick);
    println!(
        "TCP hop (1 KiB ping-pong over loopback, one way): {:.1}us",
        tcp_hop.us
    );
    let meta_table = run_meta_table(quick);
    println!(
        "Metadata table ({} keys, shuffled, per call): insert {:.0}ns  highest {:.0}ns  \
         remove_below {:.0}ns",
        meta_table.keys, meta_table.insert_ns, meta_table.highest_ns, meta_table.remove_below_ns
    );
    let (seed, e2e) = run_e2e(quick);
    println!("Degraded-read tail latency (straggling parity, k+Δ fan-out):");
    let tail_latency = run_tail_latency(quick);
    println!("TCP loopback (real ring-server processes):");
    let tcp_loopback = run_tcp_loopback(quick);

    let report = Report {
        schema: 1,
        seed,
        smoke: quick,
        gf,
        parity_update,
        fabric_hop,
        fabric_send,
        tcp_hop,
        meta_table,
        e2e,
        tail_latency,
        tcp_loopback,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").expect("write BENCH_ring.json");
    println!("wrote {}", out.display());

    let Some(path) = &args.check else {
        return 0;
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let baseline: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad baseline JSON: {e}"));
    let mut problems = check_against(&baseline, &report.gf);
    problems.extend(check_fabric_hop(&report.fabric_hop));
    problems.extend(check_fabric_send(&report.fabric_send));
    problems.extend(check_meta_table(&report.meta_table));
    problems.extend(check_tail(&report.tail_latency));
    if problems.is_empty() {
        println!("check vs {}: ok", path.display());
        return 0;
    }
    eprintln!("bench check failed:");
    for p in &problems {
        eprintln!("  {p}");
    }
    1
}
