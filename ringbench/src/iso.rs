//! Isolated micro-timings of single public functions at the workload's
//! sizes: what one call into a layer costs with nothing else running.
//! Each row is the median of [`BATCHES`] timed batches.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ring_erasure::Rs;
use ring_gf::{region, Gf256};
use ring_kvs::protocol::steps::{read_decision, AckState, ReadEntry};
use ring_kvs::storage::{Heap, MetaTable, ObjectEntry};
use ring_net::{Fabric, LatencyModel, WireSize};

use crate::stats::Summary;
use crate::workload::Workload;

const BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(20);
/// Erasure rows run on the paper's largest object.
const ERASURE_BLOCK: usize = 2048;
/// GF rows run on the region size `BENCH_ring.json` records.
const GF_REGION: usize = 4096;
/// `storage.heap_grow_ms_max` grows a heap from 4 KiB to this.
const HEAP_GROW_TO: usize = 1 << 30;
const PING_PONGS: usize = 2000;

/// Median over [`BATCHES`] runs of `batch`.
fn median_of_batches(batch: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = std::iter::repeat_with(batch).take(BATCHES).collect();
    Summary::of(&values).expect("at least one batch").median
}

/// Median ns per call of `f` over timed batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    median_of_batches(|| {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < BATCH {
            for _ in 0..16 {
                f();
            }
            calls += 16;
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    })
}

#[derive(Clone)]
struct Ping(Vec<u8>);

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

/// One-way µs of a 1 KiB message between two endpoints on two threads:
/// half the median ping-pong round trip.
fn hop_us(latency: LatencyModel) -> f64 {
    let fabric: Fabric<Ping> = Fabric::new(latency);
    let a = fabric.register(0).expect("fresh fabric");
    let b = fabric.register(1).expect("fresh fabric");
    let echo = std::thread::spawn(move || {
        while let Ok((from, msg)) = b.recv() {
            if b.send(from, msg).is_err() {
                break;
            }
        }
    });
    let per_batch = PING_PONGS / BATCHES;
    let one_way = median_of_batches(|| {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            a.send(1, Ping(vec![7; 1024])).expect("echo is registered");
            a.recv().expect("echo answers");
        }
        t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64 / 2.0
    });
    fabric.kill(1);
    echo.join().expect("echo thread");
    one_way
}

/// Slowest single `Heap::alloc` in ms while the heap doubles its way up.
fn heap_grow_ms_max(alloc: usize) -> f64 {
    let mut heap = Heap::new(4096);
    let mut worst = Duration::ZERO;
    while heap.len() < HEAP_GROW_TO {
        let t0 = Instant::now();
        black_box(heap.alloc(alloc));
        worst = worst.max(t0.elapsed());
    }
    worst.as_secs_f64() * 1e3
}

/// Measures every isolated row at `w`'s value size: `(metric, value)`.
pub fn measure(w: &Workload) -> Vec<(&'static str, f64)> {
    let value = vec![0x5Au8; w.value_len];

    let mut heap = Heap::new(1 << 20);
    let slots = (1 << 20) / w.value_len;
    for _ in 0..slots {
        heap.alloc(w.value_len);
    }
    let mut slot = 0;
    let heap_write_delta_ns = ns_per_call(|| {
        slot = (slot + 1) % slots;
        black_box(heap.write_delta(slot * w.value_len, black_box(&value)));
    });

    // Insert: fill a fresh table to the workload's key count. Lookup:
    // random keys of the full table.
    let mut meta = MetaTable::new();
    let meta_insert_ns = median_of_batches(|| {
        meta = MetaTable::new();
        let t0 = Instant::now();
        for key in 0..w.keys as u64 {
            meta.insert(key, 1, ObjectEntry::new(w.value_len, 0, false));
        }
        t0.elapsed().as_nanos() as f64 / w.keys as f64
    });
    let mut key = 0u64;
    let meta_highest_ns = ns_per_call(|| {
        key = key
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        black_box(meta.highest((key >> 33) % w.keys as u64));
    });

    let rs = Rs::new(3, 2).expect("RS(3,2) is valid");
    let blocks = [0xC3u8, 0x3C, 0x69].map(|fill| vec![fill; ERASURE_BLOCK]);
    let parity_delta_ns = ns_per_call(|| {
        black_box(rs.parity_delta(1, 0, black_box(&blocks[0])));
    });
    let mut parity = rs
        .encode(&[&blocks[0], &blocks[1], &blocks[2]])
        .expect("equal-length blocks");
    let apply_parity_delta_ns =
        ns_per_call(|| Rs::apply_parity_delta(&mut parity[1], black_box(&blocks[0])));
    // Source 0 lost: decode it from sources 1, 2 and parity 0.
    let have: [(usize, &[u8]); 3] = [(1, &blocks[1]), (2, &blocks[2]), (3, &parity[0])];
    let recover_source_ns = ns_per_call(|| {
        black_box(rs.recover_source(0, black_box(&have)).expect("k shards"));
    });

    let src = vec![0x5Au8; GF_REGION];
    let mut dst = vec![0xA5u8; GF_REGION];
    let mbps = |ns: f64| GF_REGION as f64 / ns * 1e3;
    let c = Gf256(0x1D);
    let mul_acc_mbps = mbps(ns_per_call(|| {
        region::mul_acc(&mut dst, black_box(&src), c)
    }));
    let xor_into_mbps = mbps(ns_per_call(|| region::xor_into(&mut dst, black_box(&src))));

    let entry = ReadEntry {
        committed: true,
        tombstone: false,
        data_present: true,
    };
    let ack_cycle_ns = ns_per_call(|| {
        let mut acks = AckState::open(black_box([3, 4]), 2);
        black_box(acks.apply_ack(3));
        black_box(acks.apply_ack(4));
    });
    let read_decision_ns = ns_per_call(|| {
        black_box(read_decision(black_box(&entry)));
    });
    vec![
        ("net.hop_rdma_us", hop_us(LatencyModel::rdma())),
        ("net.hop_instant_us", hop_us(LatencyModel::instant())),
        ("steps.ack_cycle_ns", ack_cycle_ns),
        ("steps.read_decision_ns", read_decision_ns),
        ("storage.heap_write_delta_ns", heap_write_delta_ns),
        ("storage.heap_grow_ms_max", heap_grow_ms_max(w.value_len)),
        ("storage.meta_insert_ns", meta_insert_ns),
        ("storage.meta_highest_ns", meta_highest_ns),
        ("erasure.parity_delta_ns", parity_delta_ns),
        ("erasure.apply_parity_delta_ns", apply_parity_delta_ns),
        ("erasure.recover_source_ns", recover_source_ns),
        ("gf.mul_acc_mbps", mul_acc_mbps),
        ("gf.xor_into_mbps", xor_into_mbps),
    ]
}
