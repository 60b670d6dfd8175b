//! The four named workloads, their seeded operation streams, and the
//! value stamps that let every get be verified.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ring_kvs::MemgestId;
use ring_workload::ScrambledZipfian;

/// Which cluster a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `ring_kvs::Cluster`: node threads on the simulated fabric with
    /// `LatencyModel::rdma()` (1.5 µs + 1 ns/B injected per hop),
    /// `ClusterSpec::paper_evaluation()` (3 coordinators, 2 redundant
    /// nodes, leader).
    Fabric,
    /// `ring_server::harness::LoopbackCluster`: real `ring-server`
    /// processes over loopback TCP (`s = 2`, `d = 1`, no spares), no
    /// injected delay.
    Tcp,
}

/// How keys are drawn in the throughput phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    Uniform,
    /// YCSB's scrambled Zipfian (θ = 0.99).
    ScrambledZipfian,
}

/// One benchmark workload. Names are fixed: later performance claims
/// cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    pub backend: Backend,
    /// Memgest every key lives in.
    pub memgest: MemgestId,
    pub value_len: usize,
    /// Keys preloaded once during set-up and then overwritten/read.
    pub keys: usize,
    /// Share of gets in the throughput phase.
    pub get_frac: f64,
    pub dist: KeyDist,
}

/// Memgest ids of `ClusterSpec::paper_evaluation()`.
const FABRIC_REP3: MemgestId = 2;
const FABRIC_SRS32: MemgestId = 6;
/// Memgest id of REP2 in the loopback spec (`[rep(2), srs(2,1)]`).
const TCP_REP2: MemgestId = 0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fabric_rep3_write",
        why: "REP3 1 KiB overwrites on the simulated fabric: fan-out, acks and mailbox wakeups only; bypasses heap, erasure and gf",
        backend: Backend::Fabric,
        memgest: FABRIC_REP3,
        value_len: 1024,
        keys: 20_000,
        get_frac: 0.0,
        dist: KeyDist::Uniform,
    },
    Workload {
        name: "fabric_srs32_write",
        why: "same messages and 1 KiB values as fabric_rep3_write but SRS(3,2): adds heap alloc/write_delta, parity GF work and an append-only heap",
        backend: Backend::Fabric,
        memgest: FABRIC_SRS32,
        value_len: 1024,
        keys: 20_000,
        get_frac: 0.0,
        dist: KeyDist::Uniform,
    },
    Workload {
        name: "fabric_srs32_read",
        why: "YCSB-B 95:5 scrambled-Zipfian over 100k SRS32 keys: two-hop gets from one coordinator, hot keys wait behind uncommitted puts",
        backend: Backend::Fabric,
        memgest: FABRIC_SRS32,
        value_len: 1024,
        keys: 100_000,
        get_frac: 0.95,
        dist: KeyDist::ScrambledZipfian,
    },
    Workload {
        name: "tcp_rep2_mixed",
        why: "YCSB-A 50:50 uniform REP2 against real ring-server processes over loopback TCP: wire framing and net::tcp, no mailbox delay",
        backend: Backend::Tcp,
        memgest: TCP_REP2,
        value_len: 1024,
        keys: 20_000,
        get_frac: 0.5,
        dist: KeyDist::Uniform,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated operation on key index `0..keys`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put(u32),
    Get(u32),
}

/// Decorrelates the streams drawn from one `--seed` (splitmix64 over
/// the seed and a stream tag).
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The order in which set-up loads the keys: a seeded shuffle of
/// `0..keys`.
pub fn preload_order(keys: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(stream_seed(seed, 1)));
    order
}

/// The seeded operation stream of a workload's throughput phase (also
/// used for the warm-up). The program under test only ever sees the ops
/// this yields.
#[derive(Debug)]
pub struct OpGen {
    rng: StdRng,
    zipf: Option<ScrambledZipfian>,
    keys: u64,
    get_frac: f64,
}

impl OpGen {
    pub fn new(w: &Workload, keys: usize, seed: u64) -> OpGen {
        OpGen {
            rng: StdRng::seed_from_u64(stream_seed(seed, 2)),
            zipf: (w.dist == KeyDist::ScrambledZipfian).then(|| ScrambledZipfian::new(keys as u64)),
            keys: keys as u64,
            get_frac: w.get_frac,
        }
    }

    /// FNV-1a digest of the next `n` ops, for the determinism tests.
    pub fn digest(mut self, n: usize) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for _ in 0..n {
            let word = match self.next_op() {
                Op::Put(k) => u64::from(k) << 1,
                Op::Get(k) => u64::from(k) << 1 | 1,
            };
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    pub fn next_op(&mut self) -> Op {
        let is_get = self.get_frac > 0.0 && self.rng.gen_bool(self.get_frac);
        let key = match &self.zipf {
            Some(z) => z.next(&mut self.rng),
            None => self.rng.gen_range(0..self.keys),
        } as u32;
        if is_get {
            Op::Get(key)
        } else {
            Op::Put(key)
        }
    }
}

/// Bytes of `(key, sequence)` stamped at the head of every value.
const STAMP_LEN: usize = 16;

/// Builds and checks stamped values: `key ‖ seq ‖ fixed filler`. The
/// filler is position-dependent so a shifted, truncated or cross-wired
/// stripe fails the comparison, not only a wrong header.
#[derive(Debug)]
pub struct Stamper {
    buf: Vec<u8>,
}

impl Stamper {
    pub fn new(value_len: usize) -> Stamper {
        assert!(value_len >= STAMP_LEN, "value too short for a stamp");
        Stamper {
            buf: (0..value_len).map(|i| (i * 131 + 17) as u8).collect(),
        }
    }

    /// The value for `key` at `seq`; valid until the next call.
    pub fn value(&mut self, key: u64, seq: u64) -> &[u8] {
        self.buf[..8].copy_from_slice(&key.to_le_bytes());
        self.buf[8..STAMP_LEN].copy_from_slice(&seq.to_le_bytes());
        &self.buf
    }

    /// The sequence number stamped in `bytes` if they are a well-formed
    /// value of `key`.
    pub fn sequence_of(&self, key: u64, bytes: &[u8]) -> Option<u64> {
        if bytes.len() != self.buf.len()
            || bytes[..8] != key.to_le_bytes()
            || bytes[STAMP_LEN..] != self.buf[STAMP_LEN..]
        {
            return None;
        }
        Some(u64::from_le_bytes(bytes[8..STAMP_LEN].try_into().ok()?))
    }
}

/// Per-key sequence numbers: what has been issued and what has been
/// acknowledged, which bound what a correct get may return.
#[derive(Debug)]
pub struct Ledger {
    issued: Vec<u64>,
    acked: Vec<u64>,
}

impl Ledger {
    pub fn new(keys: usize) -> Ledger {
        Ledger {
            issued: vec![0; keys],
            acked: vec![0; keys],
        }
    }

    /// Next sequence number for a put on `key`.
    pub fn issue_put(&mut self, key: u32) -> u64 {
        let seq = &mut self.issued[key as usize];
        *seq += 1;
        *seq
    }

    pub fn ack_put(&mut self, key: u32, seq: u64) {
        let acked = &mut self.acked[key as usize];
        *acked = (*acked).max(seq);
    }

    /// Lowest sequence a get issued now may return: the last put
    /// acknowledged before it.
    pub fn floor(&self, key: u32) -> u64 {
        self.acked[key as usize]
    }

    /// Whether a get that was issued at `floor` may return `seq`: no
    /// older than what was acknowledged then, no newer than what has
    /// been issued by now.
    pub fn admits(&self, key: u32, floor: u64, seq: u64) -> bool {
        floor <= seq && seq <= self.issued[key as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        for w in &WORKLOADS {
            let d = |seed| OpGen::new(w, w.keys, seed).digest(10_000);
            assert_eq!(d(7), d(7), "{}", w.name);
            assert_ne!(d(7), d(8), "{}", w.name);
            assert_eq!(preload_order(w.keys, 7), preload_order(w.keys, 7));
            assert_ne!(preload_order(w.keys, 7), preload_order(w.keys, 8));
        }
    }

    #[test]
    fn op_mix_follows_the_workload() {
        for w in &WORKLOADS {
            let mut gen = OpGen::new(w, w.keys, 3);
            let n = 20_000;
            let gets = (0..n)
                .filter(|_| matches!(gen.next_op(), Op::Get(_)))
                .count();
            let frac = gets as f64 / n as f64;
            assert!((frac - w.get_frac).abs() < 0.02, "{}: {frac}", w.name);
        }
    }

    #[test]
    fn preload_touches_every_key_once() {
        let mut order = preload_order(1000, 5);
        order.sort_unstable();
        assert_eq!(order, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn stamps_round_trip_and_reject_damage() {
        let mut s = Stamper::new(64);
        let v = s.value(9, 4).to_vec();
        assert_eq!(s.sequence_of(9, &v), Some(4));
        assert_eq!(s.sequence_of(8, &v), None, "other key");
        assert_eq!(s.sequence_of(9, &v[..63]), None, "truncated");
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert_eq!(s.sequence_of(9, &bad), None, "flipped filler bit");
        let mut shifted = v.clone();
        shifted[16..].rotate_left(1);
        assert_eq!(s.sequence_of(9, &shifted), None, "shifted stripe");
    }

    #[test]
    fn ledger_bounds_what_a_get_may_return() {
        let mut l = Ledger::new(4);
        assert_eq!(l.issue_put(2), 1);
        l.ack_put(2, 1);
        assert_eq!(l.issue_put(2), 2);
        let floor = l.floor(2);
        assert_eq!(floor, 1);
        assert!(l.admits(2, floor, 1), "acked value");
        assert!(l.admits(2, floor, 2), "in-flight value");
        assert!(!l.admits(2, floor, 0), "stale");
        assert!(!l.admits(2, floor, 3), "from the future");
        l.ack_put(2, 2);
        l.ack_put(2, 1);
        assert_eq!(
            l.floor(2),
            2,
            "late ack of an older put never lowers the floor"
        );
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(by_name("nope").is_none());
    }
}
