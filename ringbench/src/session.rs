//! The generator side of a run: one thread, one `RingClient`, closed
//! loop. Issues the seeded ops through the pipelined API, verifies every
//! completion against the ledger, and logs per-op samples when asked.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use ring_kvs::proto::Msg;
use ring_kvs::{ClientResp, Completion, ReqId, RingClient};
use ring_net::Transport;

use crate::trace::Span;
use crate::workload::{preload_order, Ledger, Op, OpGen, Stamper, Workload};

/// In-flight requests in the throughput phase.
pub const WINDOW: usize = 16;
/// In-flight puts while set-up loads the keys.
const PRELOAD_WINDOW: usize = 32;

/// Per-op samples of one traced round.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Issue-to-completion latency per op type.
    pub put_ns: Vec<u32>,
    pub get_ns: Vec<u32>,
    /// Time inside `put_nb`/`get_nb` when the window had room.
    pub submit_ns: Vec<u32>,
    /// Time inside `poll`.
    pub poll_ns: Vec<u32>,
    pub spans: Vec<Span>,
}

/// A request the generator is waiting on.
struct Pending {
    op: Op,
    /// Put: its sequence number. Get: the ledger floor when issued.
    mark: u64,
    submit_start: Instant,
    submit_end: Instant,
}

/// Bytes the nodes hold and the ops they have served, summed from
/// `RingClient::node_stats` over the data nodes.
#[derive(Debug, Clone, Default)]
pub struct StoreTotals {
    /// data + replica + parity + metadata bytes.
    pub bytes: u64,
    pub meta_bytes: u64,
    pub puts: u64,
    pub redundancy_updates: u64,
    /// puts + gets per coordinator.
    pub coord_ops: Vec<u64>,
}

pub struct Session<'a, T: Transport<Msg>> {
    w: &'a Workload,
    keys: usize,
    client: RingClient<T>,
    /// Span timestamps count from here.
    epoch: Instant,
    ledger: Ledger,
    stamper: Stamper,
    pending: HashMap<ReqId, Pending>,
    /// Value bytes of acknowledged puts.
    pub put_bytes: u64,
    /// Operations issued (stats requests included).
    pub attempted: u64,
    /// Errors, timeouts and verification failures among them.
    pub failed: u64,
    pub first_failure: Option<String>,
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

impl<'a, T: Transport<Msg>> Session<'a, T> {
    pub fn new(w: &'a Workload, keys: usize, client: RingClient<T>, epoch: Instant) -> Self {
        Session {
            w,
            keys,
            client,
            epoch,
            ledger: Ledger::new(keys),
            stamper: Stamper::new(w.value_len),
            pending: HashMap::new(),
            put_bytes: 0,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    pub fn client_id(&self) -> ring_net::NodeId {
        self.client.id()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Issues `op` through the pipelined API (blocks inside the client
    /// while the window is full).
    fn issue(&mut self, op: Op, log: Option<&mut RoundLog>) {
        self.attempted += 1;
        let window_has_room = self.client.in_flight() < WINDOW;
        let (mark, submit_start, sent) = match op {
            Op::Put(k) => {
                let seq = self.ledger.issue_put(k);
                let value = self.stamper.value(u64::from(k), seq);
                let t0 = Instant::now();
                let sent = self
                    .client
                    .put_nb(u64::from(k), value, Some(self.w.memgest));
                (seq, t0, sent)
            }
            Op::Get(k) => {
                let floor = self.ledger.floor(k);
                let t0 = Instant::now();
                (floor, t0, self.client.get_nb(u64::from(k)))
            }
        };
        let submit_end = Instant::now();
        match sent {
            Ok(req) => {
                // A submit that had to wait for a slot times the wait,
                // not the submit path.
                if let (true, Some(log)) = (window_has_room, log) {
                    log.submit_ns.push(ns(submit_end - submit_start));
                }
                let pending = Pending {
                    op,
                    mark,
                    submit_start,
                    submit_end,
                };
                self.pending.insert(req, pending);
            }
            Err(e) => self.fail(format!("{op:?}: submit failed: {e}")),
        }
    }

    /// Checks one completion against the ledger and logs its latency.
    fn finish(&mut self, (req, result): Completion, done: Instant, log: Option<&mut RoundLog>) {
        let Some(p) = self.pending.remove(&req) else {
            return self.fail(format!("completion for unknown request {req}"));
        };
        let is_get = match (p.op, result) {
            (Op::Put(k), Ok(ClientResp::PutOk { .. })) => {
                self.ledger.ack_put(k, p.mark);
                self.put_bytes += self.w.value_len as u64;
                false
            }
            (Op::Get(k), Ok(ClientResp::GetOk { value, .. })) => {
                match self.stamper.sequence_of(u64::from(k), value.as_slice()) {
                    Some(seq) if self.ledger.admits(k, p.mark, seq) => {}
                    Some(seq) => self.fail(format!(
                        "get({k}) returned sequence {seq}; {} was acknowledged before it was issued",
                        p.mark
                    )),
                    None => self.fail(format!("get({k}) returned bytes that are not key {k}'s")),
                }
                true
            }
            (op, Ok(other)) => return self.fail(format!("{op:?}: unexpected response {other:?}")),
            (op, Err(e)) => return self.fail(format!("{op:?}: {e}")),
        };
        if let Some(log) = log {
            let latency = ns(done - p.submit_start);
            if is_get {
                log.get_ns.push(latency);
            } else {
                log.put_ns.push(latency);
            }
            let since_epoch = |t: Instant| (t - self.epoch).as_nanos() as u64;
            log.spans.push(Span {
                req,
                is_get,
                submit_start_ns: since_epoch(p.submit_start),
                submit_end_ns: since_epoch(p.submit_end),
                done_ns: since_epoch(done),
            });
        }
    }

    fn finish_all(&mut self, done: Vec<Completion>, mut log: Option<&mut RoundLog>) {
        if done.is_empty() {
            return;
        }
        let now = Instant::now();
        for completion in done {
            self.finish(completion, now, log.as_deref_mut());
        }
    }

    /// Loads every key once, in the seed's order.
    pub fn preload(&mut self, seed: u64) {
        self.client.set_window(PRELOAD_WINDOW);
        for k in preload_order(self.keys, seed) {
            self.issue(Op::Put(k), None);
            let done = self.client.poll();
            self.finish_all(done, None);
        }
        let done = self.client.drain();
        self.finish_all(done, None);
    }

    /// Window-1 round: alternately put one key and get another, each
    /// drawn uniformly. Returns the ops issued.
    pub fn latency_round(&mut self, rng: &mut StdRng, dur: Duration, log: &mut RoundLog) -> u64 {
        self.client.set_window(1);
        let end = Instant::now() + dur;
        let mut ops = 0;
        while Instant::now() < end {
            let k = rng.gen_range(0..self.keys as u32);
            let op = if ops % 2 == 0 { Op::Put(k) } else { Op::Get(k) };
            self.issue(op, None);
            let done = self.client.drain();
            self.finish_all(done, Some(log));
            ops += 1;
        }
        ops
    }

    /// Window-16 round over the workload's own mix. The generator never
    /// busy-polls: with a full window it blocks inside `put_nb`/`get_nb`.
    /// The round ends with the window drained, so every op it issued is
    /// counted and verified inside it. Returns the ops issued.
    pub fn throughput_round(
        &mut self,
        gen: &mut OpGen,
        dur: Duration,
        mut log: Option<&mut RoundLog>,
    ) -> u64 {
        self.client.set_window(WINDOW);
        let before = self.attempted;
        let end = Instant::now() + dur;
        while Instant::now() < end {
            self.issue(gen.next_op(), log.as_deref_mut());
            let t0 = Instant::now();
            let done = self.client.poll();
            if let Some(log) = log.as_deref_mut() {
                log.poll_ns.push(ns(t0.elapsed()));
            }
            self.finish_all(done, log.as_deref_mut());
        }
        let done = self.client.drain();
        self.finish_all(done, log);
        self.attempted - before
    }

    /// Sums `RingClient::node_stats` over the data nodes; `None` (and a
    /// counted failure) if a node does not answer.
    pub fn store_totals(&mut self) -> Option<StoreTotals> {
        let config = self.client.config();
        let (s, nodes) = (config.s, config.nodes.clone());
        let mut t = StoreTotals::default();
        for (i, node) in nodes.into_iter().enumerate() {
            self.attempted += 1;
            let stats = match self.client.node_stats(node) {
                Ok(stats) => stats,
                Err(e) => {
                    self.fail(format!("node_stats({node}): {e}"));
                    return None;
                }
            };
            let meta = stats.meta_bytes() as u64;
            t.bytes += (stats.data_bytes() + stats.redundancy_bytes()) as u64 + meta;
            t.meta_bytes += meta;
            t.puts += stats.ops.puts;
            t.redundancy_updates += stats.ops.redundancy_updates;
            if i < s {
                t.coord_ops.push(stats.ops.puts + stats.ops.gets);
            }
        }
        Some(t)
    }
}
