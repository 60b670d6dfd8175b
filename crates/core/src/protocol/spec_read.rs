//! The late-binding degraded read of one lost SRS heap range, as a pure
//! state machine (Hydra-style `k + Δ` speculation, DESIGN §8.5).
//!
//! [`SpecRead::plan`] names the `ShardRead`s to send: the `k - 1`
//! surviving lane blocks from the peer coordinators plus the matching
//! parity bytes from `1 + Δ` parity nodes, the rest held in reserve.
//! [`SpecRead::on_response`] consumes one answer and says what to do
//! next — wait, ask a promoted reserve parity, or install the decoded
//! bytes. It is the only decoder of a lost SRS range. A read that can no
//! longer reach `k` rows per segment just waits: the node expires it and
//! re-plans at its next fetch attempt, against the rotated parity set.
//! The machine never sends, allocates tokens or reads a clock: the node
//! does that around it, and a test can feed it stripe rows by hand.

use std::collections::{BTreeMap, BTreeSet};

use ring_erasure::{Rs, Segment, SrsLayout};
use ring_net::{NodeId, Payload};

use super::steps;

/// One `ShardRead` the machine wants sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ask {
    /// The node to ask.
    pub to: NodeId,
    /// Whether the ranges address its parity region (vs. its data heap).
    pub parity: bool,
    /// Requested `(addr, len)` ranges; the answer is their concatenation.
    pub ranges: Vec<(usize, usize)>,
}

/// What the node does after feeding one response to the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Still short of `k` rows for some segment; keep waiting — also
    /// when no reserve is left to reach them, until the node expires the
    /// read.
    Wait,
    /// A contacted peer declined: send these to the promoted reserves.
    Ask(Vec<Ask>),
    /// Every segment had `k` distinct rows: the lost range's bytes.
    Decoded(Vec<u8>),
}

/// One contacted peer: which stripe rows it serves and the exact byte
/// ranges requested (its response is their concatenation, in order).
#[derive(Debug)]
struct SpecPeer {
    /// `(segment index, stripe row)` per requested range. Rows `< k` are
    /// data sources; row `k + p` is parity node `p`.
    parts: Vec<(usize, usize)>,
    /// Requested `(addr, len)` ranges, parallel to `parts`.
    ranges: Vec<(usize, usize)>,
    parity: bool,
}

impl SpecPeer {
    /// Parity node `p_idx` serves row `k + p_idx` of every segment.
    fn parity(segs: &[Segment], k: usize, p_idx: usize) -> SpecPeer {
        SpecPeer {
            parts: (0..segs.len()).map(|i| (i, k + p_idx)).collect(),
            ranges: segs.iter().map(|s| (s.parity_addr, s.len)).collect(),
            parity: true,
        }
    }

    fn ask(&self, to: NodeId) -> Ask {
        Ask {
            to,
            parity: self.parity,
            ranges: self.ranges.clone(),
        }
    }
}

/// An in-flight speculative `k + Δ` shard read.
#[derive(Debug)]
pub struct SpecRead {
    /// Lost range in the requesting coordinator's heap.
    addr: usize,
    len: usize,
    /// SRS segments covering the lost range.
    segs: Vec<Segment>,
    /// Stripe width `k`: rows needed per segment to decode.
    k: usize,
    /// Peers contacted, with their expected response layout.
    peers: BTreeMap<NodeId, SpecPeer>,
    /// Responses received so far (raw concatenated range bytes).
    responses: BTreeMap<NodeId, Payload>,
    /// Peers that declined (rebuilding / holes) or answered garbage.
    declined: BTreeSet<NodeId>,
    /// Parity nodes held in reserve as `(parity index, node)`; promoted
    /// one at a time when a contacted peer declines.
    reserve: Vec<(usize, NodeId)>,
}

impl SpecRead {
    /// Plans the read of `[addr, addr + len)` of data node `shard`'s
    /// heap. `coordinators[i]` serves data node `i`; `parity_nodes[p]` is
    /// parity node `p`. Contacts every surviving lane peer (each data row
    /// has a single possible server) plus `fanout` parity nodes rotated
    /// by `attempt`, so a dead or rebuilding parity cannot wedge retries.
    /// `None` when there is nothing to fan out (empty range, no parity).
    // tla: DegradedBind
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        layout: &SrsLayout,
        shard: usize,
        addr: usize,
        len: usize,
        coordinators: &[NodeId],
        parity_nodes: &[NodeId],
        fanout: usize,
        attempt: u8,
    ) -> Option<(SpecRead, Vec<Ask>)> {
        let segs = layout.split_range(shard, addr, len);
        if segs.is_empty() || parity_nodes.is_empty() {
            return None;
        }
        let k = layout.code().params().k;
        let mut peers: BTreeMap<NodeId, SpecPeer> = BTreeMap::new();
        for (i, seg) in segs.iter().enumerate() {
            for j in (0..k).filter(|&j| j != seg.source) {
                let (peer_idx, peer_addr) = layout.peer_addr(seg, j);
                let p = peers
                    .entry(coordinators[peer_idx])
                    .or_insert_with(|| SpecPeer {
                        parts: Vec::new(),
                        ranges: Vec::new(),
                        parity: false,
                    });
                p.parts.push((i, j));
                p.ranges.push((peer_addr, seg.len));
            }
        }
        let mut reserve = Vec::new();
        for c in 0..parity_nodes.len() {
            let p_idx = (attempt as usize + c) % parity_nodes.len();
            if c < fanout {
                peers.insert(parity_nodes[p_idx], SpecPeer::parity(&segs, k, p_idx));
            } else {
                reserve.push((p_idx, parity_nodes[p_idx]));
            }
        }
        let asks = peers.iter().map(|(&node, p)| p.ask(node)).collect();
        let read = SpecRead {
            addr,
            len,
            segs,
            k,
            peers,
            responses: BTreeMap::new(),
            declined: BTreeSet::new(),
            reserve,
        };
        Some((read, asks))
    }

    /// The lost range `(addr, len)` this read recovers.
    // tla: DegradedBind
    pub fn range(&self) -> (usize, usize) {
        (self.addr, self.len)
    }

    /// Feeds one `ShardReadResp` from `from`. Responses from nodes never
    /// asked and duplicate deliveries change nothing; `None` or a wrong
    /// length counts as a decline. Decodes the moment every segment has
    /// `k` distinct stripe rows among the arrived responses; otherwise
    /// promotes reserve parities until `k` rows per segment are still
    /// reachable without the decliners, or, with none left, waits.
    // tla: DegradedBind
    pub fn on_response(&mut self, rs: &Rs, from: NodeId, bytes: Option<Payload>) -> Outcome {
        let Some(peer) = self.peers.get(&from) else {
            return Outcome::Wait;
        };
        if self.responses.contains_key(&from) || self.declined.contains(&from) {
            return Outcome::Wait;
        }
        let expected: usize = peer.ranges.iter().map(|&(_, len)| len).sum();
        match bytes {
            Some(b) if b.len() == expected => {
                self.responses.insert(from, b);
                if let Some(decoded) = self.decode(rs) {
                    return Outcome::Decoded(decoded);
                }
            }
            _ => {
                self.declined.insert(from);
            }
        }
        let mut asks = Vec::new();
        while !self.feasible() {
            let Some((p_idx, node)) = self.reserve.pop() else {
                return Outcome::Wait;
            };
            let peer = SpecPeer::parity(&self.segs, self.k, p_idx);
            asks.push(peer.ask(node));
            self.peers.insert(node, peer);
        }
        if asks.is_empty() {
            Outcome::Wait
        } else {
            Outcome::Ask(asks)
        }
    }

    /// Whether the peers that have not declined can still supply `k`
    /// rows for every segment.
    fn feasible(&self) -> bool {
        let live: Vec<&[(usize, usize)]> = self
            .peers
            .iter()
            .filter(|(node, _)| !self.declined.contains(node))
            .map(|(_, peer)| peer.parts.as_slice())
            .collect();
        steps::spec_read_feasible(self.segs.len(), self.k, &live)
    }

    /// The late-binding decode; `None` while any segment is short of `k`
    /// rows.
    fn decode(&self, rs: &Rs) -> Option<Vec<u8>> {
        let mut out = vec![0u8; self.len];
        for (i, seg) in self.segs.iter().enumerate() {
            let mut have: Vec<(usize, &[u8])> = Vec::new();
            for (node, payload) in &self.responses {
                let peer = &self.peers[node];
                let mut off = 0usize;
                for (&(si, row), &(_, rlen)) in peer.parts.iter().zip(&peer.ranges) {
                    if si == i {
                        have.push((row, &payload[off..off + rlen]));
                    }
                    off += rlen;
                }
            }
            let bytes = rs.recover_source(seg.source, &have).ok()?;
            let off = seg.data_addr - self.addr;
            out[off..off + seg.len].copy_from_slice(&bytes);
        }
        Some(out)
    }
}
