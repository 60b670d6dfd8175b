//! Pure transition functions of the per-item write path.
//!
//! Each public function mirrors exactly one action of
//! `crates/model/specs/RingWriteSemantics.tla`; the `// tla: <Action>`
//! marker above every function names that action and is checked by
//! ring-lint's `model-drift` rule against the spec text. The node calls
//! these from its message handlers; the model checker calls the same
//! functions from its successor generator, so the implementation and
//! the explored transition system cannot silently diverge on the
//! commit-flag, dedup, read-binding or degraded-read decisions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ring_net::NodeId;

use crate::types::{Scheme, Version};

// ---- Versioning ----

/// Version assigned to a fresh write of a key: one above the highest
/// version the volatile table knows, starting from 1. Versions are
/// never renumbered — a crashed coordinator's recovered table resumes
/// from the highest surviving version.
// tla: CoordPrepare
pub fn next_version(highest: Option<Version>) -> Version {
    highest.map(|v| v + 1).unwrap_or(1)
}

/// Number of redundancy acknowledgements a write must gather before its
/// commit flag may be set: `r - 1` replicas under synchronous
/// replication, the paper's half-round-trip quorum otherwise, and every
/// parity node for SRS (a parity update lost before commit would leave
/// the stripe undecodable). Zero means the write commits immediately
/// (unreliable memgest, Section 5.2).
// tla: CoordPrepare
pub fn acks_needed(scheme: Scheme, sync_replication: bool) -> usize {
    match scheme {
        Scheme::Rep { r } if sync_replication => r.saturating_sub(1),
        _ => scheme.acks_to_commit(),
    }
}

// ---- Redundancy acknowledgements ----

/// Acknowledgement progress of one uncommitted write: which redundancy
/// nodes have not answered yet, and how many of those answers are still
/// required before the commit flag may be set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AckState {
    /// Nodes whose ack has not arrived yet.
    pub outstanding: BTreeSet<NodeId>,
    /// Acks still required before commit (quorum for Rep, all for SRS).
    pub needed: usize,
}

/// Result of feeding one redundancy acknowledgement into an
/// [`AckState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// Duplicate or unknown sender; the state is unchanged.
    Ignored,
    /// Counted, but the write still waits for more acks.
    Counted,
    /// The last required ack: set the commit flag now.
    Commit,
}

impl AckState {
    /// Opens ack tracking for a write fanned out to `targets`.
    // tla: CoordPrepare
    pub fn open(targets: impl IntoIterator<Item = NodeId>, needed: usize) -> Self {
        AckState {
            outstanding: targets.into_iter().collect(),
            needed,
        }
    }

    /// Consumes one acknowledgement from `from`. Duplicates (and acks
    /// from nodes never targeted) are ignored — each node's ack counts
    /// at most once toward the quorum.
    // tla: RedundancyAck
    pub fn apply_ack(&mut self, from: NodeId) -> AckOutcome {
        if !self.outstanding.remove(&from) {
            return AckOutcome::Ignored;
        }
        self.needed = self.needed.saturating_sub(1);
        if self.needed == 0 {
            AckOutcome::Commit
        } else {
            AckOutcome::Counted
        }
    }

    /// Adds a freshly promoted spare to the outstanding set (its
    /// redundancy message is being re-sent there); returns whether the
    /// node was newly added.
    // tla: SparePromote
    pub fn retarget(&mut self, to: NodeId) -> bool {
        self.outstanding.insert(to)
    }
}

// ---- At-most-once dedup (RIFL-style) ----

/// At-most-once slot for one client request, generic over the response
/// type so the model checker can instantiate it with its abstract
/// response instead of the wire [`ClientResp`](crate::proto::ClientResp).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DedupSlot<R> {
    /// Executing (possibly parked or awaiting acks); re-deliveries are
    /// dropped — the eventual response answers every copy.
    InFlight,
    /// Answered; re-deliveries get the cached response resent.
    Done(R),
}

/// What a coordinator does with a (re)delivered write request.
#[derive(Debug, PartialEq, Eq)]
pub enum DedupDecision<'a, R> {
    /// First delivery: execute the request.
    Execute,
    /// Already answered: resend the cached response, never re-execute.
    Resend(&'a R),
    /// Still executing: drop this copy.
    Drop,
}

/// Classifies a delivered write request against its at-most-once slot.
/// Re-executing after the response was delivered would assign a fresh
/// version outside the client's linearization window, so only an empty
/// slot may execute.
// tla: RetryDeliver
pub fn dedup_decision<R>(slot: Option<&DedupSlot<R>>) -> DedupDecision<'_, R> {
    match slot {
        None => DedupDecision::Execute,
        Some(DedupSlot::InFlight) => DedupDecision::Drop,
        Some(DedupSlot::Done(resp)) => DedupDecision::Resend(resp),
    }
}

/// Settles an open at-most-once window to `Done(resp)` — errors
/// included, since the execution linearized inside the client's still
/// open window — and prunes the oldest settled entry once more than
/// `cap` are retained. A request that never opened a window (reads,
/// silently ignored requests) leaves the table untouched.
// tla: CommitFlag
pub fn settle_dedup<K: Ord + Copy, R>(
    table: &mut BTreeMap<K, DedupSlot<R>>,
    order: &mut VecDeque<K>,
    key: K,
    resp: R,
    cap: usize,
) {
    if let Some(slot) = table.get_mut(&key) {
        *slot = DedupSlot::Done(resp);
        order.push_back(key);
        if order.len() > cap {
            if let Some(old) = order.pop_front() {
                table.remove(&old);
            }
        }
    }
}

// ---- Read binding ----

/// The commit-visibility fields of a metadata entry, as seen by the
/// read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    pub committed: bool,
    pub tombstone: bool,
    pub data_present: bool,
}

/// How a get binds to the highest version of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadDecision {
    /// The latest version is a committed tombstone: report a miss.
    NotFound,
    /// The latest version is uncommitted: park behind it until its
    /// commit flag is set (Figure 5).
    Postpone,
    /// Committed with bytes locally present: serve.
    Serve,
    /// Committed but the bytes were lost: recover on demand, parking
    /// the client until the data returns.
    Recover,
}

/// Binds a read to the key's highest version. A get never observes an
/// uncommitted value and never skips past an uncommitted latest version
/// to an older one — it waits, preserving linearizability.
// tla: GetBind
pub fn read_decision(e: &ReadEntry) -> ReadDecision {
    if !e.committed {
        ReadDecision::Postpone
    } else if e.tombstone {
        ReadDecision::NotFound
    } else if e.data_present {
        ReadDecision::Serve
    } else {
        ReadDecision::Recover
    }
}

// ---- Garbage collection ----

/// Whether a superseded version's entry may be removed: never while
/// uncommitted (its client still waits on the quorum) and never while
/// parked requests pin it (Figure 5 semantics).
// tla: CommitFlag
pub fn removable(committed: bool, has_waiters: bool) -> bool {
    committed && !has_waiters
}

// ---- Degraded reads ----

/// Automatic on-demand fetches an entry gets (retries after a redundancy
/// target answered "not here", background sweeps) before its waiters
/// are failed: enough to rotate past every dead or rebuilding holder.
pub const FETCH_BUDGET: u8 = 8;

/// What to do about the lost bytes of a committed entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchDecision {
    /// A fetch is already in flight; its answer serves everyone parked.
    InFlight,
    /// Issue fetch number `attempt` (rotates the redundancy targets).
    Issue(u8),
    /// The budget is spent: fail the parked requests.
    GiveUp,
}

/// Decides the on-demand fetch of a lost value (Section 5.5). At most
/// one fetch per entry is in flight. A client request that just bound to
/// the entry (`requested`) always gets an attempt of its own; retries
/// nobody new asked for stop at [`FETCH_BUDGET`].
// tla: DegradedBind
pub fn fetch_decision(in_flight: bool, attempts: u8, requested: bool) -> FetchDecision {
    if in_flight {
        FetchDecision::InFlight
    } else if requested || attempts < FETCH_BUDGET {
        FetchDecision::Issue(attempts)
    } else {
        FetchDecision::GiveUp
    }
}

/// Whether a speculative `k + Δ` shard read can still decode: every
/// segment needs `k` distinct stripe rows among the peers that have
/// not declined. `live_parts` holds, per non-declined peer, its
/// `(segment index, stripe row)` assignments.
// tla: DegradedBind
pub fn spec_read_feasible(num_segs: usize, k: usize, live_parts: &[&[(usize, usize)]]) -> bool {
    (0..num_segs).all(|i| {
        let mut rows = BTreeSet::new();
        for parts in live_parts {
            for &(si, row) in *parts {
                if si == i {
                    rows.insert(row);
                }
            }
        }
        rows.len() >= k
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_start_at_one_and_increment() {
        assert_eq!(next_version(None), 1);
        assert_eq!(next_version(Some(1)), 2);
        assert_eq!(next_version(Some(41)), 42);
    }

    #[test]
    fn ack_quorums_match_schemes() {
        assert_eq!(acks_needed(Scheme::Rep { r: 1 }, false), 0);
        assert_eq!(acks_needed(Scheme::Rep { r: 2 }, false), 1);
        assert_eq!(acks_needed(Scheme::Rep { r: 3 }, false), 1);
        assert_eq!(acks_needed(Scheme::Rep { r: 3 }, true), 2);
        assert_eq!(acks_needed(Scheme::Srs { k: 2, m: 1 }, false), 1);
        assert_eq!(acks_needed(Scheme::Srs { k: 4, m: 2 }, true), 2);
    }

    #[test]
    fn acks_count_each_node_once() {
        let mut a = AckState::open([2u32, 3], 2);
        assert_eq!(a.apply_ack(5), AckOutcome::Ignored);
        assert_eq!(a.apply_ack(2), AckOutcome::Counted);
        assert_eq!(a.apply_ack(2), AckOutcome::Ignored);
        assert_eq!(a.apply_ack(3), AckOutcome::Commit);
    }

    #[test]
    fn retarget_reopens_a_slot() {
        let mut a = AckState::open([2u32], 1);
        assert!(a.retarget(4));
        assert!(!a.retarget(4));
        assert_eq!(a.apply_ack(4), AckOutcome::Commit);
    }

    #[test]
    fn dedup_executes_once_then_resends() {
        let empty: Option<&DedupSlot<u8>> = None;
        assert_eq!(dedup_decision(empty), DedupDecision::Execute);
        assert_eq!(
            dedup_decision(Some(&DedupSlot::<u8>::InFlight)),
            DedupDecision::Drop
        );
        assert_eq!(
            dedup_decision(Some(&DedupSlot::Done(7u8))),
            DedupDecision::Resend(&7)
        );
    }

    #[test]
    fn settle_prunes_oldest_past_cap() {
        let mut table: BTreeMap<u32, DedupSlot<u8>> = BTreeMap::new();
        let mut order = VecDeque::new();
        for k in 0..3u32 {
            table.insert(k, DedupSlot::InFlight);
            settle_dedup(&mut table, &mut order, k, k as u8, 2);
        }
        assert!(!table.contains_key(&0), "oldest pruned at cap");
        assert!(matches!(table.get(&2), Some(DedupSlot::Done(2))));
        // No open window: table untouched.
        settle_dedup(&mut table, &mut order, 9, 9, 2);
        assert!(!table.contains_key(&9));
    }

    #[test]
    fn reads_never_observe_uncommitted_state() {
        let e = |committed, tombstone, data_present| ReadEntry {
            committed,
            tombstone,
            data_present,
        };
        assert_eq!(
            read_decision(&e(false, false, true)),
            ReadDecision::Postpone
        );
        assert_eq!(read_decision(&e(false, true, true)), ReadDecision::Postpone);
        assert_eq!(read_decision(&e(true, true, false)), ReadDecision::NotFound);
        assert_eq!(read_decision(&e(true, false, true)), ReadDecision::Serve);
        assert_eq!(read_decision(&e(true, false, false)), ReadDecision::Recover);
    }

    #[test]
    fn gc_spares_uncommitted_and_pinned_entries() {
        assert!(removable(true, false));
        assert!(!removable(false, false));
        assert!(!removable(true, true));
    }

    #[test]
    fn one_fetch_in_flight_and_unrequested_retries_are_bounded() {
        assert_eq!(fetch_decision(true, 0, true), FetchDecision::InFlight);
        assert_eq!(fetch_decision(false, 3, false), FetchDecision::Issue(3));
        assert_eq!(
            fetch_decision(false, FETCH_BUDGET, false),
            FetchDecision::GiveUp
        );
        // A fresh client request is worth one more try even then.
        assert_eq!(
            fetch_decision(false, FETCH_BUDGET, true),
            FetchDecision::Issue(FETCH_BUDGET)
        );
    }

    #[test]
    fn spec_read_needs_k_rows_per_segment() {
        let a: &[(usize, usize)] = &[(0, 0), (1, 0)];
        let b: &[(usize, usize)] = &[(0, 1), (1, 1)];
        assert!(spec_read_feasible(2, 2, &[a, b]));
        assert!(!spec_read_feasible(2, 2, &[a]));
        // Duplicate rows do not count twice.
        assert!(!spec_read_feasible(2, 2, &[a, a]));
        assert!(spec_read_feasible(0, 2, &[]));
    }
}
