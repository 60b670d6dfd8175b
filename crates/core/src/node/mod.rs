//! The Ring server: a single-threaded event loop per node, exactly as in
//! the paper's implementation (Section 6: "each server is
//! single-threaded").
//!
//! A node plays one role per memgest group (coordinator of a shard or
//! redundant node; spares play none) and multiplexes every plane over
//! one mailbox: client requests, replication and parity traffic,
//! heartbeats, membership updates and recovery.

mod coord;
mod recovery;
mod redundant;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use ring_net::NodeId;

use crate::config::{ClusterConfig, Role, LEADER_NODE};
use ring_net::Transport;

use crate::proto::{ClientResp, ClientTag, Msg, RingEndpoint};
use crate::protocol::spec_read::SpecRead;
use crate::storage::VolatileTable;
use crate::storage::{CoordMemgest, CoordStore, Heap, RedundantMemgest, RedundantStore, Waiter};
use crate::types::{GroupId, Key, MemgestDescriptor, MemgestId, ReqId, Scheme, Version};

/// Tunables of a node.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// How often to beacon the leader.
    pub heartbeat_interval: Duration,
    /// Mailbox poll timeout of the event loop.
    pub poll_timeout: Duration,
    /// Keep superseded versions instead of pruning them at commit
    /// (Section 5.2: versioning can retain reliable backup copies).
    pub keep_old_versions: bool,
    /// Retransmission period for unacknowledged redundancy messages.
    pub retransmit_interval: Duration,
    /// Extra delay a replica inserts before acknowledging a copy —
    /// models disk-backed backups (the RAMCloud-like baseline).
    pub replica_ack_delay: Duration,
    /// Fully synchronous replication: a `Rep(r)` put commits only after
    /// all `r - 1` copies acknowledge, instead of a majority quorum
    /// (the paper's §3.1 contrast: tolerates `r - 1` failures but is
    /// less available under them).
    pub sync_replication: bool,
    /// Proactively recover missing data in the background after a
    /// promotion (Section 5.5: the new node "starts providing services
    /// while performing data recovery in the background"). Off by
    /// default so the on-demand recovery experiments (Figure 13) measure
    /// cold decodes.
    pub background_recovery: bool,
    /// Memgests instantiated at startup: `(id, descriptor)`.
    pub initial_memgests: Vec<(MemgestId, MemgestDescriptor)>,
    /// The default memgest for `put(key, value)` without an explicit id.
    pub default_memgest: MemgestId,
    /// Δ of the speculative `k + Δ` read fan-out: how many redundancy
    /// targets beyond the minimum a degraded read contacts. The
    /// coordinator decodes from whichever responses arrive first and
    /// ignores the stragglers (Hydra-style late binding), so higher Δ
    /// trades fabric traffic for tail latency under slow nodes.
    pub read_fanout_extra: usize,
}

impl Default for NodeOptions {
    fn default() -> NodeOptions {
        NodeOptions {
            heartbeat_interval: Duration::from_millis(5),
            poll_timeout: Duration::from_micros(500),
            keep_old_versions: false,
            retransmit_interval: Duration::from_millis(25),
            replica_ack_delay: Duration::ZERO,
            sync_replication: false,
            background_recovery: false,
            initial_memgests: vec![(0, MemgestDescriptor::rep(1))],
            default_memgest: 0,
            read_fanout_extra: 1,
        }
    }
}

/// At-most-once bookkeeping for one client write request (RIFL-style).
///
/// The paper's RDMA RC transport delivers each request exactly once, so
/// the real system never sees a request twice. The simulated fabric —
/// and any chaos injector layered on it — may duplicate or re-deliver a
/// client `Request`, and re-executing a write after its response was
/// already delivered assigns a fresh version *outside* the client's
/// linearization window (e.g. resurrecting an overwritten value). The
/// coordinator therefore deduplicates by `(client, req)`. The slot
/// state machine itself lives in [`crate::protocol::steps`] so the
/// model checker explores the same transitions.
pub(crate) type Dedup = crate::protocol::steps::DedupSlot<ClientResp>;

/// Completed [`Dedup`] entries retained per node before the oldest are
/// pruned. A duplicate is delayed by at most a few hundred microseconds,
/// while 64k completions take seconds — pruned entries cannot see a
/// late duplicate.
pub(crate) const DEDUP_CAP: usize = 64 * 1024;

/// What to do when a write-ahead entry commits.
// The `Reply` prefix is deliberate: each variant names the client call
// being answered.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OnCommit {
    /// Answer a client put.
    ReplyPut(ClientTag),
    /// Answer a client delete.
    ReplyDelete(ClientTag),
    /// Answer a client move (the destination write committed).
    ReplyMove(ClientTag),
}

/// An uncommitted write awaiting redundancy acknowledgements.
#[derive(Debug)]
pub(crate) struct PendingPut {
    /// Ack progress toward the commit flag (see
    /// [`crate::protocol::steps::AckState`]).
    pub acks: crate::protocol::steps::AckState,
    /// Completion action.
    pub on_commit: OnCommit,
    /// The redundancy messages, kept for retransmission. Receivers
    /// deduplicate by `(key, version)`, so parity deltas are applied at
    /// most once.
    pub msgs: Vec<(NodeId, Msg)>,
    /// Last (re)transmission time.
    pub last_send: Instant,
    /// Number of retransmissions so far (drives exponential backoff —
    /// without it, overload-induced queueing turns retransmissions into
    /// a self-amplifying storm).
    pub retries: u32,
}

pub(crate) type PendingKey = (GroupId, MemgestId, Key, Version);

/// A put postponed while a new parity node rebuilds its heap.
#[derive(Debug)]
pub(crate) struct StalledPut {
    pub key: Key,
    pub version: Version,
    pub value: ring_net::Payload,
    pub tombstone: bool,
    pub on_commit: OnCommit,
}

/// One coordinator's answer during a parity rebuild, and its heap rows
/// as fetched so far.
#[derive(Debug)]
pub(crate) struct RebuildInfo {
    /// The coordinator that answered.
    pub from: NodeId,
    pub heap_len: usize,
    pub entries: Vec<crate::proto::MetaEntry>,
    /// `[0, heap_len)` of the coordinator's heap, filled chunk by chunk.
    pub rows: Vec<u8>,
    /// The coordinator declined its rows: its heap has holes.
    pub invalid: bool,
}

/// One `ShardRead` of a parity rebuild: a chunk of a coordinator's heap
/// rows, or (`donor: Some(q)`) parity `q`'s rows over the one invalid
/// shard's parity ranges.
#[derive(Debug)]
pub(crate) struct RowRead {
    pub shard: usize,
    pub donor: Option<usize>,
    /// `(addr, len)` ranges asked for; the answer is their bytes in order.
    pub ranges: Vec<(usize, usize)>,
    /// The donor declined; the next retry asks the next donor.
    pub declined: bool,
    /// When the read was sent; unanswered for a retry period, it is
    /// re-issued.
    pub sent_at: Instant,
}

/// Parity-rebuild progress on a freshly promoted redundant node. It
/// stays in [`Node::rebuilds`] until the re-encode is applied; while it
/// does, parity deltas are dropped and parity shard reads declined.
#[derive(Debug)]
pub(crate) struct RebuildState {
    /// Coordinator shards that have answered `ParityRebuildInfo`.
    pub infos: BTreeMap<usize, RebuildInfo>,
    /// Shards expected to answer.
    pub expected: usize,
    /// Row reads not yet answered with bytes, by token.
    pub reads: BTreeMap<u64, RowRead>,
    /// The donor parity's index and its rows of the one invalid shard,
    /// laid out at their parity addresses.
    pub donor: Option<(usize, Vec<u8>)>,
    /// Last retry: `ParityRebuildStart` re-sent to coordinators that
    /// have not answered (they may themselves be mid-promotion), and
    /// declined or long-unanswered reads re-issued.
    pub sent_at: Instant,
}

/// An outstanding metadata fetch of a recovering node, retried with
/// target rotation so a concurrently dead survivor cannot wedge
/// recovery.
#[derive(Debug)]
pub(crate) struct PendingFetch {
    pub targets: Vec<NodeId>,
    pub next_idx: usize,
    pub sent_at: Instant,
}

/// An in-flight speculative `k + Δ` shard read. The fan-out, fan-in and
/// decode state is the pure [`SpecRead`]; the node adds what only it
/// knows: whose range this is and when the read was sent.
#[derive(Debug)]
pub(crate) struct PendingSpecRead {
    pub group: GroupId,
    pub memgest: MemgestId,
    /// The entry being fetched, re-planned at its next attempt when the
    /// read expires.
    pub key: Key,
    pub version: Version,
    pub sent_at: Instant,
    pub read: SpecRead,
}

/// Per-group state of a node.
#[derive(Debug, Default)]
pub(crate) struct GroupState {
    /// The shard this node coordinates in the group, if any.
    pub shard: Option<usize>,
    /// The redundant-node index in the group, if any.
    pub red_idx: Option<usize>,
    /// The volatile hashtable (coordinators only).
    pub volatile: VolatileTable,
    /// Coordinator-side memgest state.
    pub coord: BTreeMap<MemgestId, CoordMemgest>,
    /// Redundant-side memgest state (replica copies / parity heaps).
    /// Coordinators also carry replica stores here for `Rep(r)` with
    /// `r > d + 1`, where copies spill onto other coordinators.
    pub redundant: BTreeMap<MemgestId, RedundantMemgest>,
    /// Puts postponed per memgest during parity rebuild.
    pub stalled: BTreeMap<MemgestId, Vec<StalledPut>>,
}

impl GroupState {
    /// The `(key, version)`s of `mid`'s puts stalled behind a parity
    /// rebuild. Their placeholder entries hold no heap bytes yet: they
    /// are neither holes in the heap nor metadata to ship to a parity.
    pub(crate) fn stalled_puts(&self, mid: MemgestId) -> BTreeSet<(Key, Version)> {
        let queue = self.stalled.get(&mid).into_iter().flatten();
        queue.map(|sp| (sp.key, sp.version)).collect()
    }
}

/// A Ring server node, generic over its network backend (the simulated
/// fabric by default; `TcpTransport` when run by `ring-server`).
pub struct Node<T: Transport<Msg> = RingEndpoint> {
    pub(crate) id: NodeId,
    pub(crate) ep: T,
    pub(crate) config: ClusterConfig,
    pub(crate) catalog: BTreeMap<MemgestId, MemgestDescriptor>,
    pub(crate) default_memgest: MemgestId,
    pub(crate) groups: BTreeMap<GroupId, GroupState>,
    pub(crate) pending: BTreeMap<PendingKey, PendingPut>,
    /// At-most-once table for client writes, keyed by `(client, req)`.
    pub(crate) dedup: BTreeMap<(NodeId, ReqId), Dedup>,
    /// Completion order of settled dedup entries, for pruning.
    pub(crate) dedup_order: VecDeque<(NodeId, ReqId)>,
    /// Outstanding metadata fetches while assuming a new role; requests
    /// are ignored until this drains (clients retry).
    pub(crate) recovering: usize,
    pub(crate) rebuilds: BTreeMap<(GroupId, MemgestId), RebuildState>,
    /// Outstanding metadata fetches keyed by `(group, memgest, shard)`.
    pub(crate) fetches: BTreeMap<(GroupId, MemgestId, usize), PendingFetch>,
    /// In-flight speculative shard reads, keyed by token.
    pub(crate) spec_reads: BTreeMap<u64, PendingSpecRead>,
    /// Monotonic token source for speculative shard reads.
    pub(crate) next_spec_token: u64,
    /// Cumulative operation counters for introspection.
    pub(crate) ops: crate::stats::OpCounters,
    pub(crate) opts: NodeOptions,
    last_heartbeat: Instant,
    pub(crate) active: bool,
}

impl<T: Transport<Msg>> Node<T> {
    /// Creates a node bound to `ep` with the given initial config.
    pub fn new(ep: T, config: ClusterConfig, opts: NodeOptions) -> Node<T> {
        let id = ep.id();
        let catalog: BTreeMap<MemgestId, MemgestDescriptor> =
            opts.initial_memgests.iter().copied().collect();
        let mut node = Node {
            id,
            ep,
            config,
            catalog,
            default_memgest: opts.default_memgest,
            groups: BTreeMap::new(),
            pending: BTreeMap::new(),
            dedup: BTreeMap::new(),
            dedup_order: VecDeque::new(),
            recovering: 0,
            rebuilds: BTreeMap::new(),
            fetches: BTreeMap::new(),
            spec_reads: BTreeMap::new(),
            next_spec_token: 0,
            ops: crate::stats::OpCounters::default(),
            opts,
            last_heartbeat: ring_net::clock::now(),
            active: false,
        };
        node.active = node.config.nodes.contains(&node.id);
        if node.active {
            node.setup_roles();
        }
        node
    }

    /// Runs the event loop until the endpoint is killed.
    pub fn run(&mut self) {
        self.run_until(|| false, Duration::ZERO);
    }

    /// Runs the event loop until the endpoint is killed or `stop`
    /// returns true. On a stop request the node keeps serving until its
    /// in-flight redundancy traffic drains (or `drain_grace` elapses),
    /// so a SIGTERM'd server does not strand acknowledged writes.
    pub fn run_until(&mut self, stop: impl Fn() -> bool, drain_grace: Duration) {
        let mut draining_since: Option<Instant> = None;
        loop {
            match self.ep.recv_timeout(self.opts.poll_timeout) {
                Ok((from, msg)) => self.dispatch(from, msg),
                Err(ring_net::NetError::Timeout) => {}
                Err(_) => break, // Killed.
            }
            self.tick();
            if stop() {
                let now = ring_net::clock::now();
                let since = *draining_since.get_or_insert(now);
                if self.pending.is_empty() || now.duration_since(since) >= drain_grace {
                    break;
                }
            }
        }
    }

    /// A point-in-time statistics report (the payload of the `Stats`
    /// client call, also dumped on graceful shutdown).
    pub fn node_stats(&self) -> crate::stats::NodeStats {
        use crate::stats::{GroupStats, MemgestStats, NodeStats};
        let mut groups = Vec::new();
        let mut gids: Vec<_> = self.groups.keys().copied().collect();
        gids.sort_unstable();
        for g in gids {
            let gs = &self.groups[&g];
            let mut ids: Vec<crate::types::MemgestId> = gs
                .coord
                .keys()
                .chain(gs.redundant.keys())
                .copied()
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let mut memgests = Vec::with_capacity(ids.len());
            for id in ids {
                let mut row = MemgestStats {
                    id,
                    ..MemgestStats::default()
                };
                if let Some(c) = gs.coord.get(&id) {
                    row.scheme = crate::stats::scheme_label(c.desc.scheme);
                    row.coord_meta_entries = c.meta.len();
                    row.missing_entries = c
                        .meta
                        .iter()
                        .filter(|(_, _, e)| !e.data_present && !e.tombstone)
                        .count();
                    row.coord_meta_bytes = c.meta.approx_bytes();
                    row.data_bytes = match &c.store {
                        // ring-lint: allow(hashmap-iteration) -- order-insensitive byte sum
                        CoordStore::Rep { values } => values.values().map(|v| v.len()).sum(),
                        CoordStore::Srs { heap, .. } => heap.len(),
                    };
                }
                if let Some(r) = gs.redundant.get(&id) {
                    if row.scheme.is_empty() {
                        row.scheme = crate::stats::scheme_label(r.desc.scheme);
                    }
                    row.redundant_meta_entries = r.meta.len();
                    match &r.store {
                        RedundantStore::Rep { values } => {
                            // ring-lint: allow(hashmap-iteration) -- order-insensitive byte sum
                            row.replica_bytes = values.values().map(|v| v.len()).sum();
                        }
                        RedundantStore::Parity { len, .. } => row.parity_bytes = *len,
                    }
                }
                memgests.push(row);
            }
            groups.push(GroupStats {
                group: g,
                shard: gs.shard,
                redundant_index: gs.red_idx,
                volatile_keys: gs.volatile.keys(),
                memgests,
            });
        }
        NodeStats {
            node: self.id,
            epoch: self.config.epoch,
            active: self.active && self.recovering == 0,
            ops: self.ops,
            groups,
        }
    }

    /// The transport this node runs on (net counters, shutdown).
    pub fn transport(&self) -> &T {
        &self.ep
    }

    fn tick(&mut self) {
        let now = ring_net::clock::now();
        if now.duration_since(self.last_heartbeat) >= self.opts.heartbeat_interval {
            self.last_heartbeat = now;
            let _ = self.ep.send(LEADER_NODE, Msg::Heartbeat);
            self.retransmit(now);
            self.retry_fetches(now);
            self.retry_rebuilds(now);
            self.expire_spec_reads(now);
            if self.opts.background_recovery && self.recovering == 0 {
                self.background_recovery_sweep();
            }
        }
    }

    /// Re-issues metadata fetches that have gone unanswered (the target
    /// may have died in the same failure burst), rotating through the
    /// alternative holders of the metadata.
    fn retry_fetches(&mut self, now: Instant) {
        const FETCH_RETRY: Duration = Duration::from_millis(150);
        let mut resend = Vec::new();
        let mut exhausted = Vec::new();
        for (&(g, mid, shard), f) in self.fetches.iter_mut() {
            if now.duration_since(f.sent_at) < FETCH_RETRY {
                continue;
            }
            if f.next_idx > f.targets.len() * 8 {
                // Every holder of this metadata has been asked many
                // times: the redundancy died with the coordinator (a
                // failure burst beyond the scheme's tolerance). Give up
                // so the rest of the node can start serving — those
                // keys are lost, exactly as the scheme's guarantee says.
                exhausted.push((g, mid, shard));
                continue;
            }
            let target = f.targets[f.next_idx % f.targets.len()];
            f.next_idx += 1;
            f.sent_at = now;
            resend.push((target, g, mid, shard));
        }
        for key in exhausted {
            self.fetches.remove(&key);
            self.recovering = self.recovering.saturating_sub(1);
        }
        for (target, g, mid, shard) in resend {
            let _ = self.ep.send(
                target,
                Msg::MetaFetch {
                    group: g,
                    memgest: mid,
                    shard,
                },
            );
        }
    }

    /// Re-sends redundancy messages whose acknowledgements are overdue
    /// (lost to a cut link or a dying node). Receivers deduplicate by
    /// `(key, version)`.
    fn retransmit(&mut self, now: Instant) {
        for p in self.pending.values_mut() {
            let backoff = self.opts.retransmit_interval * (1u32 << p.retries.min(6));
            if now.duration_since(p.last_send) < backoff {
                continue;
            }
            p.last_send = now;
            p.retries += 1;
            for (target, msg) in &p.msgs {
                if p.acks.outstanding.contains(target) {
                    self.ep.stats().record_retransmit();
                    let _ = self.ep.send(*target, msg.clone());
                }
            }
        }
    }

    fn dispatch(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::Request { req, body } => self.handle_request(from, req, body),
            Msg::Replicate {
                group,
                memgest,
                key,
                version,
                value,
                tombstone,
            } => self.handle_replicate(from, group, memgest, key, version, value, tombstone),
            Msg::ReplicateAck {
                group,
                memgest,
                key,
                version,
            }
            | Msg::ParityAck {
                group,
                memgest,
                key,
                version,
            } => self.handle_ack(from, group, memgest, key, version),
            Msg::ParityUpdate {
                group,
                memgest,
                shard,
                meta,
                segs,
            } => self.handle_parity_update(from, group, memgest, shard, meta, segs),
            Msg::MetaRemove {
                group,
                memgest,
                key,
                below,
            } => self.handle_meta_remove(group, memgest, key, below),
            Msg::ConfigUpdate {
                config,
                memgests,
                default,
            } => self.handle_config_update(config, memgests, default),
            Msg::MemgestCreate { token, id, desc } => {
                self.handle_memgest_create(from, token, id, desc)
            }
            Msg::MemgestDrop { token, id } => self.handle_memgest_drop(from, token, id),
            Msg::SetDefault { token, id } => {
                self.default_memgest = id;
                let _ = self.ep.send(from, Msg::CtrlAck { token });
            }
            Msg::MetaFetch {
                group,
                memgest,
                shard,
            } => self.handle_meta_fetch(from, group, memgest, shard),
            Msg::MetaFetchResp {
                group,
                memgest,
                shard,
                entries,
                values,
            } => self.handle_meta_fetch_resp(group, memgest, shard, entries, values),
            Msg::FetchValue {
                group,
                memgest,
                key,
                version,
            } => self.handle_fetch_value(from, group, memgest, key, version),
            Msg::FetchValueResp {
                group,
                memgest,
                key,
                version,
                value,
            } => self.handle_fetch_value_resp(group, memgest, key, version, value),
            Msg::ParityRebuildStart { group, memgest } => {
                self.handle_parity_rebuild_start(from, group, memgest)
            }
            Msg::ParityRebuildInfo {
                group,
                memgest,
                shard,
                heap_len,
                entries,
            } => self.handle_parity_rebuild_info(from, group, memgest, shard, heap_len, entries),
            Msg::ParityRebuildDone { group, memgest } => {
                self.handle_parity_rebuild_done(from, group, memgest)
            }
            Msg::ShardRead {
                group,
                memgest,
                token,
                parity,
                ranges,
            } => self.handle_shard_read(from, group, memgest, token, parity, ranges),
            Msg::ShardReadResp {
                group,
                memgest,
                token,
                bytes,
            } => self.handle_shard_read_resp(from, group, memgest, token, bytes),
            // Leader-plane messages a data node never receives.
            Msg::Heartbeat | Msg::CtrlAck { .. } | Msg::Response { .. } => {}
        }
    }

    /// Instantiates per-group state for every role this node holds under
    /// the current config.
    pub(crate) fn setup_roles(&mut self) {
        for g in 0..self.config.groups as GroupId {
            let role = self.config.role_of(g, self.id);
            let gs = self.groups.entry(g).or_default();
            match role {
                Some(Role::Coordinator(shard)) => gs.shard = Some(shard),
                Some(Role::Redundant(idx)) => gs.red_idx = Some(idx),
                None => continue,
            }
            let ids: Vec<MemgestId> = self.catalog.keys().copied().collect();
            for id in ids {
                self.instantiate_memgest(g, id);
            }
        }
    }

    /// Creates the local state for one memgest in one group, according
    /// to this node's role there. Idempotent.
    pub(crate) fn instantiate_memgest(&mut self, g: GroupId, id: MemgestId) {
        let Some(&desc) = self.catalog.get(&id) else {
            return;
        };
        let s = self.config.s;
        let gs = self.groups.entry(g).or_default();

        if gs.shard.is_some() && !gs.coord.contains_key(&id) {
            let store = match desc.scheme {
                Scheme::Rep { .. } => CoordStore::Rep {
                    values: Default::default(),
                },
                Scheme::Srs { k, m } => CoordStore::Srs {
                    heap: Heap::new(desc.block_size * 4),
                    layout: srs_layout(k, m, s, desc.block_size),
                },
            };
            gs.coord.insert(
                id,
                CoordMemgest {
                    desc,
                    meta: crate::storage::MetaTable::new(),
                    store,
                    stalled: Default::default(),
                },
            );
        }

        // Redundant-side state: replica stores on every active node (a
        // Rep(r) with r > d + 1 spills copies onto coordinators); parity
        // heaps only on redundant nodes with index < m.
        let parity_code = match desc.scheme {
            Scheme::Srs { k, m } if gs.red_idx.is_some_and(|i| i < m) => Some((k, m)),
            _ => None,
        };
        let needs_rep_store = matches!(desc.scheme, Scheme::Rep { r } if r > 1);
        if (parity_code.is_some() || needs_rep_store) && !gs.redundant.contains_key(&id) {
            let store = if let Some((k, m)) = parity_code {
                RedundantStore::Parity {
                    region: ring_net::MemoryRegion::new(desc.block_size * 4),
                    len: 0,
                    layout: srs_layout(k, m, s, desc.block_size),
                }
            } else {
                RedundantStore::Rep {
                    values: Default::default(),
                }
            };
            gs.redundant.insert(
                id,
                RedundantMemgest {
                    desc,
                    meta: crate::storage::MetaTable::new(),
                    store,
                },
            );
        }
    }

    /// Drops local state for a memgest (leader-driven `deleteMemgest`).
    /// Keys whose only versions lived there are discarded, and writes
    /// still in flight to it — awaiting acks or stalled behind a parity
    /// rebuild — are failed back to their clients: they can never commit
    /// now, and an unanswered write would leave its client to time out
    /// and its dedup slot `InFlight` forever. Gets, moves and deletes
    /// parked on its entries bind again to whatever the key's highest
    /// version is without it.
    pub(crate) fn drop_memgest(&mut self, id: MemgestId) {
        self.catalog.remove(&id);
        let mut orphaned: Vec<OnCommit> = Vec::new();
        let mut parked: Vec<(GroupId, Key, Waiter)> = Vec::new();
        for (g, gs) in self.groups.iter_mut() {
            if let Some(mut coord) = gs.coord.remove(&id) {
                // Purge volatile references so later gets don't chase a
                // dangling memgest id.
                for (key, version, e) in coord.meta.iter_mut() {
                    gs.volatile.remove(key, version);
                    parked.extend(e.waiters.drain(..).map(|w| (*g, key, w)));
                }
            }
            gs.redundant.remove(&id);
            let stalled = gs.stalled.remove(&id).unwrap_or_default();
            orphaned.extend(stalled.into_iter().map(|sp| sp.on_commit));
        }
        self.pending.retain(|(_, mid, _, _), p| {
            if *mid == id {
                orphaned.push(p.on_commit.clone());
            }
            *mid != id
        });
        for on_commit in orphaned {
            let (OnCommit::ReplyPut(client)
            | OnCommit::ReplyDelete(client)
            | OnCommit::ReplyMove(client)) = on_commit;
            self.fail(client, crate::error::RingError::UnknownMemgest(id));
        }
        for (g, key, waiter) in parked {
            self.bind_highest(g, key, waiter);
        }
    }

    fn handle_memgest_create(
        &mut self,
        from: NodeId,
        token: u64,
        id: MemgestId,
        desc: MemgestDescriptor,
    ) {
        self.catalog.insert(id, desc);
        if self.active {
            for g in 0..self.config.groups as GroupId {
                self.instantiate_memgest(g, id);
            }
        }
        let _ = self.ep.send(from, Msg::CtrlAck { token });
    }

    fn handle_memgest_drop(&mut self, from: NodeId, token: u64, id: MemgestId) {
        self.drop_memgest(id);
        let _ = self.ep.send(from, Msg::CtrlAck { token });
    }

    fn handle_meta_remove(&mut self, group: GroupId, memgest: MemgestId, key: Key, below: Version) {
        let gs = self.groups.get_mut(&group);
        if let Some(red) = gs.and_then(|gs| gs.redundant.get_mut(&memgest)) {
            for (v, _) in red.meta.remove_below(key, below) {
                if let RedundantStore::Rep { values } = &mut red.store {
                    values.remove(&(key, v));
                }
            }
        }
    }

    /// The redundancy fan-out targets of a memgest for a given shard.
    pub(crate) fn redundancy_targets(
        &self,
        g: GroupId,
        shard: usize,
        scheme: Scheme,
    ) -> Vec<NodeId> {
        match scheme {
            Scheme::Rep { r } => self.config.replica_targets(g, shard, r),
            Scheme::Srs { m, .. } => self.config.parity_targets(g, m),
        }
    }
}

/// The stretched-code address arithmetic of an `SRS(k, m)` memgest over
/// `s` coordinators, shared by its data heaps and parity heaps.
fn srs_layout(k: usize, m: usize, s: usize, block_size: usize) -> ring_erasure::SrsLayout {
    let code = ring_erasure::SrsCode::new(k, m, s).expect("validated at memgest creation");
    ring_erasure::SrsLayout::new(code, block_size).expect("block_size validated at creation")
}

impl<T: Transport<Msg>> std::fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("active", &self.active)
            .field("epoch", &self.config.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::config::CLIENT_BASE;
    use crate::error::RingError;
    use crate::proto::{ClientReq, RingFabric};
    use crate::protocol::steps::FETCH_BUDGET;
    use crate::storage::ObjectEntry;
    use ring_net::Payload;

    const REP1: MemgestId = 0;
    const REP2: MemgestId = 1;
    const SRS32: MemgestId = 6;
    const KEY: Key = 12345;

    /// A five-node cluster on one thread: every node is registered on
    /// the fabric, but only the nodes built with [`Rig::node`] exist, and
    /// they are stepped message by message so their private tables can
    /// be inspected between steps.
    struct Rig {
        fabric: RingFabric,
        config: ClusterConfig,
        eps: BTreeMap<NodeId, RingEndpoint>,
        leader: RingEndpoint,
        client: RingEndpoint,
        /// `KEY`'s group, shard and coordinator.
        g: GroupId,
        shard: usize,
        coordinator: NodeId,
    }

    impl Rig {
        fn new() -> Rig {
            let spec = ClusterSpec::paper_evaluation();
            let fabric: RingFabric = ring_net::Fabric::new(ring_net::LatencyModel::instant());
            let nodes: Vec<NodeId> = (0..(spec.s + spec.d) as NodeId).collect();
            let config =
                ClusterConfig::initial(spec.s, spec.d, spec.groups, nodes.clone(), Vec::new());
            let (g, shard) = config.locate(KEY);
            Rig {
                eps: nodes
                    .iter()
                    .map(|&id| (id, fabric.register(id).expect("fresh fabric")))
                    .collect(),
                leader: fabric.register(LEADER_NODE).expect("fresh fabric"),
                client: fabric.register(CLIENT_BASE).expect("fresh fabric"),
                coordinator: config.coordinator_of_key(KEY),
                fabric,
                config,
                g,
                shard,
            }
        }

        /// Builds (without running) the node `id`.
        fn node(&mut self, id: NodeId) -> Node {
            let spec = ClusterSpec::paper_evaluation();
            let opts = NodeOptions {
                initial_memgests: (0..).zip(spec.memgests.iter().copied()).collect(),
                ..NodeOptions::default()
            };
            let ep = self.eps.remove(&id).expect("registered, not yet built");
            Node::new(ep, self.config.clone(), opts)
        }

        fn request(&self, req: ReqId, body: ClientReq) {
            self.client
                .send(self.coordinator, Msg::Request { req, body })
                .expect("client link is up");
        }

        fn put(&self, req: ReqId, memgest: MemgestId) {
            let value = Payload::from(b"doomed".to_vec());
            let memgest = Some(memgest);
            self.request(
                req,
                ClientReq::Put {
                    key: KEY,
                    value,
                    memgest,
                },
            );
        }

        fn expect_reply(&self, req: ReqId, body: ClientResp) {
            let (_, msg) = self
                .client
                .recv_timeout(Duration::from_secs(5))
                .expect("the request is answered, not left to time out");
            assert_eq!(msg, Msg::Response { req, body });
        }

        fn expect_error(&self, req: ReqId, err: RingError) {
            self.expect_reply(req, ClientResp::Error(err));
        }

        /// Cuts the coordinator off from `KEY`'s REP2 replica, so REP2
        /// writes of `KEY` stay uncommitted; returns the replica.
        fn cut_rep2_replica(&self) -> NodeId {
            let replica = self.config.replica_targets(self.g, self.shard, 2)[0];
            self.fabric.fail_link(self.coordinator, replica);
            replica
        }
    }

    /// Delivers the next queued message to a hand-stepped node.
    fn step(node: &mut Node) {
        let (from, msg) = node
            .ep
            .recv_timeout(Duration::from_secs(5))
            .expect("a message is queued");
        node.dispatch(from, msg);
    }

    #[test]
    fn drop_memgest_fails_inflight_writes_back_to_their_clients() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        let g = rig.g;

        // A REP2 put whose redundancy link is cut stays uncommitted, and
        // a get binds to it and parks...
        rig.cut_rep2_replica();
        rig.put(1, REP2);
        step(&mut node);
        assert_eq!(node.pending.len(), 1, "awaiting the replica's ack");
        rig.request(3, ClientReq::Get { key: KEY });
        step(&mut node);
        // ...and an SRS put behind a parity rebuild is stalled.
        let gs = node.groups.get_mut(&g).expect("coordinated group");
        let parity = rig.config.redundant(g, 0);
        let coord = gs.coord.get_mut(&SRS32).expect("instantiated");
        coord.stalled.insert(parity);
        rig.put(2, SRS32);
        step(&mut node);
        assert_eq!(node.groups[&g].stalled[&SRS32].len(), 1);

        for (token, req, id) in [(7, 1, REP2), (8, 2, SRS32)] {
            rig.leader
                .send(rig.coordinator, Msg::MemgestDrop { token, id })
                .expect("leader link is up");
            step(&mut node);
            rig.expect_error(req, RingError::UnknownMemgest(id));
            if id == SRS32 {
                // The get parked behind the REP2 put was bound again
                // when REP2 went — to the stalled SRS32 version, by then
                // the key's highest — and once more now that no version
                // is left.
                rig.expect_error(3, RingError::KeyNotFound);
            }
            // The write's dedup slot is settled, not `InFlight` forever:
            // a re-delivery is answered from the cache.
            rig.put(req, id);
            step(&mut node);
            rig.expect_error(req, RingError::UnknownMemgest(id));
        }
        assert!(node.pending.is_empty(), "{:?}", node.pending);
        assert!(node.groups[&g].stalled.is_empty());
    }

    /// Plants a committed SRS32 version of `KEY` whose bytes were lost
    /// with the previous coordinator (metadata-only recovery).
    fn plant_lost_srs_entry(node: &mut Node, g: GroupId, len: usize) {
        let gs = node.groups.get_mut(&g).expect("coordinated group");
        let coord = gs.coord.get_mut(&SRS32).expect("instantiated");
        coord
            .meta
            .insert(KEY, 1, ObjectEntry::recovered(len, 0, false));
        if let CoordStore::Srs { heap, .. } = &mut coord.store {
            heap.reserve_upto(len);
        }
        gs.volatile.record(KEY, 1, SRS32);
    }

    #[test]
    fn exhausted_srs_fetch_fails_its_waiters() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        plant_lost_srs_entry(&mut node, rig.g, 64);

        rig.request(1, ClientReq::Get { key: KEY });
        step(&mut node);
        // Every attempt is a speculative read every peer declines. It
        // stays in flight until it expires; the expiry re-plans it at the
        // entry's next attempt, and the last one spends the budget.
        for attempt in 1..=FETCH_BUDGET {
            let entry = node.groups[&rig.g].coord[&SRS32].meta.get(KEY, 1);
            let entry = entry.expect("planted");
            assert!(entry.fetching && entry.waiters.len() == 1, "{entry:?}");
            assert_eq!(entry.fetch_attempts, attempt);
            let &token = node.spec_reads.keys().next().expect("a read in flight");
            for peer in rig.eps.values() {
                let declined = Msg::ShardReadResp {
                    group: rig.g,
                    memgest: SRS32,
                    token,
                    bytes: None,
                };
                peer.send(rig.coordinator, declined).expect("link up");
                step(&mut node);
            }
            let in_flight: Vec<u64> = node.spec_reads.keys().copied().collect();
            assert_eq!(in_flight, [token], "declined, yet kept until expiry");
            node.expire_spec_reads(ring_net::clock::now() + Duration::from_secs(1));
        }
        assert!(node.spec_reads.is_empty());
        rig.expect_error(1, RingError::Unavailable("value copy lost".into()));
        let entry = node.groups[&rig.g].coord[&SRS32].meta.get(KEY, 1);
        let entry = entry.expect("planted");
        assert!(!entry.fetching && entry.waiters.is_empty(), "{entry:?}");
    }

    /// A parity rebuild swaps a stalled put's placeholder entry for the
    /// real one; the gets parked on the placeholder must move with it.
    #[test]
    fn gets_parked_on_a_stalled_srs_put_survive_the_flush() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        let g = rig.g;
        let gs = node.groups.get_mut(&g).expect("coordinated group");
        let parity = rig.config.redundant(g, 0);
        let coord = gs.coord.get_mut(&SRS32).expect("instantiated");
        coord.stalled.insert(parity);
        rig.put(1, SRS32);
        rig.request(2, ClientReq::Get { key: KEY });
        step(&mut node);
        step(&mut node);
        let entry = node.groups[&g].coord[&SRS32].meta.get(KEY, 1);
        let entry = entry.expect("placeholder");
        assert!(!entry.data_present && entry.waiters.len() == 1, "{entry:?}");

        node.flush_stalled(g, SRS32);
        let entry = node.groups[&g].coord[&SRS32].meta.get(KEY, 1);
        let entry = entry.expect("re-inserted by execute_write");
        assert!(entry.data_present && !entry.committed, "{entry:?}");
        assert_eq!(entry.waiters.len(), 1, "the get is still parked");

        let ack = Msg::ParityAck {
            group: g,
            memgest: SRS32,
            key: KEY,
            version: 1,
        };
        let parities: Vec<RingEndpoint> = (rig.config.parity_targets(g, 2).iter())
            .map(|p| rig.eps.remove(p).expect("registered"))
            .collect();
        for parity in &parities {
            parity.send(rig.coordinator, ack.clone()).expect("link up");
            step(&mut node);
        }
        rig.expect_reply(1, ClientResp::PutOk { version: 1 });
        let value = Payload::from(b"doomed".to_vec());
        rig.expect_reply(2, ClientResp::GetOk { value, version: 1 });
    }

    /// A move released from the version it parked on writes a higher
    /// one; into an unreliable memgest that commits — and prunes the
    /// source — before the next parked request is looked at.
    #[test]
    fn gets_parked_with_a_move_are_served_from_the_version_they_pinned() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        let replica = rig.cut_rep2_replica();
        rig.put(1, REP2);
        let (key, dst) = (KEY, REP1);
        rig.request(2, ClientReq::Move { key, dst });
        rig.request(3, ClientReq::Get { key });
        for _ in 0..3 {
            step(&mut node);
        }
        let ack = Msg::ReplicateAck {
            group: rig.g,
            memgest: REP2,
            key,
            version: 1,
        };
        rig.fabric.heal_link(rig.coordinator, replica);
        let replica = rig.eps.remove(&replica).expect("registered");
        replica.send(rig.coordinator, ack).expect("link healed");
        step(&mut node);
        let mut replies = BTreeMap::new();
        while let Ok(Some((_, Msg::Response { req, body }))) = rig.client.try_recv() {
            replies.insert(req, body);
        }
        let value = Payload::from(b"doomed".to_vec());
        let expected = [
            (1, ClientResp::PutOk { version: 1 }),
            (2, ClientResp::MoveOk { version: 2 }),
            (3, ClientResp::GetOk { value, version: 1 }),
        ];
        assert_eq!(replies, BTreeMap::from(expected));
    }

    /// Steps every node until none has a message left: the hand-stepped
    /// equivalent of letting a cluster run until it is quiet.
    fn settle(nodes: &mut [Node]) {
        let mut busy = true;
        while busy {
            busy = false;
            for node in nodes.iter_mut() {
                while let Ok(Some((from, msg))) = node.ep.try_recv() {
                    node.dispatch(from, msg);
                    busy = true;
                }
            }
        }
    }

    /// `len` reproducible, aperiodic bytes (xorshift).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Appends `lens[i]` noise bytes to the `mid` heap of the `i`-th
    /// coordinator in `nodes`.
    fn fill_heaps(nodes: &mut [Node], g: GroupId, mid: MemgestId, lens: &[usize]) {
        for (i, (node, &len)) in nodes.iter_mut().zip(lens).enumerate() {
            let coord = node.groups.get_mut(&g).expect("coordinated group");
            let coord = coord.coord.get_mut(&mid).expect("instantiated");
            let CoordStore::Srs { heap, .. } = &mut coord.store else {
                unreachable!("SRS store")
            };
            let addr = heap.alloc(len);
            heap.write(addr, &noise(len, i as u64 + 7));
        }
    }

    /// Asserts that the `mid` parity region of `parity` (index `idx`)
    /// equals a fresh re-encode of the coordinators' heaps: the put
    /// path's per-segment parity deltas.
    fn assert_re_encoded(parity: &Node, coordinators: &[Node], g: GroupId, mid: MemgestId) {
        let idx = parity.groups[&g].red_idx.expect("redundant role");
        let red = &parity.groups[&g].redundant[&mid];
        let RedundantStore::Parity {
            region,
            len,
            layout,
        } = &red.store
        else {
            unreachable!("parity store")
        };
        let mut want = Vec::new();
        for node in coordinators {
            let gs = &node.groups[&g];
            let CoordStore::Srs { heap, .. } = &gs.coord[&mid].store else {
                unreachable!("SRS store")
            };
            let bytes = heap.region().read_padded(0, heap.len());
            let shard = gs.shard.expect("coordinator role");
            for seg in layout.split_range(shard, 0, bytes.len()) {
                let data = &bytes[seg.data_addr..seg.data_addr + seg.len];
                let delta = layout.code().rs().parity_delta(idx, seg.source, data);
                let end = seg.parity_addr + seg.len;
                want.resize(want.len().max(end), 0);
                ring_erasure::Rs::apply_parity_delta(&mut want[seg.parity_addr..end], &delta);
            }
        }
        assert_eq!(*len, want.len());
        assert!(
            region.read_padded(0, *len) == want,
            "rebuilt parity differs"
        );
    }

    #[test]
    fn parity_rebuild_fetches_heaps_in_chunks_and_re_encodes_them() {
        let mut rig = Rig::new();
        let g = rig.g;
        let coordinators = (0..rig.config.s).map(|i| rig.config.coordinator(g, i));
        let coordinators: Vec<NodeId> = coordinators.collect();
        let mut nodes: Vec<Node> = coordinators.iter().map(|&c| rig.node(c)).collect();
        // Each heap spans three fetch chunks, the last one partial.
        let lens: Vec<usize> = (0..nodes.len())
            .map(|i| 2 * recovery::REBUILD_CHUNK + 1000 * (i + 1))
            .collect();
        fill_heaps(&mut nodes, g, SRS32, &lens);
        let parity = rig.config.redundant(g, 0);
        let mut p = rig.node(parity);
        p.start_recovery();
        nodes.push(p);
        settle(&mut nodes);

        let p = nodes.pop().expect("pushed");
        assert!(p.rebuilds.is_empty(), "every rebuild completed");
        assert!(p.next_spec_token >= 9, "3 shards x 3 chunks");
        assert_re_encoded(&p, &nodes, g, SRS32);
        for node in &nodes {
            let coord = &node.groups[&g].coord[&SRS32];
            assert!(coord.stalled.is_empty(), "{:?}", coord.stalled);
        }
    }

    /// A put that reaches a stalled coordinator between its
    /// `ParityRebuildInfo` and the parity's row reads leaves a placeholder
    /// entry, which holds no heap bytes and is no hole: the rows are
    /// served. Were they declined, SRS(2,1) — no donor to cover the shard
    /// — would re-encode without it.
    #[test]
    fn a_put_stalled_between_info_and_row_reads_leaves_the_rows_served() {
        const SRS21: MemgestId = 4;
        let mut rig = Rig::new();
        let g = rig.g;
        let coordinators = (0..rig.config.s).map(|i| rig.config.coordinator(g, i));
        let coordinators: Vec<NodeId> = coordinators.collect();
        let mut nodes: Vec<Node> = coordinators.iter().map(|&c| rig.node(c)).collect();
        fill_heaps(&mut nodes, g, SRS21, &[3000, 4000, 5000]);
        let parity = rig.config.redundant(g, 0);
        let mut p = rig.node(parity);
        p.start_recovery();
        for node in nodes.iter_mut() {
            while let Ok(Some((from, msg))) = node.ep.try_recv() {
                node.dispatch(from, msg); // Stalled; the Infos go out.
            }
        }
        // Queued at the coordinator ahead of the parity's row reads.
        rig.put(1, SRS21);
        nodes.push(p);
        settle(&mut nodes);

        let p = nodes.pop().expect("pushed");
        assert!(p.rebuilds.is_empty(), "every rebuild completed");
        rig.expect_reply(1, ClientResp::PutOk { version: 1 });
        assert_re_encoded(&p, &nodes, g, SRS21);
    }

    /// The retry tick re-issues only the rebuild reads that have gone
    /// unanswered for a retry period, not the ones sent just before it.
    #[test]
    fn a_rebuild_retry_re_issues_only_stale_reads() {
        let mut rig = Rig::new();
        let g = rig.g;
        let coordinators = (0..rig.config.s).map(|i| rig.config.coordinator(g, i));
        let coordinators: Vec<NodeId> = coordinators.collect();
        let mut nodes: Vec<Node> = coordinators.iter().map(|&c| rig.node(c)).collect();
        fill_heaps(&mut nodes, g, SRS32, &[3000, 4000, 5000]);
        let mut p = rig.node(rig.config.redundant(g, 0));
        p.start_recovery();
        for node in nodes.iter_mut() {
            while let Ok(Some((from, msg))) = node.ep.try_recv() {
                node.dispatch(from, msg);
            }
        }
        while let Ok(Some((from, msg))) = p.ep.try_recv() {
            p.dispatch(from, msg); // The Infos: one read per shard.
        }
        let tokens =
            |p: &Node| -> Vec<u64> { p.rebuilds[&(g, SRS32)].reads.keys().copied().collect() };
        let sent = tokens(&p);
        assert_eq!(sent.len(), 3);

        let now = ring_net::clock::now();
        let rb = p.rebuilds.get_mut(&(g, SRS32)).expect("rebuilding");
        rb.sent_at = now - Duration::from_secs(1); // The tick is due...
        p.retry_rebuilds(now);
        assert_eq!(tokens(&p), sent, "...but the reads are fresh");
        p.retry_rebuilds(now + Duration::from_secs(1));
        let resent = tokens(&p);
        assert_eq!(resent.len(), 3);
        assert!(
            resent.iter().all(|t| !sent.contains(t)),
            "stale reads re-issued"
        );
    }

    /// Sends `msg` to the coordinator from each of `parities` in turn and
    /// steps it once per message.
    fn from_parities(node: &mut Node, rig: &Rig, parities: &[NodeId], msg: &Msg) {
        for p in parities {
            rig.eps[p]
                .send(rig.coordinator, msg.clone())
                .expect("link up");
            step(node);
        }
    }

    #[test]
    fn puts_stay_stalled_until_every_rebuilding_parity_is_done() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        let (group, memgest) = (rig.g, SRS32);
        let parities = rig.config.parity_targets(group, 2);
        let start = Msg::ParityRebuildStart { group, memgest };
        from_parities(&mut node, &rig, &parities, &start);

        let done = Msg::ParityRebuildDone { group, memgest };
        from_parities(&mut node, &rig, &parities[..1], &done);
        rig.put(1, SRS32);
        step(&mut node);
        assert_eq!(
            node.groups[&group].stalled[&SRS32].len(),
            1,
            "still stalled"
        );
        assert!(node.pending.is_empty(), "no parity delta went out");

        from_parities(&mut node, &rig, &parities[1..], &done);
        assert!(node.groups[&group].stalled.is_empty(), "flushed");
        assert_eq!(node.pending.len(), 1, "the put is on its way");
    }

    #[test]
    fn a_repeated_rebuild_info_leaves_out_stalled_puts() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        let (group, memgest) = (rig.g, SRS32);
        let parity = rig.config.redundant(group, 0);
        let start = Msg::ParityRebuildStart { group, memgest };
        from_parities(&mut node, &rig, &[parity], &start);
        rig.put(1, SRS32);
        step(&mut node);
        // The first Info was lost: the parity asks again.
        from_parities(&mut node, &rig, &[parity], &start);
        let mut infos = Vec::new();
        while let Ok(Some((_, msg))) = rig.eps[&parity].try_recv() {
            if let Msg::ParityRebuildInfo { entries, .. } = msg {
                infos.push(entries);
            }
        }
        assert_eq!(infos.len(), 2);
        assert!(infos[1].is_empty(), "a stalled put shipped: {:?}", infos[1]);
    }

    #[test]
    fn a_config_without_the_rebuilding_parity_unstalls_the_coordinator() {
        let mut rig = Rig::new();
        let mut node = rig.node(rig.coordinator);
        let (group, memgest) = (rig.g, SRS32);
        let parity = rig.config.redundant(group, 0);
        let start = Msg::ParityRebuildStart { group, memgest };
        from_parities(&mut node, &rig, &[parity], &start);
        rig.put(1, SRS32);
        step(&mut node);
        assert_eq!(node.groups[&group].stalled[&SRS32].len(), 1);

        // The parity died mid-rebuild: a spare took its place.
        let mut config = rig.config.clone();
        config.epoch += 1;
        let pos = config.nodes.iter().position(|&n| n == parity);
        config.nodes[pos.expect("active")] = 99;
        let update = Msg::ConfigUpdate {
            config,
            memgests: Vec::new(),
            default: REP1,
        };
        rig.leader.send(rig.coordinator, update).expect("link up");
        step(&mut node);
        assert!(node.groups[&group].stalled.is_empty(), "flushed");
        assert_eq!(node.pending.len(), 1, "the put is on its way");
    }
}
