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
use crate::storage::{data_mr_key, parity_mr_key, VolatileTable};
use crate::storage::{CoordMemgest, CoordStore, Heap, RedundantMemgest, RedundantStore};
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

/// One coordinator's answer during a parity rebuild.
#[derive(Debug)]
pub(crate) struct RebuildInfo {
    pub heap_len: usize,
    pub data_valid: bool,
    pub entries: Vec<crate::proto::MetaEntry>,
}

/// Parity-rebuild progress on a freshly promoted redundant node.
#[derive(Debug)]
pub(crate) struct RebuildState {
    /// Coordinator shards that have answered `ParityRebuildInfo`.
    pub infos: BTreeMap<usize, RebuildInfo>,
    /// Shards expected to answer.
    pub expected: usize,
    /// Last time `ParityRebuildStart` was (re)broadcast to unanswered
    /// coordinators (they may themselves be mid-promotion).
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

/// One contacted peer of a speculative shard read: which stripe rows it
/// serves and the exact byte ranges requested (its response is the
/// concatenation of those ranges, in order).
#[derive(Debug)]
pub(crate) struct SpecPeer {
    /// `(segment index, stripe row)` per requested range. Rows `< k` are
    /// data sources; row `k + p` is parity node `p`.
    pub parts: Vec<(usize, usize)>,
    /// Requested `(addr, len)` ranges, parallel to `parts`.
    pub ranges: Vec<(usize, usize)>,
    /// Whether the ranges address the peer's parity region (vs. its
    /// data heap).
    pub parity: bool,
}

/// An in-flight speculative `k + Δ` shard read: a degraded get fans out
/// to the surviving data peers plus `1 + Δ` parity nodes and decodes
/// from whichever `k` stripe rows arrive first, late-binding past
/// stragglers (§"late-binding reads").
#[derive(Debug)]
pub(crate) struct SpecRead {
    pub group: GroupId,
    pub memgest: MemgestId,
    /// Lost range in this coordinator's heap.
    pub addr: usize,
    pub len: usize,
    /// SRS segments covering the lost range.
    pub segs: Vec<ring_erasure::Segment>,
    /// Stripe width `k`: rows needed per segment to decode.
    pub k: usize,
    /// Peers contacted, with their expected response layout.
    pub peers: BTreeMap<NodeId, SpecPeer>,
    /// Responses received so far (raw concatenated range bytes).
    pub responses: BTreeMap<NodeId, ring_net::Payload>,
    /// Peers that declined (rebuilding / holes) or answered garbage.
    pub declined: BTreeSet<NodeId>,
    /// Parity nodes held in reserve as `(parity index, node)`; promoted
    /// one at a time when a contacted peer declines.
    pub reserve: Vec<(usize, NodeId)>,
    /// Fetch-attempt counter inherited from the triggering entry; seeds
    /// the parity rotation and the single-target fallback.
    pub attempt: u8,
    pub sent_at: Instant,
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
    pub(crate) spec_reads: BTreeMap<u64, SpecRead>,
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
        self.build_stats()
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
            self.retry_rebuild_starts(now);
            self.expire_spec_reads(now);
            if self.opts.background_recovery && self.recovering == 0 {
                self.background_recovery_sweep();
            }
        }
    }

    /// Re-broadcasts `ParityRebuildStart` to coordinators that have not
    /// answered yet (a coordinator promoted in the same failure burst
    /// only answers once its own role state exists).
    fn retry_rebuild_starts(&mut self, now: Instant) {
        const START_RETRY: Duration = Duration::from_millis(150);
        let mut resend = Vec::new();
        for (&(g, mid), rb) in self.rebuilds.iter_mut() {
            if now.duration_since(rb.sent_at) < START_RETRY {
                continue;
            }
            rb.sent_at = now;
            for shard in 0..self.config.s {
                if !rb.infos.contains_key(&shard) {
                    resend.push((self.config.coordinator(g, shard), g, mid));
                }
            }
        }
        for (target, g, mid) in resend {
            let _ = self.ep.send(
                target,
                Msg::ParityRebuildStart {
                    group: g,
                    memgest: mid,
                },
            );
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
            Msg::RecoverBlock {
                group,
                memgest,
                shard,
                addr,
                len,
            } => self.handle_recover_block(from, group, memgest, shard, addr, len),
            Msg::RecoverBlockResp {
                group,
                memgest,
                addr,
                bytes,
            } => self.handle_recover_block_resp(group, memgest, addr, bytes),
            Msg::ParityRebuildStart { group, memgest } => {
                self.handle_parity_rebuild_start(from, group, memgest)
            }
            Msg::ParityRebuildInfo {
                group,
                memgest,
                shard,
                heap_len,
                data_valid,
                entries,
            } => self
                .handle_parity_rebuild_info(group, memgest, shard, heap_len, data_valid, entries),
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
        let desc = match self.catalog.get(&id) {
            Some(d) => *d,
            None => return,
        };
        let s = self.config.s;
        let gs = self.groups.entry(g).or_default();

        if gs.shard.is_some() && !gs.coord.contains_key(&id) {
            let store = match desc.scheme {
                Scheme::Rep { .. } => CoordStore::Rep {
                    values: std::collections::HashMap::new(),
                },
                Scheme::Srs { k, m } => {
                    let code =
                        ring_erasure::SrsCode::new(k, m, s).expect("validated at memgest creation");
                    let layout = ring_erasure::SrsLayout::new(code, desc.block_size)
                        .expect("block_size validated at creation");
                    let heap = Heap::new(desc.block_size * 4);
                    self.ep
                        .register_region(data_mr_key(g, id), heap.region().clone());
                    CoordStore::Srs { heap, layout }
                }
            };
            gs.coord.insert(
                id,
                CoordMemgest {
                    desc,
                    meta: crate::storage::MetaTable::new(),
                    store,
                    stalled: false,
                },
            );
        }

        // Redundant-side state: replica stores on every active node (a
        // Rep(r) with r > d + 1 spills copies onto coordinators); parity
        // heaps only on redundant nodes with index < m.
        let needs_parity = match desc.scheme {
            Scheme::Srs { m, .. } => gs.red_idx.map(|i| i < m).unwrap_or(false),
            Scheme::Rep { .. } => false,
        };
        let needs_rep_store = matches!(desc.scheme, Scheme::Rep { r } if r > 1);
        if (needs_parity || needs_rep_store) && !gs.redundant.contains_key(&id) {
            let store = if needs_parity {
                let region = ring_net::MemoryRegion::new(desc.block_size * 4);
                self.ep
                    .register_region(parity_mr_key(g, id), region.clone());
                let (k, m) = match desc.scheme {
                    Scheme::Srs { k, m } => (k, m),
                    Scheme::Rep { .. } => unreachable!("parity implies SRS"),
                };
                let code =
                    ring_erasure::SrsCode::new(k, m, s).expect("validated at memgest creation");
                let layout = ring_erasure::SrsLayout::new(code, desc.block_size)
                    .expect("block_size validated at creation");
                RedundantStore::Parity {
                    region,
                    len: 0,
                    layout,
                }
            } else {
                RedundantStore::Rep {
                    values: std::collections::HashMap::new(),
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
    /// and its dedup slot `InFlight` forever.
    pub(crate) fn drop_memgest(&mut self, id: MemgestId) {
        self.catalog.remove(&id);
        let mut orphaned: Vec<OnCommit> = Vec::new();
        for (g, gs) in self.groups.iter_mut() {
            if let Some(coord) = gs.coord.remove(&id) {
                // Purge volatile references so later gets don't chase a
                // dangling memgest id.
                for (key, version, _) in coord.meta.iter() {
                    gs.volatile.remove(key, version);
                }
                self.ep.deregister_region(data_mr_key(*g, id));
            }
            if gs.redundant.remove(&id).is_some() {
                self.ep.deregister_region(parity_mr_key(*g, id));
            }
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
            let gone = ClientResp::Error(crate::error::RingError::UnknownMemgest(id));
            self.respond(client.0, client.1, gone);
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
        if let Some(gs) = self.groups.get_mut(&group) {
            if let Some(red) = gs.redundant.get_mut(&memgest) {
                for (v, e) in red.meta.remove_below(key, below) {
                    if let RedundantStore::Rep { values } = &mut red.store {
                        values.remove(&(key, v));
                    }
                    let _ = e;
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

    /// Delivers the next queued message to a hand-stepped node.
    fn step(node: &mut Node) {
        let (from, msg) = node
            .ep
            .recv_timeout(Duration::from_secs(5))
            .expect("a message is queued");
        node.dispatch(from, msg);
    }

    fn put(client: &RingEndpoint, to: NodeId, req: ReqId, key: Key, memgest: MemgestId) {
        let body = ClientReq::Put {
            key,
            value: ring_net::Payload::from(b"doomed".to_vec()),
            memgest: Some(memgest),
        };
        client
            .send(to, Msg::Request { req, body })
            .expect("client link is up");
    }

    fn expect_unknown_memgest(client: &RingEndpoint, req: ReqId, id: MemgestId) {
        let (_, msg) = client
            .recv_timeout(Duration::from_secs(5))
            .expect("the dropped write is answered, not left to time out");
        let body = ClientResp::Error(RingError::UnknownMemgest(id));
        assert_eq!(msg, Msg::Response { req, body });
    }

    /// A five-node cluster on one thread: every node is registered on
    /// the fabric, but only `key`'s coordinator runs, stepped message by
    /// message so its private tables can be inspected between steps.
    #[test]
    fn drop_memgest_fails_inflight_writes_back_to_their_clients() {
        const REP2: MemgestId = 1;
        const SRS32: MemgestId = 6;
        let spec = ClusterSpec::paper_evaluation();
        let fabric: RingFabric = ring_net::Fabric::new(ring_net::LatencyModel::instant());
        let nodes: Vec<NodeId> = (0..(spec.s + spec.d) as NodeId).collect();
        let config = ClusterConfig::initial(spec.s, spec.d, spec.groups, nodes.clone(), Vec::new());
        let key: Key = 12345;
        let coordinator = config.coordinator_of_key(key);
        let (g, shard) = config.locate(key);

        let mut eps: BTreeMap<NodeId, RingEndpoint> = nodes
            .iter()
            .map(|&id| (id, fabric.register(id).expect("fresh fabric")))
            .collect();
        let leader = fabric.register(LEADER_NODE).expect("fresh fabric");
        let client = fabric.register(CLIENT_BASE).expect("fresh fabric");
        let opts = NodeOptions {
            initial_memgests: (0..).zip(spec.memgests.iter().copied()).collect(),
            ..NodeOptions::default()
        };
        let ep = eps.remove(&coordinator).expect("registered");
        let mut node = Node::new(ep, config.clone(), opts);

        // A REP2 put whose redundancy link is cut stays uncommitted...
        for replica in config.replica_targets(g, shard, 2) {
            fabric.fail_link(coordinator, replica);
        }
        put(&client, coordinator, 1, key, REP2);
        step(&mut node);
        assert_eq!(node.pending.len(), 1, "awaiting the replica's ack");
        // ...and an SRS put behind a parity rebuild is stalled.
        let gs = node.groups.get_mut(&g).expect("coordinated group");
        gs.coord.get_mut(&SRS32).expect("instantiated").stalled = true;
        put(&client, coordinator, 2, key, SRS32);
        step(&mut node);
        assert_eq!(node.groups[&g].stalled[&SRS32].len(), 1);

        for (token, req, id) in [(7, 1, REP2), (8, 2, SRS32)] {
            leader
                .send(coordinator, Msg::MemgestDrop { token, id })
                .expect("leader link is up");
            step(&mut node);
            expect_unknown_memgest(&client, req, id);
            // The write's dedup slot is settled, not `InFlight` forever:
            // a re-delivery is answered from the cache.
            put(&client, coordinator, req, key, id);
            step(&mut node);
            expect_unknown_memgest(&client, req, id);
        }
        assert!(node.pending.is_empty(), "{:?}", node.pending);
        assert!(node.groups[&g].stalled.is_empty());
    }
}
