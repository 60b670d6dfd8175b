//! Coordinator-side request processing: the put/get/delete/move paths,
//! write-ahead, versioning, commit and garbage collection
//! (Sections 5.1–5.3).

use ring_net::{NodeId, Payload, Transport};

use crate::config::LEADER_NODE;
use crate::error::RingError;
use crate::proto::{ClientReq, ClientResp, ClientTag, MetaEntry, Msg, ParitySeg};
use crate::protocol::steps;
use crate::storage::{CoordStore, ObjectEntry, RedundantStore, Waiter};
use crate::types::{GroupId, Key, MemgestId, ReqId, Scheme, Version};

use super::{Node, OnCommit, PendingPut, StalledPut, DEDUP_CAP};

impl<T: Transport<Msg>> Node<T> {
    pub(crate) fn handle_request(&mut self, from: NodeId, req: ReqId, body: ClientReq) {
        // At-most-once for writes: a re-delivered `(client, req)` must
        // not execute a second time (it would assign a fresh version
        // outside the client's linearization window). Reads are
        // idempotent and skip the table.
        if matches!(
            body,
            ClientReq::Put { .. } | ClientReq::Delete { .. } | ClientReq::Move { .. }
        ) {
            match steps::dedup_decision(self.dedup.get(&(from, req))) {
                steps::DedupDecision::Resend(resp) => {
                    let body = resp.clone();
                    let _ = self.ep.send(from, Msg::Response { req, body });
                    return;
                }
                steps::DedupDecision::Drop => return,
                steps::DedupDecision::Execute => {}
            }
        }
        // Management requests belong to the leader; a data node that
        // receives one (e.g. through a client multicast) ignores it.
        match body {
            ClientReq::Put {
                key,
                value,
                memgest,
            } => {
                self.ops.puts += 1;
                self.handle_put(from, req, key, value, memgest)
            }
            ClientReq::Get { key } => {
                self.ops.gets += 1;
                self.handle_get(from, req, key)
            }
            ClientReq::Delete { key } => {
                self.ops.deletes += 1;
                self.handle_delete(from, req, key)
            }
            ClientReq::Move { key, dst } => {
                self.ops.moves += 1;
                self.handle_move(from, req, key, dst)
            }
            ClientReq::Stats => self.handle_stats(from, req),
            ClientReq::CreateMemgest { .. }
            | ClientReq::DeleteMemgest { .. }
            | ClientReq::SetDefaultMemgest { .. }
            | ClientReq::GetMemgestDescriptor { .. } => {
                debug_assert_ne!(self.id, LEADER_NODE);
            }
        }
    }

    /// Returns `Some(group)` iff this node currently coordinates `key`
    /// and is ready to serve (not mid-recovery).
    fn owned_group(&self, key: Key) -> Option<GroupId> {
        if !self.active || self.recovering > 0 {
            return None;
        }
        let (g, shard) = self.config.locate(key);
        let gs = self.groups.get(&g)?;
        (gs.shard == Some(shard)).then_some(g)
    }

    /// Opens an at-most-once window for `(from, req)`: until
    /// [`Node::respond`] settles it, re-deliveries of the same request
    /// are dropped instead of re-executed. Called only once the node has
    /// committed to answering (it owns the key and is not recovering) —
    /// silently ignored requests leave no trace, so the right node's
    /// execution is unaffected.
    fn dedup_open(&mut self, from: NodeId, req: ReqId) {
        self.dedup.insert((from, req), steps::DedupSlot::InFlight);
    }

    /// Sends a client response, settling the request's at-most-once
    /// window if one is open. The response is cached — errors included:
    /// the execution linearized somewhere inside the client's still-open
    /// window, so every later delivery of the same `(client, req)`
    /// (duplicate or client retry after a lost response) must observe
    /// that same answer rather than execute again.
    pub(super) fn respond(&mut self, to: NodeId, req: ReqId, body: ClientResp) {
        steps::settle_dedup(
            &mut self.dedup,
            &mut self.dedup_order,
            (to, req),
            body.clone(),
            DEDUP_CAP,
        );
        let _ = self.ep.send(to, Msg::Response { req, body });
    }

    /// Answers `client` with `KeyNotFound`: the key was never written,
    /// its latest version is a tombstone, or its memgest is gone.
    fn reply_not_found(&mut self, client: ClientTag) {
        self.respond(
            client.0,
            client.1,
            ClientResp::Error(RingError::KeyNotFound),
        );
    }

    // ---- Put ----

    fn handle_put(
        &mut self,
        from: NodeId,
        req: ReqId,
        key: Key,
        value: Payload,
        memgest: Option<MemgestId>,
    ) {
        let Some(g) = self.owned_group(key) else {
            return; // Not ours: stay silent, the right node will answer.
        };
        self.dedup_open(from, req);
        let mid = memgest.unwrap_or(self.default_memgest);
        if !self.catalog.contains_key(&mid) {
            self.respond(from, req, ClientResp::Error(RingError::UnknownMemgest(mid)));
            return;
        }
        self.local_write(g, mid, key, value, false, OnCommit::ReplyPut((from, req)));
    }

    /// The write-ahead path shared by put, delete (tombstone) and the
    /// destination half of move: assigns the next version, records the
    /// uncommitted entry, stores the data locally, and fans out the
    /// redundancy traffic. Commit happens in [`Node::handle_ack`].
    pub(crate) fn local_write(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        value: Payload,
        tombstone: bool,
        on_commit: OnCommit,
    ) {
        let gs = self.groups.get_mut(&g).expect("owned group exists");
        let shard = gs.shard.expect("coordinator role");
        let version = steps::next_version(gs.volatile.highest(key).map(|(v, _)| v));
        // Write-ahead: the volatile table and metadata table learn about
        // the version before any redundancy traffic is sent.
        gs.volatile.record(key, version, mid);

        let coord = gs.coord.get_mut(&mid).expect("memgest instantiated");
        let scheme = coord.desc.scheme;

        if matches!(scheme, Scheme::Srs { .. }) && coord.stalled {
            // A new parity node is rebuilding: postpone the data write
            // and fan-out, but keep the version reservation.
            coord.meta.insert(
                key,
                version,
                ObjectEntry {
                    data_present: false,
                    ..ObjectEntry::new(value.len(), usize::MAX, tombstone)
                },
            );
            gs.stalled.entry(mid).or_default().push(StalledPut {
                key,
                version,
                value,
                tombstone,
                on_commit,
            });
            return;
        }

        self.execute_write(g, shard, mid, key, version, value, tombstone, on_commit);
    }

    /// Performs the data write and redundancy fan-out for an assigned
    /// version (also used when flushing stalled puts).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_write(
        &mut self,
        g: GroupId,
        shard: usize,
        mid: MemgestId,
        key: Key,
        version: Version,
        value: Payload,
        tombstone: bool,
        on_commit: OnCommit,
    ) {
        let gs = self.groups.get_mut(&g).expect("owned group exists");
        let coord = gs.coord.get_mut(&mid).expect("memgest instantiated");
        let scheme = coord.desc.scheme;
        let len = value.len();

        let mut parity_msgs: Vec<(NodeId, Msg)> = Vec::new();
        let mut replicate_targets: Vec<NodeId> = Vec::new();
        let addr = match &mut coord.store {
            CoordStore::Rep { values } => {
                if !tombstone {
                    values.insert((key, version), value.clone());
                }
                usize::MAX
            }
            CoordStore::Srs { heap, layout } => {
                let addr = if tombstone || len == 0 {
                    heap.len()
                } else {
                    heap.alloc(len)
                };
                if !tombstone && len > 0 {
                    // Versioned writes always land in fresh bump-allocated
                    // (zeroed) space, so the parity delta `new ^ old` is
                    // the value itself — no read-back or XOR needed.
                    heap.region()
                        .write(addr, &value)
                        .expect("allocated range is in bounds");
                    let delta: &[u8] = &value;
                    let targets = match scheme {
                        Scheme::Srs { m, .. } => self.config.parity_targets(g, m),
                        Scheme::Rep { .. } => unreachable!("SRS store"),
                    };
                    let segs = layout.split_range(shard, addr, len);
                    for (p_idx, &p_node) in targets.iter().enumerate() {
                        let mut out = Vec::with_capacity(segs.len());
                        for seg in &segs {
                            let c = layout.coefficient(p_idx, seg);
                            let off = seg.data_addr - addr;
                            let payload = if c == ring_gf::Gf256::ONE && off == 0 && seg.len == len
                            {
                                // Unit coefficient over the whole range:
                                // share the client's payload, zero-copy.
                                value.clone()
                            } else {
                                let mut d = vec![0u8; seg.len];
                                ring_gf::region::mul_into(&mut d, &delta[off..off + seg.len], c);
                                Payload::from(d)
                            };
                            out.push(ParitySeg {
                                parity_addr: seg.parity_addr,
                                delta: payload,
                            });
                        }
                        parity_msgs.push((
                            p_node,
                            Msg::ParityUpdate {
                                group: g,
                                memgest: mid,
                                shard,
                                meta: MetaEntry {
                                    key,
                                    version,
                                    len,
                                    addr,
                                    tombstone,
                                },
                                segs: out,
                            },
                        ));
                    }
                } else if let Scheme::Srs { m, .. } = scheme {
                    // Tombstones carry no heap delta but their metadata
                    // must still reach the parity nodes.
                    for &p_node in &self.config.parity_targets(g, m) {
                        parity_msgs.push((
                            p_node,
                            Msg::ParityUpdate {
                                group: g,
                                memgest: mid,
                                shard,
                                meta: MetaEntry {
                                    key,
                                    version,
                                    len: 0,
                                    addr,
                                    tombstone,
                                },
                                segs: Vec::new(),
                            },
                        ));
                    }
                }
                addr
            }
        };
        coord
            .meta
            .insert(key, version, ObjectEntry::new(len, addr, tombstone));

        if let Scheme::Rep { r } = scheme {
            if r > 1 {
                replicate_targets = self.config.replica_targets(g, shard, r);
            }
        }

        let needed = steps::acks_needed(scheme, self.opts.sync_replication);
        let mut msgs: Vec<(NodeId, Msg)> = Vec::new();
        for &t in &replicate_targets {
            msgs.push((
                t,
                Msg::Replicate {
                    group: g,
                    memgest: mid,
                    key,
                    version,
                    value: value.clone(),
                    tombstone,
                },
            ));
        }
        msgs.extend(parity_msgs);
        for (t, msg) in &msgs {
            let _ = self.ep.send(*t, msg.clone());
        }

        if needed == 0 {
            // Unreliable memgest: committed immediately (Section 5.2).
            self.commit(g, mid, key, version, on_commit);
        } else {
            self.pending.insert(
                (g, mid, key, version),
                PendingPut {
                    acks: steps::AckState::open(msgs.iter().map(|(t, _)| *t), needed),
                    on_commit,
                    msgs,
                    last_send: ring_net::clock::now(),
                    retries: 0,
                },
            );
        }
    }

    // ---- Commit ----

    pub(crate) fn handle_ack(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
    ) {
        let Some(p) = self.pending.get_mut(&(g, mid, key, version)) else {
            return; // Late ack after commit; ignore.
        };
        match p.acks.apply_ack(from) {
            steps::AckOutcome::Ignored | steps::AckOutcome::Counted => {}
            steps::AckOutcome::Commit => {
                let p = self
                    .pending
                    .remove(&(g, mid, key, version))
                    .expect("present");
                self.commit(g, mid, key, version, p.on_commit);
            }
        }
    }

    /// Marks `(key, version)` committed, answers the client, releases
    /// parked requests, and prunes superseded versions.
    pub(crate) fn commit(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
        on_commit: OnCommit,
    ) {
        let gs = self.groups.get_mut(&g).expect("owned group");
        let coord = gs.coord.get_mut(&mid).expect("memgest");
        let mut waiters = Vec::new();
        if let Some(e) = coord.meta.get_mut(key, version) {
            e.committed = true;
            waiters = std::mem::take(&mut e.waiters);
        }

        match on_commit {
            OnCommit::ReplyPut(client) => {
                self.respond(client.0, client.1, ClientResp::PutOk { version })
            }
            OnCommit::ReplyDelete(client) => self.respond(client.0, client.1, ClientResp::DeleteOk),
            OnCommit::ReplyMove(client) => {
                self.respond(client.0, client.1, ClientResp::MoveOk { version })
            }
        }

        self.release_waiters(g, mid, vec![(key, version, waiters)]);

        if !self.opts.keep_old_versions {
            self.prune_below(g, key, version);
            // If this version was itself superseded while uncommitted
            // (a higher version committed first — Figure 5), its meta
            // entry was spared only for the waiters just flushed; drop
            // it now that they are served.
            let gs = self.groups.get_mut(&g).expect("owned group");
            let superseded = gs.volatile.versions(key).iter().all(|&(v, _)| v != version);
            if superseded {
                if let Some(c) = gs.coord.get_mut(&mid) {
                    c.meta.remove(key, version);
                    if let crate::storage::CoordStore::Rep { values } = &mut c.store {
                        values.remove(&(key, version));
                    }
                }
            }
        }
    }

    /// Removes every version of `key` strictly below `version` from the
    /// volatile table and all memgests, and tells the redundancy to do
    /// the same (the periodic old-version removal of Section 5.2, tuned
    /// to run on every commit).
    pub(crate) fn prune_below(&mut self, g: GroupId, key: Key, version: Version) {
        let gs = self.groups.get_mut(&g).expect("owned group");
        let shard = gs.shard.expect("coordinator");
        let doomed: Vec<(Version, MemgestId)> = gs
            .volatile
            .versions(key)
            .iter()
            .copied()
            .filter(|&(v, _)| v < version)
            .collect();
        gs.volatile.remove_below(key, version);
        let mut notices: Vec<(MemgestId, Scheme)> = Vec::new();
        for (v, m) in doomed {
            if let Some(c) = gs.coord.get_mut(&m) {
                // Never prune entries that are still uncommitted (their
                // client is waiting for the quorum) or that carry parked
                // requests pinned to them (Figure 5 semantics).
                let removable = c
                    .meta
                    .get(key, v)
                    .map(|e| steps::removable(e.committed, !e.waiters.is_empty()))
                    .unwrap_or(false);
                if removable {
                    c.meta.remove(key, v);
                    if let CoordStore::Rep { values } = &mut c.store {
                        values.remove(&(key, v));
                    }
                }
                if !notices.iter().any(|(id, _)| *id == m) {
                    notices.push((m, c.desc.scheme));
                }
            }
        }
        for (m, scheme) in notices {
            if scheme.redundancy() == 0 {
                continue;
            }
            for t in self.redundancy_targets(g, shard, scheme) {
                let _ = self.ep.send(
                    t,
                    Msg::MetaRemove {
                        group: g,
                        memgest: m,
                        key,
                        below: version,
                    },
                );
            }
        }
    }

    // ---- Get ----

    fn handle_get(&mut self, from: NodeId, req: ReqId, key: Key) {
        let Some(g) = self.owned_group(key) else {
            return;
        };
        let gs = self.groups.get_mut(&g).expect("owned group");
        let Some((version, mid)) = gs.volatile.highest(key) else {
            self.reply_not_found((from, req));
            return;
        };
        let Some(coord) = gs.coord.get_mut(&mid) else {
            self.reply_not_found((from, req));
            return;
        };
        let Some(entry) = coord.meta.get_mut(key, version) else {
            self.respond(
                from,
                req,
                ClientResp::Error(RingError::Internal("volatile/meta divergence".into())),
            );
            return;
        };
        let decision = steps::read_decision(&steps::ReadEntry {
            committed: entry.committed,
            tombstone: entry.tombstone,
            data_present: entry.data_present,
        });
        if decision == steps::ReadDecision::Postpone {
            // Postpone until the pinned version commits (Figure 5).
            entry.waiters.push(Waiter::Get((from, req)));
            return;
        }
        self.answer_get(g, mid, key, version, (from, req));
    }

    /// Answers a get for a committed version, triggering on-demand data
    /// recovery if the bytes are not locally present.
    pub(crate) fn answer_get(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
        client: ClientTag,
    ) {
        let gs = self.groups.get_mut(&g).expect("owned group");
        let shard = gs.shard.expect("coordinator");
        let Some(coord) = gs.coord.get_mut(&mid) else {
            self.reply_not_found(client);
            return;
        };
        let scheme = coord.desc.scheme;
        let Some(entry) = coord.meta.get_mut(key, version) else {
            self.reply_not_found(client);
            return;
        };
        // `answer_get` is only reached for committed versions, so the
        // decision here splits tombstone / serve / recover.
        match steps::read_decision(&steps::ReadEntry {
            committed: true,
            tombstone: entry.tombstone,
            data_present: entry.data_present,
        }) {
            steps::ReadDecision::NotFound => {
                self.reply_not_found(client);
                return;
            }
            steps::ReadDecision::Serve => {
                let value = coord.store.read_value(key, version, entry);
                self.respond(client.0, client.1, ClientResp::GetOk { value, version });
                return;
            }
            steps::ReadDecision::Postpone | steps::ReadDecision::Recover => {}
        }
        // Lost data: recover on the fly with high priority (Section 5.5).
        let need_fetch = !entry.fetching;
        entry.fetching = true;
        entry.waiters.push(Waiter::Get(client));
        let (addr, len) = (entry.addr, entry.len);
        let attempt = entry.fetch_attempts;
        entry.fetch_attempts = entry.fetch_attempts.wrapping_add(1);
        if need_fetch {
            self.request_data_recovery(g, shard, mid, scheme, key, version, addr, len, attempt);
        }
    }

    // ---- Delete ----

    fn handle_delete(&mut self, from: NodeId, req: ReqId, key: Key) {
        let Some(g) = self.owned_group(key) else {
            return;
        };
        self.dedup_open(from, req);
        let gs = self.groups.get_mut(&g).expect("owned group");
        let Some((version, mid)) = gs.volatile.highest(key) else {
            self.reply_not_found((from, req));
            return;
        };
        // Deleting a key whose latest version is already a tombstone is
        // a miss, not a second delete.
        let already_deleted = gs
            .coord
            .get(&mid)
            .and_then(|c| c.meta.get(key, version))
            .map(|e| e.tombstone)
            .unwrap_or(false);
        if already_deleted {
            self.reply_not_found((from, req));
            return;
        }
        // A delete is a tombstone written to the memgest currently
        // holding the highest version, and commits under that memgest's
        // redundancy rule.
        self.local_write(
            g,
            mid,
            key,
            Payload::empty(),
            true,
            OnCommit::ReplyDelete((from, req)),
        );
    }

    // ---- Move ----

    fn handle_move(&mut self, from: NodeId, req: ReqId, key: Key, dst: MemgestId) {
        let Some(g) = self.owned_group(key) else {
            return;
        };
        self.dedup_open(from, req);
        if !self.catalog.contains_key(&dst) {
            self.respond(from, req, ClientResp::Error(RingError::UnknownMemgest(dst)));
            return;
        }
        self.do_move(g, key, dst, (from, req));
    }

    /// Executes (or parks) a move: the object must be read from the
    /// memgest holding the highest version, which requires that version
    /// to be committed and its data locally available (Section 5.2).
    pub(crate) fn do_move(&mut self, g: GroupId, key: Key, dst: MemgestId, client: ClientTag) {
        let gs = self.groups.get_mut(&g).expect("owned group");
        let shard = gs.shard.expect("coordinator");
        let Some((version, src)) = gs.volatile.highest(key) else {
            self.reply_not_found(client);
            return;
        };
        let Some(coord) = gs.coord.get_mut(&src) else {
            self.reply_not_found(client);
            return;
        };
        let scheme = coord.desc.scheme;
        let Some(entry) = coord.meta.get_mut(key, version) else {
            self.reply_not_found(client);
            return;
        };
        if entry.tombstone {
            self.reply_not_found(client);
            return;
        }
        if !entry.committed {
            // The move will resume when the version commits.
            entry.waiters.push(Waiter::Move { client, dst });
            return;
        }
        if !entry.data_present {
            let need_fetch = !entry.fetching;
            entry.fetching = true;
            entry.waiters.push(Waiter::Move { client, dst });
            let (addr, len) = (entry.addr, entry.len);
            let attempt = entry.fetch_attempts;
            entry.fetch_attempts = entry.fetch_attempts.wrapping_add(1);
            if need_fetch {
                self.request_data_recovery(g, shard, src, scheme, key, version, addr, len, attempt);
            }
            return;
        }
        // All local: no distributed transaction needed — the benefit of
        // the shared SRS key-to-node mapping (Section 5.2).
        let value = coord.store.read_value(key, version, entry);
        self.local_write(g, dst, key, value, false, OnCommit::ReplyMove(client));
    }

    /// Flushes the stalled-put queue of a memgest after a parity rebuild
    /// completes.
    pub(crate) fn flush_stalled(&mut self, g: GroupId, mid: MemgestId) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let shard = match gs.shard {
            Some(s) => s,
            None => return,
        };
        if let Some(c) = gs.coord.get_mut(&mid) {
            c.stalled = false;
        }
        let queue = gs.stalled.remove(&mid).unwrap_or_default();
        for sp in queue {
            // Remove the placeholder entry; execute_write re-inserts it
            // with the real heap address.
            if let Some(c) = self
                .groups
                .get_mut(&g)
                .and_then(|gs| gs.coord.get_mut(&mid))
            {
                c.meta.remove(sp.key, sp.version);
            }
            self.execute_write(
                g,
                shard,
                mid,
                sp.key,
                sp.version,
                sp.value,
                sp.tombstone,
                sp.on_commit,
            );
        }
    }

    /// Sends the on-demand recovery request for a missing value,
    /// speculatively fanning out to `1 + Δ` redundancy targets (rotated
    /// by attempt number so a dead or still-rebuilding holder cannot
    /// wedge the waiters) and binding to whichever answers first.
    #[allow(clippy::too_many_arguments)]
    fn request_data_recovery(
        &mut self,
        g: GroupId,
        shard: usize,
        mid: MemgestId,
        scheme: Scheme,
        key: Key,
        version: Version,
        addr: usize,
        len: usize,
        attempt: u8,
    ) {
        match scheme {
            Scheme::Rep { r } => {
                let targets = self.config.replica_targets(g, shard, r);
                if !targets.is_empty() {
                    // Ask 1 + Δ distinct replicas at once; the first
                    // copy to arrive wins, later ones are idempotent.
                    let fanout = (1 + self.opts.read_fanout_extra).min(targets.len());
                    for c in 0..fanout {
                        let target = targets[(attempt as usize + c) % targets.len()];
                        let _ = self.ep.send(
                            target,
                            Msg::FetchValue {
                                group: g,
                                memgest: mid,
                                key,
                                version,
                            },
                        );
                    }
                }
            }
            Scheme::Srs { m, .. } => {
                if self.start_spec_read(g, shard, mid, addr, len, attempt) {
                    return;
                }
                // Degenerate range (or no parity targets): the delegated
                // single-parity decode still covers it.
                let targets = self.config.parity_targets(g, m);
                if !targets.is_empty() {
                    let parity = targets[attempt as usize % targets.len()];
                    let _ = self.ep.send(
                        parity,
                        Msg::RecoverBlock {
                            group: g,
                            memgest: mid,
                            shard,
                            addr,
                            len,
                        },
                    );
                }
            }
        }
    }

    /// Starts a speculative `k + Δ` shard read for a lost SRS heap range:
    /// requests the `k - 1` surviving lane blocks from the peer
    /// coordinators plus the matching parity bytes from `1 + Δ` parity
    /// nodes, and decodes locally from whichever `k` stripe rows arrive
    /// first ([`Node::handle_shard_read_resp`]). Returns `false` when the
    /// fan-out cannot be built (empty range, no parity targets, unknown
    /// memgest) and the caller should fall back to the delegated decode.
    fn start_spec_read(
        &mut self,
        g: GroupId,
        shard: usize,
        mid: MemgestId,
        addr: usize,
        len: usize,
        attempt: u8,
    ) -> bool {
        use super::{SpecPeer, SpecRead};
        let Some(coord) = self.groups.get(&g).and_then(|gs| gs.coord.get(&mid)) else {
            return false;
        };
        let CoordStore::Srs { layout, .. } = &coord.store else {
            return false;
        };
        let segs = layout.split_range(shard, addr, len);
        if segs.is_empty() {
            return false;
        }
        let params = layout.code().params();
        let (k, m) = (params.k, params.m);
        let parity_nodes = self.config.parity_targets(g, m);
        if parity_nodes.is_empty() {
            return false;
        }
        // The surviving lane peers: every stripe row of each segment
        // except our own (each data source lives on exactly one peer
        // coordinator, so these rows have a single possible server).
        let mut peers: std::collections::BTreeMap<NodeId, SpecPeer> =
            std::collections::BTreeMap::new();
        for (i, seg) in segs.iter().enumerate() {
            for j in 0..k {
                if j == seg.source {
                    continue;
                }
                let (peer_idx, peer_addr) = layout.peer_addr(seg, j);
                let node = self.config.coordinator(g, peer_idx);
                let p = peers.entry(node).or_insert_with(|| SpecPeer {
                    parts: Vec::new(),
                    ranges: Vec::new(),
                    parity: false,
                });
                p.parts.push((i, j));
                p.ranges.push((peer_addr, seg.len));
            }
        }
        // 1 + Δ parity nodes (rotated by attempt); the rest stay in
        // reserve, promoted one at a time if a contacted peer declines.
        let fanout = (1 + self.opts.read_fanout_extra).min(parity_nodes.len());
        let mut reserve = Vec::new();
        for c in 0..parity_nodes.len() {
            let p_idx = (attempt as usize + c) % parity_nodes.len();
            let node = parity_nodes[p_idx];
            if c < fanout {
                let p = peers.entry(node).or_insert_with(|| SpecPeer {
                    parts: Vec::new(),
                    ranges: Vec::new(),
                    parity: true,
                });
                for (i, seg) in segs.iter().enumerate() {
                    p.parts.push((i, k + p_idx));
                    p.ranges.push((seg.parity_addr, seg.len));
                }
            } else {
                reserve.push((p_idx, node));
            }
        }
        let token = self.next_spec_token;
        self.next_spec_token += 1;
        for (&node, p) in &peers {
            let _ = self.ep.send(
                node,
                Msg::ShardRead {
                    group: g,
                    memgest: mid,
                    token,
                    parity: p.parity,
                    ranges: p.ranges.clone(),
                },
            );
        }
        self.spec_reads.insert(
            token,
            SpecRead {
                group: g,
                memgest: mid,
                addr,
                len,
                segs,
                k,
                peers,
                responses: std::collections::BTreeMap::new(),
                declined: std::collections::BTreeSet::new(),
                reserve,
                attempt,
                sent_at: ring_net::clock::now(),
            },
        );
        true
    }

    /// Fan-in of a speculative shard read. Responses for unknown tokens
    /// are stragglers past the decode point (or past an expiry) and are
    /// dropped — that is the cancellation: late arrivals cost one branch.
    pub(crate) fn handle_shard_read_resp(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        token: u64,
        bytes: Option<Payload>,
    ) {
        let Some(sr) = self.spec_reads.get_mut(&token) else {
            return;
        };
        if sr.group != g || sr.memgest != mid {
            return;
        }
        let Some(peer) = sr.peers.get(&from) else {
            return;
        };
        if sr.responses.contains_key(&from) || sr.declined.contains(&from) {
            return; // Duplicate delivery.
        }
        let expected: usize = peer.ranges.iter().map(|&(_, len)| len).sum();
        match bytes {
            Some(b) if b.len() == expected => {
                sr.responses.insert(from, b);
            }
            _ => {
                sr.declined.insert(from);
            }
        }
        self.advance_spec_read(token);
    }

    /// Tries to decode; if the read is still short of `k` rows for some
    /// segment, promotes reserve parities to keep it satisfiable, or
    /// abandons it for the delegated-decode fallback.
    fn advance_spec_read(&mut self, token: u64) {
        if self.try_complete_spec_read(token) {
            return;
        }
        let mut sends: Vec<(NodeId, Msg)> = Vec::new();
        let mut fall_back = false;
        {
            let Some(sr) = self.spec_reads.get_mut(&token) else {
                return;
            };
            loop {
                let live: Vec<&[(usize, usize)]> = sr
                    .peers
                    .iter()
                    .filter(|(node, _)| !sr.declined.contains(node))
                    .map(|(_, peer)| peer.parts.as_slice())
                    .collect();
                let feasible = steps::spec_read_feasible(sr.segs.len(), sr.k, &live);
                if feasible {
                    break;
                }
                let Some((p_idx, node)) = sr.reserve.pop() else {
                    fall_back = true;
                    break;
                };
                let mut peer = super::SpecPeer {
                    parts: Vec::new(),
                    ranges: Vec::new(),
                    parity: true,
                };
                for (i, seg) in sr.segs.iter().enumerate() {
                    peer.parts.push((i, sr.k + p_idx));
                    peer.ranges.push((seg.parity_addr, seg.len));
                }
                sends.push((
                    node,
                    Msg::ShardRead {
                        group: sr.group,
                        memgest: sr.memgest,
                        token,
                        parity: true,
                        ranges: peer.ranges.clone(),
                    },
                ));
                sr.peers.insert(node, peer);
            }
        }
        if fall_back {
            let sr = self.spec_reads.remove(&token).expect("present");
            self.spec_read_fallback(sr);
            return;
        }
        for (node, msg) in sends {
            let _ = self.ep.send(node, msg);
        }
    }

    /// Attempts the late-binding decode: succeeds the moment every
    /// segment has `k` distinct stripe rows among the arrived responses.
    /// Returns `true` when the spec read is finished (installed or moot).
    fn try_complete_spec_read(&mut self, token: u64) -> bool {
        let decoded = {
            let Some(sr) = self.spec_reads.get(&token) else {
                return true;
            };
            let Some(coord) = self
                .groups
                .get(&sr.group)
                .and_then(|gs| gs.coord.get(&sr.memgest))
            else {
                self.spec_reads.remove(&token);
                return true;
            };
            let CoordStore::Srs { layout, .. } = &coord.store else {
                self.spec_reads.remove(&token);
                return true;
            };
            let rs = layout.code().rs();
            let mut out = vec![0u8; sr.len];
            for (i, seg) in sr.segs.iter().enumerate() {
                let mut have: Vec<(usize, &[u8])> = Vec::new();
                for (node, payload) in &sr.responses {
                    let peer = &sr.peers[node];
                    let mut off = 0usize;
                    for (&(si, row), &(_, rlen)) in peer.parts.iter().zip(peer.ranges.iter()) {
                        if si == i {
                            have.push((row, &payload[off..off + rlen]));
                        }
                        off += rlen;
                    }
                }
                match rs.recover_source(seg.source, &have) {
                    Ok(bytes) => {
                        let off = seg.data_addr - sr.addr;
                        out[off..off + seg.len].copy_from_slice(&bytes);
                    }
                    Err(_) => return false, // Short of k rows so far.
                }
            }
            out
        };
        let sr = self.spec_reads.remove(&token).expect("present");
        self.install_recovered_range(sr.group, sr.memgest, sr.addr, &decoded);
        true
    }

    /// Abandons a speculative read in favour of the pre-speculation
    /// path: a delegated decode at a single parity node (which gathers
    /// the lane blocks itself with one-sided reads).
    fn spec_read_fallback(&mut self, sr: super::SpecRead) {
        let Some(gs) = self.groups.get(&sr.group) else {
            return;
        };
        let Some(shard) = gs.shard else {
            return;
        };
        let Some(coord) = gs.coord.get(&sr.memgest) else {
            return;
        };
        let Scheme::Srs { m, .. } = coord.desc.scheme else {
            return;
        };
        let targets = self.config.parity_targets(sr.group, m);
        if targets.is_empty() {
            return;
        }
        let parity = targets[sr.attempt as usize % targets.len()];
        let _ = self.ep.send(
            parity,
            Msg::RecoverBlock {
                group: sr.group,
                memgest: sr.memgest,
                shard,
                addr: sr.addr,
                len: sr.len,
            },
        );
    }

    /// Expires speculative reads whose stragglers never arrived (dead
    /// links), handing the range to the fallback path.
    pub(crate) fn expire_spec_reads(&mut self, now: std::time::Instant) {
        const SPEC_RETRY: std::time::Duration = std::time::Duration::from_millis(150);
        let expired: Vec<u64> = self
            .spec_reads
            .iter()
            .filter(|(_, sr)| now.duration_since(sr.sent_at) >= SPEC_RETRY)
            .map(|(&t, _)| t)
            .collect();
        for t in expired {
            let sr = self.spec_reads.remove(&t).expect("present");
            self.spec_read_fallback(sr);
        }
    }

    /// Writes a recovered byte range into the SRS heap, marks every
    /// entry fully contained in it as present, and releases their parked
    /// requests (shared by the speculative decode and the delegated
    /// `RecoverBlockResp` path).
    pub(crate) fn install_recovered_range(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        addr: usize,
        bytes: &[u8],
    ) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let Some(coord) = gs.coord.get_mut(&mid) else {
            return;
        };
        let end = addr + bytes.len();
        if let CoordStore::Srs { heap, .. } = &mut coord.store {
            heap.reserve_upto(end);
            // The recovered range replaces zeroed bytes; write directly.
            heap.region()
                .write(addr, bytes)
                .expect("reserved range is in bounds");
        } else {
            return;
        }
        let recovered: Vec<(Key, Version)> = coord
            .meta
            .iter()
            .filter(|(_, _, e)| !e.data_present && e.addr >= addr && e.addr + e.len <= end)
            .map(|(k, v, _)| (k, v))
            .collect();
        let mut releases = Vec::new();
        for (k, v) in recovered {
            if let Some(e) = coord.meta.get_mut(k, v) {
                e.data_present = true;
                e.fetching = false;
                releases.push((k, v, std::mem::take(&mut e.waiters)));
            }
        }
        self.release_waiters(g, mid, releases);
    }

    /// Reads the committed value of `(key, version)` if it is locally
    /// present and live; `None` sends the caller down the slow per-waiter
    /// path.
    fn read_committed_value(
        &self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
    ) -> Option<Payload> {
        let gs = self.groups.get(&g)?;
        let coord = gs.coord.get(&mid)?;
        let e = coord.meta.get(key, version)?;
        if e.tombstone || !e.committed || !e.data_present {
            return None;
        }
        Some(coord.store.read_value(key, version, e))
    }

    /// Releases parked requests after an entry's bytes became available,
    /// materializing each value once and answering every parked get with
    /// a clone of the same `Arc`-backed payload — the fan-in stays
    /// zero-copy no matter how many clients piled onto the entry.
    pub(crate) fn release_waiters(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        releases: Vec<(Key, Version, Vec<Waiter>)>,
    ) {
        for (key, version, waiters) in releases {
            let mut shared: Option<Payload> = None;
            for w in waiters {
                match w {
                    Waiter::Get(client) => {
                        if shared.is_none() {
                            shared = self.read_committed_value(g, mid, key, version);
                        }
                        match &shared {
                            Some(v) => {
                                let value = v.clone();
                                self.respond(
                                    client.0,
                                    client.1,
                                    ClientResp::GetOk { value, version },
                                );
                            }
                            None => self.answer_get(g, mid, key, version, client),
                        }
                    }
                    Waiter::Move { client, dst } => self.do_move(g, key, dst, client),
                }
            }
        }
    }

    /// Handles the response to an on-demand replica fetch.
    pub(crate) fn handle_fetch_value_resp(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
        value: Option<Payload>,
    ) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let Some(coord) = gs.coord.get_mut(&mid) else {
            return;
        };
        let Some(entry) = coord.meta.get_mut(key, version) else {
            return;
        };
        entry.fetching = false;
        let Some(value) = value else {
            // This replica did not have the copy: retry the remaining
            // targets a few times, then fail the waiters.
            if !entry.waiters.is_empty() && entry.fetch_attempts < 8 {
                let scheme = coord.desc.scheme;
                let shard = gs.shard.expect("coordinator");
                let coord = gs.coord.get_mut(&mid).expect("just looked up");
                let entry = coord.meta.get_mut(key, version).expect("just looked up");
                entry.fetching = true;
                let attempt = entry.fetch_attempts;
                entry.fetch_attempts = entry.fetch_attempts.wrapping_add(1);
                let (addr, len) = (entry.addr, entry.len);
                self.request_data_recovery(g, shard, mid, scheme, key, version, addr, len, attempt);
                return;
            }
            let waiters = std::mem::take(&mut entry.waiters);
            for w in waiters {
                let (Waiter::Get(client) | Waiter::Move { client, .. }) = w;
                self.respond(
                    client.0,
                    client.1,
                    ClientResp::Error(RingError::Unavailable("value copy lost".into())),
                );
            }
            return;
        };
        entry.data_present = true;
        let waiters = std::mem::take(&mut entry.waiters);
        if let CoordStore::Rep { values } = &mut coord.store {
            values.insert((key, version), value);
        }
        self.release_waiters(g, mid, vec![(key, version, waiters)]);
    }

    /// Handles a decoded block arriving from a parity node.
    pub(crate) fn handle_recover_block_resp(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        addr: usize,
        bytes: Option<Payload>,
    ) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let Some(coord) = gs.coord.get_mut(&mid) else {
            return;
        };
        // Write the recovered range into the heap, then release every
        // entry fully contained in it.
        let Some(bytes) = bytes else {
            // The parity could not serve (dead link or mid-rebuild):
            // retry the range against the next parity target.
            let scheme = coord.desc.scheme;
            let shard = match gs.shard {
                Some(s) => s,
                None => return,
            };
            let retry: Vec<(Key, Version, usize, usize, u8)> = coord
                .meta
                .iter()
                .filter(|(_, _, e)| e.fetching && !e.data_present && e.addr >= addr)
                .map(|(k, v, e)| (k, v, e.addr, e.len, e.fetch_attempts))
                .collect();
            for &(k, v, _, _, _) in &retry {
                if let Some(e) = coord.meta.get_mut(k, v) {
                    e.fetch_attempts = e.fetch_attempts.wrapping_add(1);
                }
            }
            for (k, v, a, l, attempt) in retry {
                if attempt >= 8 {
                    continue;
                }
                self.request_data_recovery(g, shard, mid, scheme, k, v, a, l, attempt);
            }
            return;
        };
        self.install_recovered_range(g, mid, addr, &bytes);
    }

    /// Builds and returns this node's introspection report.
    fn handle_stats(&mut self, from: NodeId, req: ReqId) {
        let stats = self.build_stats();
        self.respond(from, req, ClientResp::Stats(Box::new(stats)));
    }

    /// Builds the node's statistics report (shared by the `Stats` client
    /// call and the graceful-shutdown JSON dump).
    pub(crate) fn build_stats(&self) -> crate::stats::NodeStats {
        use crate::stats::{GroupStats, MemgestStats, NodeStats};
        use crate::storage::RedundantStore as RS;
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
                        RS::Rep { values } => {
                            // ring-lint: allow(hashmap-iteration) -- order-insensitive byte sum
                            row.replica_bytes = values.values().map(|v| v.len()).sum();
                        }
                        RS::Parity { len, .. } => row.parity_bytes = *len,
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

    /// Proactively recovers a few missing entries per tick (Section
    /// 5.5's background data recovery). Throttled so foreground traffic
    /// and on-demand decodes keep priority.
    pub(crate) fn background_recovery_sweep(&mut self) {
        const PER_SWEEP: usize = 4;
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        let mut issued = 0usize;
        for g in groups {
            let Some(gs) = self.groups.get(&g) else {
                continue;
            };
            let Some(shard) = gs.shard else { continue };
            let mids: Vec<MemgestId> = gs.coord.keys().copied().collect();
            for mid in mids {
                if issued >= PER_SWEEP {
                    return;
                }
                let gs = self.groups.get_mut(&g).expect("group exists");
                let Some(coord) = gs.coord.get_mut(&mid) else {
                    continue;
                };
                let scheme = coord.desc.scheme;
                let candidates: Vec<(Key, Version, usize, usize, u8)> = coord
                    .meta
                    .iter()
                    .filter(|(_, _, e)| {
                        !e.data_present && !e.tombstone && !e.fetching && e.fetch_attempts < 8
                    })
                    .take(PER_SWEEP - issued)
                    .map(|(k, v, e)| (k, v, e.addr, e.len, e.fetch_attempts))
                    .collect();
                for &(k, v, _, _, _) in &candidates {
                    if let Some(e) = coord.meta.get_mut(k, v) {
                        e.fetching = true;
                        e.fetch_attempts = e.fetch_attempts.wrapping_add(1);
                    }
                }
                for (k, v, addr, len, attempt) in candidates {
                    self.request_data_recovery(g, shard, mid, scheme, k, v, addr, len, attempt);
                    issued += 1;
                }
            }
        }
    }

    /// Serves a replica's value copy to a recovering coordinator.
    pub(crate) fn handle_fetch_value(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
    ) {
        let value = self
            .groups
            .get(&g)
            .and_then(|gs| gs.redundant.get(&mid))
            .and_then(|red| match &red.store {
                RedundantStore::Rep { values } => values.get(&(key, version)).cloned(),
                RedundantStore::Parity { .. } => None,
            });
        let _ = self.ep.send(
            from,
            Msg::FetchValueResp {
                group: g,
                memgest: mid,
                key,
                version,
                value,
            },
        );
    }
}
