//! Coordinator-side request processing: the put/get/delete/move paths,
//! write-ahead, versioning, commit and garbage collection
//! (Sections 5.1–5.3).

use ring_net::{NodeId, Payload, Transport};

use crate::config::LEADER_NODE;
use crate::error::RingError;
use crate::proto::{ClientReq, ClientResp, ClientTag, MetaEntry, Msg, ParitySeg};
use crate::protocol::spec_read::{Ask, Outcome, SpecRead};
use crate::protocol::steps;
use crate::storage::{CoordStore, ObjectEntry, Waiter};
use crate::types::{GroupId, Key, MemgestId, ReqId, Scheme, Version};

use super::{Node, OnCommit, PendingPut, PendingSpecRead, StalledPut, DEDUP_CAP};

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
            ClientReq::Stats => {
                let stats = Box::new(self.node_stats());
                self.respond((from, req), ClientResp::Stats(stats))
            }
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
    pub(super) fn respond(&mut self, client: ClientTag, body: ClientResp) {
        steps::settle_dedup(
            &mut self.dedup,
            &mut self.dedup_order,
            client,
            body.clone(),
            DEDUP_CAP,
        );
        let (to, req) = client;
        let _ = self.ep.send(to, Msg::Response { req, body });
    }

    /// Answers `client` with an error. `KeyNotFound` means the key was
    /// never written, its latest version is a committed tombstone, or
    /// its memgest is gone.
    pub(super) fn fail(&mut self, client: ClientTag, err: RingError) {
        self.respond(client, ClientResp::Error(err));
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
            self.fail((from, req), RingError::UnknownMemgest(mid));
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

        if matches!(scheme, Scheme::Srs { .. }) && !coord.stalled.is_empty() {
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

        let mut msgs: Vec<(NodeId, Msg)> = Vec::new();
        let addr = match &mut coord.store {
            CoordStore::Rep { values } => {
                let Scheme::Rep { r } = scheme else {
                    unreachable!("replicated store")
                };
                if !tombstone {
                    values.insert((key, version), value.clone());
                }
                for t in self.config.replica_targets(g, shard, r) {
                    let msg = Msg::Replicate {
                        group: g,
                        memgest: mid,
                        key,
                        version,
                        value: value.clone(),
                        tombstone,
                    };
                    msgs.push((t, msg));
                }
                usize::MAX
            }
            CoordStore::Srs { heap, layout } => {
                let Scheme::Srs { m, .. } = scheme else {
                    unreachable!("SRS store")
                };
                // Tombstones and empty values carry no heap delta, but
                // their metadata must still reach the parity nodes.
                let live = !tombstone && len > 0;
                let addr = if live { heap.alloc(len) } else { heap.len() };
                let segs = if live {
                    // Versioned writes always land in fresh bump-allocated
                    // (zeroed) space, so the parity delta `new ^ old` is
                    // the value itself — no read-back or XOR needed.
                    heap.write(addr, &value);
                    layout.split_range(shard, addr, len)
                } else {
                    Vec::new()
                };
                let delta: &[u8] = &value;
                for (p_idx, &p_node) in self.config.parity_targets(g, m).iter().enumerate() {
                    let mut out = Vec::with_capacity(segs.len());
                    for seg in &segs {
                        let c = layout.coefficient(p_idx, seg);
                        let off = seg.data_addr - addr;
                        let payload = if c == ring_gf::Gf256::ONE && off == 0 && seg.len == len {
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
                    let meta = MetaEntry {
                        key,
                        version,
                        len,
                        addr,
                        tombstone,
                    };
                    let msg = Msg::ParityUpdate {
                        group: g,
                        memgest: mid,
                        shard,
                        meta,
                        segs: out,
                    };
                    msgs.push((p_node, msg));
                }
                addr
            }
        };
        coord
            .meta
            .insert(key, version, ObjectEntry::new(len, addr, tombstone));

        let needed = steps::acks_needed(scheme, self.opts.sync_replication);
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
            OnCommit::ReplyPut(client) => self.respond(client, ClientResp::PutOk { version }),
            OnCommit::ReplyDelete(client) => self.respond(client, ClientResp::DeleteOk),
            OnCommit::ReplyMove(client) => self.respond(client, ClientResp::MoveOk { version }),
        }

        self.release(g, mid, key, version, waiters);

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
                    c.forget(key, version);
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
                    c.forget(key, v);
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
        if let Some(g) = self.owned_group(key) {
            self.bind_highest(g, key, Waiter::Get((from, req)));
        }
    }

    // ---- Read binding ----

    /// Binds a get or move to the highest version of `key`, whichever
    /// memgest holds it (Section 5.2); a parked delete that is released
    /// goes back to `delete_highest`.
    pub(super) fn bind_highest(&mut self, g: GroupId, key: Key, waiter: Waiter) {
        let client = waiter.client();
        match waiter {
            Waiter::Move { dst, .. } if !self.catalog.contains_key(&dst) => {
                self.fail(client, RingError::UnknownMemgest(dst));
                return;
            }
            Waiter::Delete(_) => return self.delete_highest(g, key, client),
            _ => {}
        }
        match self.groups[&g].volatile.highest(key) {
            Some((version, mid)) => self.bind(g, mid, key, version, waiter, &mut None),
            None => self.fail(client, RingError::KeyNotFound),
        }
    }

    /// The one place a request bound to `(key, version)` of memgest `mid`
    /// is served, parked, failed or sent to on-demand recovery, and
    /// [`steps::read_decision`] alone says which: a request never
    /// observes an uncommitted version — value or tombstone — and never
    /// skips past it (Figure 5). `shared` carries the value materialised
    /// for an earlier request released from the same version.
    fn bind(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
        waiter: Waiter,
        shared: &mut Option<Payload>,
    ) {
        let client = waiter.client();
        let gs = self.groups.get_mut(&g).expect("owned group");
        let entry = gs.coord.get_mut(&mid).and_then(|coord| {
            let entry = coord.meta.get_mut(key, version)?;
            Some((entry, &coord.store))
        });
        let Some((entry, store)) = entry else {
            self.fail(client, RingError::KeyNotFound);
            return;
        };
        match steps::read_decision(&steps::ReadEntry {
            committed: entry.committed,
            tombstone: entry.tombstone,
            data_present: entry.data_present,
        }) {
            steps::ReadDecision::NotFound => self.fail(client, RingError::KeyNotFound),
            steps::ReadDecision::Postpone => entry.waiters.push(waiter),
            steps::ReadDecision::Serve => {
                let value = shared
                    .get_or_insert_with(|| store.read_value(key, version, entry))
                    .clone();
                match waiter {
                    Waiter::Get(_) => self.respond(client, ClientResp::GetOk { value, version }),
                    // All local: no distributed transaction needed — the
                    // benefit of the shared SRS key-to-node mapping
                    // (Section 5.2).
                    Waiter::Move { dst, .. } => {
                        self.local_write(g, dst, key, value, false, OnCommit::ReplyMove(client))
                    }
                    Waiter::Delete(_) => unreachable!("a delete binds through delete_highest"),
                }
            }
            steps::ReadDecision::Recover => {
                // Lost data: recover on the fly with high priority
                // (Section 5.5).
                entry.waiters.push(waiter);
                self.fetch(g, mid, key, version, true);
            }
        }
    }

    /// Re-binds the requests parked on `(key, version)` once it committed
    /// or its bytes returned. Gets stay pinned to that version and share
    /// one materialised `Arc`-backed payload, however many clients piled
    /// onto the entry; a move reads the key's highest version, which may
    /// have moved on.
    pub(super) fn release(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
        mut waiters: Vec<Waiter>,
    ) {
        // Gets first: a released move's or delete's write can commit at
        // once and prune this version from under the gets pinned to it.
        waiters.sort_by_key(|w| !matches!(w, Waiter::Get(_)));
        let mut shared = None;
        for w in waiters {
            match w {
                Waiter::Get(_) => self.bind(g, mid, key, version, w, &mut shared),
                Waiter::Move { .. } | Waiter::Delete(_) => self.bind_highest(g, key, w),
            }
        }
    }

    // ---- Delete ----

    fn handle_delete(&mut self, from: NodeId, req: ReqId, key: Key) {
        let Some(g) = self.owned_group(key) else {
            return;
        };
        self.dedup_open(from, req);
        self.delete_highest(g, key, (from, req));
    }

    /// A delete is a tombstone written to the memgest holding the key's
    /// highest version, and commits under that memgest's redundancy
    /// rule. Deleting a key whose latest version is already a committed
    /// tombstone is a miss, not a second delete; behind an uncommitted
    /// one the delete parks, like a get or move, and is decided again
    /// when released — that tombstone may never commit.
    fn delete_highest(&mut self, g: GroupId, key: Key, client: ClientTag) {
        let gs = self.groups.get_mut(&g).expect("owned group");
        let Some((version, mid)) = gs.volatile.highest(key) else {
            self.fail(client, RingError::KeyNotFound);
            return;
        };
        let tombstone = gs
            .coord
            .get_mut(&mid)
            .and_then(|c| c.meta.get_mut(key, version))
            .filter(|e| e.tombstone);
        match tombstone {
            None => {
                let on_commit = OnCommit::ReplyDelete(client);
                self.local_write(g, mid, key, Payload::empty(), true, on_commit);
            }
            Some(e) if !e.committed => e.waiters.push(Waiter::Delete(client)),
            Some(_) => self.fail(client, RingError::KeyNotFound),
        }
    }

    // ---- Move ----

    /// A move reads the object from the memgest holding the highest
    /// version, which requires that version to be committed and its data
    /// locally available (Section 5.2): the same binding as a get.
    fn handle_move(&mut self, from: NodeId, req: ReqId, key: Key, dst: MemgestId) {
        let Some(g) = self.owned_group(key) else {
            return;
        };
        self.dedup_open(from, req);
        let client = (from, req);
        self.bind_highest(g, key, Waiter::Move { client, dst });
    }

    /// Stops stalling a memgest's puts for the rebuilding parity nodes
    /// `done` names; once no rebuild stalls them, the queue flushes.
    pub(crate) fn unstall(&mut self, g: GroupId, mid: MemgestId, done: impl Fn(NodeId) -> bool) {
        let Some(c) = self
            .groups
            .get_mut(&g)
            .and_then(|gs| gs.coord.get_mut(&mid))
        else {
            return;
        };
        c.stalled.retain(|&p| !done(p));
        if c.stalled.is_empty() {
            self.flush_stalled(g, mid);
        }
    }

    /// Flushes the stalled-put queue of a memgest once no parity rebuild
    /// stalls it.
    pub(crate) fn flush_stalled(&mut self, g: GroupId, mid: MemgestId) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let Some(shard) = gs.shard else {
            return;
        };
        let queue = gs.stalled.remove(&mid).unwrap_or_default();
        for sp in queue {
            // Remove the placeholder entry; execute_write re-inserts it
            // with the real heap address.
            let parked = self
                .groups
                .get_mut(&g)
                .and_then(|gs| gs.coord.get_mut(&mid))
                .and_then(|c| c.meta.remove(sp.key, sp.version))
                .map(|e| e.waiters)
                .unwrap_or_default();
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
            // Requests parked on the placeholder go with it: re-bound,
            // they park on the real entry until it commits.
            self.release(g, mid, sp.key, sp.version, parked);
        }
    }

    // ---- On-demand data recovery ----

    /// Drives the on-demand fetch of a lost `(key, version)` as
    /// [`steps::fetch_decision`] says — the only place the entry's
    /// `fetching` flag is raised and its attempt counter advances.
    /// `requested` marks a client request that has just parked on the
    /// entry; callers that saw the previous fetch fail clear `fetching`
    /// first. Each attempt speculatively fans out to `1 + Δ` redundancy
    /// targets, rotated by attempt number so a dead or still-rebuilding
    /// holder cannot wedge the waiters, and binds to whichever answers
    /// first.
    fn fetch(&mut self, g: GroupId, mid: MemgestId, key: Key, version: Version, requested: bool) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let (Some(shard), Some(coord)) = (gs.shard, gs.coord.get_mut(&mid)) else {
            return;
        };
        let scheme = coord.desc.scheme;
        let Some(entry) = coord.meta.get_mut(key, version) else {
            return;
        };
        let attempt = match steps::fetch_decision(entry.fetching, entry.fetch_attempts, requested) {
            steps::FetchDecision::InFlight => return,
            steps::FetchDecision::Issue(attempt) => attempt,
            steps::FetchDecision::GiveUp => {
                for w in std::mem::take(&mut entry.waiters) {
                    self.fail(w.client(), RingError::Unavailable("value copy lost".into()));
                }
                return;
            }
        };
        entry.fetching = true;
        entry.fetch_attempts = attempt.wrapping_add(1);
        let (addr, len) = (entry.addr, entry.len);
        match scheme {
            Scheme::Rep { r } => {
                // Ask 1 + Δ distinct replicas at once; the first copy to
                // arrive wins, later ones are idempotent.
                let targets = self.config.replica_targets(g, shard, r);
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
            Scheme::Srs { m, .. } => {
                let CoordStore::Srs { layout, .. } = &coord.store else {
                    unreachable!("SRS store")
                };
                let coordinators: Vec<NodeId> = (0..self.config.s)
                    .map(|i| self.config.coordinator(g, i))
                    .collect();
                let parity_nodes = self.config.parity_targets(g, m);
                let fanout = 1 + self.opts.read_fanout_extra;
                let plan = SpecRead::plan(
                    layout,
                    shard,
                    addr,
                    len,
                    &coordinators,
                    &parity_nodes,
                    fanout,
                    attempt,
                );
                let Some((read, asks)) = plan else {
                    // No parity target to decode from (a zero-length
                    // value is never fetched): fail as a spent budget.
                    entry.fetching = false;
                    for w in std::mem::take(&mut entry.waiters) {
                        self.fail(w.client(), RingError::Unavailable("value copy lost".into()));
                    }
                    return;
                };
                let token = self.next_spec_token;
                self.next_spec_token += 1;
                self.spec_reads.insert(
                    token,
                    PendingSpecRead {
                        group: g,
                        memgest: mid,
                        key,
                        version,
                        sent_at: ring_net::clock::now(),
                        read,
                    },
                );
                self.send_shard_reads(g, mid, token, asks);
            }
        }
    }

    fn send_shard_reads(&mut self, g: GroupId, mid: MemgestId, token: u64, asks: Vec<Ask>) {
        for ask in asks {
            let _ = self.ep.send(
                ask.to,
                Msg::ShardRead {
                    group: g,
                    memgest: mid,
                    token,
                    parity: ask.parity,
                    ranges: ask.ranges,
                },
            );
        }
    }

    /// Fan-in of a speculative shard read. A token not in `spec_reads`
    /// may be a parity rebuild's row read (`handle_rebuild_rows`);
    /// otherwise it is a straggler past the decode point (or past an
    /// expiry) and is dropped — that is the cancellation: late arrivals
    /// cost one branch.
    pub(crate) fn handle_shard_read_resp(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        token: u64,
        bytes: Option<Payload>,
    ) {
        let Some(sr) = self.spec_reads.get_mut(&token) else {
            self.handle_rebuild_rows(g, mid, token, bytes);
            return;
        };
        if sr.group != g || sr.memgest != mid {
            return;
        }
        let store = self.groups.get(&g).and_then(|gs| gs.coord.get(&mid));
        let Some(CoordStore::Srs { layout, .. }) = store.map(|c| &c.store) else {
            self.spec_reads.remove(&token); // The memgest is gone: moot.
            return;
        };
        let outcome = sr.read.on_response(layout.code().rs(), from, bytes);
        let addr = sr.read.range().0;
        match outcome {
            Outcome::Wait => {}
            Outcome::Ask(asks) => self.send_shard_reads(g, mid, token, asks),
            Outcome::Decoded(bytes) => {
                self.spec_reads.remove(&token);
                self.install_recovered_range(g, mid, addr, &bytes);
            }
        }
    }

    /// Expires speculative reads that could not decode in time — rows
    /// lost to dead links, or too many declines — and re-plans each at
    /// its entry's next fetch attempt, against the rotated parity set.
    /// Paced rather than immediate: a decline means a peer is recovering
    /// or holey, and an instant retry would spend the budget in a few
    /// hops.
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
            let (g, mid) = (sr.group, sr.memgest);
            let entry = self
                .groups
                .get_mut(&g)
                .and_then(|gs| gs.coord.get_mut(&mid))
                .and_then(|coord| coord.meta.get_mut(sr.key, sr.version));
            match entry {
                Some(e) if !e.data_present => e.fetching = false,
                _ => continue, // Decoded by another read, or pruned.
            }
            self.fetch(g, mid, sr.key, sr.version, false);
        }
    }

    /// Writes a recovered byte range into the SRS heap, marks every
    /// entry fully contained in it as present, and releases their parked
    /// requests.
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
            heap.write(addr, bytes);
        } else {
            return;
        }
        let mut releases = Vec::new();
        for (k, v, e) in coord.meta.iter_mut() {
            if !e.data_present && e.addr >= addr && e.addr + e.len <= end {
                e.data_present = true;
                e.fetching = false;
                releases.push((k, v, std::mem::take(&mut e.waiters)));
            }
        }
        for (k, v, waiters) in releases {
            self.release(g, mid, k, v, waiters);
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
        let coord = self
            .groups
            .get_mut(&g)
            .and_then(|gs| gs.coord.get_mut(&mid));
        let Some(coord) = coord else {
            return;
        };
        let Some(entry) = coord.meta.get_mut(key, version) else {
            return;
        };
        if entry.data_present {
            return; // Another copy of the 1 + Δ fan-out already won.
        }
        entry.fetching = false;
        let Some(value) = value else {
            // This replica did not have the copy: try the next ones.
            self.fetch(g, mid, key, version, false);
            return;
        };
        entry.data_present = true;
        let waiters = std::mem::take(&mut entry.waiters);
        if let CoordStore::Rep { values } = &mut coord.store {
            values.insert((key, version), value);
        }
        self.release(g, mid, key, version, waiters);
    }

    /// Proactively recovers a few missing entries per tick (Section
    /// 5.5's background data recovery). Throttled so foreground traffic
    /// and on-demand decodes keep priority.
    pub(crate) fn background_recovery_sweep(&mut self) {
        const PER_SWEEP: usize = 4;
        let idle = |e: &ObjectEntry| {
            let d = steps::fetch_decision(e.fetching, e.fetch_attempts, false);
            matches!(d, steps::FetchDecision::Issue(_))
        };
        let mut picked: Vec<(GroupId, MemgestId, Key, Version)> = Vec::new();
        for (&g, gs) in &self.groups {
            if gs.shard.is_none() {
                continue;
            }
            for (&mid, coord) in &gs.coord {
                let missing = coord
                    .meta
                    .iter()
                    .filter(|(_, _, e)| !e.data_present && !e.tombstone && idle(e))
                    .take(PER_SWEEP - picked.len())
                    .map(|(k, v, _)| (g, mid, k, v));
                picked.extend(missing);
            }
        }
        for (g, mid, k, v) in picked {
            self.fetch(g, mid, k, v, false);
        }
    }
}
