//! Role changes and recovery: adopting a new configuration, rebuilding
//! metadata on a promoted spare, and the parity-rebuild protocol
//! (Section 5.5 and Figure 12's six recovery steps).

use std::time::{Duration, Instant};

use ring_net::{NodeId, Payload, Transport};

use crate::config::Role;
use crate::proto::{MetaEntry, Msg};
use crate::storage::{CoordStore, ObjectEntry, RedundantStore};
use crate::types::{GroupId, MemgestDescriptor, MemgestId, Scheme};

use super::{Node, RebuildInfo, RebuildState, RowRead};

/// The most heap bytes one rebuild `ShardRead` asks for, which keeps its
/// answer far below the TCP frame cap.
pub(super) const REBUILD_CHUNK: usize = 1 << 20;

impl<T: Transport<Msg>> Node<T> {
    /// Adopts a newer configuration. A freshly activated spare
    /// instantiates its role state and starts metadata recovery;
    /// survivors re-target uncommitted replication traffic.
    pub(crate) fn handle_config_update(
        &mut self,
        config: crate::config::ClusterConfig,
        memgests: Vec<(MemgestId, MemgestDescriptor)>,
        default: MemgestId,
    ) {
        if config.epoch <= self.config.epoch {
            return;
        }
        let was_active = self.active;
        self.config = config;
        for (id, desc) in memgests {
            self.catalog.entry(id).or_insert(desc);
        }
        self.default_memgest = default;
        self.active = self.config.nodes.contains(&self.id);
        // Speculative shard reads in flight addressed the old epoch's
        // role assignment; drop them (the survivor path below clears the
        // `fetching` flags, so the next get re-issues the fan-out).
        self.spec_reads.clear();

        if self.active && !was_active {
            // Step 3-4 of the recovery sequence: assume the role, create
            // the empty memgests, connect, and fetch metadata.
            self.setup_roles();
            self.start_recovery();
        } else if self.active {
            // Survivor: in-flight fetches may have targeted the dead
            // node; clear the flags so the next get retries against the
            // new target.
            let mut stalled = Vec::new();
            for (&g, gs) in self.groups.iter_mut() {
                for (&mid, coord) in gs.coord.iter_mut() {
                    for (_, _, e) in coord.meta.iter_mut() {
                        e.fetching = false;
                    }
                    if !coord.stalled.is_empty() {
                        stalled.push((g, mid));
                    }
                }
            }
            // A parity that died mid-rebuild will never send its Done;
            // its replacement stalls the puts afresh.
            let nodes = self.config.nodes.clone();
            for (g, mid) in stalled {
                self.unstall(g, mid, |p| !nodes.contains(&p));
            }
            // Rows of a coordinator that left were read before its
            // successor's puts: ask the successor instead.
            for rb in self.rebuilds.values_mut() {
                rb.infos.retain(|_, info| nodes.contains(&info.from));
                let infos = &rb.infos;
                rb.reads
                    .retain(|_, r| r.donor.is_some() || infos.contains_key(&r.shard));
            }
            self.resend_uncommitted();
        }
    }

    /// Re-sends uncommitted replica writes to the current target set, so
    /// that quorums can still form after a replica died (the new replica
    /// receives the copy it missed).
    fn resend_uncommitted(&mut self) {
        let pending_keys: Vec<super::PendingKey> = self.pending.keys().copied().collect();
        for (g, mid, key, version) in pending_keys {
            let Some(gs) = self.groups.get(&g) else {
                continue;
            };
            let Some(shard) = gs.shard else { continue };
            let Some(coord) = gs.coord.get(&mid) else {
                continue;
            };
            let Scheme::Rep { r } = coord.desc.scheme else {
                // SRS pendings are satisfied by the parity-rebuild
                // protocol (`ParityRebuildDone` counts as the ack).
                continue;
            };
            let (value, tombstone) = match coord.meta.get(key, version) {
                Some(e) if e.tombstone => (ring_net::Payload::empty(), true),
                Some(_) => match &coord.store {
                    CoordStore::Rep { values } => (
                        values
                            .get(&(key, version))
                            .cloned()
                            .unwrap_or_else(ring_net::Payload::empty),
                        false,
                    ),
                    CoordStore::Srs { .. } => continue,
                },
                None => continue,
            };
            let targets = self.config.replica_targets(g, shard, r);
            let p = self.pending.get_mut(&(g, mid, key, version)).expect("key");
            for t in targets {
                if p.acks.retarget(t) {
                    let msg = Msg::Replicate {
                        group: g,
                        memgest: mid,
                        key,
                        version,
                        value: value.clone(),
                        tombstone,
                    };
                    let _ = self.ep.send(t, msg.clone());
                    p.msgs.push((t, msg));
                }
            }
        }
    }

    /// Step 5: request metadata (and, for parity roles, heap rebuilds)
    /// from the surviving nodes. Client requests are ignored until every
    /// fetch completes — serving earlier could return stale data, since
    /// the highest version of a key may live in a not-yet-recovered
    /// memgest (Section 6.4).
    pub(crate) fn start_recovery(&mut self) {
        let catalog: Vec<(MemgestId, MemgestDescriptor)> =
            self.catalog.iter().map(|(&i, &d)| (i, d)).collect();
        for g in 0..self.config.groups as GroupId {
            let role = self.config.role_of(g, self.id);
            match role {
                Some(Role::Coordinator(shard)) => {
                    for &(mid, desc) in &catalog {
                        let targets = match desc.scheme {
                            Scheme::Rep { r } if r > 1 => self.config.replica_targets(g, shard, r),
                            Scheme::Rep { .. } => Vec::new(), // Unreliable: data is simply lost.
                            Scheme::Srs { m, .. } => self.config.parity_targets(g, m),
                        };
                        if !targets.is_empty() {
                            self.start_fetch(g, mid, shard, targets);
                        }
                    }
                }
                Some(Role::Redundant(idx)) => {
                    for &(mid, desc) in &catalog {
                        match desc.scheme {
                            Scheme::Rep { r } if r > 1 => {
                                for shard in 0..self.config.s {
                                    let involved =
                                        self.config.replica_targets(g, shard, r).contains(&self.id);
                                    if involved {
                                        // The coordinator has the copy; the
                                        // other replicas are fallbacks.
                                        let mut targets = vec![self.config.coordinator(g, shard)];
                                        for t in self.config.replica_targets(g, shard, r) {
                                            if t != self.id {
                                                targets.push(t);
                                            }
                                        }
                                        self.start_fetch(g, mid, shard, targets);
                                    }
                                }
                            }
                            Scheme::Srs { m, .. } if idx < m => {
                                // Parity heaps cannot be rebuilt from
                                // deltas: stall the coordinators and
                                // re-encode from their heaps.
                                self.recovering += 1;
                                self.rebuilds.insert(
                                    (g, mid),
                                    RebuildState {
                                        infos: Default::default(),
                                        expected: self.config.s,
                                        reads: Default::default(),
                                        donor: None,
                                        sent_at: ring_net::clock::now(),
                                    },
                                );
                                for shard in 0..self.config.s {
                                    let _ = self.ep.send(
                                        self.config.coordinator(g, shard),
                                        Msg::ParityRebuildStart {
                                            group: g,
                                            memgest: mid,
                                        },
                                    );
                                }
                            }
                            _ => {}
                        }
                    }
                }
                None => {}
            }
        }
    }

    /// Registers and sends a metadata fetch; `retry_fetches` rotates
    /// through `targets` until a response arrives.
    fn start_fetch(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
        targets: Vec<ring_net::NodeId>,
    ) {
        debug_assert!(!targets.is_empty());
        let first = targets[0];
        self.recovering += 1;
        self.fetches.insert(
            (g, mid, shard),
            super::PendingFetch {
                targets,
                next_idx: 1,
                sent_at: ring_net::clock::now(),
            },
        );
        let _ = self.ep.send(
            first,
            Msg::MetaFetch {
                group: g,
                memgest: mid,
                shard,
            },
        );
    }

    /// Installs fetched metadata. A new coordinator rebuilds its
    /// metadata tables and volatile hashtable (step 6); a new replica
    /// installs metadata plus value copies.
    pub(crate) fn handle_meta_fetch_resp(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
        entries: Vec<MetaEntry>,
        values: Vec<Option<ring_net::Payload>>,
    ) {
        if self.fetches.remove(&(g, mid, shard)).is_none() {
            return; // Duplicate answer from a retried fetch.
        }
        self.instantiate_memgest(g, mid);
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        if gs.shard == Some(shard) {
            if let Some(coord) = gs.coord.get_mut(&mid) {
                let mut frontier = 0usize;
                for e in &entries {
                    coord.meta.insert(
                        e.key,
                        e.version,
                        ObjectEntry::recovered(e.len, e.addr, e.tombstone),
                    );
                    gs.volatile.record(e.key, e.version, mid);
                    if e.addr != usize::MAX {
                        frontier = frontier.max(e.addr + e.len);
                    }
                }
                if let CoordStore::Srs { heap, .. } = &mut coord.store {
                    heap.reserve_upto(frontier);
                }
            }
        } else if let Some(red) = gs.redundant.get_mut(&mid) {
            for (e, v) in entries.iter().zip(values) {
                let mut entry = ObjectEntry::new(e.len, e.addr, e.tombstone);
                entry.committed = true;
                red.meta.insert(e.key, e.version, entry);
                if let (RedundantStore::Rep { values }, Some(bytes)) = (&mut red.store, v) {
                    values.insert((e.key, e.version), bytes);
                }
            }
        }
        self.recovering = self.recovering.saturating_sub(1);
    }

    /// A new parity node asked this coordinator to stall SRS puts and
    /// report its heap extent and metadata.
    pub(crate) fn handle_parity_rebuild_start(&mut self, from: NodeId, g: GroupId, mid: MemgestId) {
        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let Some(shard) = gs.shard else { return };
        let Some(coord) = gs.coord.get_mut(&mid) else {
            return;
        };
        coord.stalled.insert(from);
        if self.recovering > 0 {
            // Our own metadata recovery is still running, so the heap
            // frontier below would be wrong. Stall puts now but answer
            // only once recovery drains — the rebuilding parity re-asks
            // every 150ms.
            return;
        }
        // A stalled put is not in the heap yet: its metadata reaches the
        // parity with its delta once the stall lifts. Shipped now, it
        // would make the parity take that delta for a retransmission.
        let queued = gs.stalled_puts(mid);
        let coord = &gs.coord[&mid];
        let entries: Vec<MetaEntry> = coord
            .meta
            .iter()
            .filter(|&(key, version, _)| !queued.contains(&(key, version)))
            .map(|(key, version, e)| MetaEntry {
                key,
                version,
                len: e.len,
                addr: e.addr,
                tombstone: e.tombstone,
            })
            .collect();
        let heap_len = match &coord.store {
            CoordStore::Srs { heap, .. } => heap.len(),
            CoordStore::Rep { .. } => 0,
        };
        let _ = self.ep.send(
            from,
            Msg::ParityRebuildInfo {
                group: g,
                memgest: mid,
                shard,
                heap_len,
                entries,
            },
        );
    }

    /// Records a coordinator's answer, replacing an earlier one for its
    /// shard, and fetches that shard's heap rows in `ShardRead` chunks.
    pub(crate) fn handle_parity_rebuild_info(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
        heap_len: usize,
        entries: Vec<MetaEntry>,
    ) {
        let Some(rb) = self.rebuilds.get_mut(&(g, mid)) else {
            return;
        };
        let info = RebuildInfo {
            from,
            heap_len,
            entries,
            rows: vec![0; heap_len],
            invalid: false,
        };
        rb.infos.insert(shard, info);
        rb.reads
            .retain(|_, r| r.donor.is_none() && r.shard != shard);
        rb.donor = None;
        for start in (0..heap_len).step_by(REBUILD_CHUNK) {
            let len = REBUILD_CHUNK.min(heap_len - start);
            self.issue_rebuild_read(g, mid, shard, None, vec![(start, len)]);
        }
        self.advance_rebuild(g, mid);
    }

    /// Sends one rebuild read of `ranges` under a fresh token, to the
    /// shard's current coordinator or to the donor parity.
    fn issue_rebuild_read(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
        donor: Option<usize>,
        ranges: Vec<(usize, usize)>,
    ) {
        let token = self.next_spec_token;
        self.next_spec_token += 1;
        let to = match donor {
            Some(q) => self.config.redundant(g, q),
            None => self.config.coordinator(g, shard),
        };
        let msg = Msg::ShardRead {
            group: g,
            memgest: mid,
            token,
            parity: donor.is_some(),
            ranges: ranges.clone(),
        };
        let _ = self.ep.send(to, msg);
        if let Some(rb) = self.rebuilds.get_mut(&(g, mid)) {
            let read = RowRead {
                shard,
                donor,
                ranges,
                declined: false,
                sent_at: ring_net::clock::now(),
            };
            rb.reads.insert(token, read);
        }
    }

    /// An answer to a rebuild read. Rows land at their addresses; a
    /// coordinator's decline marks its shard invalid (a holey heap); a
    /// donor's decline waits for the next retry.
    pub(crate) fn handle_rebuild_rows(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        token: u64,
        bytes: Option<Payload>,
    ) {
        let Some(rb) = self.rebuilds.get_mut(&(g, mid)) else {
            return;
        };
        let Some(read) = rb.reads.get_mut(&token) else {
            return; // A straggler of a re-issued or re-planned read.
        };
        let Some(bytes) = bytes else {
            match read.donor {
                Some(_) => read.declined = true,
                None => {
                    let shard = read.shard;
                    rb.reads.retain(|_, r| r.shard != shard);
                    if let Some(info) = rb.infos.get_mut(&shard) {
                        info.invalid = true;
                    }
                }
            }
            self.advance_rebuild(g, mid);
            return;
        };
        if bytes.len() != read.ranges.iter().map(|&(_, len)| len).sum::<usize>() {
            return; // Malformed: left for the retry to re-issue.
        }
        let read = rb.reads.remove(&token).expect("looked up");
        let rows = match read.donor {
            Some(q) => &mut rb.donor.insert((q, Vec::new())).1,
            None => &mut rb.infos.get_mut(&read.shard).expect("planned").rows,
        };
        let mut at = 0;
        for &(addr, len) in &read.ranges {
            if rows.len() < addr + len {
                rows.resize(addr + len, 0);
            }
            rows[addr..addr + len].copy_from_slice(&bytes[at..at + len]);
            at += len;
        }
        self.advance_rebuild(g, mid);
    }

    /// Re-encodes once every shard has answered and its rows are in. With
    /// exactly one invalid shard, first fetches a donor parity's rows of
    /// it (the missing shard's parity ranges).
    fn advance_rebuild(&mut self, g: GroupId, mid: MemgestId) {
        let Some(rb) = self.rebuilds.get(&(g, mid)) else {
            return;
        };
        if rb.infos.len() < rb.expected || rb.reads.values().any(|r| r.donor.is_none()) {
            return;
        }
        let mut invalid = rb.infos.iter().filter(|(_, info)| info.invalid);
        if let (Some((&miss, info)), None) = (invalid.next(), invalid.next()) {
            if rb.donor.is_none() {
                if !rb.reads.is_empty() {
                    return; // The donor read is in flight or declined.
                }
                if let Some(q) = self.next_donor(g, mid, None) {
                    let store = self.groups.get(&g).and_then(|gs| gs.redundant.get(&mid));
                    let Some(RedundantStore::Parity { layout, .. }) = store.map(|r| &r.store)
                    else {
                        return;
                    };
                    let ranges = (layout.split_range(miss, 0, info.heap_len).iter())
                        .map(|seg| (seg.parity_addr, seg.len))
                        .collect();
                    self.issue_rebuild_read(g, mid, miss, Some(q), ranges);
                    return;
                }
            }
        }
        let rb = self.rebuilds.remove(&(g, mid)).expect("present");
        self.perform_parity_rebuild(g, mid, rb);
    }

    /// The parity index after `after` (or the first) that is not this
    /// node's: the next donor to ask.
    fn next_donor(&self, g: GroupId, mid: MemgestId, after: Option<usize>) -> Option<usize> {
        let Some(Scheme::Srs { m, .. }) = self.catalog.get(&mid).map(|d| d.scheme) else {
            return None;
        };
        let me = self.groups.get(&g).and_then(|gs| gs.red_idx);
        let start = after.map_or(0, |q| q + 1);
        (start..start + m).map(|q| q % m).find(|&q| Some(q) != me)
    }

    /// The rebuilds' one retry, every 150 ms: re-sends
    /// `ParityRebuildStart` to the current coordinator of every shard that
    /// has not answered (a coordinator that left took its answer with it,
    /// see `handle_config_update`), and re-issues every read that was
    /// declined or has gone unanswered for 150 ms; a declined donor read
    /// goes to the next donor.
    pub(crate) fn retry_rebuilds(&mut self, now: Instant) {
        const RETRY: Duration = Duration::from_millis(150);
        let due: Vec<(GroupId, MemgestId)> = (self.rebuilds.iter())
            .filter(|(_, rb)| now.duration_since(rb.sent_at) >= RETRY)
            .map(|(&k, _)| k)
            .collect();
        for (g, mid) in due {
            let rb = self.rebuilds.get_mut(&(g, mid)).expect("due");
            rb.sent_at = now;
            let missing: Vec<usize> = (0..rb.expected)
                .filter(|s| !rb.infos.contains_key(s))
                .collect();
            let stale: Vec<RowRead> = (rb.reads)
                .extract_if(.., |_, r| {
                    r.declined || now.duration_since(r.sent_at) >= RETRY
                })
                .map(|(_, r)| r)
                .collect();
            for shard in missing {
                let start = Msg::ParityRebuildStart {
                    group: g,
                    memgest: mid,
                };
                let _ = self.ep.send(self.config.coordinator(g, shard), start);
            }
            for read in stale {
                let donor = if read.declined {
                    self.next_donor(g, mid, read.donor)
                } else {
                    read.donor
                };
                self.issue_rebuild_read(g, mid, read.shard, donor, read.ranges);
            }
            self.advance_rebuild(g, mid);
        }
    }

    fn perform_parity_rebuild(&mut self, g: GroupId, mid: MemgestId, rb: RebuildState) {
        self.instantiate_memgest(g, mid);
        let my_idx = self
            .groups
            .get(&g)
            .and_then(|gs| gs.red_idx)
            .unwrap_or(usize::MAX);

        // Re-encode every valid coordinator heap. A shard whose
        // coordinator declined (holey heap) is reconstructed from the
        // donor parity instead.
        let s = self.config.s;
        let mut reads: Vec<(usize, &[u8])> = Vec::new();
        let mut invalid: Vec<(usize, usize)> = Vec::new();
        for (&shard, info) in &rb.infos {
            if info.invalid {
                invalid.push((shard, info.heap_len));
            } else if info.heap_len > 0 {
                reads.push((shard, &info.rows));
            }
        }

        let Some(gs) = self.groups.get_mut(&g) else {
            return;
        };
        let Some(red) = gs.redundant.get_mut(&mid) else {
            return;
        };
        if let RedundantStore::Parity {
            region,
            len,
            layout,
        } = &mut red.store
        {
            for (shard, bytes) in &reads {
                for seg in layout.split_range(*shard, 0, bytes.len()) {
                    let c = layout.code().rs().coefficient(my_idx, seg.source);
                    let mut piece = bytes[seg.data_addr..seg.data_addr + seg.len].to_vec();
                    ring_gf::region::mul_in_place(&mut piece, c);
                    let end = seg.parity_addr + seg.len;
                    if end > region.len() {
                        region.grow(end.next_power_of_two());
                    }
                    region
                        .xor(seg.parity_addr, &piece)
                        .expect("region grown to cover the segment");
                    *len = (*len).max(end);
                }
            }

            if let (Some((q, q_bytes)), [(miss_shard, miss_len)]) = (rb.donor, invalid.as_slice()) {
                // tmp = P_q XOR sum_valid g_q,j D_j = g_q,src * D_missing
                // on the missing shard's parity ranges, zero elsewhere.
                let mut tmp = q_bytes;
                for (shard, bytes) in &reads {
                    for seg in layout.split_range(*shard, 0, bytes.len()) {
                        let c = layout.code().rs().coefficient(q, seg.source);
                        let mut piece = bytes[seg.data_addr..seg.data_addr + seg.len].to_vec();
                        ring_gf::region::mul_in_place(&mut piece, c);
                        let end = (seg.parity_addr + seg.len).min(tmp.len());
                        if seg.parity_addr < end {
                            for (dst, src) in tmp[seg.parity_addr..end]
                                .iter_mut()
                                .zip(&piece[..end - seg.parity_addr])
                            {
                                *dst ^= src;
                            }
                        }
                    }
                }
                // My parity over the missing ranges:
                // P_me = g_me,src * inv(g_q,src) * tmp.
                for seg in layout.split_range(*miss_shard, 0, *miss_len) {
                    let g_me = layout.code().rs().coefficient(my_idx, seg.source);
                    let g_q = layout.code().rs().coefficient(q, seg.source);
                    let Some(inv) = g_q.checked_inv() else {
                        continue;
                    };
                    let factor = g_me * inv;
                    let end = (seg.parity_addr + seg.len).min(tmp.len());
                    if seg.parity_addr >= end {
                        continue;
                    }
                    let mut piece = tmp[seg.parity_addr..end].to_vec();
                    ring_gf::region::mul_in_place(&mut piece, factor);
                    if seg.parity_addr + piece.len() > region.len() {
                        region.grow((seg.parity_addr + piece.len()).next_power_of_two());
                    }
                    region
                        .xor(seg.parity_addr, &piece)
                        .expect("region grown to cover the segment");
                    *len = (*len).max(seg.parity_addr + piece.len());
                }
            }

            for info in rb.infos.values() {
                for e in &info.entries {
                    let mut entry = ObjectEntry::new(e.len, e.addr, e.tombstone);
                    entry.committed = true;
                    red.meta.insert(e.key, e.version, entry);
                }
            }
        }

        for shard in 0..s {
            let _ = self.ep.send(
                self.config.coordinator(g, shard),
                Msg::ParityRebuildDone {
                    group: g,
                    memgest: mid,
                },
            );
        }
        self.recovering = self.recovering.saturating_sub(1);
    }

    /// A rebuilt parity node is consistent with this coordinator's heap,
    /// so it implicitly acknowledges every in-flight SRS put of the
    /// memgest; the stalled queue drains once no other rebuild stalls it.
    pub(crate) fn handle_parity_rebuild_done(&mut self, from: NodeId, g: GroupId, mid: MemgestId) {
        let keys: Vec<super::PendingKey> = self
            .pending
            .keys()
            .filter(|(pg, pm, _, _)| *pg == g && *pm == mid)
            .copied()
            .collect();
        for (pg, pm, key, version) in keys {
            self.handle_ack(from, pg, pm, key, version);
        }
        self.unstall(g, mid, |p| p == from);
    }
}
