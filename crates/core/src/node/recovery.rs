//! Role changes and recovery: adopting a new configuration, rebuilding
//! metadata on a promoted spare, and the parity-rebuild protocol
//! (Section 5.5 and Figure 12's six recovery steps).

use ring_net::{NodeId, Transport};

use crate::config::Role;
use crate::proto::{MetaEntry, Msg};
use crate::storage::{data_mr_key, parity_mr_key, CoordStore, ObjectEntry, RedundantStore};
use crate::types::{GroupId, MemgestDescriptor, MemgestId, Scheme};

use super::{Node, RebuildState};

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
            for gs in self.groups.values_mut() {
                for coord in gs.coord.values_mut() {
                    for (_, _, e) in coord.meta.iter_mut() {
                        e.fetching = false;
                    }
                }
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
        coord.stalled = true;
        if self.recovering > 0 {
            // Our own metadata recovery is still running, so the heap
            // frontier below would be wrong. Stall puts now but answer
            // only once recovery drains — the rebuilding parity re-asks
            // every 150ms.
            return;
        }
        let mut data_valid = true;
        let entries: Vec<MetaEntry> = coord
            .meta
            .iter()
            .map(|(key, version, e)| {
                if !e.data_present && !e.tombstone {
                    // A hole from our own recovery: the heap bytes are
                    // not trustworthy for re-encoding.
                    data_valid = false;
                }
                MetaEntry {
                    key,
                    version,
                    len: e.len,
                    addr: e.addr,
                    tombstone: e.tombstone,
                }
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
                data_valid,
                entries,
            },
        );
    }

    /// Collects coordinator answers; once all `s` shards reported, the
    /// parity heap is re-encoded from one-sided reads of their heaps.
    pub(crate) fn handle_parity_rebuild_info(
        &mut self,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
        heap_len: usize,
        data_valid: bool,
        entries: Vec<MetaEntry>,
    ) {
        let Some(rb) = self.rebuilds.get_mut(&(g, mid)) else {
            return;
        };
        rb.infos.insert(
            shard,
            super::RebuildInfo {
                heap_len,
                data_valid,
                entries,
            },
        );
        if rb.infos.len() < rb.expected {
            return;
        }
        let rb = self.rebuilds.remove(&(g, mid)).expect("present");
        self.perform_parity_rebuild(g, mid, rb);
    }

    fn perform_parity_rebuild(&mut self, g: GroupId, mid: MemgestId, rb: RebuildState) {
        self.instantiate_memgest(g, mid);
        let my_idx = self
            .groups
            .get(&g)
            .and_then(|gs| gs.red_idx)
            .unwrap_or(usize::MAX);

        // Read every *valid* coordinator heap (one-sided) for re-encode.
        // Shards whose coordinator is itself recovering (holey heap) are
        // reconstructed from a surviving parity instead.
        let s = self.config.s;
        let mut reads: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut invalid: Vec<(usize, usize)> = Vec::new();
        let mut max_heap = 0usize;
        for shard in 0..s {
            let Some(info) = rb.infos.get(&shard) else {
                continue;
            };
            max_heap = max_heap.max(info.heap_len);
            if info.heap_len == 0 {
                continue;
            }
            if info.data_valid {
                let node = self.config.coordinator(g, shard);
                if let Ok(bytes) = self
                    .ep
                    .rdma_read(node, data_mr_key(g, mid), 0, info.heap_len)
                {
                    reads.push((shard, bytes));
                } else {
                    invalid.push((shard, info.heap_len));
                }
            } else {
                invalid.push((shard, info.heap_len));
            }
        }

        // For a single invalid shard, fetch a surviving parity heap: its
        // bytes minus the valid shards' contributions isolate the
        // missing shard's coded contribution.
        let m = self
            .catalog
            .get(&mid)
            .map(|d| match d.scheme {
                Scheme::Srs { m, .. } => m,
                Scheme::Rep { .. } => 0,
            })
            .unwrap_or(0);
        let mut donor: Option<(usize, Vec<u8>)> = None;
        if invalid.len() == 1 {
            let tmp_len = {
                // parity_len_for needs the layout; compute below once the
                // store is borrowed. Use a conservative bound here.
                max_heap * 2
            };
            for q in 0..m {
                if q == my_idx {
                    continue;
                }
                let node = self.config.redundant(g, q);
                if let Ok(bytes) = self
                    .ep
                    .rdma_read_padded(node, parity_mr_key(g, mid), 0, tmp_len)
                {
                    donor = Some((q, bytes));
                    break;
                }
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

            if let (Some((q, q_bytes)), [(miss_shard, miss_len)]) = (donor, invalid.as_slice()) {
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
    /// memgest; afterwards the stalled queue drains.
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
        self.flush_stalled(g, mid);
    }
}
