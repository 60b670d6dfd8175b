//! Redundant-node request processing: replica writes, parity updates,
//! metadata serving, and the raw shard reads a degraded coordinator
//! decodes from (Sections 5.3 and 5.5). No decode happens here: the
//! coordinator that lost a range decodes it itself (`SpecRead`).

use ring_net::{NodeId, Payload, Transport};

use crate::proto::{MetaEntry, Msg, ParitySeg};
use crate::storage::{CoordStore, ObjectEntry, RedundantStore};
use crate::types::{shard_of, GroupId, Key, MemgestId, Version};

use super::Node;

impl<T: Transport<Msg>> Node<T> {
    /// Stores a replica copy of `(key, version)` and acknowledges.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_replicate(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        key: Key,
        version: Version,
        value: Payload,
        tombstone: bool,
    ) {
        self.ops.redundancy_updates += 1;
        self.instantiate_memgest(g, mid);
        let Some(red) = self
            .groups
            .get_mut(&g)
            .and_then(|gs| gs.redundant.get_mut(&mid))
        else {
            return;
        };
        // A retransmission of a copy already stored is just re-acked.
        if red.meta.get(key, version).is_none() {
            if !self.opts.replica_ack_delay.is_zero() {
                // Disk-backed backup model (RAMCloud-like baseline): the
                // copy is buffered to stable storage before acknowledging.
                ring_net::spin_wait(self.opts.replica_ack_delay);
            }
            let mut entry = ObjectEntry::new(value.len(), usize::MAX, tombstone);
            // Replicas never serve client reads, so the commit flag on a
            // replica only matters for recovery — where write-ahead
            // semantics make every replicated entry recoverable.
            entry.committed = true;
            red.meta.insert(key, version, entry);
            if !tombstone {
                if let RedundantStore::Rep { values } = &mut red.store {
                    values.insert((key, version), value);
                }
            }
        }
        let _ = self.ep.send(
            from,
            Msg::ReplicateAck {
                group: g,
                memgest: mid,
                key,
                version,
            },
        );
    }

    /// Applies a parity update: XORs the coefficient-multiplied deltas
    /// into the parity heap and records the metadata replica.
    pub(crate) fn handle_parity_update(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
        meta: MetaEntry,
        segs: Vec<ParitySeg>,
    ) {
        let _ = shard;
        self.ops.redundancy_updates += 1;
        if self.rebuilds.contains_key(&(g, mid)) {
            // Mid-rebuild: the delta is already captured by the stalled
            // coordinator heap we are about to read (or by the donor
            // parity). Applying it here too would double-count; not
            // acking is safe because `ParityRebuildDone` acknowledges
            // every in-flight put of this memgest.
            return;
        }
        self.instantiate_memgest(g, mid);
        let Some(red) = self
            .groups
            .get_mut(&g)
            .and_then(|gs| gs.redundant.get_mut(&mid))
        else {
            return;
        };
        // A retransmission's delta was already XORed in — applying it
        // twice would cancel it. Just re-ack.
        if red.meta.get(meta.key, meta.version).is_none() {
            if let RedundantStore::Parity { region, len, .. } = &mut red.store {
                for seg in &segs {
                    let end = seg.parity_addr + seg.delta.len();
                    if end > region.len() {
                        region.grow(end.next_power_of_two());
                    }
                    region
                        .xor(seg.parity_addr, &seg.delta)
                        .expect("region grown to cover the segment");
                    *len = (*len).max(end);
                }
            }
            let mut entry = ObjectEntry::new(meta.len, meta.addr, meta.tombstone);
            entry.committed = true;
            red.meta.insert(meta.key, meta.version, entry);
        }
        let _ = self.ep.send(
            from,
            Msg::ParityAck {
                group: g,
                memgest: mid,
                key: meta.key,
                version: meta.version,
            },
        );
    }

    /// Serves the metadata (and, when this node coordinates the shard,
    /// the values) a recovering node asked for.
    pub(crate) fn handle_meta_fetch(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        shard: usize,
    ) {
        if self.recovering > 0 {
            // Our own tables are still being rebuilt (e.g. this node was
            // promoted in the same failure burst): answering now would
            // ship partial — possibly empty — metadata and silently lose
            // the requester's keys. Stay silent; the requester rotates
            // to an intact holder within 150ms.
            return;
        }
        let s = self.config.s;
        let Some(gs) = self.groups.get(&g) else {
            return;
        };
        let mut entries = Vec::new();
        let mut values = Vec::new();
        if gs.shard == Some(shard) {
            // A new replica is rebuilding from me, the coordinator: ship
            // metadata plus value copies.
            if let Some(coord) = gs.coord.get(&mid) {
                for (key, version, e) in coord.meta.iter() {
                    entries.push(MetaEntry {
                        key,
                        version,
                        len: e.len,
                        addr: e.addr,
                        tombstone: e.tombstone,
                    });
                    let v = match &coord.store {
                        CoordStore::Rep { values } => values.get(&(key, version)).cloned(),
                        CoordStore::Srs { .. } => None,
                    };
                    values.push(v);
                }
            }
        } else if let Some(red) = gs.redundant.get(&mid) {
            // A new coordinator is rebuilding: ship the metadata replicas
            // belonging to its shard (metadata-only — data recovery is
            // on demand, Section 5.5 step 6).
            for (key, version, e) in red.meta.iter() {
                if shard_of(key, s) != shard {
                    continue;
                }
                entries.push(MetaEntry {
                    key,
                    version,
                    len: e.len,
                    addr: e.addr,
                    tombstone: e.tombstone,
                });
                values.push(None);
            }
        }
        let _ = self.ep.send(
            from,
            Msg::MetaFetchResp {
                group: g,
                memgest: mid,
                shard,
                entries,
                values,
            },
        );
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

    /// Serves a speculative shard-read: ships raw bytes of the requested
    /// ranges from this node's data heap (`parity == false`) or parity
    /// region (`parity == true`), so the degraded coordinator can decode
    /// locally from whichever `k` stripe rows answer first. Declines
    /// (`bytes: None`) whenever the local bytes are not authoritative —
    /// the requester late-binds to another redundancy target.
    pub(crate) fn handle_shard_read(
        &mut self,
        from: NodeId,
        g: GroupId,
        mid: MemgestId,
        token: u64,
        parity: bool,
        ranges: Vec<(usize, usize)>,
    ) {
        let bytes = if parity {
            self.serve_parity_shard_read(g, mid, &ranges)
        } else {
            self.serve_data_shard_read(g, mid, &ranges)
        };
        let _ = self.ep.send(
            from,
            Msg::ShardReadResp {
                group: g,
                memgest: mid,
                token,
                bytes: bytes.map(Payload::from),
            },
        );
    }

    /// Raw heap bytes of a coordinator peer. Declined while this node is
    /// itself recovering or its heap has holes (metadata-only entries
    /// whose bytes were never re-decoded): zero-filled holes would decode
    /// to garbage on the requester. A stalled put's placeholder is no
    /// hole: its bytes are not in the heap yet.
    fn serve_data_shard_read(
        &self,
        g: GroupId,
        mid: MemgestId,
        ranges: &[(usize, usize)],
    ) -> Option<Vec<u8>> {
        if self.recovering > 0 {
            return None;
        }
        let gs = self.groups.get(&g)?;
        gs.shard?;
        let coord = gs.coord.get(&mid)?;
        let queued = gs.stalled_puts(mid);
        let holey = (coord.meta.iter())
            .any(|(k, v, e)| !e.data_present && !e.tombstone && !queued.contains(&(k, v)));
        if holey {
            return None;
        }
        let CoordStore::Srs { heap, .. } = &coord.store else {
            return None;
        };
        Some(concat_ranges(heap.region(), ranges))
    }

    /// Raw parity-region bytes. Declined mid-rebuild, when the parity
    /// heap is not yet consistent with the coordinators' data heaps.
    fn serve_parity_shard_read(
        &self,
        g: GroupId,
        mid: MemgestId,
        ranges: &[(usize, usize)],
    ) -> Option<Vec<u8>> {
        if self.rebuilds.contains_key(&(g, mid)) {
            return None;
        }
        let gs = self.groups.get(&g)?;
        let red = gs.redundant.get(&mid)?;
        let RedundantStore::Parity { region, .. } = &red.store else {
            return None;
        };
        Some(concat_ranges(region, ranges))
    }
}

/// Concatenates `(addr, len)` ranges of a region, zero-padded past its
/// end (unwritten heap space is all-zero by the coding convention).
fn concat_ranges(region: &ring_net::MemoryRegion, ranges: &[(usize, usize)]) -> Vec<u8> {
    let total: usize = ranges.iter().map(|&(_, len)| len).sum();
    let mut out = Vec::with_capacity(total);
    for &(addr, len) in ranges {
        out.extend_from_slice(&region.read_padded(addr, len));
    }
    out
}
