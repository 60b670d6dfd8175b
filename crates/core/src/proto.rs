//! The wire protocol of the Ring cluster.
//!
//! All node-to-node and client-to-node communication is a single [`Msg`]
//! enum carried by the simulated RDMA fabric. Messages report an
//! approximate on-wire size (payload plus a fixed header) so the fabric
//! can charge transmission time.

use ring_net::{NodeId, Payload, WireSize};

use crate::config::ClusterConfig;
use crate::error::RingError;
use crate::types::{GroupId, Key, MemgestDescriptor, MemgestId, ReqId, Version};

/// Fixed per-message header estimate (ids, opcodes, lengths).
const HEADER: usize = 32;

/// A client-originated request body.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientReq {
    /// `put(key, object[, memgestID])`.
    Put {
        /// The key.
        key: Key,
        /// The value bytes.
        value: Payload,
        /// Target memgest; `None` selects the cluster default.
        memgest: Option<MemgestId>,
    },
    /// `get(key)`.
    Get {
        /// The key.
        key: Key,
    },
    /// `delete(key)`.
    Delete {
        /// The key.
        key: Key,
    },
    /// `move(key, memgestID)`.
    Move {
        /// The key.
        key: Key,
        /// Destination memgest.
        dst: MemgestId,
    },
    /// `createMemgest(descriptor)` — addressed to the leader.
    CreateMemgest {
        /// The scheme descriptor.
        desc: MemgestDescriptor,
    },
    /// `deleteMemgest(id)` — addressed to the leader.
    DeleteMemgest {
        /// The memgest to remove.
        id: MemgestId,
    },
    /// `setDefaultMemgest(id)` — addressed to the leader.
    SetDefaultMemgest {
        /// The new default.
        id: MemgestId,
    },
    /// `getMemgestDescriptor(id)`.
    GetMemgestDescriptor {
        /// The memgest to describe.
        id: MemgestId,
    },
    /// Introspection: report the contacted node's [`crate::stats::NodeStats`]
    /// (answered by any node, not only coordinators).
    Stats,
}

impl ClientReq {
    fn wire_size(&self) -> usize {
        match self {
            ClientReq::Put { value, .. } => 8 + value.len(),
            _ => 16,
        }
    }
}

/// A response to a client request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResp {
    /// Put committed at this version.
    PutOk {
        /// Version assigned to the write.
        version: Version,
    },
    /// Get result.
    GetOk {
        /// The value bytes.
        value: Payload,
        /// The version returned.
        version: Version,
    },
    /// Delete committed.
    DeleteOk,
    /// Move committed; the object now lives at this version in the
    /// destination memgest.
    MoveOk {
        /// New version in the destination memgest.
        version: Version,
    },
    /// Memgest created.
    MemgestCreated {
        /// Its id.
        id: MemgestId,
    },
    /// Memgest deleted.
    MemgestDeleted,
    /// Default memgest updated.
    DefaultSet,
    /// Descriptor lookup result.
    Descriptor {
        /// The descriptor.
        desc: MemgestDescriptor,
    },
    /// Introspection report.
    Stats(Box<crate::stats::NodeStats>),
    /// The request failed.
    Error(RingError),
}

impl ClientResp {
    fn wire_size(&self) -> usize {
        match self {
            ClientResp::GetOk { value, .. } => 16 + value.len(),
            _ => 16,
        }
    }
}

/// One parity-heap delta segment of an SRS put, already multiplied by
/// the destination parity node's generator coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct ParitySeg {
    /// Address in the parity node's heap for this memgest.
    pub parity_addr: usize,
    /// `g_{p,source} * (new ^ old)` bytes to XOR in.
    pub delta: Payload,
}

/// Metadata of one object version, as exchanged during replication and
/// recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaEntry {
    /// The key.
    pub key: Key,
    /// The version.
    pub version: Version,
    /// Value length in bytes.
    pub len: usize,
    /// Heap address (SRS memgests) — `usize::MAX` for replicated ones.
    pub addr: usize,
    /// True if this version is a delete marker.
    pub tombstone: bool,
}

/// Every message on the fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---- Client plane ----
    /// A client request.
    Request {
        /// Client-unique request id, echoed in the response.
        req: ReqId,
        /// The request body.
        body: ClientReq,
    },
    /// The response to a request.
    Response {
        /// Echoed request id.
        req: ReqId,
        /// The response body.
        body: ClientResp,
    },

    // ---- Replication plane ----
    /// Coordinator -> replica: store a copy of `(key, version)`.
    Replicate {
        /// Memgest group.
        group: GroupId,
        /// Target memgest.
        memgest: MemgestId,
        /// The key.
        key: Key,
        /// The version.
        version: Version,
        /// Full value bytes (empty for tombstones).
        value: Payload,
        /// Delete marker.
        tombstone: bool,
    },
    /// Replica -> coordinator: copy stored.
    ReplicateAck {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// The key.
        key: Key,
        /// The version.
        version: Version,
    },
    /// Coordinator -> parity node: apply parity deltas and record the
    /// metadata replica (the "special parity update" of Section 5.3).
    ParityUpdate {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// Shard of the originating coordinator.
        shard: usize,
        /// Object metadata to replicate.
        meta: MetaEntry,
        /// Coefficient-multiplied heap deltas.
        segs: Vec<ParitySeg>,
    },
    /// Parity node -> coordinator: update applied.
    ParityAck {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// The key.
        key: Key,
        /// The version.
        version: Version,
    },
    /// Coordinator -> redundancy: prune an obsolete version's metadata
    /// (fire-and-forget garbage collection).
    MetaRemove {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// The key.
        key: Key,
        /// Versions strictly below this are pruned.
        below: Version,
    },

    // ---- Membership plane ----
    /// Node -> leader: liveness beacon.
    Heartbeat,
    /// Leader -> everyone: the new configuration after a role change,
    /// including the memgest catalog so promoted spares can instantiate
    /// their state.
    ConfigUpdate {
        /// The full configuration (epoch inside).
        config: ClusterConfig,
        /// All memgests: `(id, descriptor)`.
        memgests: Vec<(MemgestId, MemgestDescriptor)>,
        /// The cluster-wide default memgest.
        default: MemgestId,
    },
    /// Leader -> nodes: instantiate a memgest.
    MemgestCreate {
        /// Leader-chosen token echoed in the ack.
        token: u64,
        /// Its id.
        id: MemgestId,
        /// Its descriptor.
        desc: MemgestDescriptor,
    },
    /// Leader -> nodes: drop a memgest.
    MemgestDrop {
        /// Leader-chosen token echoed in the ack.
        token: u64,
        /// The memgest to drop.
        id: MemgestId,
    },
    /// Leader -> nodes: change the default memgest for new keys.
    SetDefault {
        /// Leader-chosen token echoed in the ack.
        token: u64,
        /// The new default memgest.
        id: MemgestId,
    },
    /// Node -> leader: control-plane op applied.
    CtrlAck {
        /// Which control message (leader-chosen token).
        token: u64,
    },

    // ---- Recovery plane ----
    /// New node -> survivor: send me the metadata you hold for
    /// `(group, memgest, shard)`.
    MetaFetch {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// Shard whose metadata is requested.
        shard: usize,
    },
    /// Survivor -> new node: the requested metadata.
    MetaFetchResp {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// Shard the entries belong to.
        shard: usize,
        /// All metadata entries held for that shard.
        entries: Vec<MetaEntry>,
        /// Value bytes parallel to `entries` — populated when the
        /// requester also needs data copies (replicated memgests),
        /// `None` entries otherwise.
        values: Vec<Option<Payload>>,
    },
    /// Coordinator -> replica: fetch a value copy (replicated memgests,
    /// on-demand data recovery).
    FetchValue {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// The key.
        key: Key,
        /// The version.
        version: Version,
    },
    /// Replica -> coordinator: the value copy (empty if unknown).
    FetchValueResp {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// The key.
        key: Key,
        /// The version.
        version: Version,
        /// The bytes, or `None` if this replica does not hold them.
        value: Option<Payload>,
    },
    /// Speculative reader -> shard holder: late-binding shard read.
    /// Return the concatenated bytes of `ranges` from your heap for
    /// this memgest — the data heap when `parity == false` (addressed
    /// to a coordinator), the parity heap when `parity == true`
    /// (addressed to a redundancy node).
    ShardRead {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// Requester-chosen token echoed in the response; responses for
        /// forgotten tokens are dropped (straggler cancellation).
        token: u64,
        /// Read the parity heap instead of the data heap.
        parity: bool,
        /// `(addr, len)` byte ranges, concatenated in order.
        ranges: Vec<(usize, usize)>,
    },
    /// Shard holder -> speculative reader: the requested bytes.
    ShardReadResp {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// Echoed requester token.
        token: u64,
        /// Concatenated range bytes, or `None` if the holder declined
        /// (it is itself recovering or mid-rebuild).
        bytes: Option<Payload>,
    },
    /// New parity node -> coordinators: stall SRS puts for this memgest
    /// while I rebuild the parity heap.
    ParityRebuildStart {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
    },
    /// Coordinator -> new parity node: stalled; my heap extends to
    /// `heap_len` and here is my shard's metadata.
    ParityRebuildInfo {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
        /// Responding shard.
        shard: usize,
        /// Current heap length of that coordinator.
        heap_len: usize,
        /// The shard's metadata entries.
        entries: Vec<MetaEntry>,
    },
    /// New parity node -> coordinators: rebuild complete, resume puts.
    ParityRebuildDone {
        /// Memgest group.
        group: GroupId,
        /// The memgest.
        memgest: MemgestId,
    },
}

/// Size of a metadata entry on the wire.
const META_ENTRY_SIZE: usize = 8 + 8 + 8 + 8 + 1;

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        HEADER
            + match self {
                Msg::Request { body, .. } => body.wire_size(),
                Msg::Response { body, .. } => body.wire_size(),
                Msg::Replicate { value, .. } => 24 + value.len(),
                Msg::ParityUpdate { segs, meta, .. } => {
                    let _ = meta;
                    META_ENTRY_SIZE + segs.iter().map(|s| 8 + s.delta.len()).sum::<usize>()
                }
                Msg::MetaFetchResp {
                    entries, values, ..
                } => {
                    16 + entries.len() * META_ENTRY_SIZE
                        // This `values` is a Vec; the name collides with the
                        // Rep store's HashMap field in node/coord.rs.
                        // ring-lint: allow(hashmap-iteration)
                        + values
                            .iter()
                            .map(|v| v.as_ref().map(|b| b.len()).unwrap_or(0))
                            .sum::<usize>()
                }
                Msg::FetchValueResp { value, .. } => {
                    24 + value.as_ref().map(|v| v.len()).unwrap_or(0)
                }
                Msg::ShardRead { ranges, .. } => 24 + ranges.len() * 16,
                Msg::ShardReadResp { bytes, .. } => {
                    24 + bytes.as_ref().map(|b| b.len()).unwrap_or(0)
                }
                Msg::ParityRebuildInfo { entries, .. } => 24 + entries.len() * META_ENTRY_SIZE,
                Msg::ConfigUpdate {
                    config, memgests, ..
                } => 32 + config.nodes.len() * 4 + memgests.len() * 16,
                // Beacons and acks are a few ids at most.
                Msg::Heartbeat | Msg::CtrlAck { .. } => 8,
                // Fixed-size control messages: ids, keys, versions —
                // enumerated so a new variant must pick a size here.
                Msg::ReplicateAck { .. }
                | Msg::ParityAck { .. }
                | Msg::MetaRemove { .. }
                | Msg::MemgestCreate { .. }
                | Msg::MemgestDrop { .. }
                | Msg::SetDefault { .. }
                | Msg::MetaFetch { .. }
                | Msg::FetchValue { .. }
                | Msg::ParityRebuildStart { .. }
                | Msg::ParityRebuildDone { .. } => 24,
            }
    }
}

/// Convenience alias for the fabric instantiated with [`Msg`].
pub type RingFabric = ring_net::Fabric<Msg>;

/// Convenience alias for an endpoint carrying [`Msg`].
pub type RingEndpoint = ring_net::Endpoint<Msg>;

/// A `(node, request id)` pair identifying an outstanding client call.
pub type ClientTag = (NodeId, ReqId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_scales_with_payload() {
        let small = Msg::Request {
            req: 1,
            body: ClientReq::Put {
                key: 1,
                value: Payload::from(vec![0; 16]),
                memgest: None,
            },
        };
        let big = Msg::Request {
            req: 1,
            body: ClientReq::Put {
                key: 1,
                value: Payload::from(vec![0; 1024]),
                memgest: None,
            },
        };
        assert!(big.wire_size() - small.wire_size() == 1008);
        assert!(small.wire_size() >= 16 + HEADER);
    }

    #[test]
    fn parity_update_counts_all_segments() {
        let m = Msg::ParityUpdate {
            group: 0,
            memgest: 1,
            shard: 0,
            meta: MetaEntry {
                key: 1,
                version: 1,
                len: 20,
                addr: 0,
                tombstone: false,
            },
            segs: vec![
                ParitySeg {
                    parity_addr: 0,
                    delta: Payload::from(vec![0; 10]),
                },
                ParitySeg {
                    parity_addr: 64,
                    delta: Payload::from(vec![0; 10]),
                },
            ],
        };
        assert!(m.wire_size() > HEADER + 20);
    }
}
