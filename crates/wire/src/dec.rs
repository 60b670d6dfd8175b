//! Bytes → message. Every read is bounds-checked; arbitrary input
//! produces [`NetError::BadFrame`], never a panic. Collection counts
//! are decoded incrementally (capacity is bounded), so a corrupt count
//! field cannot trigger a giant allocation — the reads fail first.

use ring_kvs::config::ClusterConfig;
use ring_kvs::proto::{ClientReq, ClientResp, MetaEntry, Msg, ParitySeg};
use ring_kvs::stats::{GroupStats, MemgestStats, NodeStats, OpCounters};
use ring_kvs::types::{MemgestDescriptor, Scheme};
use ring_kvs::RingError;
use ring_net::{NetError, Payload, WireReader};

use crate::tags::*;

/// Pre-allocation cap for decoded collections: trust the bytes, not the
/// count field.
const MAX_PREALLOC: usize = 1024;

fn bad(what: &str, value: impl std::fmt::Display) -> NetError {
    NetError::BadFrame(format!("unknown {what} {value}"))
}

fn get_bool(r: &mut WireReader) -> Result<bool, NetError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(bad("bool byte", b)),
    }
}

fn get_usize(r: &mut WireReader) -> Result<usize, NetError> {
    Ok(r.u64()? as usize)
}

fn get_payload(r: &mut WireReader) -> Result<Payload, NetError> {
    let n = r.u32()? as usize;
    Ok(Payload::from(r.bytes(n)?.to_vec()))
}

fn get_opt_payload(r: &mut WireReader) -> Result<Option<Payload>, NetError> {
    Ok(if get_bool(r)? {
        Some(get_payload(r)?)
    } else {
        None
    })
}

fn get_str(r: &mut WireReader) -> Result<String, NetError> {
    let n = r.u32()? as usize;
    String::from_utf8(r.bytes(n)?.to_vec())
        .map_err(|_| NetError::BadFrame("non-UTF-8 string".into()))
}

fn get_opt_usize(r: &mut WireReader) -> Result<Option<usize>, NetError> {
    Ok(if get_bool(r)? {
        Some(get_usize(r)?)
    } else {
        None
    })
}

fn get_scheme(r: &mut WireReader) -> Result<Scheme, NetError> {
    match r.u8()? {
        SCHEME_REP => Ok(Scheme::Rep { r: get_usize(r)? }),
        SCHEME_SRS => Ok(Scheme::Srs {
            k: get_usize(r)?,
            m: get_usize(r)?,
        }),
        t => Err(bad("scheme tag", t)),
    }
}

fn get_descriptor(r: &mut WireReader) -> Result<MemgestDescriptor, NetError> {
    Ok(MemgestDescriptor {
        scheme: get_scheme(r)?,
        block_size: get_usize(r)?,
    })
}

fn get_meta_entry(r: &mut WireReader) -> Result<MetaEntry, NetError> {
    Ok(MetaEntry {
        key: r.u64()?,
        version: r.u64()?,
        len: get_usize(r)?,
        addr: get_usize(r)?,
        tombstone: get_bool(r)?,
    })
}

fn get_meta_entries(r: &mut WireReader) -> Result<Vec<MetaEntry>, NetError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        out.push(get_meta_entry(r)?);
    }
    Ok(out)
}

fn get_config(r: &mut WireReader) -> Result<ClusterConfig, NetError> {
    let epoch = r.u64()?;
    let s = get_usize(r)?;
    let d = get_usize(r)?;
    let groups = get_usize(r)?;
    let n_nodes = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(n_nodes.min(MAX_PREALLOC));
    for _ in 0..n_nodes {
        nodes.push(r.u32()?);
    }
    let n_spares = r.u32()? as usize;
    let mut spares = Vec::with_capacity(n_spares.min(MAX_PREALLOC));
    for _ in 0..n_spares {
        spares.push(r.u32()?);
    }
    Ok(ClusterConfig {
        epoch,
        s,
        d,
        groups,
        nodes,
        spares,
    })
}

fn get_error(r: &mut WireReader) -> Result<RingError, NetError> {
    Ok(match r.u8()? {
        ERR_KEY_NOT_FOUND => RingError::KeyNotFound,
        ERR_UNKNOWN_MEMGEST => RingError::UnknownMemgest(r.u32()?),
        ERR_INVALID_DESCRIPTOR => RingError::InvalidDescriptor(get_str(r)?),
        ERR_TIMEOUT => RingError::Timeout,
        ERR_NOT_COORDINATOR => RingError::NotCoordinator,
        ERR_UNAVAILABLE => RingError::Unavailable(get_str(r)?),
        ERR_NET => RingError::Net(get_str(r)?),
        ERR_INTERNAL => RingError::Internal(get_str(r)?),
        t => return Err(bad("error tag", t)),
    })
}

fn get_op_counters(r: &mut WireReader) -> Result<OpCounters, NetError> {
    Ok(OpCounters {
        puts: r.u64()?,
        gets: r.u64()?,
        deletes: r.u64()?,
        moves: r.u64()?,
        redundancy_updates: r.u64()?,
    })
}

fn get_memgest_stats(r: &mut WireReader) -> Result<MemgestStats, NetError> {
    Ok(MemgestStats {
        id: r.u32()?,
        scheme: get_str(r)?,
        coord_meta_entries: get_usize(r)?,
        missing_entries: get_usize(r)?,
        coord_meta_bytes: get_usize(r)?,
        data_bytes: get_usize(r)?,
        redundant_meta_entries: get_usize(r)?,
        replica_bytes: get_usize(r)?,
        parity_bytes: get_usize(r)?,
    })
}

fn get_group_stats(r: &mut WireReader) -> Result<GroupStats, NetError> {
    let group = r.u8()?;
    let shard = get_opt_usize(r)?;
    let redundant_index = get_opt_usize(r)?;
    let volatile_keys = get_usize(r)?;
    let n = r.u32()? as usize;
    let mut memgests = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        memgests.push(get_memgest_stats(r)?);
    }
    Ok(GroupStats {
        group,
        shard,
        redundant_index,
        volatile_keys,
        memgests,
    })
}

fn get_node_stats(r: &mut WireReader) -> Result<NodeStats, NetError> {
    let node = r.u32()?;
    let epoch = r.u64()?;
    let active = get_bool(r)?;
    let ops = get_op_counters(r)?;
    let n = r.u32()? as usize;
    let mut groups = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        groups.push(get_group_stats(r)?);
    }
    Ok(NodeStats {
        node,
        epoch,
        active,
        ops,
        groups,
    })
}

fn get_client_req(r: &mut WireReader) -> Result<ClientReq, NetError> {
    Ok(match r.u8()? {
        REQ_PUT => {
            let key = r.u64()?;
            let memgest = if get_bool(r)? { Some(r.u32()?) } else { None };
            let value = get_payload(r)?;
            ClientReq::Put {
                key,
                value,
                memgest,
            }
        }
        REQ_GET => ClientReq::Get { key: r.u64()? },
        REQ_DELETE => ClientReq::Delete { key: r.u64()? },
        REQ_MOVE => ClientReq::Move {
            key: r.u64()?,
            dst: r.u32()?,
        },
        REQ_CREATE_MEMGEST => ClientReq::CreateMemgest {
            desc: get_descriptor(r)?,
        },
        REQ_DELETE_MEMGEST => ClientReq::DeleteMemgest { id: r.u32()? },
        REQ_SET_DEFAULT_MEMGEST => ClientReq::SetDefaultMemgest { id: r.u32()? },
        REQ_GET_MEMGEST_DESCRIPTOR => ClientReq::GetMemgestDescriptor { id: r.u32()? },
        REQ_STATS => ClientReq::Stats,
        t => return Err(bad("client request tag", t)),
    })
}

fn get_client_resp(r: &mut WireReader) -> Result<ClientResp, NetError> {
    Ok(match r.u8()? {
        RESP_PUT_OK => ClientResp::PutOk { version: r.u64()? },
        RESP_GET_OK => {
            let version = r.u64()?;
            let value = get_payload(r)?;
            ClientResp::GetOk { value, version }
        }
        RESP_DELETE_OK => ClientResp::DeleteOk,
        RESP_MOVE_OK => ClientResp::MoveOk { version: r.u64()? },
        RESP_MEMGEST_CREATED => ClientResp::MemgestCreated { id: r.u32()? },
        RESP_MEMGEST_DELETED => ClientResp::MemgestDeleted,
        RESP_DEFAULT_SET => ClientResp::DefaultSet,
        RESP_DESCRIPTOR => ClientResp::Descriptor {
            desc: get_descriptor(r)?,
        },
        RESP_STATS => ClientResp::Stats(Box::new(get_node_stats(r)?)),
        RESP_ERROR => ClientResp::Error(get_error(r)?),
        t => return Err(bad("client response tag", t)),
    })
}

/// Decodes one frame body back into a protocol message.
///
/// # Errors
///
/// [`NetError::BadFrame`] on any truncated field, unknown tag,
/// malformed string, or trailing bytes.
pub fn decode_msg(body: &[u8]) -> Result<Msg, NetError> {
    let mut rd = WireReader::new(body);
    let r = &mut rd;
    let msg = match r.u8()? {
        MSG_REQUEST => Msg::Request {
            req: r.u64()?,
            body: get_client_req(r)?,
        },
        MSG_RESPONSE => Msg::Response {
            req: r.u64()?,
            body: get_client_resp(r)?,
        },
        MSG_REPLICATE => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let key = r.u64()?;
            let version = r.u64()?;
            let tombstone = get_bool(r)?;
            let value = get_payload(r)?;
            Msg::Replicate {
                group,
                memgest,
                key,
                version,
                value,
                tombstone,
            }
        }
        MSG_REPLICATE_ACK => Msg::ReplicateAck {
            group: r.u8()?,
            memgest: r.u32()?,
            key: r.u64()?,
            version: r.u64()?,
        },
        MSG_PARITY_UPDATE => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let shard = get_usize(r)?;
            let meta = get_meta_entry(r)?;
            let n = r.u32()? as usize;
            let mut segs = Vec::with_capacity(n.min(MAX_PREALLOC));
            for _ in 0..n {
                segs.push(ParitySeg {
                    parity_addr: get_usize(r)?,
                    delta: get_payload(r)?,
                });
            }
            Msg::ParityUpdate {
                group,
                memgest,
                shard,
                meta,
                segs,
            }
        }
        MSG_PARITY_ACK => Msg::ParityAck {
            group: r.u8()?,
            memgest: r.u32()?,
            key: r.u64()?,
            version: r.u64()?,
        },
        MSG_META_REMOVE => Msg::MetaRemove {
            group: r.u8()?,
            memgest: r.u32()?,
            key: r.u64()?,
            below: r.u64()?,
        },
        MSG_HEARTBEAT => Msg::Heartbeat,
        MSG_CONFIG_UPDATE => {
            let config = get_config(r)?;
            let n = r.u32()? as usize;
            let mut memgests = Vec::with_capacity(n.min(MAX_PREALLOC));
            for _ in 0..n {
                let id = r.u32()?;
                memgests.push((id, get_descriptor(r)?));
            }
            let default = r.u32()?;
            Msg::ConfigUpdate {
                config,
                memgests,
                default,
            }
        }
        MSG_MEMGEST_CREATE => Msg::MemgestCreate {
            token: r.u64()?,
            id: r.u32()?,
            desc: get_descriptor(r)?,
        },
        MSG_MEMGEST_DROP => Msg::MemgestDrop {
            token: r.u64()?,
            id: r.u32()?,
        },
        MSG_SET_DEFAULT => Msg::SetDefault {
            token: r.u64()?,
            id: r.u32()?,
        },
        MSG_CTRL_ACK => Msg::CtrlAck { token: r.u64()? },
        MSG_META_FETCH => Msg::MetaFetch {
            group: r.u8()?,
            memgest: r.u32()?,
            shard: get_usize(r)?,
        },
        MSG_META_FETCH_RESP => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let shard = get_usize(r)?;
            let entries = get_meta_entries(r)?;
            let n = r.u32()? as usize;
            let mut values = Vec::with_capacity(n.min(MAX_PREALLOC));
            for _ in 0..n {
                values.push(get_opt_payload(r)?);
            }
            Msg::MetaFetchResp {
                group,
                memgest,
                shard,
                entries,
                values,
            }
        }
        MSG_FETCH_VALUE => Msg::FetchValue {
            group: r.u8()?,
            memgest: r.u32()?,
            key: r.u64()?,
            version: r.u64()?,
        },
        MSG_FETCH_VALUE_RESP => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let key = r.u64()?;
            let version = r.u64()?;
            let value = get_opt_payload(r)?;
            Msg::FetchValueResp {
                group,
                memgest,
                key,
                version,
                value,
            }
        }
        MSG_SHARD_READ => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let token = r.u64()?;
            let parity = get_bool(r)?;
            let n = r.u32()? as usize;
            let mut ranges = Vec::with_capacity(n.min(MAX_PREALLOC));
            for _ in 0..n {
                ranges.push((get_usize(r)?, get_usize(r)?));
            }
            Msg::ShardRead {
                group,
                memgest,
                token,
                parity,
                ranges,
            }
        }
        MSG_SHARD_READ_RESP => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let token = r.u64()?;
            let bytes = get_opt_payload(r)?;
            Msg::ShardReadResp {
                group,
                memgest,
                token,
                bytes,
            }
        }
        MSG_PARITY_REBUILD_START => Msg::ParityRebuildStart {
            group: r.u8()?,
            memgest: r.u32()?,
        },
        MSG_PARITY_REBUILD_INFO => {
            let group = r.u8()?;
            let memgest = r.u32()?;
            let shard = get_usize(r)?;
            let heap_len = get_usize(r)?;
            let entries = get_meta_entries(r)?;
            Msg::ParityRebuildInfo {
                group,
                memgest,
                shard,
                heap_len,
                entries,
            }
        }
        MSG_PARITY_REBUILD_DONE => Msg::ParityRebuildDone {
            group: r.u8()?,
            memgest: r.u32()?,
        },
        t => return Err(bad("message tag", t)),
    };
    rd.finish()?;
    Ok(msg)
}
