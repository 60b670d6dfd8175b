//! Message → bytes. The encoder is infallible: every in-memory message
//! has exactly one wire form. Payload bytes travel as shared
//! [`FrameBuf`] segments (zero-copy).

use ring_kvs::config::ClusterConfig;
use ring_kvs::proto::{ClientReq, ClientResp, MetaEntry, Msg, ParitySeg};
use ring_kvs::stats::{GroupStats, MemgestStats, NodeStats, OpCounters};
use ring_kvs::types::{MemgestDescriptor, Scheme};
use ring_kvs::RingError;
use ring_net::{FrameBuf, Payload};

use crate::tags::*;

fn put_bool(out: &mut FrameBuf, v: bool) {
    out.put_u8(v as u8);
}

fn put_payload(out: &mut FrameBuf, p: &Payload) {
    out.put_u32(p.len() as u32);
    out.put_payload(p);
}

fn put_opt_payload(out: &mut FrameBuf, p: &Option<Payload>) {
    match p {
        Some(p) => {
            put_bool(out, true);
            put_payload(out, p);
        }
        None => put_bool(out, false),
    }
}

fn put_str(out: &mut FrameBuf, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_bytes(s.as_bytes());
}

fn put_opt_usize(out: &mut FrameBuf, v: Option<usize>) {
    match v {
        Some(v) => {
            put_bool(out, true);
            out.put_u64(v as u64);
        }
        None => put_bool(out, false),
    }
}

fn put_scheme(out: &mut FrameBuf, s: Scheme) {
    match s {
        Scheme::Rep { r } => {
            out.put_u8(SCHEME_REP);
            out.put_u64(r as u64);
        }
        Scheme::Srs { k, m } => {
            out.put_u8(SCHEME_SRS);
            out.put_u64(k as u64);
            out.put_u64(m as u64);
        }
    }
}

fn put_descriptor(out: &mut FrameBuf, d: &MemgestDescriptor) {
    put_scheme(out, d.scheme);
    out.put_u64(d.block_size as u64);
}

fn put_meta_entry(out: &mut FrameBuf, e: &MetaEntry) {
    out.put_u64(e.key);
    out.put_u64(e.version);
    out.put_u64(e.len as u64);
    out.put_u64(e.addr as u64);
    put_bool(out, e.tombstone);
}

fn put_meta_entries(out: &mut FrameBuf, entries: &[MetaEntry]) {
    out.put_u32(entries.len() as u32);
    for e in entries {
        put_meta_entry(out, e);
    }
}

fn put_parity_seg(out: &mut FrameBuf, s: &ParitySeg) {
    out.put_u64(s.parity_addr as u64);
    put_payload(out, &s.delta);
}

fn put_config(out: &mut FrameBuf, c: &ClusterConfig) {
    out.put_u64(c.epoch);
    out.put_u64(c.s as u64);
    out.put_u64(c.d as u64);
    out.put_u64(c.groups as u64);
    out.put_u32(c.nodes.len() as u32);
    for &n in &c.nodes {
        out.put_u32(n);
    }
    out.put_u32(c.spares.len() as u32);
    for &n in &c.spares {
        out.put_u32(n);
    }
}

fn put_error(out: &mut FrameBuf, e: &RingError) {
    match e {
        RingError::KeyNotFound => out.put_u8(ERR_KEY_NOT_FOUND),
        RingError::UnknownMemgest(id) => {
            out.put_u8(ERR_UNKNOWN_MEMGEST);
            out.put_u32(*id);
        }
        RingError::InvalidDescriptor(msg) => {
            out.put_u8(ERR_INVALID_DESCRIPTOR);
            put_str(out, msg);
        }
        RingError::Timeout => out.put_u8(ERR_TIMEOUT),
        RingError::NotCoordinator => out.put_u8(ERR_NOT_COORDINATOR),
        RingError::Unavailable(msg) => {
            out.put_u8(ERR_UNAVAILABLE);
            put_str(out, msg);
        }
        RingError::Net(msg) => {
            out.put_u8(ERR_NET);
            put_str(out, msg);
        }
        RingError::Internal(msg) => {
            out.put_u8(ERR_INTERNAL);
            put_str(out, msg);
        }
    }
}

fn put_op_counters(out: &mut FrameBuf, o: &OpCounters) {
    out.put_u64(o.puts);
    out.put_u64(o.gets);
    out.put_u64(o.deletes);
    out.put_u64(o.moves);
    out.put_u64(o.redundancy_updates);
}

fn put_memgest_stats(out: &mut FrameBuf, m: &MemgestStats) {
    out.put_u32(m.id);
    put_str(out, &m.scheme);
    out.put_u64(m.coord_meta_entries as u64);
    out.put_u64(m.missing_entries as u64);
    out.put_u64(m.coord_meta_bytes as u64);
    out.put_u64(m.data_bytes as u64);
    out.put_u64(m.redundant_meta_entries as u64);
    out.put_u64(m.replica_bytes as u64);
    out.put_u64(m.parity_bytes as u64);
}

fn put_group_stats(out: &mut FrameBuf, g: &GroupStats) {
    out.put_u8(g.group);
    put_opt_usize(out, g.shard);
    put_opt_usize(out, g.redundant_index);
    out.put_u64(g.volatile_keys as u64);
    out.put_u32(g.memgests.len() as u32);
    for m in &g.memgests {
        put_memgest_stats(out, m);
    }
}

fn put_node_stats(out: &mut FrameBuf, s: &NodeStats) {
    out.put_u32(s.node);
    out.put_u64(s.epoch);
    put_bool(out, s.active);
    put_op_counters(out, &s.ops);
    out.put_u32(s.groups.len() as u32);
    for g in &s.groups {
        put_group_stats(out, g);
    }
}

fn put_client_req(out: &mut FrameBuf, req: &ClientReq) {
    match req {
        ClientReq::Put {
            key,
            value,
            memgest,
        } => {
            out.put_u8(REQ_PUT);
            out.put_u64(*key);
            match memgest {
                Some(id) => {
                    put_bool(out, true);
                    out.put_u32(*id);
                }
                None => put_bool(out, false),
            }
            put_payload(out, value);
        }
        ClientReq::Get { key } => {
            out.put_u8(REQ_GET);
            out.put_u64(*key);
        }
        ClientReq::Delete { key } => {
            out.put_u8(REQ_DELETE);
            out.put_u64(*key);
        }
        ClientReq::Move { key, dst } => {
            out.put_u8(REQ_MOVE);
            out.put_u64(*key);
            out.put_u32(*dst);
        }
        ClientReq::CreateMemgest { desc } => {
            out.put_u8(REQ_CREATE_MEMGEST);
            put_descriptor(out, desc);
        }
        ClientReq::DeleteMemgest { id } => {
            out.put_u8(REQ_DELETE_MEMGEST);
            out.put_u32(*id);
        }
        ClientReq::SetDefaultMemgest { id } => {
            out.put_u8(REQ_SET_DEFAULT_MEMGEST);
            out.put_u32(*id);
        }
        ClientReq::GetMemgestDescriptor { id } => {
            out.put_u8(REQ_GET_MEMGEST_DESCRIPTOR);
            out.put_u32(*id);
        }
        ClientReq::Stats => out.put_u8(REQ_STATS),
    }
}

fn put_client_resp(out: &mut FrameBuf, resp: &ClientResp) {
    match resp {
        ClientResp::PutOk { version } => {
            out.put_u8(RESP_PUT_OK);
            out.put_u64(*version);
        }
        ClientResp::GetOk { value, version } => {
            out.put_u8(RESP_GET_OK);
            out.put_u64(*version);
            put_payload(out, value);
        }
        ClientResp::DeleteOk => out.put_u8(RESP_DELETE_OK),
        ClientResp::MoveOk { version } => {
            out.put_u8(RESP_MOVE_OK);
            out.put_u64(*version);
        }
        ClientResp::MemgestCreated { id } => {
            out.put_u8(RESP_MEMGEST_CREATED);
            out.put_u32(*id);
        }
        ClientResp::MemgestDeleted => out.put_u8(RESP_MEMGEST_DELETED),
        ClientResp::DefaultSet => out.put_u8(RESP_DEFAULT_SET),
        ClientResp::Descriptor { desc } => {
            out.put_u8(RESP_DESCRIPTOR);
            put_descriptor(out, desc);
        }
        ClientResp::Stats(stats) => {
            out.put_u8(RESP_STATS);
            put_node_stats(out, stats);
        }
        ClientResp::Error(e) => {
            out.put_u8(RESP_ERROR);
            put_error(out, e);
        }
    }
}

/// Encodes one protocol message into a frame body.
pub fn encode_msg(msg: &Msg, out: &mut FrameBuf) {
    match msg {
        Msg::Request { req, body } => {
            out.put_u8(MSG_REQUEST);
            out.put_u64(*req);
            put_client_req(out, body);
        }
        Msg::Response { req, body } => {
            out.put_u8(MSG_RESPONSE);
            out.put_u64(*req);
            put_client_resp(out, body);
        }
        Msg::Replicate {
            group,
            memgest,
            key,
            version,
            value,
            tombstone,
        } => {
            out.put_u8(MSG_REPLICATE);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*key);
            out.put_u64(*version);
            put_bool(out, *tombstone);
            put_payload(out, value);
        }
        Msg::ReplicateAck {
            group,
            memgest,
            key,
            version,
        } => {
            out.put_u8(MSG_REPLICATE_ACK);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*key);
            out.put_u64(*version);
        }
        Msg::ParityUpdate {
            group,
            memgest,
            shard,
            meta,
            segs,
        } => {
            out.put_u8(MSG_PARITY_UPDATE);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*shard as u64);
            put_meta_entry(out, meta);
            out.put_u32(segs.len() as u32);
            for s in segs {
                put_parity_seg(out, s);
            }
        }
        Msg::ParityAck {
            group,
            memgest,
            key,
            version,
        } => {
            out.put_u8(MSG_PARITY_ACK);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*key);
            out.put_u64(*version);
        }
        Msg::MetaRemove {
            group,
            memgest,
            key,
            below,
        } => {
            out.put_u8(MSG_META_REMOVE);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*key);
            out.put_u64(*below);
        }
        Msg::Heartbeat => out.put_u8(MSG_HEARTBEAT),
        Msg::ConfigUpdate {
            config,
            memgests,
            default,
        } => {
            out.put_u8(MSG_CONFIG_UPDATE);
            put_config(out, config);
            out.put_u32(memgests.len() as u32);
            for (id, desc) in memgests {
                out.put_u32(*id);
                put_descriptor(out, desc);
            }
            out.put_u32(*default);
        }
        Msg::MemgestCreate { token, id, desc } => {
            out.put_u8(MSG_MEMGEST_CREATE);
            out.put_u64(*token);
            out.put_u32(*id);
            put_descriptor(out, desc);
        }
        Msg::MemgestDrop { token, id } => {
            out.put_u8(MSG_MEMGEST_DROP);
            out.put_u64(*token);
            out.put_u32(*id);
        }
        Msg::SetDefault { token, id } => {
            out.put_u8(MSG_SET_DEFAULT);
            out.put_u64(*token);
            out.put_u32(*id);
        }
        Msg::CtrlAck { token } => {
            out.put_u8(MSG_CTRL_ACK);
            out.put_u64(*token);
        }
        Msg::MetaFetch {
            group,
            memgest,
            shard,
        } => {
            out.put_u8(MSG_META_FETCH);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*shard as u64);
        }
        Msg::MetaFetchResp {
            group,
            memgest,
            shard,
            entries,
            values,
        } => {
            out.put_u8(MSG_META_FETCH_RESP);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*shard as u64);
            put_meta_entries(out, entries);
            out.put_u32(values.len() as u32);
            for v in values {
                put_opt_payload(out, v);
            }
        }
        Msg::FetchValue {
            group,
            memgest,
            key,
            version,
        } => {
            out.put_u8(MSG_FETCH_VALUE);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*key);
            out.put_u64(*version);
        }
        Msg::FetchValueResp {
            group,
            memgest,
            key,
            version,
            value,
        } => {
            out.put_u8(MSG_FETCH_VALUE_RESP);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*key);
            out.put_u64(*version);
            put_opt_payload(out, value);
        }
        Msg::ShardRead {
            group,
            memgest,
            token,
            parity,
            ranges,
        } => {
            out.put_u8(MSG_SHARD_READ);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*token);
            put_bool(out, *parity);
            out.put_u32(ranges.len() as u32);
            for &(addr, len) in ranges {
                out.put_u64(addr as u64);
                out.put_u64(len as u64);
            }
        }
        Msg::ShardReadResp {
            group,
            memgest,
            token,
            bytes,
        } => {
            out.put_u8(MSG_SHARD_READ_RESP);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*token);
            put_opt_payload(out, bytes);
        }
        Msg::ParityRebuildStart { group, memgest } => {
            out.put_u8(MSG_PARITY_REBUILD_START);
            out.put_u8(*group);
            out.put_u32(*memgest);
        }
        Msg::ParityRebuildInfo {
            group,
            memgest,
            shard,
            heap_len,
            entries,
        } => {
            out.put_u8(MSG_PARITY_REBUILD_INFO);
            out.put_u8(*group);
            out.put_u32(*memgest);
            out.put_u64(*shard as u64);
            out.put_u64(*heap_len as u64);
            put_meta_entries(out, entries);
        }
        Msg::ParityRebuildDone { group, memgest } => {
            out.put_u8(MSG_PARITY_REBUILD_DONE);
            out.put_u8(*group);
            out.put_u32(*memgest);
        }
    }
}
