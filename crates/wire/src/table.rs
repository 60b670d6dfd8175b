//! The wire table: every message and record, each written once.
//!
//! An enum row is `Variant = tag { fields in wire order }`: the tag byte
//! goes first, then each field through its [`Field`] codec. A tuple
//! variant names its field by position and binds it, `{ 0: e }`; a unit
//! variant has `{}`. A record row lists its fields in wire order. The
//! encoder and the decoder are both expanded from the same row, so they
//! cannot disagree on a tag or on field order, and the compiler rejects
//! the drifts a hand-written codec can hide:
//!
//! - a variant missing from its enum's rows leaves the encoder's `match`
//!   non-exhaustive;
//! - a field missing from a row leaves a struct pattern (encode) and a
//!   struct expression (decode) incomplete;
//! - a tag used twice is an unreachable decode arm, denied below.
//!
//! Tags are part of the protocol: append new ones, never renumber or
//! reuse one. `Msg` tags 17 and 18 are retired.

use ring_kvs::config::ClusterConfig;
use ring_kvs::proto::{ClientReq, ClientResp, MetaEntry, Msg, ParitySeg};
use ring_kvs::stats::{GroupStats, MemgestStats, NodeStats, OpCounters};
use ring_kvs::types::{MemgestDescriptor, Scheme};
use ring_kvs::RingError;
use ring_net::{FrameBuf, NetError, WireReader};

use crate::field::{unknown, Field};

/// The variable an enum row's field is bound to: the field's own name,
/// or the name after `0:` in a tuple variant.
macro_rules! binding {
    ($f:ident) => {
        $f
    };
    ($f:tt $b:ident) => {
        $b
    };
}

/// Expands each row of the table into a [`Field`] impl.
macro_rules! wire_table {
    () => {};
    (
        enum $ty:ident ($what:literal) {
            $($var:ident = $tag:literal { $($f:tt $(: $b:ident)?),* })*
        }
        $($rest:tt)*
    ) => {
        impl Field for $ty {
            fn put(&self, out: &mut FrameBuf) {
                match self {
                    $(Self::$var { $($f $(: $b)?),* } => {
                        out.put_u8($tag);
                        $(Field::put(binding!($f $($b)?), out);)*
                    })*
                }
            }

            #[deny(unreachable_patterns)]
            fn get(r: &mut WireReader<'_>) -> Result<Self, NetError> {
                Ok(match r.u8()? {
                    $($tag => Self::$var { $($f: Field::get(r)?),* },)*
                    t => return Err(unknown($what, t)),
                })
            }
        }
        wire_table!($($rest)*);
    };
    (
        struct $ty:ident { $($f:ident),* }
        $($rest:tt)*
    ) => {
        impl Field for $ty {
            fn put(&self, out: &mut FrameBuf) {
                let $ty { $($f),* } = self;
                $(Field::put($f, out);)*
            }

            fn get(r: &mut WireReader<'_>) -> Result<Self, NetError> {
                Ok($ty { $($f: Field::get(r)?),* })
            }
        }
        wire_table!($($rest)*);
    };
}

wire_table! {
    enum Msg ("message tag") {
        Request = 0 { req, body }
        Response = 1 { req, body }
        Replicate = 2 { group, memgest, key, version, tombstone, value }
        ReplicateAck = 3 { group, memgest, key, version }
        ParityUpdate = 4 { group, memgest, shard, meta, segs }
        ParityAck = 5 { group, memgest, key, version }
        MetaRemove = 6 { group, memgest, key, below }
        Heartbeat = 7 {}
        ConfigUpdate = 8 { config, memgests, default }
        MemgestCreate = 9 { token, id, desc }
        MemgestDrop = 10 { token, id }
        SetDefault = 11 { token, id }
        CtrlAck = 12 { token }
        MetaFetch = 13 { group, memgest, shard }
        MetaFetchResp = 14 { group, memgest, shard, entries, values }
        FetchValue = 15 { group, memgest, key, version }
        FetchValueResp = 16 { group, memgest, key, version, value }
        ParityRebuildStart = 19 { group, memgest }
        ParityRebuildInfo = 20 { group, memgest, shard, heap_len, entries }
        ParityRebuildDone = 21 { group, memgest }
        ShardRead = 22 { group, memgest, token, parity, ranges }
        ShardReadResp = 23 { group, memgest, token, bytes }
    }

    enum ClientReq ("client request tag") {
        Put = 0 { key, memgest, value }
        Get = 1 { key }
        Delete = 2 { key }
        Move = 3 { key, dst }
        CreateMemgest = 4 { desc }
        DeleteMemgest = 5 { id }
        SetDefaultMemgest = 6 { id }
        GetMemgestDescriptor = 7 { id }
        Stats = 8 {}
    }

    enum ClientResp ("client response tag") {
        PutOk = 0 { version }
        GetOk = 1 { version, value }
        DeleteOk = 2 {}
        MoveOk = 3 { version }
        MemgestCreated = 4 { id }
        MemgestDeleted = 5 {}
        DefaultSet = 6 {}
        Descriptor = 7 { desc }
        Stats = 8 { 0: stats }
        Error = 9 { 0: e }
    }

    enum RingError ("error tag") {
        KeyNotFound = 0 {}
        UnknownMemgest = 1 { 0: id }
        InvalidDescriptor = 2 { 0: msg }
        Timeout = 3 {}
        NotCoordinator = 4 {}
        Unavailable = 5 { 0: msg }
        Net = 6 { 0: msg }
        Internal = 7 { 0: msg }
    }

    enum Scheme ("scheme tag") {
        Rep = 0 { r }
        Srs = 1 { k, m }
    }

    struct MetaEntry { key, version, len, addr, tombstone }
    struct ParitySeg { parity_addr, delta }
    struct MemgestDescriptor { scheme, block_size }
    struct ClusterConfig { epoch, s, d, groups, nodes, spares }
    struct OpCounters { puts, gets, deletes, moves, redundancy_updates }
    struct MemgestStats {
        id, scheme, coord_meta_entries, missing_entries, coord_meta_bytes,
        data_bytes, redundant_meta_entries, replica_bytes, parity_bytes
    }
    struct GroupStats { group, shard, redundant_index, volatile_keys, memgests }
    struct NodeStats { node, epoch, active, ops, groups }
}
