//! Golden frames: the exact bytes of one fixed instance of every
//! `Msg`, `ClientReq`, `ClientResp`, `RingError` and `Scheme` variant.
//!
//! `roundtrip.rs` checks that decode inverts encode, which a codec that
//! changed its byte layout on both sides at once would still pass. This
//! file pins the layout itself, so a silent wire-format change fails
//! here. Field values are distinct small numbers so that two swapped
//! fields change the hex.
//!
//! A message nested inside another (a `ClientReq` in `Msg::Request`, a
//! `Scheme` in a descriptor, ...) is pinned through its enclosing frame.
//! A deliberate format change must bump `FRAME_VERSION` and rewrite the
//! affected rows; on a mismatch the test prints every row as it now
//! encodes.

use ring_kvs::config::ClusterConfig;
use ring_kvs::proto::{ClientReq, ClientResp, MetaEntry, Msg, ParitySeg};
use ring_kvs::stats::{GroupStats, MemgestStats, NodeStats, OpCounters};
use ring_kvs::types::{MemgestDescriptor, Scheme};
use ring_kvs::RingError;
use ring_net::{FrameBuf, Payload};
use ring_wire::{decode_frame, decode_msg, encode_frame, encode_msg};

fn payload(bytes: &[u8]) -> Payload {
    Payload::from(bytes.to_vec())
}

fn meta(key: u64) -> MetaEntry {
    MetaEntry {
        key,
        version: 0x21,
        len: 0x22,
        addr: 0x23,
        tombstone: true,
    }
}

fn srs() -> MemgestDescriptor {
    MemgestDescriptor {
        scheme: Scheme::Srs { k: 3, m: 2 },
        block_size: 0x40,
    }
}

fn rep() -> MemgestDescriptor {
    MemgestDescriptor {
        scheme: Scheme::Rep { r: 3 },
        block_size: 0x80,
    }
}

fn node_stats() -> NodeStats {
    NodeStats {
        node: 0x31,
        epoch: 0x32,
        active: true,
        ops: OpCounters {
            puts: 0x33,
            gets: 0x34,
            deletes: 0x35,
            moves: 0x36,
            redundancy_updates: 0x37,
        },
        groups: vec![GroupStats {
            group: 0x38,
            shard: Some(0x39),
            redundant_index: None,
            volatile_keys: 0x3a,
            memgests: vec![MemgestStats {
                id: 0x3b,
                scheme: "SRS32".into(),
                coord_meta_entries: 0x41,
                missing_entries: 0x42,
                coord_meta_bytes: 0x43,
                data_bytes: 0x44,
                redundant_meta_entries: 0x45,
                replica_bytes: 0x46,
                parity_bytes: 0x47,
            }],
        }],
    }
}

fn req(body: ClientReq) -> Msg {
    Msg::Request { req: 0x0a, body }
}

fn resp(body: ClientResp) -> Msg {
    Msg::Response { req: 0x0b, body }
}

/// Every case, named `Type::Variant`, in the order of [`GOLDEN`].
fn cases() -> Vec<(&'static str, Msg)> {
    vec![
        // ---- Msg ----
        ("Msg::Request", req(ClientReq::Get { key: 0x0c })),
        ("Msg::Response", resp(ClientResp::DeleteOk)),
        (
            "Msg::Replicate",
            Msg::Replicate {
                group: 1,
                memgest: 2,
                key: 3,
                version: 4,
                value: payload(b"val"),
                tombstone: true,
            },
        ),
        (
            "Msg::ReplicateAck",
            Msg::ReplicateAck {
                group: 1,
                memgest: 2,
                key: 3,
                version: 4,
            },
        ),
        (
            "Msg::ParityUpdate",
            Msg::ParityUpdate {
                group: 1,
                memgest: 2,
                shard: 3,
                meta: meta(4),
                segs: vec![
                    ParitySeg {
                        parity_addr: 5,
                        delta: payload(b"d1"),
                    },
                    ParitySeg {
                        parity_addr: 6,
                        delta: payload(b""),
                    },
                ],
            },
        ),
        (
            "Msg::ParityAck",
            Msg::ParityAck {
                group: 1,
                memgest: 2,
                key: 3,
                version: 4,
            },
        ),
        (
            "Msg::MetaRemove",
            Msg::MetaRemove {
                group: 1,
                memgest: 2,
                key: 3,
                below: 4,
            },
        ),
        ("Msg::Heartbeat", Msg::Heartbeat),
        (
            "Msg::ConfigUpdate",
            Msg::ConfigUpdate {
                config: ClusterConfig {
                    epoch: 1,
                    s: 2,
                    d: 3,
                    groups: 4,
                    nodes: vec![5, 6],
                    spares: vec![7],
                },
                memgests: vec![(8, rep()), (9, srs())],
                default: 0x0a,
            },
        ),
        (
            "Msg::MemgestCreate",
            Msg::MemgestCreate {
                token: 1,
                id: 2,
                desc: srs(),
            },
        ),
        ("Msg::MemgestDrop", Msg::MemgestDrop { token: 1, id: 2 }),
        ("Msg::SetDefault", Msg::SetDefault { token: 1, id: 2 }),
        ("Msg::CtrlAck", Msg::CtrlAck { token: 1 }),
        (
            "Msg::MetaFetch",
            Msg::MetaFetch {
                group: 1,
                memgest: 2,
                shard: 3,
            },
        ),
        (
            "Msg::MetaFetchResp",
            Msg::MetaFetchResp {
                group: 1,
                memgest: 2,
                shard: 3,
                entries: vec![meta(4), meta(5)],
                values: vec![Some(payload(b"v")), None],
            },
        ),
        (
            "Msg::FetchValue",
            Msg::FetchValue {
                group: 1,
                memgest: 2,
                key: 3,
                version: 4,
            },
        ),
        (
            "Msg::FetchValueResp",
            Msg::FetchValueResp {
                group: 1,
                memgest: 2,
                key: 3,
                version: 4,
                value: Some(payload(b"fv")),
            },
        ),
        (
            "Msg::ParityRebuildStart",
            Msg::ParityRebuildStart {
                group: 1,
                memgest: 2,
            },
        ),
        (
            "Msg::ParityRebuildInfo",
            Msg::ParityRebuildInfo {
                group: 1,
                memgest: 2,
                shard: 3,
                heap_len: 4,
                entries: vec![meta(5)],
            },
        ),
        (
            "Msg::ParityRebuildDone",
            Msg::ParityRebuildDone {
                group: 1,
                memgest: 2,
            },
        ),
        (
            "Msg::ShardRead",
            Msg::ShardRead {
                group: 1,
                memgest: 2,
                token: 3,
                parity: true,
                ranges: vec![(4, 5), (6, 7)],
            },
        ),
        (
            "Msg::ShardReadResp",
            Msg::ShardReadResp {
                group: 1,
                memgest: 2,
                token: 3,
                bytes: None,
            },
        ),
        // ---- ClientReq ----
        (
            "ClientReq::Put",
            req(ClientReq::Put {
                key: 0x0c,
                value: payload(b"pv"),
                memgest: Some(0x0d),
            }),
        ),
        ("ClientReq::Get", req(ClientReq::Get { key: 0x0c })),
        ("ClientReq::Delete", req(ClientReq::Delete { key: 0x0c })),
        (
            "ClientReq::Move",
            req(ClientReq::Move {
                key: 0x0c,
                dst: 0x0d,
            }),
        ),
        (
            "ClientReq::CreateMemgest",
            req(ClientReq::CreateMemgest { desc: rep() }),
        ),
        (
            "ClientReq::DeleteMemgest",
            req(ClientReq::DeleteMemgest { id: 0x0d }),
        ),
        (
            "ClientReq::SetDefaultMemgest",
            req(ClientReq::SetDefaultMemgest { id: 0x0d }),
        ),
        (
            "ClientReq::GetMemgestDescriptor",
            req(ClientReq::GetMemgestDescriptor { id: 0x0d }),
        ),
        ("ClientReq::Stats", req(ClientReq::Stats)),
        // ---- ClientResp ----
        (
            "ClientResp::PutOk",
            resp(ClientResp::PutOk { version: 0x0e }),
        ),
        (
            "ClientResp::GetOk",
            resp(ClientResp::GetOk {
                value: payload(b"gv"),
                version: 0x0e,
            }),
        ),
        ("ClientResp::DeleteOk", resp(ClientResp::DeleteOk)),
        (
            "ClientResp::MoveOk",
            resp(ClientResp::MoveOk { version: 0x0e }),
        ),
        (
            "ClientResp::MemgestCreated",
            resp(ClientResp::MemgestCreated { id: 0x0f }),
        ),
        (
            "ClientResp::MemgestDeleted",
            resp(ClientResp::MemgestDeleted),
        ),
        ("ClientResp::DefaultSet", resp(ClientResp::DefaultSet)),
        (
            "ClientResp::Descriptor",
            resp(ClientResp::Descriptor { desc: srs() }),
        ),
        (
            "ClientResp::Stats",
            resp(ClientResp::Stats(Box::new(node_stats()))),
        ),
        (
            "ClientResp::Error",
            resp(ClientResp::Error(RingError::Timeout)),
        ),
        // ---- RingError ----
        (
            "RingError::KeyNotFound",
            resp(ClientResp::Error(RingError::KeyNotFound)),
        ),
        (
            "RingError::UnknownMemgest",
            resp(ClientResp::Error(RingError::UnknownMemgest(0x10))),
        ),
        (
            "RingError::InvalidDescriptor",
            resp(ClientResp::Error(RingError::InvalidDescriptor(
                "k>s".into(),
            ))),
        ),
        (
            "RingError::Timeout",
            resp(ClientResp::Error(RingError::Timeout)),
        ),
        (
            "RingError::NotCoordinator",
            resp(ClientResp::Error(RingError::NotCoordinator)),
        ),
        (
            "RingError::Unavailable",
            resp(ClientResp::Error(RingError::Unavailable("busy".into()))),
        ),
        (
            "RingError::Net",
            resp(ClientResp::Error(RingError::Net("reset".into()))),
        ),
        (
            "RingError::Internal",
            resp(ClientResp::Error(RingError::Internal("bug".into()))),
        ),
        // ---- Scheme ----
        ("Scheme::Rep", req(ClientReq::CreateMemgest { desc: rep() })),
        ("Scheme::Srs", req(ClientReq::CreateMemgest { desc: srs() })),
    ]
}

/// Frame bodies (the bytes after the 8-byte header), hex, in the order
/// of [`cases`].
const GOLDEN: &[(&str, &str)] = &[
    ("Msg::Request", "000a00000000000000010c00000000000000"),
    ("Msg::Response", "010b0000000000000002"),
    ("Msg::Replicate", "02010200000003000000000000000400000000000000010300000076616c"),
    ("Msg::ReplicateAck", "03010200000003000000000000000400000000000000"),
    ("Msg::ParityUpdate", "0401020000000300000000000000040000000000000021000000000000002200000000000000230000000000000001020000000500000000000000020000006431060000000000000000000000"),
    ("Msg::ParityAck", "05010200000003000000000000000400000000000000"),
    ("Msg::MetaRemove", "06010200000003000000000000000400000000000000"),
    ("Msg::Heartbeat", "07"),
    ("Msg::ConfigUpdate", "08010000000000000002000000000000000300000000000000040000000000000002000000050000000600000001000000070000000200000008000000000300000000000000800000000000000009000000010300000000000000020000000000000040000000000000000a000000"),
    ("Msg::MemgestCreate", "0901000000000000000200000001030000000000000002000000000000004000000000000000"),
    ("Msg::MemgestDrop", "0a010000000000000002000000"),
    ("Msg::SetDefault", "0b010000000000000002000000"),
    ("Msg::CtrlAck", "0c0100000000000000"),
    ("Msg::MetaFetch", "0d01020000000300000000000000"),
    ("Msg::MetaFetchResp", "0e01020000000300000000000000020000000400000000000000210000000000000022000000000000002300000000000000010500000000000000210000000000000022000000000000002300000000000000010200000001010000007600"),
    ("Msg::FetchValue", "0f010200000003000000000000000400000000000000"),
    ("Msg::FetchValueResp", "1001020000000300000000000000040000000000000001020000006676"),
    ("Msg::ParityRebuildStart", "130102000000"),
    ("Msg::ParityRebuildInfo", "1401020000000300000000000000040000000000000001000000050000000000000021000000000000002200000000000000230000000000000001"),
    ("Msg::ParityRebuildDone", "150102000000"),
    ("Msg::ShardRead", "160102000000030000000000000001020000000400000000000000050000000000000006000000000000000700000000000000"),
    ("Msg::ShardReadResp", "170102000000030000000000000000"),
    ("ClientReq::Put", "000a00000000000000000c00000000000000010d000000020000007076"),
    ("ClientReq::Get", "000a00000000000000010c00000000000000"),
    ("ClientReq::Delete", "000a00000000000000020c00000000000000"),
    ("ClientReq::Move", "000a00000000000000030c000000000000000d000000"),
    ("ClientReq::CreateMemgest", "000a00000000000000040003000000000000008000000000000000"),
    ("ClientReq::DeleteMemgest", "000a00000000000000050d000000"),
    ("ClientReq::SetDefaultMemgest", "000a00000000000000060d000000"),
    ("ClientReq::GetMemgestDescriptor", "000a00000000000000070d000000"),
    ("ClientReq::Stats", "000a0000000000000008"),
    ("ClientResp::PutOk", "010b00000000000000000e00000000000000"),
    ("ClientResp::GetOk", "010b00000000000000010e00000000000000020000006776"),
    ("ClientResp::DeleteOk", "010b0000000000000002"),
    ("ClientResp::MoveOk", "010b00000000000000030e00000000000000"),
    ("ClientResp::MemgestCreated", "010b00000000000000040f000000"),
    ("ClientResp::MemgestDeleted", "010b0000000000000005"),
    ("ClientResp::DefaultSet", "010b0000000000000006"),
    ("ClientResp::Descriptor", "010b000000000000000701030000000000000002000000000000004000000000000000"),
    ("ClientResp::Stats", "010b000000000000000831000000320000000000000001330000000000000034000000000000003500000000000000360000000000000037000000000000000100000038013900000000000000003a00000000000000010000003b0000000500000053525333324100000000000000420000000000000043000000000000004400000000000000450000000000000046000000000000004700000000000000"),
    ("ClientResp::Error", "010b000000000000000903"),
    ("RingError::KeyNotFound", "010b000000000000000900"),
    ("RingError::UnknownMemgest", "010b00000000000000090110000000"),
    ("RingError::InvalidDescriptor", "010b000000000000000902030000006b3e73"),
    ("RingError::Timeout", "010b000000000000000903"),
    ("RingError::NotCoordinator", "010b000000000000000904"),
    ("RingError::Unavailable", "010b0000000000000009050400000062757379"),
    ("RingError::Net", "010b000000000000000906050000007265736574"),
    ("RingError::Internal", "010b00000000000000090703000000627567"),
    ("Scheme::Rep", "000a00000000000000040003000000000000008000000000000000"),
    ("Scheme::Srs", "000a000000000000000401030000000000000002000000000000004000000000000000"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn body_of(msg: &Msg) -> Vec<u8> {
    let mut out = FrameBuf::new();
    encode_msg(msg, &mut out);
    out.to_bytes()
}

#[test]
fn every_variant_matches_its_golden_bytes() {
    let cases = cases();
    let now: Vec<(&str, String)> = cases.iter().map(|(n, m)| (*n, hex(&body_of(m)))).collect();
    let names: Vec<&str> = cases.iter().map(|(n, _)| *n).collect();
    let pinned: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    let mismatched: Vec<&str> = now
        .iter()
        .zip(GOLDEN)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((n, _), _)| *n)
        .collect();
    if names != pinned || !mismatched.is_empty() {
        let table: String = now
            .iter()
            .map(|(n, h)| format!("    (\"{n}\", \"{h}\"),\n"))
            .collect();
        panic!("golden bytes differ for {mismatched:?} (or the case list changed); now:\n{table}");
    }
}

#[test]
fn golden_bytes_decode_to_their_cases() {
    for ((name, msg), (_, want)) in cases().into_iter().zip(GOLDEN) {
        let bytes: Vec<u8> = (0..want.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&want[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(decode_msg(&bytes).as_ref(), Ok(&msg), "{name}");
    }
}

#[test]
fn every_type_and_variant_is_covered() {
    // 22 Msg + 9 ClientReq + 10 ClientResp + 8 RingError + 2 Scheme.
    let names: Vec<&str> = cases().iter().map(|(n, _)| *n).collect();
    for (ty, n) in [
        ("Msg::", 22),
        ("ClientReq::", 9),
        ("ClientResp::", 10),
        ("RingError::", 8),
        ("Scheme::", 2),
    ] {
        assert_eq!(
            names.iter().filter(|s| s.starts_with(ty)).count(),
            n,
            "{ty}"
        );
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate case name");
}

#[test]
fn heartbeat_frame_header_is_pinned() {
    // Magic "RG", FRAME_VERSION 1, kind App, body length 1; tag 7.
    let frame = encode_frame(&Msg::Heartbeat);
    assert_eq!(hex(&frame), "524701000100000007");
    assert_eq!(decode_frame(&frame), Ok(Msg::Heartbeat));
}
