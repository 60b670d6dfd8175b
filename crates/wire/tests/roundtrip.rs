//! Codec properties: encode→decode is the identity for every message
//! variant, and the decoder rejects malformed frames with errors —
//! never panics — on truncated, oversized, tampered, or random input.

use proptest::prelude::*;
use ring_kvs::config::ClusterConfig;
use ring_kvs::proto::{ClientReq, ClientResp, MetaEntry, Msg, ParitySeg};
use ring_kvs::stats::{GroupStats, MemgestStats, NodeStats, OpCounters};
use ring_kvs::types::{MemgestDescriptor, Scheme};
use ring_kvs::RingError;
use ring_net::frame::{FrameKind, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use ring_net::{NetError, Payload};
use ring_wire::{decode_frame, decode_msg, encode_frame, frame_header};

/// Number of distinct `Msg` variants ([`arb_msg_variant`] covers all).
const MSG_VARIANTS: u64 = 22;

fn arb_payload(rng: &mut TestRng) -> Payload {
    let len = rng.below(64) as usize;
    Payload::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<_>>())
}

fn arb_opt_payload(rng: &mut TestRng) -> Option<Payload> {
    if rng.next_u64() & 1 == 0 {
        None
    } else {
        Some(arb_payload(rng))
    }
}

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

fn arb_opt_usize(rng: &mut TestRng) -> Option<usize> {
    if rng.next_u64() & 1 == 0 {
        None
    } else {
        Some(rng.next_u64() as usize)
    }
}

fn arb_scheme(rng: &mut TestRng) -> Scheme {
    if rng.next_u64() & 1 == 0 {
        Scheme::Rep {
            r: 1 + rng.below(4) as usize,
        }
    } else {
        Scheme::Srs {
            k: 1 + rng.below(6) as usize,
            m: 1 + rng.below(3) as usize,
        }
    }
}

fn arb_descriptor(rng: &mut TestRng) -> MemgestDescriptor {
    MemgestDescriptor {
        scheme: arb_scheme(rng),
        block_size: 1 << rng.below(12),
    }
}

fn arb_meta_entry(rng: &mut TestRng) -> MetaEntry {
    MetaEntry {
        key: rng.next_u64(),
        version: rng.next_u64(),
        len: rng.below(1 << 20) as usize,
        addr: rng.next_u64() as usize,
        tombstone: rng.next_u64() & 1 == 1,
    }
}

fn arb_meta_entries(rng: &mut TestRng) -> Vec<MetaEntry> {
    let n = rng.below(5) as usize;
    (0..n).map(|_| arb_meta_entry(rng)).collect()
}

fn arb_config(rng: &mut TestRng) -> ClusterConfig {
    let n_nodes = rng.below(8) as usize;
    let n_spares = rng.below(3) as usize;
    ClusterConfig {
        epoch: rng.next_u64(),
        s: 1 + rng.below(4) as usize,
        d: rng.below(3) as usize,
        groups: 1 + rng.below(3) as usize,
        nodes: (0..n_nodes).map(|_| rng.next_u64() as u32).collect(),
        spares: (0..n_spares).map(|_| rng.next_u64() as u32).collect(),
    }
}

fn arb_error(rng: &mut TestRng) -> RingError {
    match rng.below(8) {
        0 => RingError::KeyNotFound,
        1 => RingError::UnknownMemgest(rng.next_u64() as u32),
        2 => RingError::InvalidDescriptor(arb_string(rng)),
        3 => RingError::Timeout,
        4 => RingError::NotCoordinator,
        5 => RingError::Unavailable(arb_string(rng)),
        6 => RingError::Net(arb_string(rng)),
        _ => RingError::Internal(arb_string(rng)),
    }
}

fn arb_node_stats(rng: &mut TestRng) -> NodeStats {
    let n_groups = rng.below(3) as usize;
    NodeStats {
        node: rng.next_u64() as u32,
        epoch: rng.next_u64(),
        active: rng.next_u64() & 1 == 1,
        ops: OpCounters {
            puts: rng.next_u64(),
            gets: rng.next_u64(),
            deletes: rng.next_u64(),
            moves: rng.next_u64(),
            redundancy_updates: rng.next_u64(),
        },
        groups: (0..n_groups)
            .map(|_| {
                let n_memgests = rng.below(3) as usize;
                GroupStats {
                    group: rng.next_u64() as u8,
                    shard: arb_opt_usize(rng),
                    redundant_index: arb_opt_usize(rng),
                    volatile_keys: rng.below(100) as usize,
                    memgests: (0..n_memgests)
                        .map(|_| MemgestStats {
                            id: rng.next_u64() as u32,
                            scheme: arb_string(rng),
                            coord_meta_entries: rng.below(1000) as usize,
                            missing_entries: rng.below(1000) as usize,
                            coord_meta_bytes: rng.below(1 << 20) as usize,
                            data_bytes: rng.below(1 << 20) as usize,
                            redundant_meta_entries: rng.below(1000) as usize,
                            replica_bytes: rng.below(1 << 20) as usize,
                            parity_bytes: rng.below(1 << 20) as usize,
                        })
                        .collect(),
                }
            })
            .collect(),
    }
}

fn arb_client_req(rng: &mut TestRng) -> ClientReq {
    match rng.below(9) {
        0 => ClientReq::Put {
            key: rng.next_u64(),
            value: arb_payload(rng),
            memgest: if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(rng.next_u64() as u32)
            },
        },
        1 => ClientReq::Get {
            key: rng.next_u64(),
        },
        2 => ClientReq::Delete {
            key: rng.next_u64(),
        },
        3 => ClientReq::Move {
            key: rng.next_u64(),
            dst: rng.next_u64() as u32,
        },
        4 => ClientReq::CreateMemgest {
            desc: arb_descriptor(rng),
        },
        5 => ClientReq::DeleteMemgest {
            id: rng.next_u64() as u32,
        },
        6 => ClientReq::SetDefaultMemgest {
            id: rng.next_u64() as u32,
        },
        7 => ClientReq::GetMemgestDescriptor {
            id: rng.next_u64() as u32,
        },
        _ => ClientReq::Stats,
    }
}

fn arb_client_resp(rng: &mut TestRng) -> ClientResp {
    match rng.below(10) {
        0 => ClientResp::PutOk {
            version: rng.next_u64(),
        },
        1 => ClientResp::GetOk {
            value: arb_payload(rng),
            version: rng.next_u64(),
        },
        2 => ClientResp::DeleteOk,
        3 => ClientResp::MoveOk {
            version: rng.next_u64(),
        },
        4 => ClientResp::MemgestCreated {
            id: rng.next_u64() as u32,
        },
        5 => ClientResp::MemgestDeleted,
        6 => ClientResp::DefaultSet,
        7 => ClientResp::Descriptor {
            desc: arb_descriptor(rng),
        },
        8 => ClientResp::Stats(Box::new(arb_node_stats(rng))),
        _ => ClientResp::Error(arb_error(rng)),
    }
}

/// One arbitrary message of the variant selected by `idx` (`0..22`).
fn arb_msg_variant(idx: u64, rng: &mut TestRng) -> Msg {
    match idx {
        0 => Msg::Request {
            req: rng.next_u64(),
            body: arb_client_req(rng),
        },
        1 => Msg::Response {
            req: rng.next_u64(),
            body: arb_client_resp(rng),
        },
        2 => Msg::Replicate {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            key: rng.next_u64(),
            version: rng.next_u64(),
            value: arb_payload(rng),
            tombstone: rng.next_u64() & 1 == 1,
        },
        3 => Msg::ReplicateAck {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            key: rng.next_u64(),
            version: rng.next_u64(),
        },
        4 => {
            let n = rng.below(4) as usize;
            Msg::ParityUpdate {
                group: rng.next_u64() as u8,
                memgest: rng.next_u64() as u32,
                shard: rng.below(8) as usize,
                meta: arb_meta_entry(rng),
                segs: (0..n)
                    .map(|_| ParitySeg {
                        parity_addr: rng.next_u64() as usize,
                        delta: arb_payload(rng),
                    })
                    .collect(),
            }
        }
        5 => Msg::ParityAck {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            key: rng.next_u64(),
            version: rng.next_u64(),
        },
        6 => Msg::MetaRemove {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            key: rng.next_u64(),
            below: rng.next_u64(),
        },
        7 => Msg::Heartbeat,
        8 => {
            let n = rng.below(4) as usize;
            Msg::ConfigUpdate {
                config: arb_config(rng),
                memgests: (0..n)
                    .map(|_| (rng.next_u64() as u32, arb_descriptor(rng)))
                    .collect(),
                default: rng.next_u64() as u32,
            }
        }
        9 => Msg::MemgestCreate {
            token: rng.next_u64(),
            id: rng.next_u64() as u32,
            desc: arb_descriptor(rng),
        },
        10 => Msg::MemgestDrop {
            token: rng.next_u64(),
            id: rng.next_u64() as u32,
        },
        11 => Msg::SetDefault {
            token: rng.next_u64(),
            id: rng.next_u64() as u32,
        },
        12 => Msg::CtrlAck {
            token: rng.next_u64(),
        },
        13 => Msg::MetaFetch {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            shard: rng.below(8) as usize,
        },
        14 => {
            let entries = arb_meta_entries(rng);
            let values = (0..entries.len()).map(|_| arb_opt_payload(rng)).collect();
            Msg::MetaFetchResp {
                group: rng.next_u64() as u8,
                memgest: rng.next_u64() as u32,
                shard: rng.below(8) as usize,
                entries,
                values,
            }
        }
        15 => Msg::FetchValue {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            key: rng.next_u64(),
            version: rng.next_u64(),
        },
        16 => Msg::FetchValueResp {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            key: rng.next_u64(),
            version: rng.next_u64(),
            value: arb_opt_payload(rng),
        },
        17 => Msg::ParityRebuildStart {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
        },
        18 => Msg::ParityRebuildInfo {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            shard: rng.below(8) as usize,
            heap_len: rng.next_u64() as usize,
            entries: arb_meta_entries(rng),
        },
        19 => Msg::ParityRebuildDone {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
        },
        20 => {
            let n = rng.below(5) as usize;
            Msg::ShardRead {
                group: rng.next_u64() as u8,
                memgest: rng.next_u64() as u32,
                token: rng.next_u64(),
                parity: rng.next_u64() & 1 == 1,
                ranges: (0..n)
                    .map(|_| (rng.next_u64() as usize, rng.below(1 << 20) as usize))
                    .collect(),
            }
        }
        _ => Msg::ShardReadResp {
            group: rng.next_u64() as u8,
            memgest: rng.next_u64() as u32,
            token: rng.next_u64(),
            bytes: arb_opt_payload(rng),
        },
    }
}

/// Strategy yielding an arbitrary [`Msg`] of any variant.
struct AnyMsg;

impl Strategy for AnyMsg {
    type Value = Msg;
    fn generate(&self, rng: &mut TestRng) -> Msg {
        let idx = rng.below(MSG_VARIANTS);
        arb_msg_variant(idx, rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_identity(msg in AnyMsg) {
        let frame = encode_frame(&msg);
        let back = decode_frame(&frame);
        prop_assert_eq!(back.as_ref().ok(), Some(&msg), "frame = {:?}", frame);
    }

    #[test]
    fn truncated_frames_error(msg in AnyMsg, frac in 0u64..1000) {
        let frame = encode_frame(&msg);
        // Any strict prefix must fail cleanly — header-level prefixes and
        // body-level prefixes alike.
        let cut = (frame.len() as u64 * frac / 1000) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_frame(&frame[..cut]).is_err(), "cut at {}", cut);
    }

    #[test]
    fn trailing_bytes_rejected(msg in AnyMsg, junk in 1u64..16) {
        // Extend the body and patch the header length so the frame is
        // self-consistent; the decoder must still reject the surplus.
        let mut frame = encode_frame(&msg);
        frame.extend(std::iter::repeat_n(0xA5u8, junk as usize));
        let body_len = frame.len() - FRAME_HEADER_LEN;
        frame[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
        prop_assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn bad_version_rejected(msg in AnyMsg, version in 0u64..=255) {
        let mut frame = encode_frame(&msg);
        if version as u8 != ring_net::frame::FRAME_VERSION {
            frame[2] = version as u8;
            prop_assert!(decode_frame(&frame).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        // Whatever comes back, it must come back — no panics, no aborts.
        let _ = decode_frame(&bytes);
        let _ = decode_msg(&bytes);
    }

    #[test]
    fn bitflips_never_panic(msg in AnyMsg, pos_seed in any::<u64>(), bit in 0u64..8) {
        let mut frame = encode_frame(&msg);
        let pos = (pos_seed % frame.len() as u64) as usize;
        frame[pos] ^= 1 << bit;
        // A flipped bit may still decode (e.g. inside a key) — it must
        // just never panic, and never decode to a *different length*
        // understanding of the frame.
        let _ = decode_frame(&frame);
    }
}

#[test]
fn every_variant_round_trips() {
    // The proptest above draws variants randomly; this loop guarantees
    // all 22 are exercised even with few cases, several seeds each.
    for idx in 0..MSG_VARIANTS {
        for seed in 0..16u64 {
            let mut rng = TestRng::new(0xC0DEC ^ (seed << 8) ^ idx);
            let msg = arb_msg_variant(idx, &mut rng);
            let frame = encode_frame(&msg);
            let back =
                decode_frame(&frame).unwrap_or_else(|e| panic!("variant {idx} seed {seed}: {e}"));
            assert_eq!(back, msg, "variant {idx} seed {seed}");
        }
    }
}

#[test]
fn retired_and_unknown_message_tags_rejected() {
    // 17 and 18 are retired, 24 is the first never assigned. Each body
    // carries a plausible field layout behind the tag (group, memgest,
    // three u64s), so only the tag itself can be refused: a stale peer
    // fails fast instead of desyncing the stream.
    for tag in [17u8, 18, 24, 255] {
        let mut body = vec![tag, 0];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend(std::iter::repeat_n(0u8, 24));
        match decode_msg(&body) {
            Err(NetError::BadFrame(why)) => assert!(why.contains("message tag"), "{tag}: {why}"),
            other => panic!("tag {tag}: expected BadFrame, got {other:?}"),
        }
    }
}

#[test]
fn oversized_length_rejected() {
    // A header declaring more than MAX_FRAME_LEN body bytes fails at the
    // header check, before any allocation.
    let mut frame = frame_header(FrameKind::App, 0).to_vec();
    frame[4..8].copy_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    match decode_frame(&frame) {
        Err(NetError::BadFrame(why)) => assert!(why.contains("cap"), "{why}"),
        other => panic!("expected BadFrame, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_kind_rejected() {
    let frame = encode_frame(&Msg::Heartbeat);
    let mut bad = frame.clone();
    bad[0] = b'X';
    assert!(matches!(decode_frame(&bad), Err(NetError::BadFrame(_))));
    // Non-App kinds are transport-internal; the codec rejects them.
    let mut bad = frame.clone();
    bad[3] = FrameKind::Hello as u8;
    assert!(matches!(decode_frame(&bad), Err(NetError::BadFrame(_))));
    let mut bad = frame;
    bad[3] = 200;
    assert!(matches!(decode_frame(&bad), Err(NetError::BadFrame(_))));
}

#[test]
fn corrupt_count_fields_cannot_allocate() {
    // MetaFetchResp with a huge entry count: the decoder must fail on
    // missing bytes, not attempt a giant Vec reservation.
    let mut rng = TestRng::new(42);
    let msg = arb_msg_variant(14, &mut rng);
    let mut frame = encode_frame(&msg);
    // Body layout: tag u8, group u8, memgest u32, shard u64, count u32.
    let count_off = FRAME_HEADER_LEN + 1 + 1 + 4 + 8;
    frame[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_frame(&frame), Err(NetError::BadFrame(_))));
}
