//! Fine-grained API contract tests: display formats, wire-size
//! accounting, configuration arithmetic, and error surfaces.

use ring_kvs::config::{ClusterConfig, Role};
use ring_kvs::proto::{ClientReq, ClientResp, MetaEntry, Msg, ParitySeg};
use ring_kvs::types::{group_of, hash_key, shard_of};
use ring_kvs::{MemgestDescriptor, RingError, Scheme};
use ring_net::WireSize;

#[test]
fn error_display_strings() {
    assert_eq!(RingError::KeyNotFound.to_string(), "key not found");
    assert_eq!(
        RingError::UnknownMemgest(7).to_string(),
        "unknown memgest 7"
    );
    assert_eq!(RingError::Timeout.to_string(), "request timed out");
    assert!(RingError::InvalidDescriptor("x".into())
        .to_string()
        .contains("invalid descriptor"));
    assert!(RingError::Unavailable("busy".into())
        .to_string()
        .contains("busy"));
    assert!(RingError::Net("drop".into())
        .to_string()
        .contains("network"));
    assert!(RingError::Internal("bug".into())
        .to_string()
        .contains("internal"));
    assert!(RingError::NotCoordinator
        .to_string()
        .contains("coordinator"));
}

#[test]
fn net_error_converts_to_ring_error() {
    assert_eq!(
        RingError::from(ring_net::NetError::Timeout),
        RingError::Timeout
    );
    assert!(matches!(
        RingError::from(ring_net::NetError::Unreachable(3)),
        RingError::Net(_)
    ));
}

#[test]
fn descriptor_constructors() {
    assert_eq!(MemgestDescriptor::rep(3).scheme, Scheme::Rep { r: 3 });
    assert_eq!(
        MemgestDescriptor::srs(3, 2).scheme,
        Scheme::Srs { k: 3, m: 2 }
    );
    assert!(MemgestDescriptor::unreliable().scheme.is_unreliable());
    assert_eq!(MemgestDescriptor::rep(3).block_size, 4096);
}

#[test]
fn hash_key_is_a_bijection_sample() {
    // splitmix64 is invertible; sampled injectivity check.
    let mut seen = std::collections::HashSet::new();
    for k in 0..10_000u64 {
        assert!(seen.insert(hash_key(k)), "collision at {k}");
    }
}

#[test]
fn shard_and_group_bounds() {
    for key in 0..1_000u64 {
        assert!(shard_of(key, 7) < 7);
        assert!((group_of(key, 5) as usize) < 5);
    }
    // One shard / one group degenerates to zero.
    assert_eq!(shard_of(123, 1), 0);
    assert_eq!(group_of(123, 1), 0);
}

#[test]
fn msg_wire_sizes_order_sensibly() {
    let small_put = Msg::Request {
        req: 1,
        body: ClientReq::Put {
            key: 1,
            value: ring_net::Payload::from(vec![0; 64]),
            memgest: None,
        },
    };
    let get = Msg::Request {
        req: 1,
        body: ClientReq::Get { key: 1 },
    };
    let hb = Msg::Heartbeat;
    assert!(small_put.wire_size() > get.wire_size());
    assert!(get.wire_size() >= hb.wire_size());

    let resp_big = Msg::Response {
        req: 1,
        body: ClientResp::GetOk {
            value: ring_net::Payload::from(vec![0; 4096]),
            version: 1,
        },
    };
    assert!(resp_big.wire_size() > 4096);

    let parity = Msg::ParityUpdate {
        group: 0,
        memgest: 0,
        shard: 0,
        meta: MetaEntry {
            key: 1,
            version: 1,
            len: 100,
            addr: 0,
            tombstone: false,
        },
        segs: vec![ParitySeg {
            parity_addr: 0,
            delta: ring_net::Payload::from(vec![0; 100]),
        }],
    };
    assert!(parity.wire_size() > 100);
}

#[test]
fn config_rotation_covers_every_pairing() {
    // With s+d groups, every (node, role position) pair occurs exactly
    // once — the basis of the balancing argument.
    let cfg = ClusterConfig::initial(3, 2, 5, vec![10, 11, 12, 13, 14], vec![]);
    for node in [10u32, 11, 12, 13, 14] {
        let mut coord_shards = Vec::new();
        let mut red_idxs = Vec::new();
        for g in 0..5u8 {
            match cfg.role_of(g, node) {
                Some(Role::Coordinator(s)) => coord_shards.push(s),
                Some(Role::Redundant(i)) => red_idxs.push(i),
                None => panic!("node {node} unused in group {g}"),
            }
        }
        coord_shards.sort_unstable();
        red_idxs.sort_unstable();
        assert_eq!(coord_shards, vec![0, 1, 2], "node {node}");
        assert_eq!(red_idxs, vec![0, 1], "node {node}");
    }
}

#[test]
fn scheme_display_and_labels_agree() {
    for (scheme, display, label) in [
        (Scheme::Rep { r: 1 }, "Rep(1)", "REP1"),
        (Scheme::Rep { r: 4 }, "Rep(4)", "REP4"),
        (Scheme::Srs { k: 2, m: 1 }, "SRS(2,1)", "SRS21"),
        (Scheme::Srs { k: 3, m: 2 }, "SRS(3,2)", "SRS32"),
    ] {
        assert_eq!(scheme.to_string(), display);
        assert_eq!(scheme.label(), label);
    }
}

#[test]
fn replica_targets_scale_with_r_in_multi_group() {
    let cfg = ClusterConfig::initial(3, 2, 5, vec![0, 1, 2, 3, 4], vec![]);
    for g in 0..5u8 {
        for shard in 0..3 {
            for r in 1..=5usize {
                let t = cfg.replica_targets(g, shard, r);
                assert_eq!(t.len(), r - 1, "g {g} shard {shard} r {r}");
                assert!(!t.contains(&cfg.coordinator(g, shard)));
            }
        }
    }
}

#[test]
fn epoch_monotonicity_through_promotions() {
    let mut cfg = ClusterConfig::initial(2, 1, 1, vec![0, 1, 2], vec![3, 4]);
    let first = cfg.clone();
    cfg = cfg.promote_spare(0).unwrap();
    assert_eq!(cfg.epoch, 1);
    cfg = cfg.promote_spare(1).unwrap();
    assert_eq!(cfg.epoch, 2);
    assert!(cfg.spares.is_empty());
    assert_eq!(cfg.promote_spare(2), None); // Out of spares.
                                            // Key mapping never changed.
    for key in 0..100u64 {
        assert_eq!(first.locate(key), cfg.locate(key));
    }
}
