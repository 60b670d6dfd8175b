//! Edge cases: memgest lifecycle with live data, large multi-block
//! values, version retention, and model-checked random operation mixes.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_kvs::{Cluster, ClusterSpec, MemgestDescriptor, RingError};
use ring_net::LatencyModel;

fn fast_spec() -> ClusterSpec {
    ClusterSpec {
        latency: LatencyModel::instant(),
        ..ClusterSpec::paper_evaluation()
    }
}

#[test]
fn deleting_a_memgest_discards_its_keys() {
    let cluster = Cluster::start(fast_spec());
    let mut client = cluster.client();
    let id = client.create_memgest(MemgestDescriptor::rep(2)).unwrap();
    client.put_to(50, b"doomed", id).unwrap();
    client.put_to(51, b"safe", 2).unwrap();
    client.delete_memgest(id).unwrap();
    // Keys whose only version lived in the dropped memgest are gone;
    // others are untouched. Either way, no node must crash.
    assert_eq!(client.get(50).unwrap_err(), RingError::KeyNotFound);
    assert_eq!(client.get(51).unwrap(), b"safe");
    // The shard still works for new writes.
    client.put_to(50, b"reborn", 2).unwrap();
    assert_eq!(client.get(50).unwrap(), b"reborn");
    cluster.shutdown();
}

#[test]
fn deleting_a_memgest_fails_its_uncommitted_put() {
    use ring_kvs::proto::ClientResp;
    use std::time::{Duration, Instant};
    let cluster = Cluster::start(fast_spec());
    let key = 12345u64;
    let coordinator = cluster.coordinator_of(key);
    let (g, shard) = cluster.config().locate(key);
    // Cut the replication path so the REP2 put stays uncommitted.
    for replica in cluster.config().replica_targets(g, shard, 2) {
        cluster.fabric().fail_link(coordinator, replica);
    }
    let mut writer = cluster.client();
    let req = writer.put_async(key, b"doomed", Some(1)).unwrap();
    // The stats call queues behind the put on the same link: once it
    // answers, the coordinator has taken the put.
    assert_eq!(writer.node_stats(coordinator).unwrap().ops.puts, 1);

    cluster.client().delete_memgest(1).unwrap();
    // Every node has acknowledged the drop, so the coordinator has
    // already failed the put back — no client timeout involved.
    let deadline = Instant::now() + Duration::from_secs(5);
    let resp = loop {
        if let Some((_, body)) = writer.poll_responses().into_iter().find(|&(r, _)| r == req) {
            break body;
        }
        assert!(Instant::now() < deadline, "put never answered");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(resp, ClientResp::Error(RingError::UnknownMemgest(1)));
    cluster.shutdown();
}

#[test]
fn large_values_span_blocks_and_periods() {
    let cluster = Cluster::start(fast_spec());
    let mut client = cluster.client();
    // Default SRS block size is 4 KiB; 64 KiB objects cross many blocks
    // and heap periods.
    for (i, mid) in [(0u64, 4u32), (1, 5), (2, 6)] {
        let value: Vec<u8> = (0..64 * 1024).map(|j| (j % 251) as u8).collect();
        client.put_to(1000 + i, &value, mid).unwrap();
        assert_eq!(client.get(1000 + i).unwrap(), value, "memgest {mid}");
        // Overwrite with different content, verify again.
        let value2: Vec<u8> = value.iter().map(|b| b ^ 0xFF).collect();
        client.put_to(1000 + i, &value2, mid).unwrap();
        assert_eq!(client.get(1000 + i).unwrap(), value2, "memgest {mid}");
    }
    cluster.shutdown();
}

#[test]
fn keep_old_versions_retains_backups() {
    let spec = ClusterSpec {
        keep_old_versions: true,
        ..fast_spec()
    };
    let cluster = Cluster::start(spec);
    let mut client = cluster.client();
    client.put_to(7, b"v1-reliable", 6).unwrap(); // SRS(3,2).
    client.move_key(7, 0).unwrap(); // To unreliable; v1 stays as backup.
    client.put_to(7, b"v3-unreliable", 0).unwrap();
    let (value, version) = client.get_versioned(7).unwrap();
    assert_eq!(value, b"v3-unreliable");
    assert_eq!(version, 3);
    cluster.shutdown();
}

#[test]
fn interleaved_deletes_and_moves_match_model() {
    let cluster = Cluster::start(fast_spec());
    let mut client = cluster.client();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(2024);
    for step in 0..2_000u32 {
        let key = rng.gen_range(0..50u64);
        match rng.gen_range(0..10) {
            0..=5 => {
                let value = vec![(step % 251) as u8; rng.gen_range(1..300)];
                let mid = rng.gen_range(0..7u32);
                client.put_to(key, &value, mid).unwrap();
                model.insert(key, value);
            }
            6..=7 => {
                let dst = rng.gen_range(0..7u32);
                match client.move_key(key, dst) {
                    Ok(_) => assert!(model.contains_key(&key), "step {step}"),
                    Err(RingError::KeyNotFound) => {
                        assert!(!model.contains_key(&key), "step {step}")
                    }
                    Err(e) => panic!("step {step}: {e}"),
                }
            }
            _ => match client.delete(key) {
                Ok(()) => {
                    assert!(model.remove(&key).is_some(), "step {step}");
                }
                Err(RingError::KeyNotFound) => {
                    assert!(!model.contains_key(&key), "step {step}")
                }
                Err(e) => panic!("step {step}: {e}"),
            },
        }
        // Spot-check a random key every few steps.
        if step % 7 == 0 {
            let probe = rng.gen_range(0..50u64);
            match model.get(&probe) {
                Some(expect) => assert_eq!(&client.get(probe).unwrap(), expect),
                None => assert_eq!(client.get(probe).unwrap_err(), RingError::KeyNotFound),
            }
        }
    }
    // Final full sweep.
    for key in 0..50u64 {
        match model.get(&key) {
            Some(expect) => assert_eq!(&client.get(key).unwrap(), expect),
            None => assert_eq!(client.get(key).unwrap_err(), RingError::KeyNotFound),
        }
    }
    cluster.shutdown();
}

#[test]
fn default_memgest_switch_mid_stream() {
    let cluster = Cluster::start(fast_spec());
    let mut client = cluster.client();
    client.put(1, b"to-default-0").unwrap();
    client.set_default_memgest(6).unwrap();
    client.put(2, b"to-default-6").unwrap();
    assert_eq!(client.get(1).unwrap(), b"to-default-0");
    assert_eq!(client.get(2).unwrap(), b"to-default-6");
    cluster.shutdown();
}

#[test]
fn move_to_same_memgest_is_a_version_bump() {
    let cluster = Cluster::start(fast_spec());
    let mut client = cluster.client();
    client.put_to(9, b"stay", 2).unwrap();
    let v = client.move_key(9, 2).unwrap();
    assert_eq!(v, 2);
    assert_eq!(client.get(9).unwrap(), b"stay");
    cluster.shutdown();
}

#[test]
fn single_shard_cluster_works() {
    // Degenerate deployment: s = 1 (everything on one coordinator).
    let spec = ClusterSpec {
        s: 1,
        d: 2,
        memgests: vec![
            MemgestDescriptor::rep(1),
            MemgestDescriptor::rep(3),
            MemgestDescriptor::srs(1, 2),
        ],
        ..fast_spec()
    };
    let cluster = Cluster::start(spec);
    let mut client = cluster.client();
    for key in 0..30u64 {
        client
            .put_to(key, &[key as u8; 100], (key % 3) as u32)
            .unwrap();
    }
    for key in 0..30u64 {
        assert_eq!(client.get(key).unwrap(), vec![key as u8; 100]);
    }
    cluster.shutdown();
}

#[test]
fn tombstone_then_move_is_not_found() {
    let cluster = Cluster::start(fast_spec());
    let mut client = cluster.client();
    client.put_to(11, b"x", 2).unwrap();
    client.delete(11).unwrap();
    assert_eq!(client.move_key(11, 6).unwrap_err(), RingError::KeyNotFound);
    cluster.shutdown();
}
