//! Failure injection and recovery: spare promotion, metadata recovery,
//! on-demand data recovery (replica fetch and erasure decode), and
//! parity-heap rebuild (Section 5.5).

use std::time::{Duration, Instant};

use ring_erasure::{SrsCode, SrsLayout};
use ring_kvs::{Cluster, ClusterSpec, RingError};
use ring_net::LatencyModel;

fn spec_with_spares(spares: usize) -> ClusterSpec {
    ClusterSpec {
        latency: LatencyModel::instant(),
        spares,
        fail_timeout: Duration::from_millis(150),
        ..ClusterSpec::paper_evaluation()
    }
}

/// Retries a get until it succeeds or the deadline passes (recovery
/// runs concurrently with the client's retry loop).
fn get_eventually(
    client: &mut ring_kvs::RingClient,
    key: u64,
    deadline: Duration,
) -> Result<Vec<u8>, RingError> {
    let end = Instant::now() + deadline;
    loop {
        match client.get(key) {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() >= end => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[test]
fn rep3_survives_replica_failure_without_promotion() {
    // Quorum replication: killing one of the two replica targets leaves
    // coordinator + one replica = majority of 3.
    let cluster = Cluster::start(spec_with_spares(0));
    let mut client = cluster.client();
    client.put_to(1, b"before", 2).unwrap();
    // Node 3 is a redundant node in the single-group layout.
    cluster.kill(3);
    client.put_to(2, b"after", 2).unwrap();
    assert_eq!(client.get(1).unwrap(), b"before");
    assert_eq!(client.get(2).unwrap(), b"after");
    cluster.shutdown();
}

#[test]
fn coordinator_failure_recovers_replicated_data() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    // Write a batch of keys to REP3 and find one whose coordinator is
    // node 0.
    let mut victims = Vec::new();
    for key in 0..60u64 {
        client.put_to(key, &key.to_le_bytes(), 2).unwrap();
        if cluster.coordinator_of(key) == 0 {
            victims.push(key);
        }
    }
    assert!(!victims.is_empty());
    cluster.kill(0);
    // The spare must take over and serve every key, fetching lost
    // values from replicas on demand.
    for key in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(v, key.to_le_bytes().to_vec());
    }
    cluster.shutdown();
}

#[test]
fn coordinator_failure_recovers_erasure_coded_data() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    let mut victims = Vec::new();
    for key in 100..160u64 {
        let value = vec![(key % 251) as u8; 900];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2).
        if cluster.coordinator_of(key) == 1 {
            victims.push((key, value));
        }
    }
    assert!(!victims.is_empty());
    cluster.kill(1);
    // The promoted spare recovers metadata from a parity node, then
    // decodes each value on first access (online block recovery).
    for (key, value) in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(v, value, "key {key}");
    }
    cluster.shutdown();
}

/// A degraded read never decodes past a holey lane. Coordinator 0 dies
/// and its spare is promoted with metadata only (background recovery is
/// off), so its heap keeps holes; then coordinator 1 dies too. A shard-1
/// stripe that also needs shard 0's row has lost two rows, more than
/// SRS(2,1) or SRS(3,1) can rebuild: its get must fail, not answer the
/// zeros of the hole decoded as data. SRS(2,1) stripes whose lane peer
/// is shard 2 still decode.
#[test]
fn degraded_read_past_a_holey_lane_errors_instead_of_decoding_zeros() {
    const SRS21: u32 = 4;
    const SRS31: u32 = 5;
    const BLOCK: usize = 4096;
    let cluster = Cluster::start(spec_with_spares(2));
    let mut client = cluster.client();
    let keys_on = |node| -> Vec<u64> {
        (0..400)
            .filter(|&k| cluster.coordinator_of(k) == node)
            .collect()
    };
    let value = |key: u64| vec![(key % 251) as u8 + 1; BLOCK];
    // Each value fills one sub-block, at the same heap addresses on every
    // shard, so shard 0's lanes hold real bytes, not the zeros of a hole.
    let mut shard1 = Vec::new();
    for node in 0..3 {
        let mut keys = keys_on(node).into_iter();
        for (mid, n) in [(SRS21, 3), (SRS31, 2)] {
            for (i, key) in keys.by_ref().take(n).enumerate() {
                client.put_to(key, &value(key), mid).unwrap();
                if node == 1 {
                    shard1.push((mid, key, i * BLOCK));
                }
            }
        }
    }
    let probe = |node| keys_on(node).pop().expect("a probe key");
    for node in 0..2 {
        client.put_to(probe(node), b"probe", 2).unwrap(); // REP3.
    }

    // Each promotion is done once its REP3 probe is served again.
    cluster.kill(0);
    get_eventually(&mut client, probe(0), Duration::from_secs(15)).unwrap();
    cluster.kill(1);
    get_eventually(&mut client, probe(1), Duration::from_secs(15)).unwrap();

    let layout = SrsLayout::new(SrsCode::new(2, 1, 3).unwrap(), BLOCK).unwrap();
    let survives = |addr| {
        let seg = layout.split_range(1, addr, BLOCK)[0];
        layout.peer_addr(&seg, 1 - seg.source).0 == 2
    };
    // An unrecoverable get costs the client's whole retry budget.
    client.set_timeout(Duration::from_millis(50));
    let mut decoded = 0;
    for (mid, key, addr) in shard1 {
        match client.get(key) {
            Ok(v) => assert!(v == value(key), "key {key} (memgest {mid}): wrong bytes"),
            Err(e) => assert!(mid == SRS31 || !survives(addr), "key {key}: {e}"),
        }
        decoded += usize::from(mid == SRS21 && survives(addr));
    }
    assert!(
        decoded > 0,
        "no SRS(2,1) stripe with its lane peer on shard 2"
    );
    cluster.shutdown();
}

/// A zero-length SRS value has no bytes to lose: the promoted
/// coordinator serves it from its metadata without a decode.
#[test]
fn empty_srs_value_survives_its_coordinators_loss() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    let key = (0..60u64)
        .find(|&k| cluster.coordinator_of(k) == 2)
        .expect("key on node 2");
    client.put_to(key, b"", 6).unwrap(); // SRS(3,2).
    cluster.kill(2);
    let v = get_eventually(&mut client, key, Duration::from_secs(15)).unwrap();
    assert!(v.is_empty(), "{v:?}");
    cluster.shutdown();
}

#[test]
fn unreliable_data_is_lost_on_coordinator_failure() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    let mut rep_key = None;
    let mut unrel_key = None;
    for key in 0..60u64 {
        if cluster.coordinator_of(key) == 2 {
            if unrel_key.is_none() {
                client.put_to(key, b"gone", 0).unwrap(); // REP1.
                unrel_key = Some(key);
            } else if rep_key.is_none() {
                client.put_to(key, b"kept", 2).unwrap(); // REP3.
                rep_key = Some(key);
            }
        }
    }
    let (unrel_key, rep_key) = (unrel_key.unwrap(), rep_key.unwrap());
    cluster.kill(2);
    // Replicated data survives; unreliable data does not.
    assert_eq!(
        get_eventually(&mut client, rep_key, Duration::from_secs(15)).unwrap(),
        b"kept"
    );
    let end = Instant::now() + Duration::from_secs(6);
    loop {
        match client.get(unrel_key) {
            Err(RingError::KeyNotFound) => break,
            _ if Instant::now() >= end => panic!("unreliable key still served"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    cluster.shutdown();
}

#[test]
fn parity_node_failure_rebuilds_and_keeps_coding_consistent() {
    let cluster = Cluster::start(spec_with_spares(2));
    let mut client = cluster.client();
    for key in 200..240u64 {
        let value = vec![(key % 13) as u8 + 1; 600];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2): parities on 3, 4.
    }
    cluster.kill(3); // First parity node.

    // New puts must keep committing (they stall during rebuild, then
    // flush).
    let end = Instant::now() + Duration::from_secs(15);
    loop {
        match client.put_to(500, b"during-rebuild", 6) {
            Ok(_) => break,
            Err(_) if Instant::now() >= end => panic!("puts never resumed"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }

    // Give the rebuild a moment to finish, then kill a data coordinator:
    // decode must succeed against the REBUILT parity.
    std::thread::sleep(Duration::from_millis(300));
    let victim_key = (200..240u64)
        .find(|&k| cluster.coordinator_of(k) == 0)
        .expect("some key on node 0");
    cluster.kill(0);
    let v = get_eventually(&mut client, victim_key, Duration::from_secs(15)).unwrap();
    assert_eq!(v, vec![(victim_key % 13) as u8 + 1; 600]);
    cluster.shutdown();
}

#[test]
fn writes_continue_after_promotion() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    client.put_to(1, b"v1", 2).unwrap();
    cluster.kill(cluster.coordinator_of(1));
    // Eventually the promoted node accepts new writes for the shard.
    let end = Instant::now() + Duration::from_secs(15);
    let version = loop {
        match client.put_to(1, b"v2", 2) {
            Ok(v) => break v,
            Err(_) if Instant::now() >= end => panic!("writes never resumed"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(
        version >= 2,
        "recovered version counter must advance: {version}"
    );
    assert_eq!(client.get(1).unwrap(), b"v2");
    cluster.shutdown();
}

#[test]
fn move_after_recovery_works() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    let key = (0..60u64)
        .find(|&k| cluster.coordinator_of(k) == 0)
        .unwrap();
    let value = vec![0x3Cu8; 1200];
    client.put_to(key, &value, 6).unwrap(); // SRS(3,2).
    cluster.kill(0);
    // Move from the recovered SRS memgest to REP3: requires an on-demand
    // decode first, then a normal replicated write.
    let end = Instant::now() + Duration::from_secs(15);
    loop {
        match client.move_key(key, 2) {
            Ok(_) => break,
            Err(_) if Instant::now() >= end => panic!("move never succeeded"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert_eq!(client.get(key).unwrap(), value);
    cluster.shutdown();
}

#[test]
fn sequential_double_failure_with_two_spares() {
    let cluster = Cluster::start(spec_with_spares(2));
    let mut client = cluster.client();
    for key in 0..40u64 {
        client.put_to(key, &[key as u8; 64], 2).unwrap();
    }
    cluster.kill(0);
    for key in 0..40u64 {
        get_eventually(&mut client, key, Duration::from_secs(15)).unwrap();
    }
    // Second failure after the first recovery completed.
    cluster.kill(1);
    for key in 0..40u64 {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(v, vec![key as u8; 64]);
    }
    cluster.shutdown();
}

#[test]
fn dead_spare_is_skipped_at_promotion() {
    // Kill the first spare before the coordinator: the leader must
    // promote the *second* spare, not the corpse.
    let cluster = Cluster::start(spec_with_spares(2));
    let mut client = cluster.client();
    let key = (0..60u64)
        .find(|&k| cluster.coordinator_of(k) == 0)
        .expect("key on node 0");
    client.put_to(key, b"survives", 2).unwrap();
    cluster.kill(5); // First spare dies silently.
    std::thread::sleep(Duration::from_millis(250));
    cluster.kill(0); // Now the coordinator.
    let v = get_eventually(&mut client, key, Duration::from_secs(15)).unwrap();
    assert_eq!(v, b"survives");
    cluster.shutdown();
}

#[test]
fn simultaneous_coordinator_and_parity_failure_srs32() {
    // SRS(3,2) must survive two concurrent failures end to end: a data
    // coordinator and a parity node die together. The promoted parity
    // rebuilds its heap with help from the surviving parity (the dead
    // coordinator's heap is not trustworthy), and the promoted
    // coordinator decodes its objects on demand.
    let cluster = Cluster::start(spec_with_spares(3));
    let mut client = cluster.client();
    let mut victims = Vec::new();
    for key in 0..120u64 {
        let value = vec![(key % 199) as u8 + 1; 700];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2): parities on 3, 4.
        if cluster.coordinator_of(key) == 0 {
            victims.push((key, value));
        }
    }
    assert!(victims.len() > 10);
    cluster.kill(0); // Data coordinator.
    cluster.kill(3); // First parity node — at the same time.

    for (key, value) in &victims {
        let v = get_eventually(&mut client, *key, Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(&v, value, "key {key}");
    }

    // The memgest must be fully writable again, and a THIRD failure
    // afterwards must still be recoverable (proving the rebuilt parity
    // is byte-correct, not just present).
    let end = Instant::now() + Duration::from_secs(15);
    loop {
        match client.put_to(9999, &[7u8; 256], 6) {
            Ok(_) => break,
            Err(_) if Instant::now() < end => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("puts never resumed: {e}"),
        }
    }
    std::thread::sleep(Duration::from_millis(500)); // Let rebuilds settle.
    let survivor_key = victims.iter().map(|(k, _)| *k).find(|&k| {
        cluster.coordinator_of(k) == 1 || {
            // coordinator_of reports the bootstrap mapping; node 1 and 2
            // kept their roles, pick a key from node 1.
            false
        }
    });
    // Pick any key on node 1 (untouched so far).
    let k1 = (0..200u64)
        .find(|&k| cluster.coordinator_of(k) == 1)
        .unwrap();
    let v1 = vec![0x5Au8; 900];
    client.put_to(k1, &v1, 6).unwrap();
    let _ = survivor_key;
    cluster.kill(1);
    let got = get_eventually(&mut client, k1, Duration::from_secs(20)).unwrap();
    assert_eq!(got, v1);
    cluster.shutdown();
}
