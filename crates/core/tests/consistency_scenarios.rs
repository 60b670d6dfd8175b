//! Strong-consistency scenarios (Section 5.2, Figure 5): version
//! pinning, commit-gated reads, and independent commits across
//! memgests, made deterministic with link failures.

use std::time::{Duration, Instant};

use ring_kvs::proto::ClientResp;
use ring_kvs::{Cluster, ClusterSpec, RingError};
use ring_net::LatencyModel;

fn spec() -> ClusterSpec {
    ClusterSpec {
        latency: LatencyModel::instant(),
        ..ClusterSpec::paper_evaluation()
    }
}

/// Picks a key, its coordinator, and the REP2 replica target.
fn pick_key(cluster: &Cluster) -> (u64, u32, u32) {
    let key = 12345u64;
    let coordinator = cluster.coordinator_of(key);
    let cfg = cluster.config();
    let (g, shard) = cfg.locate(key);
    let replica = cfg.replica_targets(g, shard, 2)[0];
    (key, coordinator, replica)
}

fn wait_response(
    client: &mut ring_kvs::RingClient,
    req: u64,
    deadline: Duration,
) -> Option<ClientResp> {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        for (r, body) in client.poll_responses() {
            if r == req {
                return Some(body);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

#[test]
fn figure5_multi_client_scenario() {
    // The paper's Figure 5, made deterministic: client A's put to the
    // slow (replicated) memgest cannot commit while the replica link is
    // down; client B's put to the fast (unreliable) memgest commits
    // immediately with a higher version; C reads B's value right away;
    // D's earlier get stays pinned to A's version and is answered with
    // obj1 only after A's write finally commits.
    let cluster = Cluster::start(spec());
    let (key, coordinator, replica) = pick_key(&cluster);

    let mut a = cluster.client();
    let mut b = cluster.client();
    let mut c = cluster.client();
    let mut d = cluster.client();

    // Cut the replication path so version 1 stays uncommitted.
    cluster.fabric().fail_link(coordinator, replica);

    // A: put(key, obj1) to REP2 (memgest 1) — version 1, uncommitted.
    let req_a = a.put_async(key, b"obj1", Some(1)).unwrap();
    std::thread::sleep(Duration::from_millis(20)); // Let the node process it.

    // D: get(key) — pinned to version 1, postponed.
    let req_d = d.get_async(key).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // B: put(key, obj2) to REP1 (memgest 0) — version 2, commits now.
    let req_b = b.put_async(key, b"obj2", Some(0)).unwrap();
    let resp_b = wait_response(&mut b, req_b, Duration::from_secs(2)).expect("B commits");
    assert_eq!(resp_b, ClientResp::PutOk { version: 2 });

    // C: get(key) returns obj2 (the highest committed version) even
    // though version 1 is still pending.
    let (value, version) = c.get_versioned(key).unwrap();
    assert_eq!(value, b"obj2");
    assert_eq!(version, 2);

    // A and D are still waiting.
    assert!(wait_response(&mut a, req_a, Duration::from_millis(100)).is_none());
    assert!(wait_response(&mut d, req_d, Duration::from_millis(50)).is_none());

    // Heal the link: retransmission replicates version 1, it commits,
    // A gets its ack and D gets obj1 — the version its get pinned.
    cluster.fabric().heal_link(coordinator, replica);
    let resp_a = wait_response(&mut a, req_a, Duration::from_secs(2)).expect("A commits");
    assert_eq!(resp_a, ClientResp::PutOk { version: 1 });
    let resp_d = wait_response(&mut d, req_d, Duration::from_secs(2)).expect("D answered");
    assert_eq!(
        resp_d,
        ClientResp::GetOk {
            value: b"obj1".to_vec().into(),
            version: 1
        }
    );

    // The final state is still the last writer's value.
    assert_eq!(c.get(key).unwrap(), b"obj2");
    cluster.shutdown();
}

#[test]
fn get_blocks_until_commit() {
    let cluster = Cluster::start(spec());
    let (key, coordinator, replica) = pick_key(&cluster);
    let mut writer = cluster.client();
    let mut reader = cluster.client();

    cluster.fabric().fail_link(coordinator, replica);
    let w = writer.put_async(key, b"pending", Some(1)).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // The read is postponed, not answered with stale/uncommitted data.
    let r = reader.get_async(key).unwrap();
    assert!(wait_response(&mut reader, r, Duration::from_millis(80)).is_none());

    cluster.fabric().heal_link(coordinator, replica);
    assert_eq!(
        wait_response(&mut writer, w, Duration::from_secs(2)).unwrap(),
        ClientResp::PutOk { version: 1 }
    );
    assert_eq!(
        wait_response(&mut reader, r, Duration::from_secs(2)).unwrap(),
        ClientResp::GetOk {
            value: b"pending".to_vec().into(),
            version: 1
        }
    );
    cluster.shutdown();
}

#[test]
fn move_waits_for_uncommitted_source() {
    // A move must read the highest version, which requires it to be
    // committed first (Section 5.2: the move request is postponed if the
    // requested object is not durable).
    let cluster = Cluster::start(spec());
    let (key, coordinator, replica) = pick_key(&cluster);
    let mut writer = cluster.client();
    let mut mover = cluster.client();

    cluster.fabric().fail_link(coordinator, replica);
    let w = writer.put_async(key, b"to-move", Some(1)).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // Issue the move while version 1 is uncommitted.
    let m = {
        // move via the raw async API: reuse put_async's pattern through
        // the public move_key on a thread would block; send manually.
        mover.move_async(key, 6).unwrap()
    };
    assert!(wait_response(&mut mover, m, Duration::from_millis(80)).is_none());

    cluster.fabric().heal_link(coordinator, replica);
    assert_eq!(
        wait_response(&mut writer, w, Duration::from_secs(2)).unwrap(),
        ClientResp::PutOk { version: 1 }
    );
    match wait_response(&mut mover, m, Duration::from_secs(2)).unwrap() {
        ClientResp::MoveOk { version } => assert_eq!(version, 2),
        other => panic!("unexpected move response: {other:?}"),
    }
    assert_eq!(mover.get(key).unwrap(), b"to-move");
    cluster.shutdown();
}

#[test]
fn move_waits_for_an_uncommitted_delete() {
    // A move binds to the key's highest version exactly as a get does.
    // While that version is a delete whose tombstone has not committed,
    // the key is not gone yet: `KeyNotFound` now would expose state that
    // may never commit.
    let cluster = Cluster::start(spec());
    let (key, coordinator, replica) = pick_key(&cluster);
    let mut writer = cluster.client();
    let mut mover = cluster.client();
    writer.put_to(key, b"doomed", 1).unwrap();

    cluster.fabric().fail_link(coordinator, replica);
    writer.set_timeout(Duration::from_secs(5)); // One attempt outlasts the cut.
    let d = writer.delete_nb(key).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let m = mover.move_async(key, 6).unwrap();
    assert!(wait_response(&mut mover, m, Duration::from_millis(80)).is_none());
    assert!(writer.poll().is_empty(), "the delete cannot commit yet");

    cluster.fabric().heal_link(coordinator, replica);
    let done = writer.drain();
    assert!(
        matches!(done.as_slice(), [(req, Ok(ClientResp::DeleteOk))] if *req == d),
        "{done:?}"
    );
    assert_eq!(
        wait_response(&mut mover, m, Duration::from_secs(2)).unwrap(),
        ClientResp::Error(RingError::KeyNotFound)
    );
    cluster.shutdown();
}

#[test]
fn delete_waits_for_an_uncommitted_delete() {
    // A second delete looks at the key's highest version too. While that
    // version is a tombstone that has not committed, the key is not gone
    // yet: `KeyNotFound` now would acknowledge a delete that a crash can
    // still undo, after which a get returns the old value.
    let cluster = Cluster::start(spec());
    let (key, coordinator, replica) = pick_key(&cluster);
    let mut first = cluster.client();
    let mut second = cluster.client();
    first.put_to(key, b"doomed", 1).unwrap();

    cluster.fabric().fail_link(coordinator, replica);
    first.set_timeout(Duration::from_secs(5)); // One attempt outlasts the cut.
    second.set_timeout(Duration::from_secs(5));
    let d1 = first.delete_nb(key).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let d2 = second.delete_nb(key).unwrap();
    std::thread::sleep(Duration::from_millis(80));
    assert!(
        second.poll().is_empty(),
        "answered off an uncommitted tombstone"
    );
    assert!(
        first.poll().is_empty(),
        "the first delete cannot commit yet"
    );

    cluster.fabric().heal_link(coordinator, replica);
    let done = first.drain();
    assert!(
        matches!(done.as_slice(), [(req, Ok(ClientResp::DeleteOk))] if *req == d1),
        "{done:?}"
    );
    // The tombstone it waited on has committed: now the key is gone.
    let done = second.drain();
    assert!(
        matches!(
            done.as_slice(),
            [(req, Ok(ClientResp::Error(RingError::KeyNotFound)))] if *req == d2
        ),
        "{done:?}"
    );
    cluster.shutdown();
}

#[test]
fn versions_are_monotone_across_interleavings() {
    let cluster = Cluster::start(spec());
    let key = 777u64;
    let mut a = cluster.client();
    let mut b = cluster.client();
    let mut last = 0;
    for i in 0..20 {
        let client = if i % 2 == 0 { &mut a } else { &mut b };
        let mid = (i % 7) as u32;
        let v = client.put_to(key, &[i as u8], mid).unwrap();
        assert!(v > last, "version went backwards: {v} after {last}");
        last = v;
    }
    let (value, version) = a.get_versioned(key).unwrap();
    assert_eq!(version, last);
    assert_eq!(value, vec![19u8]);
    cluster.shutdown();
}

#[test]
fn reads_see_latest_committed_after_concurrent_writers() {
    let cluster = Cluster::start(spec());
    let keys: Vec<u64> = (0..20).collect();
    let mut handles = Vec::new();
    for t in 0..4 {
        let mut client = cluster.client();
        let keys = keys.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..10u64 {
                for &k in &keys {
                    let mid = ((k + t + round) % 7) as u32;
                    client
                        .put_to(k, &[(t * 100 + round) as u8; 32], mid)
                        .unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every key must be readable and hold one of the written values.
    let mut reader = cluster.client();
    for &k in &keys {
        let v = reader.get(k).unwrap();
        assert_eq!(v.len(), 32);
        assert!(v.iter().all(|&b| b == v[0]));
    }
    cluster.shutdown();
}
