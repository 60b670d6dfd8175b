//! End-to-end tests against real `ring-server` OS processes on
//! loopback TCP: PUT/GET/MOVE for REP and SRS memgests, a separate
//! `ring-cli` client process, node kill + spare promotion, and
//! SIGTERM-graceful shutdown with the JSON stats flush.

use std::time::{Duration, Instant};

use ring_server::harness::{LoopbackCluster, LoopbackSpec};

/// Points the harness at the binaries cargo built for this test run.
fn setup_bins() {
    std::env::set_var("RING_SERVER_BIN", env!("CARGO_BIN_EXE_ring-server"));
    std::env::set_var("RING_CLI_BIN", env!("CARGO_BIN_EXE_ring-cli"));
}

/// Retries `f` until it succeeds or `timeout` elapses.
fn retry<T, E: std::fmt::Debug>(
    timeout: Duration,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let deadline = Instant::now() + timeout;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[test]
fn put_get_move_over_tcp() {
    setup_bins();
    let cluster = LoopbackCluster::start(LoopbackSpec::default()).expect("cluster boots");
    let mut client = cluster.client();

    // REP memgest (id 0, the default).
    for key in 0..8u64 {
        let value = format!("value-{key}");
        let version = retry(Duration::from_secs(10), || {
            client.put(key, value.as_bytes())
        })
        .unwrap_or_else(|e| panic!("put {key}: {e:?}"));
        assert!(version >= 1);
    }
    for key in 0..8u64 {
        let got = client.get(key).expect("get after put");
        assert_eq!(got, format!("value-{key}").into_bytes());
    }

    // SRS memgest (id 1): targeted puts.
    for key in 100..108u64 {
        let value = format!("srs-{key}");
        client.put_to(key, value.as_bytes(), 1).expect("srs put");
        assert_eq!(client.get(key).expect("srs get"), value.into_bytes());
    }

    // Move a key REP -> SRS and back; reads must survive both hops.
    client.move_key(3, 1).expect("move to srs");
    assert_eq!(client.get(3).expect("get after move"), b"value-3".to_vec());
    client.move_key(3, 0).expect("move back to rep");
    assert_eq!(
        client.get(3).expect("get after move back"),
        b"value-3".to_vec()
    );

    // Delete.
    client.delete(5).expect("delete");
    assert!(client.get(5).is_err(), "deleted key must not resolve");
}

#[test]
fn cli_process_round_trip() {
    setup_bins();
    let cluster = LoopbackCluster::start(LoopbackSpec::default()).expect("cluster boots");

    // Each ring-cli invocation is a fresh OS process.
    let put = retry(Duration::from_secs(10), || {
        let out = cluster
            .cli(&["put", "7", "hello-from-cli"])
            .expect("spawn cli");
        if out.status.success() {
            Ok(out)
        } else {
            Err(String::from_utf8_lossy(&out.stderr).to_string())
        }
    })
    .expect("cli put succeeds");
    let stdout = String::from_utf8_lossy(&put.stdout);
    assert!(stdout.starts_with("OK version="), "put said: {stdout}");

    let get = cluster.cli(&["get", "7"]).expect("spawn cli");
    assert!(get.status.success());
    assert_eq!(
        String::from_utf8_lossy(&get.stdout).trim(),
        "hello-from-cli"
    );

    let mv = cluster.cli(&["move", "7", "1"]).expect("spawn cli");
    assert!(
        mv.status.success(),
        "move failed: {}",
        String::from_utf8_lossy(&mv.stderr)
    );
    let get2 = cluster.cli(&["get", "7"]).expect("spawn cli");
    assert_eq!(
        String::from_utf8_lossy(&get2.stdout).trim(),
        "hello-from-cli"
    );

    let stats = cluster.cli(&["stats", "0"]).expect("spawn cli");
    assert!(stats.status.success());
    let line = String::from_utf8_lossy(&stats.stdout);
    assert!(line.contains("node=0"), "stats said: {line}");

    let del = cluster.cli(&["del", "7"]).expect("spawn cli");
    assert!(del.status.success());
    let gone = cluster.cli(&["get", "7"]).expect("spawn cli");
    assert!(!gone.status.success(), "get of deleted key must fail");

    // Usage errors exit 2 without touching the cluster.
    let bad = cluster.cli(&["frobnicate"]).expect("spawn cli");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn kill_node_promotes_spare() {
    setup_bins();
    let mut cluster = LoopbackCluster::start(LoopbackSpec::default()).expect("cluster boots");
    let mut client = cluster.client();

    // Seed both schemes.
    for key in 0..10u64 {
        retry(Duration::from_secs(10), || {
            client.put(key, format!("rep-{key}").as_bytes())
        })
        .unwrap_or_else(|e| panic!("rep put {key}: {e:?}"));
        client
            .put_to(1000 + key, format!("srs-{key}").as_bytes(), 1)
            .unwrap_or_else(|e| panic!("srs put {key}: {e:?}"));
    }

    // Kill an active node outright (a coordinator for some keys).
    cluster.kill_node(0).expect("kill node 0");

    // The leader must detect the death, promote the spare, and every
    // key — replicated and erasure-coded — must come back.
    for key in 0..10u64 {
        let rep = retry(Duration::from_secs(20), || client.get(key))
            .unwrap_or_else(|e| panic!("rep key {key} lost after failover: {e:?}"));
        assert_eq!(rep, format!("rep-{key}").into_bytes());
        let srs = retry(Duration::from_secs(20), || client.get(1000 + key))
            .unwrap_or_else(|e| panic!("srs key {key} lost after failover: {e:?}"));
        assert_eq!(srs, format!("srs-{key}").into_bytes());
    }

    // Writes keep working on the new configuration.
    retry(Duration::from_secs(10), || client.put(42, b"post-failover"))
        .expect("put after failover");
    assert_eq!(client.get(42).expect("get"), b"post-failover".to_vec());
}

#[test]
fn parity_rebuild_over_tcp_then_decodes_a_dead_coordinators_keys() {
    setup_bins();
    let spec = LoopbackSpec {
        spares: 2,
        ..LoopbackSpec::default()
    };
    let mut cluster = LoopbackCluster::start(spec).expect("cluster boots");
    let config = cluster.topology().config();
    let parity = config.redundant(0, 0);
    let doomed = config.coordinator(0, 0);
    let mut client = cluster.client();

    // SRS(2,1) keys of a few hundred bytes each: the parity heap is
    // far from empty.
    let mut want: Vec<(u64, Vec<u8>)> = (0..16u64)
        .map(|key| (key, format!("srs-{key}-").repeat(40).into_bytes()))
        .collect();
    for (key, value) in &want {
        retry(Duration::from_secs(10), || client.put_to(*key, value, 1))
            .unwrap_or_else(|e| panic!("srs put {key}: {e:?}"));
    }

    // A spare replaces the parity node and rebuilds its heap from the
    // coordinators' rows; puts stall until it is done.
    cluster.kill_node(parity).expect("kill the parity node");
    retry(Duration::from_secs(20), || {
        client.put_to(100, b"after-rebuild", 1)
    })
    .expect("puts resume after the rebuild");
    want.push((100, b"after-rebuild".to_vec()));

    // With coordinator 0 gone too, its keys decode only through the
    // rebuilt parity.
    cluster.kill_node(doomed).expect("kill a coordinator");
    let lost: Vec<&(u64, Vec<u8>)> = (want.iter())
        .filter(|(key, _)| config.coordinator_of_key(*key) == doomed)
        .collect();
    assert!(!lost.is_empty(), "the dead coordinator held keys");
    for (key, value) in lost {
        let got = retry(Duration::from_secs(20), || client.get(*key))
            .unwrap_or_else(|e| panic!("srs key {key} lost: {e:?}"));
        assert!(got == *value, "key {key} decoded to different bytes");
    }
}

#[test]
fn sigterm_drains_and_flushes_json_stats() {
    setup_bins();
    let mut cluster = LoopbackCluster::start(LoopbackSpec::default()).expect("cluster boots");
    let mut client = cluster.client();
    for key in 0..4u64 {
        retry(Duration::from_secs(10), || client.put(key, b"x"))
            .unwrap_or_else(|e| panic!("put {key}: {e:?}"));
    }

    // Keep a window of pipelined puts in flight, so that every server
    // sends with input still queued and corks its acks and replies, and
    // gracefully stop a redundant node (id s+d-1 = 2 by default) in the
    // middle of it. What node 2 had corked when it left its loop goes
    // out when its transport closes; nothing acknowledged may be lost
    // and nothing in flight may be stranded for good.
    let value = |key: u64| format!("burst-{key}").into_bytes();
    let mut issued = std::collections::BTreeMap::new();
    for key in 100..356u64 {
        let req = client.put_nb(key, &value(key), None).expect("put_nb");
        issued.insert(req, key);
    }
    let report = cluster
        .stop_node(2, Duration::from_secs(5))
        .expect("stop node 2");
    assert!(report.clean_exit, "stderr: {}", report.stderr);
    let mut done = client.poll();
    done.extend(client.drain());
    assert_eq!(done.len(), issued.len(), "every put completes, once");
    for (req, outcome) in done {
        let key = issued[&req];
        if outcome.is_err() {
            // In flight across the failover: the spare takes node 2's
            // role and the retry lands on the new configuration.
            retry(Duration::from_secs(20), || client.put(key, &value(key)))
                .unwrap_or_else(|e| panic!("put {key} after the stop: {e:?}"));
        }
    }
    for &key in issued.values() {
        let got = retry(Duration::from_secs(20), || client.get(key))
            .unwrap_or_else(|e| panic!("key {key} lost across the drain: {e:?}"));
        assert_eq!(got, value(key));
    }
    let line = report.stderr.trim();
    let json =
        serde_json::from_str(line).unwrap_or_else(|e| panic!("stats not JSON ({e:?}): {line}"));
    assert_eq!(json.get("node").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        json.get("role").and_then(|v| v.as_str()),
        Some("node"),
        "{line}"
    );
    let net = json.get("net").expect("net section");
    assert!(
        net.get("msgs_sent").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "a serving node must have sent messages: {line}"
    );
    assert!(net.get("retransmits").is_some(), "{line}");
    let threads = |v: &serde_json::Value| v.get("threads").and_then(|t| t.as_u64());
    assert_eq!(threads(&json), Some(1), "one thread per server: {line}");

    // The rest of the cluster shuts down cleanly too, leader included.
    let reports = cluster.shutdown();
    assert!(!reports.is_empty());
    for r in &reports {
        assert!(r.clean_exit, "node {} unclean: {}", r.node, r.stderr);
        let v = serde_json::from_str(r.stderr.trim())
            .unwrap_or_else(|e| panic!("node {}: bad JSON ({e:?}): {}", r.node, r.stderr));
        let role = v.get("role").and_then(|x| x.as_str()).unwrap_or("");
        assert!(role == "node" || role == "leader", "{}", r.stderr);
        assert_eq!(threads(&v), Some(1), "node {}: {}", r.node, r.stderr);
    }
}
