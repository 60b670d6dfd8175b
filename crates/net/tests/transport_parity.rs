//! Counter-parity contract between network backends.
//!
//! `NetStats` records *logical* traffic — message counts and `WireSize`
//! bytes — never backend encodings (frame headers, handshakes, TCP
//! segmentation). This test runs one fixed protocol script on both the
//! simulated fabric and a real TCP loopback pair and asserts the final
//! snapshots are bit-identical. If a backend ever starts charging its
//! own overhead to the counters, the bench's sim-vs-TCP comparison
//! becomes meaningless; this is the tripwire.

mod common;

use std::time::Duration;

use common::{tcp_endpoints, wait_until, TestMsg};
use ring_net::{Fabric, LatencyModel, MemoryRegion, NetError, NetStatsSnapshot, NodeId, Transport};

const NODE_A: NodeId = 0;
const NODE_B: NodeId = 1;
/// A node id neither backend was configured with.
const UNCONFIGURED: NodeId = 99;
const REGION: u64 = 7;

/// The fixed script, written against the [`Transport`] trait only —
/// plus `queued`, each backend's count of undelivered messages, and
/// `corks`: whether the backend holds back a send made while the
/// sender's own mailbox is non-empty (TCP does, the fabric delivers
/// inside `send`).
///
/// Returns the `(a, b)` snapshots after all traffic has settled.
fn run_script<T: Transport<TestMsg>>(
    a: &T,
    b: &T,
    queued: impl Fn(&T) -> usize,
    corks: bool,
) -> (NetStatsSnapshot, NetStatsSnapshot) {
    // B exposes a 1 KiB region for one-sided reads.
    let region = MemoryRegion::new(1024);
    region.write(0, &[0xA5; 1024]).expect("fill");
    b.register_region(REGION, region.clone());

    // Two-sided traffic: five unicasts A -> B with distinct sizes, one
    // reply B -> A, one multicast A -> {B} (the client re-send shape).
    for i in 0..5u64 {
        a.send(
            NODE_B,
            TestMsg {
                tag: i,
                body: vec![i as u8; (i as usize) * 16],
            },
        )
        .expect("send");
    }
    for _ in 0..5 {
        let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("b recv");
        assert_eq!(from, NODE_A);
        assert_eq!(msg.body.len(), (msg.tag as usize) * 16);
    }
    b.send(
        NODE_A,
        TestMsg {
            tag: 100,
            body: vec![1; 33],
        },
    )
    .expect("reply");
    let (from, _) = a.recv_timeout(Duration::from_secs(5)).expect("a recv");
    assert_eq!(from, NODE_B);
    a.multicast(
        &[NODE_B],
        TestMsg {
            tag: 101,
            body: vec![2; 9],
        },
    )
    .expect("multicast");
    let (_, m) = b.recv_timeout(Duration::from_secs(5)).expect("b recv mc");
    assert_eq!(m.tag, 101);

    // A sends with a backlog of its own: TCP corks these four and
    // releases them when A runs out of input. The counters must not
    // notice — they are taken at `send`.
    for i in 0..3u64 {
        b.send(NODE_A, TestMsg::tagged(200 + i)).expect("backlog");
    }
    wait_until("A's backlog", || queued(a) == 3);
    for i in 0..4u64 {
        a.send(
            NODE_B,
            TestMsg {
                tag: 300 + i,
                body: vec![3; 5 + i as usize],
            },
        )
        .expect("send over backlog");
    }
    let early = b.recv_timeout(Duration::from_millis(100));
    assert_eq!(
        early.as_ref().err(),
        corks.then_some(&NetError::Timeout),
        "corking engaged exactly on the backend that has it"
    );
    for i in 0..3u64 {
        let (_, m) = a.recv_timeout(Duration::from_secs(5)).expect("a backlog");
        assert_eq!(m.tag, 200 + i);
    }
    assert_eq!(a.try_recv().expect("a open"), None); // out of input: release
    for i in early.is_ok() as u64..4 {
        let (_, m) = b.recv_timeout(Duration::from_secs(5)).expect("b corked");
        assert_eq!(m.tag, 300 + i, "corked frames keep their order");
    }

    // One-sided traffic: reads, exact and padded, and a read of what the
    // owner wrote through its own handle.
    let bytes = a.rdma_read(NODE_B, REGION, 16, 64).expect("rdma read");
    assert_eq!(bytes, vec![0xA5; 64]);
    let padded = a
        .rdma_read_padded(NODE_B, REGION, 1000, 48)
        .expect("padded read");
    assert_eq!(padded, [[0xA5; 24], [0; 24]].concat());
    region.write(0, &[0x5A; 100]).expect("owner write");
    assert_eq!(
        a.rdma_read(NODE_B, REGION, 0, 4).expect("verify"),
        vec![0x5A; 4]
    );

    // Failed reads: the same error on every backend, and no counter moves.
    let before = a.stats().snapshot();
    assert_eq!(
        a.rdma_read(NODE_B, REGION + 1, 0, 4),
        Err(NetError::UnknownRegion {
            node: NODE_B,
            key: REGION + 1
        })
    );
    assert_eq!(
        a.rdma_read(NODE_B, REGION, 1000, 48),
        Err(NetError::OutOfBounds {
            offset: 1000,
            len: 48,
            region: 1024
        })
    );
    assert_eq!(
        a.rdma_read_padded(UNCONFIGURED, REGION, 0, 4),
        Err(NetError::Unreachable(UNCONFIGURED))
    );
    assert_eq!(a.stats().snapshot(), before, "failed reads count nothing");

    // Protocol-level retransmits are reported by the caller, not
    // inferred by the backend; the recorder must exist on both.
    a.stats().record_retransmit();
    a.stats().record_retransmit();

    (a.stats().snapshot(), b.stats().snapshot())
}

fn run_on_fabric() -> (NetStatsSnapshot, NetStatsSnapshot) {
    let fabric = Fabric::<TestMsg>::new(LatencyModel::instant());
    let a = fabric.register(NODE_A).expect("register a");
    let b = fabric.register(NODE_B).expect("register b");
    run_script(&a, &b, |t| t.queued(), false)
}

fn run_on_tcp() -> (NetStatsSnapshot, NetStatsSnapshot) {
    let eps = tcp_endpoints(2);
    run_script(&eps[0], &eps[1], |t| t.queued(), true)
}

#[test]
fn sim_and_tcp_backends_report_identical_counters() {
    let (sim_a, sim_b) = run_on_fabric();
    let (tcp_a, tcp_b) = run_on_tcp();
    assert_eq!(sim_a, tcp_a, "endpoint A counters diverge between backends");
    assert_eq!(sim_b, tcp_b, "endpoint B counters diverge between backends");
}

/// The script's counters, spelled out: the parity assertion above would
/// also pass if both backends were wrong the same way, so pin the
/// absolute values once.
#[test]
fn script_counters_match_hand_computation() {
    let (a, b) = run_on_fabric();

    // A sent 5 unicasts (8 + 16i bytes) + 1 multicast to one peer (17)
    // + 4 over its backlog (8 + 5 + i).
    let unicast_bytes: u64 = (0..5).map(|i| 8 + 16 * i).sum();
    let over_backlog: u64 = (0..4).map(|i| 13 + i).sum();
    assert_eq!(a.msgs_sent, 10);
    assert_eq!(a.bytes_sent, unicast_bytes + 17 + over_backlog);
    // A received B's one reply (8 + 33) and the 3 backlog messages (8).
    assert_eq!(a.msgs_received, 4);
    assert_eq!(a.bytes_received, 41 + 24);
    assert_eq!(a.retransmits, 2);
    // A's 3 reads succeeded (64 + 48 + 4 bytes); its 3 failed ones are
    // not counted.
    assert_eq!(a.rdma_reads, 3);
    assert_eq!(a.rdma_read_bytes, 116);

    // B's view mirrors it; one-sided reads never touch B's counters
    // (the target CPU is not involved — that is the point of RDMA).
    assert_eq!(b.msgs_sent, 4);
    assert_eq!(b.bytes_sent, 41 + 24);
    assert_eq!(b.msgs_received, 10);
    assert_eq!(b.bytes_received, unicast_bytes + 17 + over_backlog);
    assert_eq!(b.retransmits, 0);
    assert_eq!(b.rdma_reads, 0);
}
