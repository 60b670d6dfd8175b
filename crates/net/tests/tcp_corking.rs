//! The TCP backend's send/flush contract (see `TcpTransport::send`):
//! when a frame may be held back, what releases it, the bound on what
//! is held, per-peer FIFO across every transition — and the listener's
//! shutdown.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{peer_map, tcp_endpoints, try_bind, wait_until, TestCodec, TestMsg};
use ring_net::{NetError, NodeId, TcpTransport, Transport};

const LONG: Duration = Duration::from_secs(5);
/// Long enough for a loopback frame that *was* written to arrive.
const SHORT: Duration = Duration::from_millis(100);

/// Leaves `n` undelivered messages in `of`'s mailbox, so that its next
/// sends are corked.
fn force_backlog(of: &TcpTransport<TestMsg>, from: &TcpTransport<TestMsg>, n: usize) {
    let before = of.queued();
    for i in 0..n {
        from.send(of.id(), TestMsg::tagged(9000 + i as u64))
            .expect("backlog send");
    }
    from.flush(); // `from` may itself hold undelivered input and cork
    wait_until("the backlog to arrive", || of.queued() == before + n);
}

fn recv_tag(t: &TcpTransport<TestMsg>) -> u64 {
    t.recv_timeout(LONG).expect("message").1.tag
}

fn assert_nothing_arrives(t: &TcpTransport<TestMsg>) {
    assert_eq!(t.recv_timeout(SHORT).unwrap_err(), NetError::Timeout);
}

#[test]
fn send_with_an_empty_mailbox_is_written_through() {
    let eps = tcp_endpoints(2);
    eps[0].send(1, TestMsg::tagged(1)).unwrap();
    // No further call on the sender.
    assert_eq!(recv_tag(&eps[1]), 1);
}

#[test]
fn corked_send_is_released_by_try_recv_finding_nothing() {
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    force_backlog(a, b, 1);
    a.send(1, TestMsg::tagged(1)).unwrap();
    assert_nothing_arrives(b);
    assert!(a.try_recv().unwrap().is_some(), "the backlog message");
    assert_nothing_arrives(b);
    assert_eq!(a.try_recv().unwrap(), None);
    assert_eq!(recv_tag(b), 1);
}

#[test]
fn corked_send_is_released_before_recv_timeout_blocks() {
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    force_backlog(a, b, 1);
    a.send(1, TestMsg::tagged(1)).unwrap();
    a.recv_timeout(LONG).expect("the backlog message");
    assert_nothing_arrives(b);
    std::thread::scope(|s| {
        // Blocks with nothing deliverable; must flush first.
        s.spawn(|| assert_eq!(a.recv_timeout(LONG).unwrap().1.tag, 2));
        assert_eq!(recv_tag(b), 1);
        b.send(0, TestMsg::tagged(2)).unwrap();
    });
}

#[test]
fn corked_send_is_released_by_flush_close_and_drop() {
    for release in ["flush", "close", "drop"] {
        let mut eps = tcp_endpoints(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        force_backlog(&a, &b, 1);
        a.send(1, TestMsg::tagged(1)).unwrap();
        a.send(1, TestMsg::tagged(2)).unwrap();
        assert_nothing_arrives(&b);
        match release {
            "flush" => Transport::flush(&a),
            "close" => a.close(),
            _ => drop(a),
        }
        assert_eq!(
            (recv_tag(&b), recv_tag(&b)),
            (1, 2),
            "released by {release}"
        );
    }
}

#[test]
fn per_peer_fifo_across_cork_and_write_through_transitions() {
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);

    // Written through. Receiving it first also makes B answer over this
    // connection instead of dialling a second one: order is per stream.
    a.send(1, TestMsg::tagged(0)).unwrap();
    assert_eq!(recv_tag(b), 0);
    force_backlog(a, b, 2);
    a.send(1, TestMsg::tagged(1)).unwrap(); // corked
    a.send(1, TestMsg::tagged(2)).unwrap(); // corked

    // An explicit flush with frames pending: they go out in order.
    Transport::flush(a);
    assert_eq!((recv_tag(b), recv_tag(b)), (1, 2));
    a.send(1, TestMsg::tagged(3)).unwrap(); // corked again: backlog still there
    assert_nothing_arrives(b);
    assert!(a.try_recv().unwrap().is_some());
    assert!(a.try_recv().unwrap().is_some());
    // Mailbox empty, one frame pending: this send carries both out.
    a.send(1, TestMsg::tagged(4)).unwrap();
    a.send(1, TestMsg::tagged(5)).unwrap(); // written through
    assert_eq!((recv_tag(b), recv_tag(b), recv_tag(b)), (3, 4, 5));
}

#[test]
fn pending_bound_flushes_every_dirty_peer() {
    let eps = tcp_endpoints(3);
    let (a, b, c) = (&eps[0], &eps[1], &eps[2]);
    // A never receives: its mailbox stays non-empty for the whole test.
    force_backlog(a, b, 1);

    for i in 0..63u64 {
        a.send(1 + (i % 2) as NodeId, TestMsg::tagged(i)).unwrap();
    }
    assert_nothing_arrives(b);
    assert_nothing_arrives(c);
    a.send(2, TestMsg::tagged(63)).unwrap(); // the 64th frame
    for i in 0..64u64 {
        let to = if i % 2 == 0 { b } else { c };
        assert_eq!(recv_tag(to), i);
    }

    // The byte bound: two 70 KiB frames cross 128 KiB together.
    let big = |tag| TestMsg {
        tag,
        body: vec![tag as u8; 70 << 10],
    };
    a.send(1, big(100)).unwrap();
    assert_nothing_arrives(b);
    a.send(2, big(101)).unwrap();
    assert_eq!(b.recv_timeout(LONG).unwrap().1, big(100));
    assert_eq!(c.recv_timeout(LONG).unwrap().1, big(101));
}

#[test]
fn a_failed_flush_loses_the_frames_and_the_next_send_redials() {
    let peers = peer_map(2);
    let a = try_bind(0, &peers).unwrap();
    let b = try_bind(1, &peers).unwrap();
    force_backlog(&a, &b, 1);
    a.send(1, TestMsg::tagged(1)).unwrap();
    drop(b); // the peer dies with a frame corked for it
    a.flush(); // fire-and-forget: whatever the socket says, no error
    assert!(a.try_recv().unwrap().is_some(), "own backlog untouched");

    // A successor on the same address is reached by a fresh dial once
    // the dead connection has been noticed and dropped.
    let b2 = try_bind(1, &peers).unwrap();
    wait_until("a send to reach the successor", || {
        a.send(1, TestMsg::tagged(2)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        matches!(b2.try_recv(), Ok(Some((0, TestMsg { tag: 2, .. }))))
    });
}

#[test]
fn close_frees_the_port_for_a_rebind() {
    let peers = peer_map(1);
    let first = try_bind(0, &peers).expect("first bind");
    assert!(
        try_bind(0, &peers).is_err(),
        "the port is taken while the listener lives"
    );
    let started = Instant::now();
    first.close();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "close() took {:?}",
        started.elapsed()
    );
    // The listener is closed.
    let second = try_bind(0, &peers).expect("re-bind straight after close()");
    drop(second);
    let third = try_bind(0, &peers).expect("re-bind straight after drop");

    // The re-bound endpoint serves connections.
    let client = TcpTransport::client(1, peers, Arc::new(TestCodec));
    client.send(0, TestMsg::tagged(7)).unwrap();
    assert_eq!(recv_tag(&third), 7);
}
