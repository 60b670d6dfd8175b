//! The TCP backend has one thread, its owner's: sockets are read and
//! written only inside the owner's own calls. These pin the two places
//! where that could go wrong — which stream a peer's frames go out on
//! after both ends have dialled, and two owners whose sockets are full
//! in both directions at once.

mod common;

use std::time::{Duration, Instant};

use common::{tcp_endpoints, TestMsg};
use ring_net::{NodeId, TcpTransport, Transport};

const LONG: Duration = Duration::from_secs(5);

fn recv_from(t: &TcpTransport<TestMsg>) -> (NodeId, TestMsg) {
    t.recv_timeout(LONG).expect("message")
}

#[test]
fn a_double_dial_keeps_each_peers_messages_in_order() {
    const N: u64 = 500;
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    a.send(1, TestMsg::tagged(0)).unwrap(); // A dials B
    b.send(0, TestMsg::tagged(0)).unwrap(); // B, not having read, dials A
                                            // A takes B's dial and its Hello. A already writes to B on its own
                                            // dial and must keep doing so: were B's dial to replace it, A's next
                                            // frames would reach B on a stream B reads before the one that
                                            // carries A's tag 0.
    assert_eq!(recv_from(a), (1, TestMsg::tagged(0)));
    for tag in 1..=N {
        a.send(1, TestMsg::tagged(tag)).unwrap();
        b.send(0, TestMsg::tagged(tag)).unwrap();
    }
    // Nothing is corked here today (neither side has read input
    // waiting), but the FIFO claim must not lean on that.
    Transport::flush(a);
    Transport::flush(b);
    let b_saw: Vec<_> = (0..=N).map(|_| recv_from(b)).collect();
    let a_saw: Vec<_> = (1..=N).map(|_| recv_from(a)).collect();
    let tags = |from: NodeId, range: std::ops::RangeInclusive<u64>| {
        range
            .map(|t| (from, TestMsg::tagged(t)))
            .collect::<Vec<_>>()
    };
    assert_eq!(b_saw, tags(0, 0..=N), "B sees A's tags in send order");
    assert_eq!(a_saw, tags(1, 1..=N), "A sees B's tags in send order");
}

#[test]
fn full_sockets_both_ways_never_deadlock_the_single_owner() {
    const SMALL: u64 = 1_000;
    let eps = tcp_endpoints(2);
    let big = TestMsg {
        tag: u64::MAX,
        body: (0..16usize << 20).map(|i| (i % 251) as u8).collect(),
    };
    let started = Instant::now();
    std::thread::scope(|s| {
        for (me, peer) in [(0, 1), (1, 0)] {
            let (ep, big) = (&eps[me as usize], &big);
            s.spawn(move || {
                // Neither side receives before it has sent everything:
                // each send or flush that finds its socket full must keep
                // reading the other side's bytes while it waits. The
                // flush releases what was corked behind received input.
                ep.send(peer, big.clone()).unwrap();
                for tag in 0..SMALL {
                    ep.send(peer, TestMsg::tagged(tag)).unwrap();
                }
                ep.flush();
                let (from, got) = recv_from(ep);
                assert_eq!(from, peer);
                assert!(got == *big, "the 16 MiB message arrives intact");
                for tag in 0..SMALL {
                    assert_eq!(recv_from(ep), (peer, TestMsg::tagged(tag)));
                }
            });
        }
    });
    assert!(started.elapsed() < LONG, "took {:?}", started.elapsed());
}
