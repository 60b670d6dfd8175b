//! The TCP backend's receive path: `recv_timeout` enters the same
//! `Mailbox::recv` as the fabric — a hot receiver polls before it parks
//! — after releasing its corked frames. The poll itself (looks, `Closed`
//! during a look, nothing before `deliver_at`) is unit-tested on the
//! mailbox; these drive it through real sockets and reader threads.

mod common;

use std::sync::Barrier;
use std::time::{Duration, Instant};

use common::{tcp_endpoints, wait_until, TestMsg};
use ring_net::{NetError, TcpTransport, Transport};

const LONG: Duration = Duration::from_secs(5);
/// No longer than the mailbox's poll budget (`SPIN_THRESHOLD`, 100 µs):
/// a hot receive with this timeout has no time left to park in, so a
/// message it returns was found by a look, not by a wake-up.
const WITHIN_POLL: Duration = Duration::from_micros(100);

/// Sends `to` one message from `from` and receives it, leaving `to` hot.
fn warm(to: &TcpTransport<TestMsg>, from: &TcpTransport<TestMsg>) {
    from.send(to.id(), TestMsg::tagged(u64::MAX)).unwrap();
    to.recv_timeout(LONG).expect("warm-up message");
    assert!(to.is_hot());
}

#[test]
fn a_hot_transport_finds_a_cross_thread_message_by_polling() {
    const ROUNDS: u64 = 50;
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    warm(b, a);
    let go = Barrier::new(2);
    let mut polled = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            for tag in 0..ROUNDS {
                go.wait();
                a.send(1, TestMsg::tagged(tag)).unwrap();
            }
        });
        for tag in 0..ROUNDS {
            assert!(b.is_hot(), "the previous round returned a message");
            go.wait();
            match b.recv_timeout(WITHIN_POLL) {
                Ok((_, m)) => {
                    assert_eq!(m.tag, tag);
                    polled += 1;
                }
                // Slower than the budget this time: the miss leaves the
                // receiver cold, and the late message re-warms it.
                Err(e) => {
                    assert_eq!(e, NetError::Timeout);
                    assert!(!b.is_hot());
                    assert_eq!(b.recv_timeout(LONG).expect("late message").1.tag, tag);
                }
            }
        }
    });
    assert!(
        polled > 0,
        "no message in {ROUNDS} rounds was found by a look"
    );
    let stats = b.stats().snapshot();
    assert_eq!(stats.msgs_received, ROUNDS + 1, "looks are not receives");
}

#[test]
fn ping_pong_with_a_backlog_never_stalls() {
    // Each round A sends a burst and waits; B answers only its first
    // message, corked behind the rest of the burst, drains the burst and
    // has nothing left to send. Only the release at the start of B's
    // next receive — before it polls, let alone parks — gets the answer
    // out. Without it A waits on a frame held in B's cork while B waits
    // on A.
    const ROUNDS: u64 = 100;
    const BURST: u64 = 4;
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                let (from, first) = b.recv_timeout(LONG).expect("ping");
                assert_eq!(first.tag, round * BURST);
                wait_until("the rest of the burst", || b.queued() == BURST as usize - 1);
                b.send(from, first).unwrap(); // corked
                for i in 1..BURST {
                    assert_eq!(b.recv_timeout(LONG).expect("ping").1.tag, round * BURST + i);
                }
            }
            b.recv_timeout(LONG).expect("the last round's release");
        });
        for round in 0..ROUNDS {
            for i in 0..BURST {
                a.send(1, TestMsg::tagged(round * BURST + i)).unwrap();
            }
            let (_, pong) = a.recv_timeout(LONG).expect("the corked answer");
            assert_eq!(pong.tag, round * BURST);
        }
        a.send(1, TestMsg::tagged(u64::MAX)).unwrap();
    });
    assert_eq!(a.stats().snapshot().msgs_received, ROUNDS);
    assert_eq!(b.stats().snapshot().msgs_received, ROUNDS * BURST + 1);
}

#[test]
fn timeout_on_a_hot_transport_is_full_length_and_leaves_it_cold() {
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    warm(b, a);
    let start = Instant::now();
    let r = b.recv_timeout(Duration::from_millis(10));
    assert_eq!(r.unwrap_err(), NetError::Timeout);
    assert!(start.elapsed() >= Duration::from_millis(10));
    // Cold: the next receive parks at once instead of polling.
    assert!(!b.is_hot());
    a.send(1, TestMsg::tagged(9)).unwrap();
    assert_eq!(b.recv_timeout(LONG).unwrap().1.tag, 9);
    assert!(b.is_hot());
}

#[test]
fn close_during_the_poll_returns_closed() {
    let eps = tcp_endpoints(2);
    let (a, b) = (&eps[0], &eps[1]);
    warm(b, a);
    let go = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            go.wait();
            b.close();
        });
        go.wait();
        assert_eq!(b.recv_timeout(LONG).unwrap_err(), NetError::Closed);
    });
    assert!(!b.is_hot());
    assert_eq!(b.recv_timeout(LONG).unwrap_err(), NetError::Closed);
}
