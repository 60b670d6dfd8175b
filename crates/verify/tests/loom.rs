//! Loom models of the Ring workspace's three trickiest concurrency
//! protocols. Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ring-verify --test loom --release
//! ```
//!
//! Loom models are *models*: each re-states the protocol shape in
//! miniature over `loom::sync` types so the schedule explorer can drive
//! it, rather than linking the production structs (which sit on
//! `parking_lot` and `Instant` and are not loom-instrumentable). The
//! invariant each model checks is cross-referenced from the production
//! source:
//!
//! 1. **Mailbox** (`crates/net/src/mailbox.rs`): the relaxed `count`
//!    mirror never disagrees with the heap length at quiescence, and a
//!    blocked receiver is always woken by a concurrent push or close
//!    (no lost wakeup) — also when a hot receiver polls before it parks
//!    (`Mailbox::recv`, the fabric's receive): its last lock-free look may say
//!    "empty" just before a push, so the park must re-check under the
//!    lock before it waits.
//! 2. **Payload** (`crates/net/src/payload.rs`): one buffer shared by a
//!    retransmit path and a dedup path is readable from both and freed
//!    exactly once.
//! 3. **Commit flag** (`crates/core/src/node/coord.rs`): publishing a
//!    value with a Release store of a flag and observing with an
//!    Acquire load never lets the observer see the flag without the
//!    value — the reason `relaxed-ordering` has no allowlist entry for
//!    any publish/observe pair.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::time::Duration;

/// Miniature of `Mailbox`: FIFO queue under a Mutex, a Condvar for
/// waiters, and a lock-free `count` mirror updated while the lock is
/// held — exactly the production structure minus timestamps.
struct MiniMailbox {
    queue: Mutex<Vec<u32>>,
    cond: Condvar,
    closed: AtomicBool,
    count: AtomicUsize,
}

impl MiniMailbox {
    fn new() -> Self {
        MiniMailbox {
            queue: Mutex::new(Vec::new()),
            cond: Condvar::new(),
            closed: AtomicBool::new(false),
            count: AtomicUsize::new(0),
        }
    }

    fn push(&self, v: u32) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        let mut q = self.queue.lock().unwrap();
        q.push(v);
        self.count.store(q.len(), Ordering::Relaxed);
        drop(q);
        self.cond.notify_one();
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let mut q = self.queue.lock().unwrap();
        q.clear();
        self.count.store(0, Ordering::Relaxed);
        drop(q);
        self.cond.notify_all();
    }

    /// Blocking receive; `None` means closed. The wait is bounded so a
    /// lost-wakeup bug fails the test instead of hanging it.
    fn recv(&self) -> Option<u32> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            if !q.is_empty() {
                let v = q.remove(0);
                self.count.store(q.len(), Ordering::Relaxed);
                return Some(v);
            }
            let (guard, timeout) = self.cond.wait_timeout(q, Duration::from_secs(5)).unwrap();
            q = guard;
            // Every push and close notifies the one waiter, so a wait
            // that runs out was slept through — also when the push it
            // missed is sitting in the queue by now.
            assert!(
                !timeout.timed_out(),
                "lost wakeup: receiver slept {} message(s) and closed={} out",
                q.len(),
                self.closed.load(Ordering::Acquire)
            );
        }
    }
}

/// `NetError::Closed` in miniature.
#[derive(Debug, PartialEq)]
struct Closed;

impl MiniMailbox {
    /// `Mailbox::try_recv`: the head if there is one, without waiting.
    fn try_recv(&self) -> Result<Option<u32>, Closed> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Closed);
        }
        let mut q = self.queue.lock().unwrap();
        if q.is_empty() {
            return Ok(None);
        }
        let v = q.remove(0);
        self.count.store(q.len(), Ordering::Relaxed);
        Ok(Some(v))
    }

    /// `Mailbox::recv` on a hot mailbox: up to `looks` looks at the
    /// lock-free `count` mirror and `closed` flag — the lock is taken
    /// only when they say there is something to take — yielding between
    /// looks, then the unchanged park. `looks` stands in for the time
    /// budget, which loom cannot express.
    fn recv_hot(&self, looks: usize) -> Option<u32> {
        for _ in 0..looks {
            if self.count.load(Ordering::Relaxed) > 0 || self.closed.load(Ordering::Acquire) {
                match self.try_recv() {
                    Ok(Some(v)) => return Some(v),
                    Ok(None) => {}
                    Err(Closed) => return None,
                }
            }
            thread::yield_now();
        }
        self.recv()
    }
}

/// Poll-then-park model: the consumer is a hot receiver. Every
/// interleaving of its looks with the producers' pushes must end with
/// all three messages received — in particular the one where the last
/// look reads a stale or just-too-early `count == 0`, the producer then
/// pushes and notifies nobody (the consumer is not waiting yet), and the
/// consumer goes to park: `recv` re-checks the queue under the lock
/// before it waits, so the message is taken there instead of slept on.
#[test]
fn mailbox_poll_then_park_loses_no_wakeup() {
    loom::model(|| {
        let mb = Arc::new(MiniMailbox::new());

        let pair = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                mb.push(1);
                mb.push(2);
            })
        };
        let single = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || mb.push(10))
        };
        let consumer = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                (0..3)
                    .map(|_| mb.recv_hot(2).expect("closed before all messages drained"))
                    .collect::<Vec<_>>()
            })
        };

        pair.join().unwrap();
        single.join().unwrap();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 10], "a push was lost");

        let q = mb.queue.lock().unwrap();
        assert_eq!(q.len(), 0);
        assert_eq!(mb.count.load(Ordering::Relaxed), 0, "count mirror diverged");
    });
}

/// Poll-then-park model: `close` (production: `Fabric::kill`) racing a
/// hot receiver ends the receive with "closed" whether it lands before
/// the poll, between two looks, or after the receiver has parked.
#[test]
fn mailbox_close_ends_a_polling_receiver() {
    loom::model(|| {
        let mb = Arc::new(MiniMailbox::new());
        let rx = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || mb.recv_hot(2))
        };
        let closer = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || mb.close())
        };
        closer.join().unwrap();
        assert_eq!(rx.join().unwrap(), None);
    });
}

/// Mailbox model: two producers and one consumer; the consumer drains
/// everything, and at quiescence the `count` mirror equals the real
/// queue length (zero). A push never vanishes and a waiter is never
/// left asleep.
#[test]
fn mailbox_len_mirror_and_no_lost_wakeup() {
    loom::model(|| {
        let mb = Arc::new(MiniMailbox::new());

        let producers: Vec<_> = (0..2u32)
            .map(|p| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    mb.push(p * 10);
                    mb.push(p * 10 + 1);
                })
            })
            .collect();

        let consumer = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..4 {
                    got.push(mb.recv().expect("closed before all messages drained"));
                }
                got
            })
        };

        for p in producers {
            p.join().unwrap();
        }
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 10, 11], "a push was lost");

        // Quiescent: the lock-free mirror must agree with the queue.
        let q = mb.queue.lock().unwrap();
        assert_eq!(q.len(), 0);
        assert_eq!(mb.count.load(Ordering::Relaxed), 0, "count mirror diverged");
    });
}

/// Mailbox model: `close` must wake a blocked receiver (production:
/// `close` stores `closed` with Release, clears, `notify_all`). A
/// receiver blocked forever after close is the exact bug shape that
/// turns `Fabric::kill` into a hung cluster.
#[test]
fn mailbox_close_wakes_blocked_receiver() {
    loom::model(|| {
        let mb = Arc::new(MiniMailbox::new());
        let rx = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || mb.recv())
        };
        let closer = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || mb.close())
        };
        closer.join().unwrap();
        // Must terminate: either it won the race and got nothing, or it
        // can only have returned None — never a hang, never a value.
        assert_eq!(rx.join().unwrap(), None);
    });
}

/// Counts drops of the inner buffer, standing in for `Vec<u8>`'s heap
/// allocation inside `Payload(Arc<Vec<u8>>)`.
struct CountedBuf {
    bytes: Vec<u8>,
    drops: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl Drop for CountedBuf {
    fn drop(&mut self) {
        self.drops.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Payload model: one buffer cloned into a retransmit path and a dedup
/// path concurrently (production: `Payload::clone` on the write
/// fan-out, `PendingPut` retransmit, and the dedup table all hold the
/// same `Arc<Vec<u8>>`). Both observers read identical bytes; the
/// buffer is freed exactly once after the last clone drops.
#[test]
fn payload_shared_across_retransmit_and_dedup() {
    loom::model(|| {
        let drops = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let payload = Arc::new(CountedBuf {
            bytes: vec![0xAB; 64],
            drops: std::sync::Arc::clone(&drops),
        });

        let retransmit = {
            let p = Arc::clone(&payload);
            thread::spawn(move || {
                assert!(p.bytes.iter().all(|&b| b == 0xAB));
                p.bytes.len()
            })
        };
        let dedup = {
            let p = Arc::clone(&payload);
            thread::spawn(move || {
                assert!(p.bytes.iter().all(|&b| b == 0xAB));
                p.bytes.len()
            })
        };
        drop(payload);
        assert_eq!(retransmit.join().unwrap(), 64);
        assert_eq!(dedup.join().unwrap(), 64);
        assert_eq!(
            drops.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "payload buffer dropped {} times",
            drops.load(std::sync::atomic::Ordering::SeqCst)
        );
    });
}

/// Commit-flag model: the coordinator publishes a committed version by
/// writing the value slot and then Release-storing the flag; any
/// observer that Acquire-loads the flag as set must see the value
/// write. This is the publish/observe pair the `relaxed-ordering` lint
/// exists to protect — weaken the Release/Acquire pair to Relaxed and
/// loom (the real one) reports the assertion firing.
#[test]
fn commit_flag_release_acquire_publishes_value() {
    loom::model(|| {
        let slot = Arc::new(AtomicU64::new(0));
        let committed = Arc::new(AtomicBool::new(false));

        let writer = {
            let slot = Arc::clone(&slot);
            let committed = Arc::clone(&committed);
            thread::spawn(move || {
                slot.store(0xC0FFEE, Ordering::Relaxed);
                committed.store(true, Ordering::Release);
            })
        };

        let reader = {
            let slot = Arc::clone(&slot);
            let committed = Arc::clone(&committed);
            thread::spawn(move || {
                if committed.load(Ordering::Acquire) {
                    assert_eq!(
                        slot.load(Ordering::Relaxed),
                        0xC0FFEE,
                        "observed commit flag without the committed value"
                    );
                }
            })
        };

        writer.join().unwrap();
        reader.join().unwrap();
    });
}
