//! A timestamp-ordered mailbox: packets become visible at `deliver_at`.
//!
//! A `Mutex<BinaryHeap>` keyed on `(deliver_at, seq)` keeps deliveries
//! in simulated-arrival order even when messages with different injected
//! latencies interleave; a condvar parks the one receiver.
//!
//! [`Mailbox::recv`] is the fabric `Endpoint`'s receive path
//! (`TcpTransport` applies the same rule to its own sockets). An RDMA
//! node polls its completion queue; a receiver parked on the condvar
//! pays a futex wake of a halted vCPU for the next message — ten times
//! the fabric's injected 2.5 µs. So a *hot* mailbox (its previous
//! `recv` returned a message) first polls for at most [`SPIN_THRESHOLD`],
//! yielding between looks, and only then parks. The yield is
//! load-bearing (a cluster is more threads than the host has cores; a
//! pure spin starves the sender it waits for), and so is the hot rule: a
//! receive that times out makes the next one park at once, so idle nodes
//! and housekeeping loops cost what a plain condvar wait costs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::latency::SPIN_THRESHOLD;
use crate::{NetError, NodeId};

struct Packet<M> {
    deliver_at: Instant,
    seq: u64,
    from: NodeId,
    msg: M,
}

impl<M> PartialEq for Packet<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Packet<M> {}
impl<M> PartialOrd for Packet<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Packet<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

pub(crate) struct Mailbox<M> {
    heap: Mutex<BinaryHeap<Packet<M>>>,
    cond: Condvar,
    seq: AtomicU64,
    closed: AtomicBool,
    // Mirror of heap.len(), kept so stats paths (`len`) never contend on
    // the heap lock. Updated while holding the lock, read lock-free; the
    // value is advisory and may lag a concurrent push/pop by one.
    count: AtomicUsize,
    // Whether the previous `recv` returned a message; only then does the
    // next one poll before parking. A scheduling hint read and written
    // by the receiving thread: it publishes nothing.
    hot: AtomicBool,
}

impl<M> Mailbox<M> {
    pub(crate) fn new() -> Arc<Mailbox<M>> {
        Arc::new(Mailbox {
            heap: Mutex::new(BinaryHeap::new()),
            cond: Condvar::new(),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            count: AtomicUsize::new(0),
            hot: AtomicBool::new(false),
        })
    }

    pub(crate) fn push(&self, from: NodeId, msg: M, deliver_at: Instant) {
        if self.closed.load(AtomicOrdering::Acquire) {
            return; // Messages to a dead node vanish.
        }
        let seq = self.seq.fetch_add(1, AtomicOrdering::Relaxed);
        let mut heap = self.heap.lock();
        heap.push(Packet {
            deliver_at,
            seq,
            from,
            msg,
        });
        self.count.store(heap.len(), AtomicOrdering::Relaxed);
        drop(heap);
        self.cond.notify_one();
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, AtomicOrdering::Release);
        self.heap.lock().clear();
        self.count.store(0, AtomicOrdering::Relaxed);
        self.cond.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(AtomicOrdering::Acquire)
    }

    /// Blocking receive with an optional timeout: the poll if this
    /// mailbox is hot, then the condvar park until the deadline.
    pub(crate) fn recv(&self, timeout: Option<Duration>) -> Result<(NodeId, M), NetError> {
        let now = crate::clock::now();
        let deadline = timeout.map(|t| now + t);
        let mut polled = Ok(None);
        if self.is_hot() {
            let budget_end = now + SPIN_THRESHOLD;
            polled = self.poll(deadline.map_or(budget_end, |d| d.min(budget_end)));
        }
        let r = polled.and_then(|found| found.map_or_else(|| self.park(deadline), Ok));
        self.hot.store(r.is_ok(), AtomicOrdering::Relaxed);
        r
    }

    /// Whether the next [`Mailbox::recv`] polls before it parks.
    pub(crate) fn is_hot(&self) -> bool {
        self.hot.load(AtomicOrdering::Relaxed)
    }

    /// Looks until a message is due, the mailbox is closed or `until`
    /// passes, yielding between looks; a head not yet due is waited for
    /// here, never by a timed park. "Empty" is read from the lock-free
    /// mirror, so senders do not contend with the poll; the park that
    /// follows re-checks under the lock (loom:
    /// `mailbox_poll_then_park_loses_no_wakeup`).
    fn poll(&self, until: Instant) -> Result<Option<(NodeId, M)>, NetError> {
        loop {
            if self.len() > 0 || self.is_closed() {
                if let Some(m) = self.try_recv()? {
                    return Ok(Some(m));
                }
            }
            if crate::clock::now() >= until {
                return Ok(None);
            }
            std::thread::yield_now();
        }
    }

    /// The condvar wait behind [`Mailbox::recv`]: a timed
    /// `wait_until(due)` behind a head not due yet, otherwise until the
    /// next push, `deadline` or `close`.
    fn park(&self, deadline: Option<Instant>) -> Result<(NodeId, M), NetError> {
        let mut heap = self.heap.lock();
        loop {
            if self.closed.load(AtomicOrdering::Acquire) {
                return Err(NetError::Closed);
            }
            let now = crate::clock::now();
            if let Some(head) = heap.peek() {
                if head.deliver_at <= now {
                    let p = heap.pop().expect("peeked");
                    self.count.store(heap.len(), AtomicOrdering::Relaxed);
                    return Ok((p.from, p.msg));
                }
                // Head not due yet; wait until it is (or new mail).
                let due = head.deliver_at;
                let wait_until = match deadline {
                    Some(d) if d < due => d,
                    _ => due,
                };
                if self.cond.wait_until(&mut heap, wait_until).timed_out()
                    && Some(wait_until) == deadline
                    && heap
                        .peek()
                        .map(|h| h.deliver_at > crate::clock::now())
                        .unwrap_or(true)
                {
                    return Err(NetError::Timeout);
                }
            } else {
                match deadline {
                    Some(d) => {
                        if self.cond.wait_until(&mut heap, d).timed_out() && heap.is_empty() {
                            return Err(NetError::Timeout);
                        }
                    }
                    None => {
                        self.cond.wait(&mut heap);
                    }
                }
            }
        }
    }

    /// Non-blocking receive: returns a due packet if one exists.
    pub(crate) fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        if self.closed.load(AtomicOrdering::Acquire) {
            return Err(NetError::Closed);
        }
        let mut heap = self.heap.lock();
        if let Some(head) = heap.peek() {
            if head.deliver_at <= crate::clock::now() {
                let p = heap.pop().expect("peeked");
                self.count.store(heap.len(), AtomicOrdering::Relaxed);
                return Ok(Some((p.from, p.msg)));
            }
        }
        Ok(None)
    }

    /// Number of queued (not necessarily due) packets.
    ///
    /// Lock-free: reads a relaxed mirror of the heap size so stats paths
    /// never contend with senders/receivers for the heap lock.
    pub(crate) fn len(&self) -> usize {
        self.count.load(AtomicOrdering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_timestamp_order() {
        let mb = Mailbox::new();
        let now = Instant::now();
        mb.push(1, "late", now + Duration::from_millis(5));
        mb.push(2, "early", now);
        let (from, msg) = mb.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!((from, msg), (2, "early"));
        let (from, msg) = mb.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!((from, msg), (1, "late"));
    }

    #[test]
    fn ties_break_by_arrival_sequence() {
        let mb = Mailbox::new();
        let at = Instant::now();
        mb.push(1, 10u32, at);
        mb.push(1, 20u32, at);
        mb.push(1, 30u32, at);
        assert_eq!(mb.recv(None).unwrap().1, 10);
        assert_eq!(mb.recv(None).unwrap().1, 20);
        assert_eq!(mb.recv(None).unwrap().1, 30);
    }

    #[test]
    fn timeout_on_empty() {
        let mb: Arc<Mailbox<()>> = Mailbox::new();
        let start = Instant::now();
        let r = mb.recv(Some(Duration::from_millis(10)));
        assert_eq!(r.unwrap_err(), NetError::Timeout);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn timeout_respects_undue_head() {
        let mb = Mailbox::new();
        mb.push(1, (), Instant::now() + Duration::from_secs(60));
        let r = mb.recv(Some(Duration::from_millis(10)));
        assert_eq!(r.unwrap_err(), NetError::Timeout);
    }

    #[test]
    fn try_recv_sees_only_due_packets() {
        let mb = Mailbox::new();
        mb.push(1, "future", Instant::now() + Duration::from_secs(60));
        assert_eq!(mb.try_recv().unwrap(), None);
        mb.push(2, "now", Instant::now());
        assert_eq!(mb.try_recv().unwrap(), Some((2, "now")));
    }

    #[test]
    fn close_wakes_waiters_and_drops_mail() {
        let mb = Mailbox::new();
        mb.push(1, 1u8, Instant::now());
        mb.close();
        assert!(mb.is_closed());
        assert_eq!(mb.recv(None).unwrap_err(), NetError::Closed);
        // Pushes after close vanish.
        mb.push(1, 2u8, Instant::now());
        assert_eq!(mb.len(), 0);
    }

    /// A mailbox whose previous receive returned a message, i.e. is hot.
    fn hot_mailbox() -> Arc<Mailbox<u32>> {
        let mb = Mailbox::new();
        assert!(!mb.is_hot(), "a fresh mailbox is cold");
        mb.push(0, 0, Instant::now());
        mb.recv(Some(Duration::from_secs(5))).unwrap();
        assert!(mb.is_hot());
        mb
    }

    #[test]
    fn poll_phase_sees_a_push_from_another_thread() {
        let mb = hot_mailbox();
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                go.wait();
                mb.push(1, 7, Instant::now());
            });
            go.wait();
            // The poll alone, with a horizon the test never reaches: it
            // cannot park, so the message is found by a look.
            let got = mb.poll(Instant::now() + Duration::from_secs(60)).unwrap();
            assert_eq!(got, Some((1, 7)));
        });
    }

    #[test]
    fn polled_message_is_not_returned_before_deliver_at() {
        let mb = hot_mailbox();
        let delay = crate::LatencyModel::rdma().delay(1024);
        for i in 0..100 {
            let sent = Instant::now();
            mb.push(1, i, sent + delay);
            assert_eq!(mb.recv(None).unwrap(), (1, i));
            assert!(sent.elapsed() >= delay);
        }
    }

    #[test]
    fn close_during_the_poll_phase_returns_closed() {
        let mb = hot_mailbox();
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                go.wait();
                mb.close();
            });
            go.wait();
            let r = mb.poll(Instant::now() + Duration::from_secs(60));
            assert_eq!(r.unwrap_err(), NetError::Closed);
        });
        assert_eq!(mb.recv(None).unwrap_err(), NetError::Closed);
        assert!(!mb.is_hot());
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = Mailbox::new();
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            mb2.push(7, 99u64, Instant::now());
        });
        let (from, msg) = mb.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!((from, msg), (7, 99));
        t.join().unwrap();
    }
}
