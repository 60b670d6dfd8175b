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
//!
//! A push is a queue push, not a syscall: `Condvar::notify_one` enters
//! the kernel (`FUTEX_WAKE`) even when nobody waits, and a loaded
//! receiver is almost always polling, not parked. So the receiver counts
//! itself as a sleeper, under the heap lock, around each condvar wait,
//! and a push notifies only when that count is non-zero. No wake-up is
//! lost: the receiver checks the heap and registers as a sleeper in one
//! critical section, before the wait releases the lock (loom:
//! `mailbox_push_to_a_parked_receiver_wakes_it`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
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

/// What the heap lock guards.
struct Queue<M> {
    heap: BinaryHeap<Packet<M>>,
    /// Tiebreaker for packets due at the same instant: push order.
    seq: u64,
    /// Receivers inside a condvar wait; a push notifies only if this is
    /// non-zero.
    sleepers: usize,
}

pub(crate) struct Mailbox<M> {
    queue: Mutex<Queue<M>>,
    cond: Condvar,
    closed: AtomicBool,
    // Mirror of heap.len(), kept so stats paths (`len`) never contend on
    // the heap lock. Updated while holding the lock, read lock-free; the
    // value is advisory and may lag a concurrent push/pop by one.
    count: AtomicUsize,
    // Whether the previous `recv` returned a message; only then does the
    // next one poll before parking. A scheduling hint read and written
    // by the receiving thread: it publishes nothing.
    hot: AtomicBool,
    /// `notify_one` calls made by pushes.
    #[cfg(test)]
    notifies: AtomicUsize,
}

impl<M> Mailbox<M> {
    pub(crate) fn new() -> Arc<Mailbox<M>> {
        Arc::new(Mailbox {
            queue: Mutex::new(Queue {
                heap: BinaryHeap::new(),
                seq: 0,
                sleepers: 0,
            }),
            cond: Condvar::new(),
            closed: AtomicBool::new(false),
            count: AtomicUsize::new(0),
            hot: AtomicBool::new(false),
            #[cfg(test)]
            notifies: AtomicUsize::new(0),
        })
    }

    /// Queues `msg`, due at `deliver_at`, and wakes the receiver only if
    /// it is parked. `closed` is read under the lock, so a push racing
    /// [`Mailbox::close`] either lands before the clear or vanishes.
    pub(crate) fn push(&self, from: NodeId, msg: M, deliver_at: Instant) {
        let mut q = self.queue.lock();
        if self.closed.load(AtomicOrdering::Acquire) {
            return; // Messages to a dead node vanish.
        }
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(Packet {
            deliver_at,
            seq,
            from,
            msg,
        });
        self.count.store(q.heap.len(), AtomicOrdering::Relaxed);
        let parked = q.sleepers > 0;
        drop(q);
        if parked {
            #[cfg(test)]
            self.notifies.fetch_add(1, AtomicOrdering::SeqCst);
            self.cond.notify_one();
        }
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, AtomicOrdering::Release);
        self.queue.lock().heap.clear();
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

    /// The condvar wait behind [`Mailbox::recv`]: until the head is due
    /// if there is one, and otherwise until the next push, `deadline` or
    /// `close`.
    fn park(&self, deadline: Option<Instant>) -> Result<(NodeId, M), NetError> {
        let mut q = self.queue.lock();
        loop {
            if self.closed.load(AtomicOrdering::Acquire) {
                return Err(NetError::Closed);
            }
            let due = q.heap.peek().map(|head| head.deliver_at);
            if due.is_some_and(|due| due <= crate::clock::now()) {
                return Ok(self.pop(&mut q));
            }
            let until = match (due, deadline) {
                (Some(due), Some(d)) => Some(due.min(d)),
                (due, d) => due.or(d),
            };
            // Counted as a sleeper in the same critical section that saw
            // nothing due, so a push after the look notifies.
            q.sleepers += 1;
            let timed_out = match until {
                Some(t) => self.cond.wait_until(&mut q, t).timed_out(),
                None => {
                    self.cond.wait(&mut q);
                    false
                }
            };
            q.sleepers -= 1;
            if timed_out
                && until == deadline
                && q.heap
                    .peek()
                    .is_none_or(|head| head.deliver_at > crate::clock::now())
            {
                return Err(NetError::Timeout);
            }
        }
    }

    /// Takes the head, which the caller has seen is due.
    fn pop(&self, q: &mut Queue<M>) -> (NodeId, M) {
        let p = q.heap.pop().expect("caller saw a head");
        self.count.store(q.heap.len(), AtomicOrdering::Relaxed);
        (p.from, p.msg)
    }

    /// Non-blocking receive: returns a due packet if one exists.
    pub(crate) fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        if self.closed.load(AtomicOrdering::Acquire) {
            return Err(NetError::Closed);
        }
        let mut q = self.queue.lock();
        let due = q.heap.peek().map(|head| head.deliver_at);
        Ok(due
            .is_some_and(|due| due <= crate::clock::now())
            .then(|| self.pop(&mut q)))
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
impl<M> Mailbox<M> {
    /// How many pushes have called `notify_one`.
    pub(crate) fn notifies(&self) -> usize {
        self.notifies.load(AtomicOrdering::SeqCst)
    }

    /// Whether a receiver is inside a condvar wait.
    pub(crate) fn has_sleeper(&self) -> bool {
        self.queue.lock().sleepers > 0
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

    #[test]
    fn pushes_without_a_parked_receiver_make_no_wake_up_call() {
        let mb = Mailbox::new();
        for i in 0..10u32 {
            mb.push(1, i, Instant::now());
        }
        assert_eq!(mb.try_recv().unwrap(), Some((1, 0)));
        assert_eq!(mb.notifies(), 0);
    }

    #[test]
    fn a_timed_out_park_leaves_no_sleeper_behind() {
        let mb: Arc<Mailbox<u8>> = Mailbox::new();
        mb.push(1, 0, Instant::now() + Duration::from_secs(60));
        assert_eq!(
            mb.recv(Some(Duration::from_millis(5))).unwrap_err(),
            NetError::Timeout
        );
        assert_eq!(
            mb.recv(Some(Duration::from_millis(5))).unwrap_err(),
            NetError::Timeout
        );
        assert!(!mb.has_sleeper());
        mb.push(1, 1, Instant::now());
        assert_eq!(mb.notifies(), 0);
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
