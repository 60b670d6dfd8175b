//! A node's handle to the fabric.
//!
//! Receiving is the mailbox's: `recv` / `recv_timeout` call
//! `Mailbox::recv` — the one receive path both backends share, which
//! polls while hot and then parks (see `mailbox.rs`) — and count the
//! message it returns.
//!
//! Sending reads the endpoint's own `Routes`, a copy of the fabric's
//! node, link and injector tables rebuilt only when the fabric's
//! generation moves, so a send touches no lock another thread writes
//! except the receiver's heap lock.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::fabric::{FabricInner, NodeSlot};
use crate::fault::{FaultAction, FaultInjector};
use crate::{NetError, NetStats, NodeId, Transport, WireSize};

/// A registered node's endpoint: two-sided messaging.
pub struct Endpoint<M> {
    id: NodeId,
    slot: Arc<NodeSlot<M>>,
    fabric: Arc<FabricInner<M>>,
    /// Locked only by this endpoint's own sends.
    routes: Mutex<Routes<M>>,
}

/// What a send needs from the fabric, as of one fabric generation.
struct Routes<M> {
    generation: u64,
    /// Every registered peer by id, `None` where the link to it is cut.
    /// A peer not listed is dead or was never registered.
    peers: Vec<(NodeId, Option<Arc<NodeSlot<M>>>)>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl<M> Routes<M> {
    /// Copies the fabric's tables. The current generation is loaded
    /// before the tables are read, so a change racing the copy leaves
    /// the copy stale and the next send rebuilds it.
    fn build(id: NodeId, fabric: &FabricInner<M>) -> Routes<M> {
        let generation = fabric.generation.load(Ordering::Acquire);
        let peers = fabric
            .nodes
            .read()
            .iter()
            .map(|(&peer, slot)| (peer, fabric.link_up(id, peer).then(|| Arc::clone(slot))))
            .collect();
        Routes {
            generation,
            peers,
            injector: fabric.injector.read().clone(),
        }
    }

    /// The live slot `to` is reached through, if the link is up.
    fn route(&self, to: NodeId) -> Option<&NodeSlot<M>> {
        let i = self
            .peers
            .binary_search_by_key(&to, |&(peer, _)| peer)
            .ok()?;
        self.peers[i].1.as_deref()
    }
}

impl<M> std::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl<M: Send + WireSize> Endpoint<M> {
    pub(crate) fn new(
        id: NodeId,
        slot: Arc<NodeSlot<M>>,
        fabric: Arc<FabricInner<M>>,
    ) -> Endpoint<M> {
        let routes = Mutex::new(Routes::build(id, &fabric));
        Endpoint {
            id,
            slot,
            fabric,
            routes,
        }
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This endpoint's traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.slot.stats
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the endpoint is killed while
    /// waiting.
    pub fn recv(&self) -> Result<(NodeId, M), NetError> {
        self.receive(None)
    }

    /// Blocks until a message arrives or the timeout elapses.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on expiry, [`NetError::Closed`] if killed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), NetError> {
        self.receive(Some(timeout))
    }

    /// The blocking receive behind [`Endpoint::recv`] and
    /// [`Endpoint::recv_timeout`]. Only a returned message counts as a
    /// receive; the mailbox's looks do not.
    fn receive(&self, timeout: Option<Duration>) -> Result<(NodeId, M), NetError> {
        let r = self.slot.mailbox.recv(timeout);
        if let Ok((_, msg)) = &r {
            self.slot.stats.record_recv(msg.wire_size());
        }
        r
    }

    /// Returns a due message if one is queued, without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the endpoint was killed.
    pub fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        let r = self.slot.mailbox.try_recv();
        if let Ok(Some((_, msg))) = &r {
            self.slot.stats.record_recv(msg.wire_size());
        }
        r
    }

    /// Number of queued (possibly not yet due) messages.
    pub fn queued(&self) -> usize {
        self.slot.mailbox.len()
    }
}

impl<M: Send + WireSize + Clone> Endpoint<M> {
    /// Posts a message to `to`. Fire-and-forget: like a real network,
    /// delivery to a dead node silently fails and the sender must use
    /// timeouts. Sending over a cut link also drops the message. An
    /// installed [`crate::FaultInjector`] may additionally drop, delay,
    /// or duplicate the message (duplication is why `M: Clone`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] only if the target was *never*
    /// registered (a configuration error rather than a runtime failure),
    /// and [`NetError::Closed`] if this endpoint itself was killed.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        if self.slot.mailbox.is_closed() {
            return Err(NetError::Closed);
        }
        let bytes = msg.wire_size();
        self.slot.stats.record_send(bytes);
        let mut routes = self.routes.lock();
        if routes.generation != self.fabric.generation.load(Ordering::Acquire) {
            *routes = Routes::build(self.id, &self.fabric);
        }
        let Some(slot) = routes.route(to) else {
            return Ok(()); // Dead node or cut link: dropped on the floor.
        };
        let action = match &routes.injector {
            Some(injector) => injector.on_message(self.id, to, bytes),
            None => FaultAction::Deliver,
        };
        let wire = self.fabric.latency.delay(bytes);
        let now = crate::clock::now();
        match action {
            FaultAction::Deliver => slot.mailbox.push(self.id, msg, now + wire),
            FaultAction::Drop => {}
            FaultAction::Delay(extra) => slot.mailbox.push(self.id, msg, now + wire + extra),
            FaultAction::Duplicate(extra) => {
                slot.mailbox.push(self.id, msg.clone(), now + wire);
                slot.mailbox.push(self.id, msg, now + wire + extra);
            }
        }
        Ok(())
    }
}

impl<M: Send + WireSize + Clone> Transport<M> for Endpoint<M> {
    fn id(&self) -> NodeId {
        Endpoint::id(self)
    }

    fn stats(&self) -> &NetStats {
        Endpoint::stats(self)
    }

    fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        Endpoint::send(self, to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), NetError> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        Endpoint::try_recv(self)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::{Fabric, LatencyModel};

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(Vec<u8>);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    fn pair() -> (Fabric<Msg>, Endpoint<Msg>, Endpoint<Msg>) {
        let f = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        (f, a, b)
    }

    #[test]
    fn multicast_reaches_all() {
        let f: Fabric<Msg> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        let c = f.register(2).unwrap();
        a.multicast(&[1, 2], Msg(vec![9])).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().1,
            Msg(vec![9])
        );
        assert_eq!(
            c.recv_timeout(Duration::from_secs(1)).unwrap().1,
            Msg(vec![9])
        );
    }

    #[test]
    fn send_after_kill_is_closed() {
        let (f, a, _b) = pair();
        f.kill(0);
        assert_eq!(a.send(1, Msg(vec![])).unwrap_err(), NetError::Closed);
    }

    #[test]
    fn latency_is_applied_to_delivery() {
        let f: Fabric<Msg> = Fabric::new(LatencyModel {
            base: Duration::from_millis(5),
            per_byte_ns: 0,
        });
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        let start = Instant::now();
        a.send(1, Msg(vec![1])).unwrap();
        // Sender is not blocked by the wire delay.
        assert!(start.elapsed() < Duration::from_millis(4));
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    /// A pair whose endpoint 1 has just received a message, i.e. is hot.
    /// The poll itself is tested on the mailbox; these tests drive it
    /// through the endpoint.
    fn hot_pair() -> (Fabric<Msg>, Endpoint<Msg>, Endpoint<Msg>) {
        let (f, a, b) = pair();
        assert!(!b.slot.mailbox.is_hot(), "a fresh endpoint is cold");
        a.send(1, Msg(vec![0])).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(b.slot.mailbox.is_hot());
        (f, a, b)
    }

    #[test]
    fn hot_endpoint_parks_after_the_budget_and_is_woken() {
        let (_f, a, b) = hot_pair();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Far past the poll budget: the receiver is parked.
                std::thread::sleep(crate::latency::SPIN_THRESHOLD * 200);
                a.send(1, Msg(vec![8])).unwrap();
            });
            let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, (0, Msg(vec![8])));
            let stats = b.stats().snapshot();
            assert_eq!(stats.msgs_received, 2, "looks are not receives");
        });
    }

    #[test]
    fn timeout_on_a_hot_endpoint_is_full_length_and_leaves_it_cold() {
        let (_f, a, b) = hot_pair();
        let start = Instant::now();
        let r = b.recv_timeout(Duration::from_millis(10));
        assert_eq!(r.unwrap_err(), NetError::Timeout);
        assert!(start.elapsed() >= Duration::from_millis(10));
        // Cold: the mailbox enters the poll only when hot, so the next
        // call parks at once.
        assert!(!b.slot.mailbox.is_hot());
        a.send(1, Msg(vec![9])).unwrap();
        assert_eq!(b.recv().unwrap(), (0, Msg(vec![9])));
        assert!(b.slot.mailbox.is_hot());
    }

    #[test]
    fn sends_to_a_polling_receiver_make_no_wake_up_call() {
        const N: u32 = 1_000;
        let (_f, a, b) = hot_pair();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Polls, never parks: no send has anyone to wake.
                let mut got = 0;
                while got < N {
                    match b.try_recv().unwrap() {
                        Some(_) => got += 1,
                        None => std::thread::yield_now(),
                    }
                }
            });
            for i in 0..N {
                a.send(1, Msg(vec![i as u8])).unwrap();
            }
        });
        assert_eq!(b.stats().snapshot().msgs_received, u64::from(N) + 1);
        assert_eq!(b.slot.mailbox.notifies(), 0);
    }

    #[test]
    fn a_send_to_a_parked_receiver_wakes_it() {
        let (_f, a, b) = pair();
        std::thread::scope(|s| {
            let rx = s.spawn(|| b.recv_timeout(Duration::from_secs(5)));
            while !b.slot.mailbox.has_sleeper() {
                std::thread::sleep(Duration::from_millis(1));
            }
            a.send(1, Msg(vec![3])).unwrap();
            assert_eq!(rx.join().unwrap().unwrap(), (0, Msg(vec![3])));
        });
        assert_eq!(b.slot.mailbox.notifies(), 1);
    }

    #[test]
    fn stats_track_traffic() {
        let (_f, a, b) = pair();
        a.send(1, Msg(vec![0; 10])).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let sa = a.stats().snapshot();
        assert_eq!(sa.msgs_sent, 1);
        assert_eq!(sa.bytes_sent, 10);
        let sb = b.stats().snapshot();
        assert_eq!(sb.msgs_received, 1);
        assert_eq!(sb.bytes_received, 10);
    }
}
