//! A node's handle to the fabric.
//!
//! Receiving is the mailbox's: `recv` / `recv_timeout` call
//! `Mailbox::recv` — the one receive path both backends share, which
//! polls while hot and then parks (see `mailbox.rs`) — and count the
//! message it returns.

use std::sync::Arc;
use std::time::Duration;

use crate::fabric::{FabricInner, NodeSlot};
use crate::fault::FaultAction;
use crate::latency::spin_wait;
use crate::{MemoryRegion, MrKey, NetError, NetStats, NodeId, Transport, WireSize};

/// A registered node's endpoint: two-sided messaging, and through its
/// [`Transport`] impl memory-region registration and one-sided reads.
pub struct Endpoint<M> {
    id: NodeId,
    slot: Arc<NodeSlot<M>>,
    fabric: Arc<FabricInner<M>>,
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
        Endpoint { id, slot, fabric }
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

    /// A one-sided read of `node`'s region `key`: `read` runs on the
    /// region after the round trip of `len` bytes. The caller pays the
    /// latency; the remote CPU is not involved.
    fn read_remote(
        &self,
        node: NodeId,
        key: MrKey,
        len: usize,
        read: impl FnOnce(&MemoryRegion) -> Result<Vec<u8>, NetError>,
    ) -> Result<Vec<u8>, NetError> {
        if !self.fabric.link_up(self.id, node) {
            return Err(NetError::Unreachable(node));
        }
        let slot = self.fabric.slot(node).ok_or(NetError::Unreachable(node))?;
        if slot.mailbox.is_closed() {
            return Err(NetError::Unreachable(node));
        }
        let region = slot.regions.read().get(&key).cloned();
        let region = region.ok_or(NetError::UnknownRegion { node, key })?;
        spin_wait(self.fabric.latency.round_trip(len));
        let out = read(&region)?;
        self.slot.stats.record_rdma_read(len);
        Ok(out)
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
        if !self.fabric.link_up(self.id, to) {
            return Ok(()); // Dropped on the floor.
        }
        let Some(slot) = self.fabric.slot(to) else {
            return Ok(()); // Dead node: dropped.
        };
        let action = match self.fabric.injector.read().as_ref() {
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

    fn register_region(&self, key: MrKey, region: MemoryRegion) {
        self.slot.regions.write().insert(key, region);
    }

    fn deregister_region(&self, key: MrKey) {
        self.slot.regions.write().remove(&key);
    }

    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        self.read_remote(node, key, len, |region| region.read(offset, len))
    }

    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        self.read_remote(node, key, len, |region| Ok(region.read_padded(offset, len)))
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
    fn rdma_read_write_round_trip() {
        let (_f, a, b) = pair();
        let region = MemoryRegion::new(64);
        b.register_region(7, region.clone());
        // The owner writes through its own handle; a peer reads the same
        // bytes one-sided.
        region.write(8, &[1, 2, 3]).unwrap();
        region.write(62, &[4, 5]).unwrap();
        assert_eq!(a.rdma_read(1, 7, 8, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(a.rdma_read_padded(1, 7, 62, 4).unwrap(), vec![4, 5, 0, 0]);
        assert!(matches!(
            a.rdma_read(1, 7, 62, 4),
            Err(NetError::OutOfBounds { region: 64, .. })
        ));
    }

    #[test]
    fn rdma_unknown_region_and_node() {
        let (_f, a, b) = pair();
        assert_eq!(
            a.rdma_read(1, 99, 0, 1).unwrap_err(),
            NetError::UnknownRegion { node: 1, key: 99 }
        );
        assert_eq!(
            a.rdma_read(55, 0, 0, 1).unwrap_err(),
            NetError::Unreachable(55)
        );
        drop(b);
    }

    #[test]
    fn rdma_to_killed_node_unreachable() {
        let (f, a, b) = pair();
        b.register_region(1, MemoryRegion::new(8));
        f.kill(1);
        assert_eq!(
            a.rdma_read(1, 1, 0, 1).unwrap_err(),
            NetError::Unreachable(1)
        );
    }

    #[test]
    fn rdma_over_cut_link_unreachable() {
        let (f, a, b) = pair();
        b.register_region(1, MemoryRegion::new(8));
        f.fail_link(0, 1);
        assert_eq!(
            a.rdma_read_padded(1, 1, 0, 1).unwrap_err(),
            NetError::Unreachable(1)
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
    fn stats_track_traffic() {
        let (_f, a, b) = pair();
        b.register_region(1, MemoryRegion::new(16));
        a.send(1, Msg(vec![0; 10])).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        a.rdma_read(1, 1, 0, 4).unwrap();
        a.rdma_read_padded(1, 1, 14, 4).unwrap();
        a.rdma_read(1, 1, 14, 4).unwrap_err(); // A failed read is not counted.
        let sa = a.stats().snapshot();
        assert_eq!(sa.msgs_sent, 1);
        assert_eq!(sa.bytes_sent, 10);
        assert_eq!(sa.rdma_reads, 2);
        assert_eq!(sa.rdma_read_bytes, 8);
        let sb = b.stats().snapshot();
        assert_eq!(sb.msgs_received, 1);
        assert_eq!(sb.rdma_reads, 0, "the target's CPU is not involved");
    }
}
