//! The fabric: node registry, delivery, failure injection.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::endpoint::Endpoint;
use crate::fault::FaultInjector;
use crate::mailbox::Mailbox;
use crate::{LatencyModel, NetError, NetStats, NodeId, WireSize};

pub(crate) struct NodeSlot<M> {
    pub(crate) mailbox: Arc<Mailbox<M>>,
    pub(crate) stats: Arc<NetStats>,
}

pub(crate) struct FabricInner<M> {
    pub(crate) latency: LatencyModel,
    pub(crate) nodes: RwLock<BTreeMap<NodeId, Arc<NodeSlot<M>>>>,
    pub(crate) down_links: RwLock<HashSet<(NodeId, NodeId)>>,
    pub(crate) injector: RwLock<Option<Arc<dyn FaultInjector>>>,
    /// Bumped (Release) after every change to `nodes`, `down_links` or
    /// `injector`. An endpoint sends through its own copy of those
    /// tables and rebuilds it when an Acquire load shows a new value.
    pub(crate) generation: AtomicU64,
}

impl<M> FabricInner<M> {
    pub(crate) fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        let key = (a.min(b), a.max(b));
        !self.down_links.read().contains(&key)
    }

    pub(crate) fn slot(&self, id: NodeId) -> Option<Arc<NodeSlot<M>>> {
        self.nodes.read().get(&id).cloned()
    }

    /// Tells every endpoint that its route table is stale.
    fn changed(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }
}

/// A simulated network connecting in-process nodes.
///
/// Cloning is cheap; clones refer to the same network.
pub struct Fabric<M> {
    inner: Arc<FabricInner<M>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send + WireSize> Fabric<M> {
    /// Creates a fabric with the given per-hop latency model.
    pub fn new(latency: LatencyModel) -> Fabric<M> {
        Fabric {
            inner: Arc::new(FabricInner {
                latency,
                nodes: RwLock::new(BTreeMap::new()),
                down_links: RwLock::new(HashSet::new()),
                injector: RwLock::new(None),
                generation: AtomicU64::new(0),
            }),
        }
    }

    /// The fabric's latency model.
    pub fn latency(&self) -> LatencyModel {
        self.inner.latency
    }

    /// Registers a node and returns its endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AlreadyRegistered`] if the id is taken by a
    /// live node. Re-registering a killed node id is allowed — that is
    /// exactly what a spare does when it assumes a failed node's role.
    pub fn register(&self, id: NodeId) -> Result<Endpoint<M>, NetError> {
        let slot = Arc::new(NodeSlot {
            mailbox: Mailbox::new(),
            stats: Arc::new(NetStats::default()),
        });
        let mut nodes = self.inner.nodes.write();
        if let Some(existing) = nodes.get(&id) {
            if !existing.mailbox.is_closed() {
                return Err(NetError::AlreadyRegistered(id));
            }
        }
        nodes.insert(id, Arc::clone(&slot));
        drop(nodes);
        self.inner.changed();
        Ok(Endpoint::new(id, slot, Arc::clone(&self.inner)))
    }

    /// Kills a node: its mailbox closes (pending and future messages are
    /// dropped).
    ///
    /// Idempotent; killing an unknown node is a no-op.
    pub fn kill(&self, id: NodeId) {
        let slot = self.inner.nodes.write().remove(&id);
        if let Some(slot) = slot {
            // A route cached before the bump still drops: the mailbox
            // it leads to is closed.
            slot.mailbox.close();
            self.inner.changed();
        }
    }

    /// Returns true if the node is registered and alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.inner
            .nodes
            .read()
            .get(&id)
            .map(|s| !s.mailbox.is_closed())
            .unwrap_or(false)
    }

    /// Installs a message-level [`FaultInjector`], replacing any
    /// previous one. It is consulted on every [`Endpoint::send`] (a
    /// multicast is one per target) over an up link to a live node;
    /// [`Fabric::inject`] bypasses it.
    pub fn set_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        *self.inner.injector.write() = Some(injector);
        self.inner.changed();
    }

    /// Removes the installed [`FaultInjector`]; delivery returns to
    /// fault-free behaviour.
    pub fn clear_fault_injector(&self) {
        *self.inner.injector.write() = None;
        self.inner.changed();
    }

    /// Cuts the (bidirectional) link between two nodes: messages over it
    /// are dropped.
    pub fn fail_link(&self, a: NodeId, b: NodeId) {
        self.inner.down_links.write().insert((a.min(b), a.max(b)));
        self.inner.changed();
    }

    /// Restores a previously cut link.
    pub fn heal_link(&self, a: NodeId, b: NodeId) {
        self.inner.down_links.write().remove(&(a.min(b), a.max(b)));
        self.inner.changed();
    }

    /// Ids of all live nodes, unordered.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|(_, s)| !s.mailbox.is_closed())
            .map(|(&id, _)| id)
            .collect()
    }

    /// Traffic counters of a registered node (alive or killed), if any.
    pub fn stats_of(&self, id: NodeId) -> Option<crate::stats::NetStatsSnapshot> {
        self.inner.nodes.read().get(&id).map(|s| s.stats.snapshot())
    }

    /// Injects a message from a synthetic source (testing aid): delivers
    /// `msg` to `to` as if sent by `from` with normal latency.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] if `to` is not alive.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), NetError> {
        let slot = self.inner.slot(to).ok_or(NetError::Unreachable(to))?;
        let delay = self.inner.latency.delay(msg.wire_size());
        slot.mailbox.push(from, msg, crate::clock::now() + delay);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl WireSize for u32 {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn register_send_recv() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        a.send(1, 7).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 7));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let _a = f.register(0).unwrap();
        assert_eq!(f.register(0).unwrap_err(), NetError::AlreadyRegistered(0));
    }

    #[test]
    fn killed_node_id_can_be_reused() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let _a = f.register(0).unwrap();
        f.kill(0);
        assert!(!f.is_alive(0));
        let _a2 = f.register(0).unwrap();
        assert!(f.is_alive(0));
    }

    #[test]
    fn messages_to_dead_node_vanish() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let _b = f.register(1).unwrap();
        f.kill(1);
        // Send succeeds (fire and forget), message is dropped.
        a.send(1, 42).unwrap();
    }

    #[test]
    fn link_failure_drops_messages() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        f.fail_link(0, 1);
        a.send(1, 1).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
        f.heal_link(1, 0); // Order-insensitive.
        a.send(1, 2).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 2));
    }

    #[test]
    fn live_nodes_lists_survivors() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let _a = f.register(0).unwrap();
        let _b = f.register(1).unwrap();
        let _c = f.register(2).unwrap();
        f.kill(1);
        let mut live = f.live_nodes();
        live.sort_unstable();
        assert_eq!(live, vec![0, 2]);
    }

    #[test]
    fn fault_injector_drop_delay_duplicate() {
        use crate::fault::{FaultAction, FaultInjector};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Cycles Drop, Duplicate, Delay, Deliver per message.
        struct Script(AtomicUsize);
        impl FaultInjector for Script {
            fn on_message(&self, _f: NodeId, _t: NodeId, _b: usize) -> FaultAction {
                match self.0.fetch_add(1, Ordering::Relaxed) {
                    0 => FaultAction::Drop,
                    1 => FaultAction::Duplicate(Duration::from_micros(50)),
                    2 => FaultAction::Delay(Duration::from_micros(50)),
                    _ => FaultAction::Deliver,
                }
            }
        }

        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        f.set_fault_injector(Arc::new(Script(AtomicUsize::new(0))));

        a.send(1, 10).unwrap(); // Dropped.
        a.send(1, 11).unwrap(); // Duplicated.
        a.send(1, 12).unwrap(); // Delayed 50µs: arrives after 11's dup.
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(b.recv_timeout(Duration::from_secs(1)).unwrap().1);
        }
        assert_eq!(got, vec![11, 11, 12]); // 11, its dup, then delayed 12.
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );

        f.clear_fault_injector();
        a.send(1, 13).unwrap(); // Back to normal delivery.
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 13));
    }

    /// A fabric of two endpoints whose route from 0 to 1 is warm: one
    /// message has gone over it.
    fn warm_pair() -> (Fabric<u32>, Endpoint<u32>, Endpoint<u32>) {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        a.send(1, 0).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 0));
        (f, a, b)
    }

    #[test]
    fn warm_route_reaches_a_spare_registered_under_a_killed_id() {
        let (f, a, b) = warm_pair();
        f.kill(1);
        a.send(1, 1).unwrap(); // Dropped: 1 is dead.
        assert_eq!(b.queued(), 0);
        let spare = f.register(1).unwrap();
        a.send(1, 2).unwrap();
        assert_eq!(spare.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 2));
        assert_eq!(
            spare.queued(),
            0,
            "the send to the dead node stayed dropped"
        );
    }

    #[test]
    fn warm_route_follows_fail_and_heal_link() {
        let (f, a, b) = warm_pair();
        f.fail_link(1, 0);
        a.send(1, 1).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
        f.heal_link(0, 1);
        a.send(1, 2).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 2));
    }

    #[test]
    fn warm_route_consults_a_new_injector_and_forgets_a_cleared_one() {
        use crate::fault::{FaultAction, FaultInjector};

        struct DropAll;
        impl FaultInjector for DropAll {
            fn on_message(&self, _f: NodeId, _t: NodeId, _b: usize) -> FaultAction {
                FaultAction::Drop
            }
        }

        let (f, a, b) = warm_pair();
        f.set_fault_injector(Arc::new(DropAll));
        a.send(1, 1).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
        f.clear_fault_injector();
        a.send(1, 2).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (0, 2));
        assert_eq!(
            a.stats().snapshot().msgs_sent,
            3,
            "a dropped send still counts"
        );
    }

    #[test]
    fn inject_delivers() {
        let f: Fabric<u32> = Fabric::new(LatencyModel::instant());
        let b = f.register(1).unwrap();
        f.inject(99, 1, 5).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), (99, 5));
        assert!(f.inject(0, 77, 5).is_err());
    }
}
