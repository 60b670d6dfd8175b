//! The backend-neutral transport seam.
//!
//! Protocol code (`ring-kvs`'s node, leader, and client engines) is
//! written against [`Transport`] and never names a concrete backend.
//! Two implementations exist:
//!
//! - [`Endpoint`](crate::Endpoint) — the simulated fabric: deterministic,
//!   latency-modelled, fault-injectable. The backend every test, chaos
//!   soak, and determinism regression runs on.
//! - [`TcpTransport`](crate::TcpTransport) — threaded TCP over real
//!   sockets, used by the standalone `ring-server` / `ring-cli`
//!   binaries and the loopback bench harness.
//!
//! The trait mirrors the verbs the paper's protocol actually uses: two-
//! sided fire-and-forget messaging, and the one-sided memory-region
//! reads/writes recovery relies on. Fire-and-forget semantics are part
//! of the contract — a send to a dead or unreachable peer returns
//! `Ok(())` and the message vanishes; callers must use timeouts, as on
//! a real network. `Err` from `send` means only that *this* endpoint is
//! shut down.

use std::time::Duration;

use crate::{MemoryRegion, MrKey, NetError, NetStats, NodeId};

/// Messaging + one-sided verbs, implemented by every network backend.
///
/// `M` is the protocol message type. Implementations must be usable
/// from the single protocol thread that owns them (`Send` so the owner
/// can be spawned onto a thread).
pub trait Transport<M>: Send {
    /// This endpoint's node id.
    fn id(&self) -> NodeId;

    /// This endpoint's traffic counters. Counters are *logical*
    /// (message counts and `WireSize` bytes), identical across
    /// backends for the same protocol script.
    fn stats(&self) -> &NetStats;

    /// Posts a message to `to`, fire-and-forget: delivery to a dead or
    /// unreachable peer silently fails with `Ok(())`.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if this endpoint itself is shut down;
    /// [`NetError::Unreachable`] only for configuration errors (a peer
    /// id that never existed).
    fn send(&self, to: NodeId, msg: M) -> Result<(), NetError>;

    /// Puts every message accepted by [`Transport::send`] so far on the
    /// wire. A backend may hold a sent message back while its owner
    /// still has input queued (the TCP backend's corking) and releases
    /// it on its own once the owner next receives with nothing
    /// deliverable; call this when a message must leave now and the
    /// next receive may be far off. The simulated fabric delivers in
    /// `send` itself, hence the default.
    fn flush(&self) {}

    /// Sends the same message to several nodes (the client's multicast
    /// re-send path).
    ///
    /// # Errors
    ///
    /// As for [`Transport::send`].
    fn multicast(&self, to: &[NodeId], msg: M) -> Result<(), NetError>;

    /// Blocks until a message arrives or the timeout elapses.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on expiry, [`NetError::Closed`] if shut
    /// down while waiting.
    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), NetError>;

    /// Returns a pending message if one is queued, without blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if this endpoint is shut down.
    fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError>;

    /// Registers a memory region under `key`, making it remotely
    /// readable/writable. Re-registering a key replaces the region.
    fn register_region(&self, key: MrKey, region: MemoryRegion);

    /// Removes a region registration.
    fn deregister_region(&self, key: MrKey);

    /// A handle to one of this node's own registered regions.
    fn local_region(&self, key: MrKey) -> Option<MemoryRegion>;

    /// One-sided read of `[offset, offset + len)` from `node`'s region
    /// `key` — the recovery path's RDMA read.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`], [`NetError::UnknownRegion`] or
    /// [`NetError::OutOfBounds`].
    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError>;

    /// One-sided read that zero-pads past the end of the region
    /// (regions grow lazily; unwritten bytes are zero by definition).
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] or [`NetError::UnknownRegion`].
    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError>;

    /// One-sided write of `bytes` into `node`'s region `key`.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`], [`NetError::UnknownRegion`] or
    /// [`NetError::OutOfBounds`].
    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), NetError>;
}

impl<M: Send + crate::WireSize + Clone> Transport<M> for crate::Endpoint<M> {
    fn id(&self) -> NodeId {
        crate::Endpoint::id(self)
    }

    fn stats(&self) -> &NetStats {
        crate::Endpoint::stats(self)
    }

    fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        crate::Endpoint::send(self, to, msg)
    }

    fn multicast(&self, to: &[NodeId], msg: M) -> Result<(), NetError> {
        crate::Endpoint::multicast(self, to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), NetError> {
        crate::Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        crate::Endpoint::try_recv(self)
    }

    fn register_region(&self, key: MrKey, region: MemoryRegion) {
        crate::Endpoint::register_region(self, key, region);
    }

    fn deregister_region(&self, key: MrKey) {
        crate::Endpoint::deregister_region(self, key);
    }

    fn local_region(&self, key: MrKey) -> Option<MemoryRegion> {
        crate::Endpoint::local_region(self, key)
    }

    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        crate::Endpoint::rdma_read(self, node, key, offset, len)
    }

    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        crate::Endpoint::rdma_read_padded(self, node, key, offset, len)
    }

    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        crate::Endpoint::rdma_write(self, node, key, offset, bytes)
    }
}
