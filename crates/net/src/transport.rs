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
//! The trait is two-sided fire-and-forget messaging and nothing else:
//! recovery fetches remote bytes with request/response messages too.
//! Fire-and-forget semantics are part of the contract — a send to a
//! dead or unreachable peer returns `Ok(())` and the message vanishes;
//! callers must use timeouts, as on a real network. `Err` from `send`
//! means only that *this* endpoint is shut down.

use std::time::Duration;

use crate::{NetError, NetStats, NodeId};

/// Two-sided messaging, implemented by every network backend.
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
    /// re-send path): one [`Transport::send`] each.
    ///
    /// # Errors
    ///
    /// As for [`Transport::send`].
    fn multicast(&self, to: &[NodeId], msg: M) -> Result<(), NetError>
    where
        M: Clone,
    {
        for &t in to {
            self.send(t, msg.clone())?;
        }
        Ok(())
    }

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
}
