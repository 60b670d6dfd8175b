//! Per-endpoint traffic counters.
//!
//! Counters measure **logical** protocol traffic — message counts and
//! `WireSize` bytes — not backend-specific encodings. A fixed protocol
//! script therefore produces identical counters on the simulated fabric
//! and the TCP backend, which is what lets the bench harness compare
//! network load across transports (and what the `transport_parity`
//! integration test asserts).

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative traffic statistics for one endpoint.
///
/// All counters are monotonically increasing and lock-free; the bench
/// harness samples them to report network load per scheme.
#[derive(Debug, Default)]
pub struct NetStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_received: AtomicU64,
    retransmits: AtomicU64,
    rdma_reads: AtomicU64,
    rdma_read_bytes: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Two-sided messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent via two-sided messages.
    pub bytes_sent: u64,
    /// Two-sided messages received.
    pub msgs_received: u64,
    /// Payload bytes received via two-sided messages.
    pub bytes_received: u64,
    /// Protocol-level retransmissions (client re-sends after timeout,
    /// node replication/parity retries). Counted by the protocol layer
    /// through [`NetStats::record_retransmit`], so the semantics are
    /// identical on every backend.
    pub retransmits: u64,
    /// One-sided reads issued.
    pub rdma_reads: u64,
    /// Bytes fetched by one-sided reads.
    pub rdma_read_bytes: u64,
}

impl NetStats {
    pub(crate) fn record_send(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, bytes: usize) {
        self.msgs_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one protocol-level retransmission. Public (unlike the
    /// send/recv recorders) because retransmits are a *protocol* event:
    /// the transport cannot tell a retry from a fresh send, so the
    /// protocol layer reports them through its `Transport::stats()`
    /// handle.
    pub fn record_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rdma_read(&self, bytes: usize) {
        self.rdma_reads.fetch_add(1, Ordering::Relaxed);
        self.rdma_read_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            rdma_reads: self.rdma_reads.load(Ordering::Relaxed),
            rdma_read_bytes: self.rdma_read_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::default();
        s.record_send(10);
        s.record_send(20);
        s.record_recv(10);
        s.record_retransmit();
        s.record_rdma_read(100);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.bytes_sent, 30);
        assert_eq!(snap.msgs_received, 1);
        assert_eq!(snap.bytes_received, 10);
        assert_eq!(snap.retransmits, 1);
        assert_eq!(snap.rdma_reads, 1);
        assert_eq!(snap.rdma_read_bytes, 100);
    }
}
