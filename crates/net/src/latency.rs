//! Latency models for the simulated fabric.

use std::time::Duration;

/// Threshold below which delays spin instead of sleeping: `thread::sleep`
/// on Linux has tens-of-microseconds granularity, far coarser than an
/// RDMA hop. Also the budget of a hot mailbox's receive poll
/// (`Mailbox::recv`): both stand in for polling a completion queue.
pub(crate) const SPIN_THRESHOLD: Duration = Duration::from_micros(100);

/// A per-hop latency model: `delay = base + per_byte * bytes`.
///
/// The presets are calibrated so the *relative* costs of the paper's
/// transports hold: an RDMA hop is ~1.5µs, a kernel-TCP hop (memcached)
/// is ~25µs, and an HDD-backed commit adds ~40µs (RAMCloud-style
/// disk-backed replication).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-message cost (propagation + NIC processing).
    pub base: Duration,
    /// Transmission cost in nanoseconds per byte.
    pub per_byte_ns: u64,
}

impl LatencyModel {
    /// No injected latency: messages are delivered as fast as the host
    /// allows. Useful for unit tests.
    pub fn instant() -> LatencyModel {
        LatencyModel {
            base: Duration::ZERO,
            per_byte_ns: 0,
        }
    }

    /// A QDR InfiniBand RDMA hop: ~1.5µs base, 40Gb/s line rate
    /// (0.2ns/byte at ~5GB/s).
    pub fn rdma() -> LatencyModel {
        LatencyModel {
            base: Duration::from_nanos(1_500),
            per_byte_ns: 1, // Conservative: ~1GB/s effective per flow.
        }
    }

    /// A kernel TCP/IP hop over the same wire (memcached's transport):
    /// syscall + stack traversal dominate at ~25µs per hop.
    pub fn tcp_kernel() -> LatencyModel {
        LatencyModel {
            base: Duration::from_micros(25),
            per_byte_ns: 1,
        }
    }

    /// An HDD-backed commit hop (RAMCloud-style disk-backed backup):
    /// RDMA wire latency plus a ~40µs buffered-write penalty.
    pub fn hdd_commit() -> LatencyModel {
        LatencyModel {
            base: Duration::from_micros(40),
            per_byte_ns: 1,
        }
    }

    /// The one-way delay for a message of `bytes` bytes.
    pub fn delay(&self, bytes: usize) -> Duration {
        self.base + Duration::from_nanos(self.per_byte_ns.saturating_mul(bytes as u64))
    }
}

/// Waits for `d`, spinning for short waits and sleeping for long ones.
///
/// Spinning mirrors RDMA completion-queue polling and keeps
/// sub-microsecond injected latencies accurate.
pub fn spin_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = crate::clock::now() + d;
    if d > SPIN_THRESHOLD {
        // Sleep for the bulk, spin the remainder.
        std::thread::sleep(d - SPIN_THRESHOLD);
    }
    while crate::clock::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn delay_scales_with_bytes() {
        let m = LatencyModel {
            base: Duration::from_nanos(1000),
            per_byte_ns: 2,
        };
        assert_eq!(m.delay(0), Duration::from_nanos(1000));
        assert_eq!(m.delay(500), Duration::from_nanos(2000));
    }

    #[test]
    fn instant_model_is_zero() {
        assert_eq!(LatencyModel::instant().delay(1 << 20), Duration::ZERO);
    }

    #[test]
    fn presets_are_ordered() {
        // RDMA < TCP < HDD for the base cost — the relation every
        // baseline comparison in the paper rests on.
        assert!(LatencyModel::rdma().base < LatencyModel::tcp_kernel().base);
        assert!(LatencyModel::tcp_kernel().base < LatencyModel::hdd_commit().base);
    }

    #[test]
    fn spin_wait_is_reasonably_accurate() {
        let d = Duration::from_micros(50);
        let start = Instant::now();
        spin_wait(d);
        let elapsed = start.elapsed();
        assert!(elapsed >= d, "waited only {elapsed:?}");
        assert!(elapsed < d * 50, "waited way too long: {elapsed:?}");
    }

    #[test]
    fn spin_wait_zero_returns_immediately() {
        let start = Instant::now();
        spin_wait(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }
}
