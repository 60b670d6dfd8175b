//! A simulated RDMA fabric for in-process distributed-systems experiments.
//!
//! This crate is the reproduction's stand-in for the Ring paper's
//! InfiniBand/`libibverbs` layer. Nodes are threads inside one process;
//! the fabric gives each registered node an [`Endpoint`] with:
//!
//! - **Two-sided messaging** ([`Endpoint::send`] / [`Endpoint::recv`]):
//!   typed messages delivered through a timestamp-ordered mailbox, with a
//!   per-fabric [`LatencyModel`] injecting calibrated wire + NIC delays.
//! - **Failure injection** ([`Fabric::kill`]): a killed node's mailbox
//!   vanishes; messages sent to it are silently dropped (the sender must
//!   rely on timeouts, as on a real network).
//! - **Traffic statistics** ([`Endpoint::stats`]): message/byte counters
//!   used by the benchmark harness to report network load.
//!
//! [`Transport`] is the same two-sided messaging over either backend,
//! this fabric or [`TcpTransport`]; nothing reads a peer's memory
//! directly. A [`MemoryRegion`] is the byte buffer behind a heap, owned
//! by its node and served to peers only through messages.
//!
//! Sub-microsecond delays are implemented by spin-waiting, which is
//! faithful to how RDMA completion queues are actually polled
//! (`ibv_poll_cq` busy-polls); delays above ~100µs use `thread::sleep`.
//!
//! # Examples
//!
//! ```
//! use ring_net::{Fabric, LatencyModel, WireSize};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Ping(u64);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! let fabric = Fabric::<Ping>::new(LatencyModel::instant());
//! let a = fabric.register(0).unwrap();
//! let b = fabric.register(1).unwrap();
//! a.send(1, Ping(42)).unwrap();
//! let (from, msg) = b.recv().unwrap();
//! assert_eq!((from, msg), (0, Ping(42)));
//! ```

pub mod clock;
mod endpoint;
mod error;
mod fabric;
mod fault;
pub mod frame;
mod latency;
mod mailbox;
mod memory;
mod payload;
mod stats;
mod sys;
mod tcp;
mod transport;

pub use endpoint::Endpoint;
pub use error::NetError;
pub use fabric::Fabric;
pub use fault::{FaultAction, FaultInjector, NoFaults};
pub use frame::{Codec, FrameBuf, FrameKind, WireReader};
pub use latency::{spin_wait, LatencyModel};
pub use memory::MemoryRegion;
pub use payload::Payload;
pub use stats::{NetStats, NetStatsSnapshot};
pub use tcp::TcpTransport;
pub use transport::Transport;

/// Node identifier on a fabric.
pub type NodeId = u32;

/// Messages carried by the fabric must report their on-wire size so the
/// latency model can charge per-byte transmission time.
pub trait WireSize {
    /// Size of the message on the wire, in bytes.
    fn wire_size(&self) -> usize;
}

impl WireSize for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}
