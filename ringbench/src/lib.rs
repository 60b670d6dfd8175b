//! `ringbench`: the end-to-end and per-layer benchmark of the Ring KVS.
//!
//! Four named workloads run closed-loop (one generator thread, one
//! `RingClient`) against the unmodified public APIs of the product
//! crates; every layer is measured from outside — timing calls into
//! public functions, differencing public counters, and reading `/proc`
//! for the threads and processes the clusters spawn. See `README.md`.

pub mod bed;
pub mod iso;
pub mod metrics;
pub mod procfs;
pub mod quiet;
pub mod report;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workload;
