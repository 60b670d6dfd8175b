//! Pure, side-effect-free protocol logic shared by the live node
//! (`crate::node`) and the explicit-state model checker
//! (`crates/model`).
//!
//! The node owns the transports, timers and storage; everything here is
//! plain data in, plain data out. That split is what lets the model
//! checker explore the exact decision procedures the implementation
//! runs — drift between the two would otherwise be invisible until a
//! chaos seed happened to hit it.
//!
//! [`steps`] holds the single-shot decisions (versioning, ack counting,
//! dedup, read binding, the on-demand fetch budget); [`spec_read`] holds
//! the one multi-message machine, the late-binding degraded read, whose
//! state lives here so it can be stepped response by response without a
//! cluster.

pub mod spec_read;
pub mod steps;
