//! # ring-model: write-semantics model checking for Ring
//!
//! Three layers of assurance over the per-item commit protocol, all
//! anchored to the same TLA+ specification
//! (`specs/RingWriteSemantics.tla`):
//!
//! - [`spec`]: the spec's transition system in Rust. Each action
//!   carries the exact TLA+ action name and routes its protocol
//!   decisions through `ring_kvs::protocol::steps` — the functions the
//!   live node executes — so the model and the implementation cannot
//!   silently diverge (ring-lint's `model-drift` rule checks the
//!   `// tla:` markers against the spec text).
//! - [`explore`]: a hand-rolled breadth-first explicit-state checker.
//!   Exhaustively explores small configurations (REP2, REP3, SRS(2,1);
//!   two clients, two keys, crash + spare promotion) against the
//!   invariants `AtMostOnce`, `NoTornCommit` and
//!   `CommittedReadsLatest`, printing a minimal counterexample on
//!   violation. Deliberately seeded bugs ([`spec::Bug`]) prove the
//!   checker has teeth.
//! - [`conform`]: trace conformance. Every seeded chaos-soak history is
//!   projected through `ring_chaos::abstract_events` (the refinement
//!   mapping of DESIGN.md §11) and judged by the history oracle's one
//!   search core (`ring_chaos::search`, shared with the
//!   linearizability checker) against this crate's spec of a key: the
//!   model's abstract versioned register — cross-checking the version
//!   numbers the real cluster handed out, not just its values.
//!
//! The `ring-model` binary drives all three: `--exhaustive` for the
//! state-space sweep, `--conform <preset>` for soak conformance (the
//! CI `verify-model` job runs both).

pub mod conform;
pub mod explore;
pub mod spec;

pub use conform::{check_conformance, check_conformance_with_budget, VersionedRegister};
pub use explore::{explore, Report, Trace};
pub use spec::{check_invariants, successors, Action, Bug, Config, State};
