//! Seeded chaos testing for the Ring cluster: deterministic fault
//! injection plus black-box linearizability checking.
//!
//! The crate has three parts, mirroring the classic nemesis/checker
//! architecture (Jepsen, Porcupine):
//!
//! - [`nemesis`]: a seeded [`FaultPlan`] implementing
//!   `ring_net::FaultInjector` (per-message drop / duplicate / delay,
//!   hence reorder), and a [`NemesisSpec`] timeline of coarse faults —
//!   transient partitions and node crashes followed by spare promotion —
//!   driven against the fabric by a [`nemesis::Nemesis`] thread; the
//!   companion [`straggler::StragglerProfile`] models chronically slow
//!   nodes (delay-only, composable over a `FaultPlan`).
//! - [`history`]: a [`RecordedClient`] wrapper around
//!   `ring_kvs::RingClient` that logs every invocation/response pair
//!   with wall-clock windows, unique value tags and returned versions.
//! - [`search`](mod@search): the history oracle — one per-key Wing & Gong search
//!   (sound by P-compositionality: a KV history is linearizable iff
//!   each per-key subhistory is) over the abstract ops of
//!   [`abstract_events`], with the real-time rule, per-key budgets,
//!   deepest-frontier evidence and one [`Verdict`], parameterised by a
//!   [`Spec`] of what a key is. [`checker`] is the spec the soak runs:
//!   a plain register that understands Ring's `move`; the versioned
//!   register of `ring_model::conform` is the other.
//!
//! [`soak`] ties the three together into a reproducible YCSB-style soak
//! run: every random choice — the workload, the nemesis timeline, the
//! message-fault decision function — derives from one `u64` seed, so a
//! failure report's seed replays the identical schedule.

pub mod abstract_events;
pub mod checker;
pub mod history;
pub mod nemesis;
pub mod search;
pub mod soak;
pub mod straggler;

pub use abstract_events::{abstract_ops, AbstractKind, AbstractOp};
pub use checker::{check_history, PlainRegister};
pub use history::{History, HistoryRecorder, RecordedClient, Tag};
pub use nemesis::{FaultPlan, MessageFaults, Nemesis, NemesisEvent, NemesisSpec};
pub use search::{search, Spec, Verdict, Violation};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use straggler::{StragglerProfile, StragglerSpec};

/// Order-sensitive FNV-1a-style accumulator used for schedule digests.
///
/// Every seeded artefact of a soak run (workload scripts, nemesis
/// timeline, fault-decision probes) folds itself into one of these; two
/// runs with the same seed produce bit-identical digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// A fresh accumulator.
    pub fn new() -> Digest {
        Digest(0xcbf29ce484222325)
    }

    /// Folds one word into the digest.
    pub fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }

    /// The accumulated value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// splitmix64 finaliser: the crate's standard bit mixer for deriving
/// decorrelated values from counters and seeds.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.mix(1);
        a.mix(2);
        let mut b = Digest::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn digest_is_reproducible() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        for i in 0..100 {
            a.mix(i);
            b.mix(i);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn mix64_spreads_counters() {
        let outs: std::collections::HashSet<u64> = (0..1000).map(mix64).collect();
        assert_eq!(outs.len(), 1000);
    }
}
