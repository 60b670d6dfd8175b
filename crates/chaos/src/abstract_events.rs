//! Projection of recorded histories onto the formal model's abstract
//! events — the refinement mapping of DESIGN.md §11.
//!
//! `crates/model` replays every seeded soak history through the
//! `RingWriteSemantics` transition system; this module is the bridge:
//! it rewrites each concrete [`Event`] into the abstract operation the
//! spec reasons about (a versioned register write, a version-bumping
//! rewrite, a bound read, or a no-op). The projection is **total** — it
//! never panics, whatever (invocation, outcome) pair the recorder
//! produced, including dangling invocations from crashed clients whose
//! outcome is [`Outcome::Maybe`] — so a conformance run can never die
//! on the history it is supposed to judge (a proptest in
//! `tests/abstract_events_total.rs` pins this down).

use std::collections::BTreeMap;

use ring_kvs::{Key, Version};

use crate::history::{Event, History, Invocation, Outcome};
use crate::Tag;

/// Effect of one operation on its key's abstract versioned register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractKind {
    /// `CoordPrepare` + `CommitFlag` in the spec: sets the register to
    /// `tag` (`None` is a tombstone) at `version` (`None` when the
    /// response never carried one — a timed-out or failed write).
    Write {
        /// Tag of the written value; `None` clears the register.
        tag: Option<Tag>,
        /// Version assigned by the coordinator, if the client learned it.
        version: Option<Version>,
        /// False for "maybe happened" writes, which the replay may
        /// place arbitrarily late (equivalently: never).
        definite: bool,
    },
    /// A `move`: the value is untouched but the destination write
    /// consumes a fresh version (`CoordPrepare` + `CommitFlag` over the
    /// same bytes).
    Rewrite {
        /// Version after the move, if the client learned it.
        version: Option<Version>,
        /// False for "maybe happened" moves.
        definite: bool,
    },
    /// `GetBind` + `GetReturn` in the spec: observes the register.
    /// `None` means the read observed nothing usable (timeout/error)
    /// and constrains nothing.
    Read {
        /// `(tag, version)` as returned; the outer `None` is an
        /// unconstrained read, the inner `tag: None` an observed
        /// absence.
        observed: Option<(Option<Tag>, Option<Version>)>,
    },
    /// No effect on the register (e.g. a move that found no value).
    Noop,
}

/// One history event in abstract-model terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractOp {
    /// Recorder client id.
    pub client: u32,
    /// Recorder op id.
    pub op: u64,
    /// Invocation timestamp (ns since recorder epoch).
    pub invoked_ns: u64,
    /// Response timestamp; `u64::MAX` for indefinite operations, whose
    /// placement in the replay is unconstrained past their invocation.
    pub returned_ns: u64,
    /// The abstract effect.
    pub kind: AbstractKind,
    /// True for an op no client invoked: an extra execution a spec's
    /// `prepare` adds beside a retried write. [`project`] never sets it.
    pub synthetic: bool,
}

impl AbstractOp {
    /// False for "maybe happened" writes and moves, which a replay may
    /// also leave out entirely.
    pub fn is_definite(&self) -> bool {
        !matches!(
            self.kind,
            AbstractKind::Write {
                definite: false,
                ..
            } | AbstractKind::Rewrite {
                definite: false,
                ..
            }
        )
    }

    /// The `(tag, version)` pair this op's response ties together, if
    /// it carried both: a write's own, or the one a read observed.
    pub fn observed_version(&self) -> Option<(Tag, Version)> {
        match self.kind {
            AbstractKind::Write {
                tag: Some(tag),
                version: Some(version),
                ..
            }
            | AbstractKind::Read {
                observed: Some((Some(tag), Some(version))),
            } => Some((tag, version)),
            _ => None,
        }
    }
}

/// Projects one event. Total: every (invocation, outcome) combination —
/// including pairs no real run produces — maps to *some* abstract op;
/// a mismatched or indeterminate outcome degrades to the indefinite
/// form of its invocation rather than panicking.
pub fn project(e: &Event) -> AbstractOp {
    let (kind, definite) = match (&e.call, &e.outcome) {
        (Invocation::Put { tag, .. }, Outcome::PutOk { version }) => (
            AbstractKind::Write {
                tag: Some(*tag),
                version: Some(*version),
                definite: true,
            },
            true,
        ),
        // A put whose response was lost, errored, or mismatched may
        // still have taken effect at an unknown version.
        (Invocation::Put { tag, .. }, _) => (
            AbstractKind::Write {
                tag: Some(*tag),
                version: None,
                definite: false,
            },
            false,
        ),
        (Invocation::Delete, Outcome::DeleteOk) => (
            AbstractKind::Write {
                tag: None,
                version: None,
                definite: true,
            },
            true,
        ),
        (Invocation::Delete, _) => (
            AbstractKind::Write {
                tag: None,
                version: None,
                definite: false,
            },
            false,
        ),
        (Invocation::Move { .. }, Outcome::MoveOk { version }) => (
            AbstractKind::Rewrite {
                version: Some(*version),
                definite: true,
            },
            true,
        ),
        (Invocation::Move { .. }, Outcome::MoveNoop) => (AbstractKind::Noop, true),
        (Invocation::Move { .. }, _) => (
            AbstractKind::Rewrite {
                version: None,
                definite: false,
            },
            false,
        ),
        (Invocation::Get, Outcome::GetOk { tag, version }) => (
            AbstractKind::Read {
                observed: Some((*tag, *version)),
            },
            true,
        ),
        // A get that timed out or errored observed nothing.
        (Invocation::Get, _) => (AbstractKind::Read { observed: None }, true),
    };
    AbstractOp {
        client: e.client,
        op: e.op,
        invoked_ns: e.invoked_ns,
        returned_ns: if definite { e.returned_ns } else { u64::MAX },
        kind,
        synthetic: false,
    }
}

/// Projects a whole history, partitioned per key (the replay, like the
/// linearizability checker, is P-compositional).
pub fn abstract_ops(h: &History) -> BTreeMap<Key, Vec<AbstractOp>> {
    let mut by_key: BTreeMap<Key, Vec<AbstractOp>> = BTreeMap::new();
    for e in &h.events {
        by_key.entry(e.key).or_default().push(project(e));
    }
    by_key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definite_put_maps_to_versioned_write() {
        let e = Event {
            client: 1,
            op: 2,
            key: 3,
            call: Invocation::Put {
                tag: (1, 2),
                memgest: None,
            },
            invoked_ns: 10,
            returned_ns: 20,
            outcome: Outcome::PutOk { version: 7 },
        };
        let a = project(&e);
        assert_eq!(a.returned_ns, 20);
        assert_eq!(
            a.kind,
            AbstractKind::Write {
                tag: Some((1, 2)),
                version: Some(7),
                definite: true
            }
        );
    }

    #[test]
    fn maybe_put_is_indefinite_and_unbounded() {
        let e = Event {
            client: 1,
            op: 2,
            key: 3,
            call: Invocation::Put {
                tag: (1, 2),
                memgest: None,
            },
            invoked_ns: 10,
            returned_ns: 20,
            outcome: Outcome::Maybe,
        };
        let a = project(&e);
        assert_eq!(a.returned_ns, u64::MAX);
        assert!(matches!(
            a.kind,
            AbstractKind::Write {
                definite: false,
                version: None,
                ..
            }
        ));
    }

    #[test]
    fn mismatched_outcome_degrades_instead_of_panicking() {
        // A put that somehow recorded a get outcome: impossible in real
        // runs, but the projection must stay total.
        let e = Event {
            client: 0,
            op: 0,
            key: 0,
            call: Invocation::Put {
                tag: (0, 0),
                memgest: None,
            },
            invoked_ns: 0,
            returned_ns: 1,
            outcome: Outcome::GetOk {
                tag: None,
                version: None,
            },
        };
        assert!(matches!(
            project(&e).kind,
            AbstractKind::Write {
                definite: false,
                ..
            }
        ));
    }

    #[test]
    fn history_partitions_by_key() {
        let mk = |key| Event {
            client: 0,
            op: key,
            key,
            call: Invocation::Get,
            invoked_ns: 0,
            returned_ns: 1,
            outcome: Outcome::Maybe,
        };
        let h = History {
            events: vec![mk(1), mk(2), mk(1)],
        };
        let by_key = abstract_ops(&h);
        assert_eq!(by_key.len(), 2);
        assert_eq!(by_key[&1].len(), 2);
        assert_eq!(by_key[&2].len(), 1);
    }
}
