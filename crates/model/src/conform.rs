//! Trace conformance: does a recorded chaos [`History`] refine the
//! `RingWriteSemantics` model?
//!
//! The refinement mapping (`ring_chaos::abstract_events`, DESIGN.md
//! §11) projects each concrete event onto an abstract versioned-register
//! operation. The history oracle's search core (`ring_chaos::search`,
//! the one the linearizability checker runs) then looks, per key, for
//! an order of those operations that (a) respects real-time precedence
//! and (b) steps the abstract register of this module exactly as the
//! model's write path allows.
//!
//! This is deliberately stronger than bare linearizability over
//! get/put: it cross-checks the *version numbers* the implementation
//! handed out against the model's `CoordPrepare`/`CommitFlag`
//! discipline:
//!
//! - **Version identity** (the search core's pre-pass): `(key,
//!   version)` names exactly one value — two different tags under one
//!   version is an immediate violation.
//! - **Monotone read versions**: in linearization order, the versions
//!   reads observe never decrease.
//! - **Monotone version assignment**: writes whose tag was only ever
//!   observed at one version must linearize in strictly increasing
//!   version order (the `next_version` discipline).
//! - **Real-time version floor**: once any response proves version `v`
//!   committed for a key, an operation *invoked after that response
//!   returned* can never observe a smaller version as the key's latest.
//!   No separate rule: the proving response is definite and returned
//!   first, so real time places it first, placing it raises the
//!   register's `floor` to `v`, and the floor never drops.
//!
//! One concrete wrinkle the model must absorb: a client whose attempt
//! times out retries with a fresh request id, so one *logical* op can
//! execute several times, placing the same tag at several versions
//! (each individually fresh — the at-most-once table only dedupes
//! re-deliveries of a single attempt). Each such execution can become
//! the key's committed-latest in its own right — even *after* an
//! intervening write by someone else. The replay therefore splits a
//! write into one pinned, definite execution per version its tag was
//! observed at: the response execution keeps the op's real-time window,
//! and every other observed version becomes a synthetic execution whose
//! commit may land arbitrarily late (a straggling first attempt can
//! outlive the retry's response). The register itself stays fully
//! strict — every known-version execution linearizes at exactly its
//! version.
//!
//! Indefinite operations (timed-out or errored writes, projected with
//! `returned_ns == u64::MAX`) may be placed anywhere after their
//! invocation or omitted entirely — "maybe happened" semantics, which
//! the search core owns.

use std::collections::{BTreeMap, BTreeSet};

use ring_chaos::abstract_events::{AbstractKind, AbstractOp};
use ring_chaos::search::{search, Spec, Verdict};
use ring_chaos::{History, Tag};

/// Default per-key search budget (memoized states); generous for soak
/// histories, where per-key concurrency is bounded by the client count.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

/// The abstract versioned register: the model's view of one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    /// Current value's tag; `None` = absent (initial, or tombstoned).
    tag: Option<Tag>,
    /// Current value's version; `None` only when the last write's
    /// version was never learned (deletes, unobserved maybe-writes).
    version: Option<u64>,
    /// Highest version known (from pinned writes and read observations)
    /// to have been reached by the key's committed-latest so far.
    floor: u64,
}

impl Reg {
    /// The register after a write of `tag` commits at `version`.
    fn written(&self, tag: Option<Tag>, version: Option<u64>) -> Option<Reg> {
        match version {
            // Pinned execution: the next_version discipline demands a
            // fresh, larger version.
            Some(v) => (v > self.floor).then_some(Reg {
                tag,
                version: Some(v),
                floor: v,
            }),
            // Version unknown (deletes, lost responses): the write
            // happened at *some* fresh version nobody ever observed.
            None => Some(Reg {
                tag,
                version: None,
                floor: self.floor,
            }),
        }
    }
}

/// The versioned register: the model's write path as seen on one key.
#[derive(Debug)]
pub struct VersionedRegister;

impl Spec for VersionedRegister {
    type State = Reg;

    fn initial(&self) -> Reg {
        Reg {
            tag: None,
            version: None,
            floor: 0,
        }
    }

    /// Execution split: one pinned, definite write per observed version
    /// of each tag. The response execution keeps its real-time window;
    /// the extra executions' commits may land arbitrarily late.
    fn prepare(&self, ops: &mut Vec<AbstractOp>) {
        // Every version each tag was observed at, from write responses
        // and read observations. More than one ⇒ the op executed more
        // than once (client retries under fresh request ids).
        let mut versions_of: BTreeMap<Tag, BTreeSet<u64>> = BTreeMap::new();
        for (t, v) in ops.iter().filter_map(AbstractOp::observed_version) {
            versions_of.entry(t).or_default().insert(v);
        }

        // Versions a move's response accounts for: a read after a move
        // observes the moved value's tag at the move's version, which
        // the Rewrite op itself pins during the search — no synthetic
        // needed.
        let move_versions: BTreeSet<u64> = ops
            .iter()
            .filter_map(|op| match op.kind {
                AbstractKind::Rewrite { version, .. } => version,
                _ => None,
            })
            .collect();

        for i in 0..ops.len() {
            let op = ops[i];
            let AbstractKind::Write {
                tag: Some(t),
                version,
                ..
            } = op.kind
            else {
                continue;
            };
            let Some(vs) = versions_of.get(&t) else {
                continue;
            };
            for &v in vs {
                if Some(v) != version && !move_versions.contains(&v) {
                    ops.push(AbstractOp {
                        returned_ns: u64::MAX,
                        kind: AbstractKind::Write {
                            tag: Some(t),
                            version: Some(v),
                            definite: true,
                        },
                        synthetic: true,
                        ..op
                    });
                }
            }
        }
    }

    fn step(&self, reg: &Reg, op: &AbstractOp) -> Option<Reg> {
        match op.kind {
            AbstractKind::Write { tag, version, .. } => reg.written(tag, version),
            // A move rewrites an existing value under a fresh version.
            // (A retried move's extra bumps surface as extra observed
            // versions of the *value's* tag, which the execution split
            // already turned into synthetic writes.)
            AbstractKind::Rewrite { version, .. } => {
                reg.tag.and_then(|_| reg.written(reg.tag, version))
            }
            // Timed-out/errored read: observed nothing, constrains
            // nothing.
            AbstractKind::Read { observed: None } | AbstractKind::Noop => Some(*reg),
            AbstractKind::Read {
                observed: Some((tag, observed)),
            } => {
                if tag != reg.tag {
                    return None;
                }
                let Some(vo) = observed else {
                    return Some(*reg);
                };
                // The observed version is the key's committed latest at
                // bind time: it can never decrease across linearized
                // observations (nor, therefore, undercut the real-time
                // floor), and must agree with a pinned current version
                // exactly.
                let agrees = reg.version.is_none_or(|vr| vr == vo);
                (vo >= reg.floor && agrees).then_some(Reg { floor: vo, ..*reg })
            }
        }
    }
}

/// Checks a whole history against the abstract model, per key, with a
/// per-key search `budget`. A hard violation outranks any budget
/// exhaustion elsewhere; budget exhaustion on one key never silences
/// the remaining keys.
pub fn check_conformance_with_budget(h: &History, budget: u64) -> Verdict {
    search(&VersionedRegister, h, budget)
}

/// [`check_conformance_with_budget`] at [`DEFAULT_BUDGET`].
pub fn check_conformance(h: &History) -> Verdict {
    check_conformance_with_budget(h, DEFAULT_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_chaos::history::{Event, Invocation, Outcome};
    use ring_chaos::search::Violation;

    fn put(client: u32, op: u64, key: u64, t: u64, ver: Option<u64>) -> Event {
        Event {
            client,
            op,
            key,
            call: Invocation::Put {
                tag: (client, op),
                memgest: None,
            },
            invoked_ns: t,
            returned_ns: t + 10,
            outcome: match ver {
                Some(version) => Outcome::PutOk { version },
                None => Outcome::Maybe,
            },
        }
    }

    fn get(client: u32, op: u64, key: u64, t: u64, obs: Option<(u64, u64, u64)>) -> Event {
        Event {
            client,
            op,
            key,
            call: Invocation::Get,
            invoked_ns: t,
            returned_ns: t + 10,
            outcome: match obs {
                Some((tc, to, v)) => Outcome::GetOk {
                    tag: Some((tc as u32, to)),
                    version: Some(v),
                },
                None => Outcome::GetOk {
                    tag: None,
                    version: None,
                },
            },
        }
    }

    #[test]
    fn sequential_writes_and_reads_conform() {
        let h = History {
            events: vec![
                put(0, 0, 7, 0, Some(1)),
                get(0, 1, 7, 100, Some((0, 0, 1))),
                put(1, 0, 7, 200, Some(2)),
                get(1, 1, 7, 300, Some((1, 0, 2))),
            ],
        };
        assert!(check_conformance(&h).is_ok());
    }

    #[test]
    fn reused_version_number_is_non_conformant() {
        // Two different values both claiming version 1: CoordPrepare
        // can never assign the same version twice.
        let h = History {
            events: vec![put(0, 0, 7, 0, Some(1)), put(1, 0, 7, 100, Some(1))],
        };
        assert!(matches!(
            check_conformance(&h),
            Verdict::Violation(Violation { key: 7, .. })
        ));
    }

    #[test]
    fn stale_read_is_non_conformant() {
        // Version 2 returned before the read began, yet the read
        // observed version 1: no order satisfies both real time and the
        // monotone register.
        let h = History {
            events: vec![
                put(0, 0, 7, 0, Some(1)),
                put(0, 1, 7, 100, Some(2)),
                get(1, 0, 7, 200, Some((0, 0, 1))),
            ],
        };
        assert!(matches!(
            check_conformance(&h),
            Verdict::Violation(Violation { key: 7, .. })
        ));
    }

    #[test]
    fn inverted_version_assignment_is_non_conformant() {
        // Strictly ordered in real time, but the later write claims the
        // smaller version: next_version never goes backwards.
        let h = History {
            events: vec![put(0, 0, 7, 0, Some(2)), put(0, 1, 7, 100, Some(1))],
        };
        assert!(matches!(
            check_conformance(&h),
            Verdict::Violation(Violation { key: 7, .. })
        ));
    }

    #[test]
    fn maybe_write_may_have_happened_or_not() {
        // The dangling put may be omitted (read sees v1) in one run and
        // taken (read sees its tag at a learned version) in another;
        // both conform.
        let omitted = History {
            events: vec![
                put(0, 0, 7, 0, Some(1)),
                put(1, 0, 7, 50, None), // Maybe.
                get(0, 1, 7, 200, Some((0, 0, 1))),
            ],
        };
        assert!(check_conformance(&omitted).is_ok());
        let taken = History {
            events: vec![
                put(0, 0, 7, 0, Some(1)),
                put(1, 0, 7, 50, None), // Maybe; read observes it at v2.
                get(0, 1, 7, 200, Some((1, 0, 2))),
            ],
        };
        assert!(check_conformance(&taken).is_ok());
    }

    #[test]
    fn read_cannot_undercut_the_real_time_floor() {
        // Version 3's response returned long before the read began, so
        // the committed latest can never again be seen below 3 — yet
        // the read observed the maybe-write at version 1.
        let h = History {
            events: vec![
                put(0, 0, 7, 0, Some(3)),
                put(1, 0, 7, 50, None), // Maybe.
                get(0, 1, 7, 200, Some((1, 0, 1))),
            ],
        };
        assert!(matches!(
            check_conformance(&h),
            Verdict::Violation(Violation { key: 7, .. })
        ));
    }

    #[test]
    fn retry_duplicate_at_two_versions_conforms() {
        // A timed-out-then-retried put executes twice: its tag is
        // observed at version 1 first, the final response reports
        // version 3, and an interleaved writer took version 2. The
        // duplicate-tolerant rule must accept this.
        let mut dup = put(0, 0, 7, 0, Some(3));
        dup.returned_ns = 1_000;
        let h = History {
            events: vec![
                dup,
                get(1, 0, 7, 100, Some((0, 0, 1))),
                put(1, 1, 7, 200, Some(2)),
                get(1, 2, 7, 300, Some((1, 1, 2))),
                get(1, 3, 7, 2_000, Some((0, 0, 3))),
            ],
        };
        let verdict = check_conformance(&h);
        assert!(verdict.is_ok(), "{verdict}");
    }

    #[test]
    fn read_versions_never_decrease() {
        // Two reads of the same (duplicated) value: the second observes
        // a smaller version after the first returned — committed-latest
        // going backwards.
        let mut dup = put(0, 0, 7, 0, Some(9));
        dup.returned_ns = u64::MAX; // Dangling: placement unconstrained.
        let h = History {
            events: vec![
                dup,
                get(1, 0, 7, 100, Some((0, 0, 5))),
                get(1, 1, 7, 200, Some((0, 0, 3))),
            ],
        };
        assert!(matches!(
            check_conformance(&h),
            Verdict::Violation(Violation { key: 7, .. })
        ));
    }

    #[test]
    fn both_specs_run_the_same_driver() {
        use ring_chaos::PlainRegister;
        // Key 7 blows a tiny budget (overlapping maybe-writes); keys 8
        // and 9 are cheap and clean.
        let mut events = Vec::new();
        for i in 0..24u64 {
            events.push(put(i as u32, 0, 7, 0, None));
        }
        for key in [8, 9] {
            events.push(put(0, key, key, 0, Some(1)));
            events.push(get(0, key + 10, key, 100, Some((0, key, 1))));
        }
        let both = |h: &History, budget| {
            [
                search(&PlainRegister, h, budget),
                search(&VersionedRegister, h, budget),
            ]
        };
        let clean = History {
            events: events.clone(),
        };
        for verdict in both(&clean, u64::MAX) {
            assert!(matches!(verdict, Verdict::Ok { keys: 3, .. }), "{verdict}");
        }
        for verdict in both(&clean, 10) {
            match verdict {
                Verdict::Inconclusive { keys, states } => {
                    assert_eq!(keys, vec![7], "only key 7 ran out of budget");
                    assert!(states > 10, "the clean keys were searched too");
                }
                other => panic!("expected inconclusive, got {other}"),
            }
        }
        // A stale read behind the blown key outranks it.
        events.push(put(0, 20, 9, 200, Some(2)));
        events.push(get(0, 21, 9, 300, Some((0, 9, 1))));
        for verdict in both(
            &History {
                events: events.clone(),
            },
            10,
        ) {
            assert!(
                matches!(verdict, Verdict::Violation(Violation { key: 9, .. })),
                "{verdict}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_per_key() {
        // A contended key with many overlapping maybe-writes blows a
        // tiny budget; an unrelated clean key still passes.
        let mut events = Vec::new();
        for i in 0..24u64 {
            let mut e = put(i as u32, 0, 7, 0, None);
            e.returned_ns = u64::MAX;
            events.push(e);
        }
        events.push(put(0, 1, 8, 0, Some(1)));
        events.push(get(0, 2, 8, 100, Some((0, 1, 1))));
        let h = History { events };
        // Budget below the op count: even one conforming order cannot
        // be completed within it.
        match check_conformance_with_budget(&h, 10) {
            Verdict::Inconclusive { keys, .. } => assert_eq!(keys, vec![7]),
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }
}
