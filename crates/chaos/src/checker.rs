//! Per-key linearizability checking over recorded histories: the
//! [`search`](crate::search) core judging every key against a plain
//! register.
//!
//! The sequential register model, over the abstract ops of
//! [`abstract_events::project`](crate::abstract_events::project):
//!
//! - `put(tag)` (a `Write`) sets the register to `tag` — versions are
//!   the search core's version-identity pass's business, and the
//!   versioned register's (`ring_model::conform`);
//! - `get -> tag?` (a `Read`) must observe exactly the model value
//!   (`None` = absent); a get that timed out or errored observed
//!   nothing and constrains nothing;
//! - `delete` (a `Write` of `None`) clears the register — key-not-found
//!   responses are merged with success because a retried delete whose
//!   first response was lost is indistinguishable from one that found
//!   nothing;
//! - `move` (a `Rewrite`, or a `Noop` when it found no value) relocates
//!   the value between memgests without changing it, so it is a
//!   value-level no-op.
//!
//! A put or delete takes effect whether or not its response arrived;
//! failed writes are treated like timeouts (conservative: the node may
//! have applied the op before the error). Such "maybe happened" ops
//! get an infinite response time: the search may place them anywhere
//! after their invocation, including after every observation — which
//! is indistinguishable from never happening.

use crate::abstract_events::{AbstractKind, AbstractOp};
use crate::history::History;
use crate::search::{search, Spec, Verdict};
use crate::Tag;

/// The plain register: a key holds the tag last written, or nothing.
#[derive(Debug)]
pub struct PlainRegister;

impl Spec for PlainRegister {
    type State = Option<Tag>;

    fn initial(&self) -> Option<Tag> {
        None
    }

    fn step(&self, state: &Option<Tag>, op: &AbstractOp) -> Option<Option<Tag>> {
        match op.kind {
            AbstractKind::Write { tag, .. } => Some(tag),
            AbstractKind::Read {
                observed: Some((tag, _)),
            } => (tag == *state).then_some(tag),
            AbstractKind::Read { observed: None }
            | AbstractKind::Rewrite { .. }
            | AbstractKind::Noop => Some(*state),
        }
    }
}

/// Default per-key search budget (states explored).
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// Checks a history with the default search budget.
pub fn check_history(history: &History) -> Verdict {
    check_history_with_budget(history, DEFAULT_BUDGET)
}

/// Checks a history, exploring at most `budget` search states per key.
pub fn check_history_with_budget(history: &History, budget: u64) -> Verdict {
    search(&PlainRegister, history, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Event, Invocation, Outcome};
    use ring_kvs::{Key, Version};

    fn put(client: u32, op: u64, key: Key, inv: u64, ret: u64, version: Version) -> Event {
        Event {
            client,
            op,
            key,
            call: Invocation::Put {
                tag: (client, op),
                memgest: None,
            },
            invoked_ns: inv,
            returned_ns: ret,
            outcome: Outcome::PutOk { version },
        }
    }

    fn get(client: u32, op: u64, key: Key, inv: u64, ret: u64, tag: Option<Tag>) -> Event {
        Event {
            client,
            op,
            key,
            call: Invocation::Get,
            invoked_ns: inv,
            returned_ns: ret,
            outcome: Outcome::GetOk {
                tag,
                // A version unique per tag, so the version-consistency
                // pass never sees a fabricated conflict in valid tests.
                version: tag.map(|t| 1000 + t.1),
            },
        }
    }

    fn history(events: Vec<Event>) -> History {
        History { events }
    }

    #[test]
    fn sequential_history_accepted() {
        let h = history(vec![
            put(0, 0, 5, 0, 10, 1),
            get(1, 1, 5, 20, 30, Some((0, 0))),
            put(0, 2, 5, 40, 50, 2),
            get(1, 3, 5, 60, 70, Some((0, 2))),
        ]);
        assert!(check_history(&h).is_ok(), "{:?}", check_history(&h));
    }

    #[test]
    fn concurrent_reads_may_split_around_a_write() {
        // Two gets concurrent with a put: one sees the old value, the
        // other the new one. Linearizable.
        let h = history(vec![
            put(0, 0, 7, 0, 10, 1),
            put(0, 1, 7, 100, 200, 2),
            get(1, 2, 7, 110, 190, Some((0, 0))),
            get(2, 3, 7, 120, 180, Some((0, 1))),
        ]);
        assert!(check_history(&h).is_ok(), "{:?}", check_history(&h));
    }

    #[test]
    fn stale_read_after_commit_rejected() {
        // put(tag B) completes at t=200; a later get observes the
        // overwritten tag A. Non-linearizable: the checker must say so
        // and name the offending ops.
        let h = history(vec![
            put(0, 0, 9, 0, 10, 1),
            put(0, 1, 9, 100, 200, 2),
            get(1, 2, 9, 300, 400, Some((0, 0))),
        ]);
        match check_history(&h) {
            Verdict::Violation(v) => {
                assert_eq!(v.key, 9);
                // The stale get is part of the evidence.
                assert!(
                    v.events.iter().any(|e| e.client == 1 && e.op == 2),
                    "evidence must include the stale read: {v}"
                );
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn read_of_never_written_value_rejected() {
        let h = history(vec![
            put(0, 0, 3, 0, 10, 1),
            get(1, 1, 3, 20, 30, Some((9, 9))),
        ]);
        assert!(!check_history(&h).is_ok());
    }

    #[test]
    fn lost_update_rejected() {
        // Sequential put A, put B, then two sequential gets observing
        // B then A: A "came back" — non-linearizable.
        let h = history(vec![
            put(0, 0, 4, 0, 10, 1),
            put(0, 1, 4, 20, 30, 2),
            get(1, 2, 4, 40, 50, Some((0, 1))),
            get(1, 3, 4, 60, 70, Some((0, 0))),
        ]);
        assert!(!check_history(&h).is_ok());
    }

    #[test]
    fn delete_then_absent_read_accepted() {
        let mut del = Event {
            client: 2,
            op: 2,
            key: 6,
            call: Invocation::Delete,
            invoked_ns: 20,
            returned_ns: 30,
            outcome: Outcome::DeleteOk,
        };
        let h = history(vec![
            put(0, 0, 6, 0, 10, 1),
            del.clone(),
            get(1, 3, 6, 40, 50, None),
        ]);
        assert!(check_history(&h).is_ok(), "{:?}", check_history(&h));
        // Whereas observing the value after a completed delete is only
        // OK if the get was concurrent with the delete.
        del.invoked_ns = 20;
        del.returned_ns = 30;
        let h2 = history(vec![
            put(0, 0, 6, 0, 10, 1),
            del,
            get(1, 3, 6, 40, 50, Some((0, 0))),
        ]);
        assert!(!check_history(&h2).is_ok());
    }

    #[test]
    fn timed_out_put_may_or_may_not_take_effect() {
        let maybe_put = Event {
            client: 0,
            op: 1,
            key: 8,
            call: Invocation::Put {
                tag: (0, 1),
                memgest: None,
            },
            invoked_ns: 20,
            returned_ns: 40,
            outcome: Outcome::Maybe,
        };
        // Case 1: a later read sees the timed-out put. OK.
        let h1 = history(vec![
            put(0, 0, 8, 0, 10, 1),
            maybe_put.clone(),
            get(1, 2, 8, 50, 60, Some((0, 1))),
        ]);
        assert!(check_history(&h1).is_ok(), "{:?}", check_history(&h1));
        // Case 2: a later read still sees the old value. Also OK.
        let h2 = history(vec![
            put(0, 0, 8, 0, 10, 1),
            maybe_put,
            get(1, 2, 8, 50, 60, Some((0, 0))),
        ]);
        assert!(check_history(&h2).is_ok(), "{:?}", check_history(&h2));
    }

    #[test]
    fn maybe_put_cannot_take_effect_before_invocation() {
        // The timed-out put is invoked *after* the get returned, so the
        // get cannot have observed it.
        let h = history(vec![
            get(1, 0, 2, 0, 10, Some((0, 1))),
            Event {
                client: 0,
                op: 1,
                key: 2,
                call: Invocation::Put {
                    tag: (0, 1),
                    memgest: None,
                },
                invoked_ns: 20,
                returned_ns: 40,
                outcome: Outcome::Maybe,
            },
        ]);
        assert!(!check_history(&h).is_ok());
    }

    #[test]
    fn version_conflict_detected() {
        // Two different tags observed under the same (key, version).
        let h = history(vec![put(0, 0, 1, 0, 10, 7), put(1, 1, 1, 1000, 1010, 7)]);
        match check_history(&h) {
            Verdict::Violation(v) => {
                assert!(v.detail.contains("version 7"), "{}", v.detail);
                assert_eq!(v.events.len(), 2);
            }
            other => panic!("expected version violation, got {other:?}"),
        }
    }

    #[test]
    fn move_is_value_transparent() {
        let mv = Event {
            client: 2,
            op: 2,
            key: 11,
            call: Invocation::Move { to: 1 },
            invoked_ns: 20,
            returned_ns: 30,
            outcome: Outcome::MoveOk { version: 2 },
        };
        let h = history(vec![
            put(0, 0, 11, 0, 10, 1),
            mv,
            get(1, 3, 11, 40, 50, Some((0, 0))),
        ]);
        assert!(check_history(&h).is_ok(), "{:?}", check_history(&h));
    }

    #[test]
    fn keys_are_checked_independently() {
        // A violation on key 1 is found even among clean keys.
        let mut events = Vec::new();
        for key in 0..20u64 {
            events.push(put(0, key * 10, key, key * 100, key * 100 + 10, 1));
            events.push(get(
                1,
                key * 10 + 1,
                key,
                key * 100 + 20,
                key * 100 + 30,
                Some((0, key * 10)),
            ));
        }
        assert!(check_history(&history(events.clone())).is_ok());
        events.push(get(2, 999, 1, 5000, 5010, None)); // Value vanished.
        match check_history(&history(events)) {
            Verdict::Violation(v) => assert_eq!(v.key, 1),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_not_crashed() {
        // Dozens of overlapping maybe-puts force a wide search.
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(Event {
                client: i as u32,
                op: i,
                key: 0,
                call: Invocation::Put {
                    tag: (i as u32, i),
                    memgest: None,
                },
                invoked_ns: 0,
                returned_ns: 10,
                outcome: Outcome::Maybe,
            });
        }
        events.push(get(99, 99, 0, 20, 30, Some((3, 3))));
        match check_history_with_budget(&history(events), 50) {
            Verdict::Inconclusive { keys, .. } => assert_eq!(keys, vec![0]),
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    /// Dozens of overlapping maybe-puts on `key`, enough to blow a
    /// small search budget.
    fn budget_blower(key: Key) -> Vec<Event> {
        (0..40u64)
            .map(|i| Event {
                client: i as u32,
                op: key * 1000 + i,
                key,
                call: Invocation::Put {
                    tag: (i as u32, key * 1000 + i),
                    memgest: None,
                },
                invoked_ns: 0,
                returned_ns: 10,
                outcome: Outcome::Maybe,
            })
            .collect()
    }

    #[test]
    fn budget_exhaustion_is_per_key_not_per_history() {
        // Key 0 blows the budget; keys 1 and 2 are cheap and clean. The
        // verdict must be inconclusive on key 0 *only*, with the other
        // keys checked (not silently skipped).
        let mut events = budget_blower(0);
        events.push(get(90, 9000, 0, 20, 30, Some((3, 3))));
        for key in [1u64, 2] {
            events.push(put(50, key * 100, key, 0, 10, 1));
            events.push(get(51, key * 100 + 1, key, 20, 30, Some((50, key * 100))));
        }
        match check_history_with_budget(&history(events), 50) {
            Verdict::Inconclusive { keys, states } => {
                assert_eq!(keys, vec![0], "only key 0 ran out of budget");
                // The clean keys' states are counted too: they were
                // actually searched, past the exhausted key.
                assert!(states > 50, "clean keys explored after the blown one");
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn violation_behind_a_blown_budget_is_still_found() {
        // Key 0 exhausts the budget, but key 5 holds a definite stale
        // read: the checker must keep going and report the violation,
        // which outranks "inconclusive".
        let mut events = budget_blower(0);
        events.push(put(50, 500, 5, 0, 10, 1));
        events.push(put(50, 501, 5, 20, 30, 2));
        events.push(get(51, 502, 5, 40, 50, Some((50, 500))));
        match check_history_with_budget(&history(events), 50) {
            Verdict::Violation(v) => assert_eq!(v.key, 5),
            other => panic!("expected violation on key 5, got {other:?}"),
        }
    }
}
