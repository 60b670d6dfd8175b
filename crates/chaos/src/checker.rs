//! Per-key Wing & Gong linearizability checking over recorded
//! histories.
//!
//! Ring's KV API is a map of independent registers, so linearizability
//! is *P-compositional* (Herlihy & Wing): a history is linearizable iff
//! every per-key subhistory is. The checker therefore partitions the
//! history by key and runs an exhaustive linearization search per key
//! against a sequential register model:
//!
//! - `put(tag)` sets the register to `tag` (versions are checked
//!   separately, see below);
//! - `get -> tag?` must observe exactly the model value (`None` =
//!   absent);
//! - `delete` clears the register — key-not-found responses are merged
//!   with success because a retried delete whose first response was
//!   lost is indistinguishable from one that found nothing;
//! - `move` relocates the value between memgests without changing it,
//!   so it is a value-level no-op (its version still participates in
//!   the version consistency check).
//!
//! Operations that timed out ("maybe happened") get an infinite
//! response time: the search may place them anywhere after their
//! invocation, including after every observation — which is
//! indistinguishable from never happening.
//!
//! On top of the per-key search, a global *version consistency* pass
//! enforces the paper's Section 5.2 invariant as observed by clients:
//! `(key, version)` identifies one write, so no two distinct tags may
//! ever be returned under the same `(key, version)`.

use std::collections::{BTreeMap, HashMap, HashSet};

use ring_kvs::{Key, Version};

use crate::history::{Event, History, Invocation, Outcome};
use crate::Tag;

/// Result of checking one history.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// The history is linearizable and version-consistent.
    Ok {
        /// Distinct keys checked.
        keys: usize,
        /// Events checked.
        events: usize,
        /// Search states explored across all keys.
        states: u64,
    },
    /// A consistency violation, with the evidence.
    Violation(Violation),
    /// Some per-key searches ran out of budget before a verdict (raise
    /// the budget); every other key was still checked and found clean.
    Inconclusive {
        /// The keys whose searches exceeded the budget.
        keys: Vec<Key>,
        /// States explored before giving up, summed over all keys.
        states: u64,
    },
}

impl CheckOutcome {
    /// True for [`CheckOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CheckOutcome::Ok { .. })
    }
}

/// Evidence for a non-linearizable (or version-inconsistent) history.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The key on which the violation occurred.
    pub key: Key,
    /// Human-readable description of what failed.
    pub detail: String,
    /// The offending operations: for a linearizability failure, the
    /// events that could not be linearized at the search frontier; for
    /// a version conflict, the two clashing observations.
    pub events: Vec<Event>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "key {}: {}", self.key, self.detail)?;
        for e in &self.events {
            writeln!(
                f,
                "  [{:>12}ns..{:>12}ns] client {} op {}: {:?} -> {:?}",
                e.invoked_ns,
                if e.returned_ns == u64::MAX {
                    u64::MAX
                } else {
                    e.returned_ns
                },
                e.client,
                e.op,
                e.call,
                e.outcome
            )?;
        }
        Ok(())
    }
}

/// Default per-key search budget (states explored).
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// Checks a history with the default search budget.
pub fn check_history(history: &History) -> CheckOutcome {
    check_history_with_budget(history, DEFAULT_BUDGET)
}

/// Checks a history, exploring at most `budget` search states per key.
pub fn check_history_with_budget(history: &History, budget: u64) -> CheckOutcome {
    if let Some(v) = check_version_consistency(history) {
        return CheckOutcome::Violation(v);
    }

    let mut by_key: BTreeMap<Key, Vec<&Event>> = BTreeMap::new();
    for e in &history.events {
        by_key.entry(e.key).or_default().push(e);
    }

    let mut total_states = 0u64;
    let keys = by_key.len();
    // A blown budget on one key must not abort the history: a definite
    // violation on a later key outranks "inconclusive", and every key
    // deserves its own verdict.
    let mut inconclusive: Vec<Key> = Vec::new();
    for (key, events) in by_key {
        match check_key(key, &events, budget) {
            KeyVerdict::Linearizable { states } => total_states += states,
            KeyVerdict::Violation(v) => return CheckOutcome::Violation(v),
            KeyVerdict::OutOfBudget { states } => {
                total_states += states;
                inconclusive.push(key);
            }
        }
    }
    if !inconclusive.is_empty() {
        return CheckOutcome::Inconclusive {
            keys: inconclusive,
            states: total_states,
        };
    }
    CheckOutcome::Ok {
        keys,
        events: history.events.len(),
        states: total_states,
    }
}

/// `(key, version)` identifies exactly one write, so no two distinct
/// tags may ever be observed under one version (Section 5.2, and the
/// model's `AtMostOnce`/`CoordPrepare` discipline). The pre-pass of both
/// history oracles — this checker and `ring_model::conform`. The
/// violation carries the two clashing observations.
pub fn check_version_consistency(history: &History) -> Option<Violation> {
    let mut seen: HashMap<(Key, Version), (Tag, &Event)> = HashMap::new();
    for e in &history.events {
        let observed: Option<(Version, Tag)> = match (&e.call, &e.outcome) {
            (Invocation::Put { tag, .. }, Outcome::PutOk { version }) => Some((*version, *tag)),
            (
                Invocation::Get,
                Outcome::GetOk {
                    tag: Some(tag),
                    version: Some(version),
                },
            ) => Some((*version, *tag)),
            _ => None,
        };
        let Some((version, tag)) = observed else {
            continue;
        };
        match seen.get(&(e.key, version)) {
            Some(&(prev_tag, prev_e)) if prev_tag != tag => {
                return Some(Violation {
                    key: e.key,
                    detail: format!(
                        "version {version} observed with two different values: \
                         tags {prev_tag:?} and {tag:?}"
                    ),
                    events: vec![prev_e.clone(), e.clone()],
                });
            }
            Some(_) => {}
            None => {
                seen.insert((e.key, version), (tag, e));
            }
        }
    }
    None
}

/// One operation in a per-key search, reduced to model terms.
struct KeyOp<'a> {
    event: &'a Event,
    inv: u64,
    /// `u64::MAX` for "maybe happened" ops: the search may place them
    /// arbitrarily late.
    ret: u64,
    sem: Sem,
}

/// Sequential-model semantics of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sem {
    /// Always applicable; sets the register.
    Write(Option<Tag>),
    /// Applicable iff the register equals the observed value.
    Read(Option<Tag>),
    /// Always applicable; leaves the register unchanged.
    Noop,
}

enum KeyVerdict {
    Linearizable { states: u64 },
    Violation(Violation),
    OutOfBudget { states: u64 },
}

fn sem_of(e: &Event) -> Sem {
    match (&e.call, &e.outcome) {
        // A put takes effect whether or not its response arrived; if it
        // never executed, placing it after every observation models
        // that. Failed writes are treated like timeouts (conservative:
        // the node may have applied the op before the error).
        (Invocation::Put { tag, .. }, _) => Sem::Write(Some(*tag)),
        (Invocation::Delete, _) => Sem::Write(None),
        (Invocation::Move { .. }, _) => Sem::Noop,
        (Invocation::Get, Outcome::GetOk { tag, .. }) => Sem::Read(*tag),
        // A get that timed out or errored observed nothing.
        (Invocation::Get, _) => Sem::Noop,
    }
}

fn is_maybe(e: &Event) -> bool {
    matches!(e.outcome, Outcome::Maybe | Outcome::Failed(_))
}

/// Exhaustive Wing & Gong search for one key, with memoization on
/// (linearized-set, register value).
fn check_key(key: Key, events: &[&Event], budget: u64) -> KeyVerdict {
    let mut ops: Vec<KeyOp<'_>> = events
        .iter()
        .map(|e| KeyOp {
            event: e,
            inv: e.invoked_ns,
            ret: if is_maybe(e) { u64::MAX } else { e.returned_ns },
            sem: sem_of(e),
        })
        .collect();
    ops.sort_by_key(|o| (o.inv, o.ret));
    let n = ops.len();
    let words = n.div_ceil(64);

    // DFS over (linearized bitset, register). `path` is the chosen
    // linearization prefix; on failure the deepest frontier reached is
    // the evidence.
    let mut linearized = vec![0u64; words];
    let mut state: Option<Tag> = None;
    let mut done = 0usize;
    // Per-depth iteration cursor: which op index to try next.
    let mut cursor = vec![0usize; n + 1];
    let mut path: Vec<(usize, Option<Tag>)> = Vec::new(); // (op, prior state)
    let mut seen: HashSet<(Vec<u64>, Option<Tag>)> = HashSet::new();
    let mut states = 0u64;
    let mut deepest = 0usize;
    let mut deepest_set: Vec<u64> = linearized.clone();
    let mut deepest_state: Option<Tag> = None;

    let test_bit = |set: &[u64], i: usize| set[i / 64] >> (i % 64) & 1 == 1;

    loop {
        if done == n {
            return KeyVerdict::Linearizable { states };
        }
        // Earliest response among remaining ops bounds the candidates:
        // an op invoked after some remaining op completed cannot be
        // linearized before it.
        let min_ret = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| !test_bit(&linearized, *i))
            .map(|(_, o)| o.ret)
            .min()
            .expect("done < n");

        let mut advanced = false;
        while cursor[done] < n {
            let i = cursor[done];
            cursor[done] += 1;
            if test_bit(&linearized, i) || ops[i].inv > min_ret {
                continue;
            }
            // Applicability against the model.
            let next_state = match ops[i].sem {
                Sem::Write(v) => v,
                Sem::Noop => state,
                Sem::Read(observed) => {
                    if observed != state {
                        continue;
                    }
                    state
                }
            };
            // Take the step.
            let mut next_set = linearized.clone();
            next_set[i / 64] |= 1 << (i % 64);
            if !seen.insert((next_set.clone(), next_state)) {
                continue; // Equivalent state already explored.
            }
            states += 1;
            if states > budget {
                return KeyVerdict::OutOfBudget { states };
            }
            path.push((i, state));
            linearized = next_set;
            state = next_state;
            done += 1;
            cursor[done] = 0;
            if done > deepest {
                deepest = done;
                deepest_set = linearized.clone();
                deepest_state = state;
            }
            advanced = true;
            break;
        }
        if advanced {
            continue;
        }
        // Backtrack.
        match path.pop() {
            Some((i, prior)) => {
                linearized[i / 64] &= !(1 << (i % 64));
                state = prior;
                done -= 1;
            }
            None => {
                // Exhausted: not linearizable. Report the frontier at
                // the deepest prefix reached: the ops that were
                // eligible there but could not be applied.
                let min_ret = ops
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !test_bit(&deepest_set, *i))
                    .map(|(_, o)| o.ret)
                    .min()
                    .unwrap_or(u64::MAX);
                let stuck: Vec<Event> = ops
                    .iter()
                    .enumerate()
                    .filter(|(i, o)| !test_bit(&deepest_set, *i) && o.inv <= min_ret)
                    .map(|(_, o)| o.event.clone())
                    .collect();
                return KeyVerdict::Violation(Violation {
                    key,
                    detail: format!(
                        "no linearization: after {} of {} ops the register holds \
                         {deepest_state:?} and none of the eligible ops can apply",
                        deepest, n
                    ),
                    events: stuck,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Event, Invocation, Outcome};

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
            CheckOutcome::Violation(v) => {
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
            CheckOutcome::Violation(v) => {
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
            CheckOutcome::Violation(v) => assert_eq!(v.key, 1),
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
            CheckOutcome::Inconclusive { keys, .. } => assert_eq!(keys, vec![0]),
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
            CheckOutcome::Inconclusive { keys, states } => {
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
            CheckOutcome::Violation(v) => assert_eq!(v.key, 5),
            other => panic!("expected violation on key 5, got {other:?}"),
        }
    }
}
