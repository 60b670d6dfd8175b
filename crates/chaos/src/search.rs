//! The history oracle's search core: one per-key linearization search,
//! parameterised by what a key *is* (a [`Spec`]).
//!
//! Ring's KV API is a map of independent registers, so both of its
//! consistency judgements are *P-compositional* (Herlihy & Wing): a
//! history passes iff every per-key subhistory does. [`search`]
//! therefore projects the history per key
//! ([`abstract_ops`] — the
//! oracle's only view of an event) and looks, key by key, for an order
//! of the key's operations that
//!
//! - respects **real time**: an op may go next only if no other
//!   unplaced op returned before it was invoked;
//! - **steps the spec**: each op, applied in that order, is a legal
//!   transition of the key's abstract state ([`Spec::step`]);
//! - treats **indefinite** ops (timed-out or errored writes and moves,
//!   projected with `returned_ns == u64::MAX`) as "maybe happened":
//!   they may be placed anywhere after their invocation or left out.
//!
//! Two specs exist: the plain register of the linearizability checker
//! ([`checker`](crate::checker)) and the versioned register of the
//! model-conformance replay (`ring_model::conform`).
//!
//! Before any search, a *version identity* pass enforces the paper's
//! Section 5.2 invariant as observed by clients: `(key, version)` names
//! exactly one write, so no two distinct tags may ever be returned
//! under the same `(key, version)`.
//!
//! **Budget.** The search is a Wing & Gong depth-first search memoised
//! on `(placed-set, state)`. A key's *states* are the distinct memoised
//! pairs inserted for it; a key whose search would insert more than
//! `budget` of them is reported [`Verdict::Inconclusive`] rather than
//! hanging. The budget is per key: a blown budget on one key never
//! silences the others, and a definite violation on any key outranks
//! it.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;

use ring_kvs::{Key, Version};

use crate::abstract_events::{abstract_ops, AbstractOp};
use crate::history::History;
use crate::Tag;

/// The sequential behaviour of one key, as a transition system over the
/// abstract ops of [`abstract_events`](crate::abstract_events).
pub trait Spec {
    /// Abstract state of one key.
    type State: Clone + Eq + Hash + fmt::Debug;

    /// The state of a key nobody has touched.
    fn initial(&self) -> Self::State;

    /// Rewrites one key's projected ops before the search, e.g. to add
    /// [`synthetic`](AbstractOp::synthetic) ops. The default leaves
    /// them alone.
    fn prepare(&self, _ops: &mut Vec<AbstractOp>) {}

    /// The state after `op` takes effect in `state`, or `None` when it
    /// cannot take effect there. Leaving an indefinite op out is the
    /// search's business, not the spec's.
    fn step(&self, state: &Self::State, op: &AbstractOp) -> Option<Self::State>;
}

/// Verdict over a whole history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every key's subhistory has a legal order.
    Ok {
        /// Distinct keys checked.
        keys: usize,
        /// Events checked.
        events: usize,
        /// Search states explored across all keys.
        states: u64,
    },
    /// Some key's subhistory admits no legal order, with the evidence.
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

impl Verdict {
    /// True for [`Verdict::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Ok {
                keys,
                events,
                states,
            } => write!(
                f,
                "ok: {keys} key(s), {events} op(s), {states} search states"
            ),
            Verdict::Violation(v) => write!(f, "VIOLATION at {v}"),
            Verdict::Inconclusive { keys, states } => write!(
                f,
                "inconclusive on {} key(s) {:?} after {} search states; all others pass",
                keys.len(),
                keys,
                states
            ),
        }
    }
}

/// Evidence for a history no legal order explains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The key on which the violation occurred.
    pub key: Key,
    /// Human-readable description of what failed.
    pub detail: String,
    /// The offending operations: for a failed search, the ops that were
    /// eligible at the deepest prefix reached but could not be placed;
    /// for a version conflict, the two clashing observations.
    pub events: Vec<AbstractOp>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "key {}: {}", self.key, self.detail)?;
        for e in &self.events {
            let returned = match e.returned_ns {
                u64::MAX => "∞".to_string(),
                ns => format!("{ns}ns"),
            };
            let synthetic = if e.synthetic {
                " (synthetic: extra execution of a retried write)"
            } else {
                ""
            };
            writeln!(
                f,
                "  [{:>12}ns..{returned:>14}] client {} op {}{synthetic}: {:?}",
                e.invoked_ns, e.client, e.op, e.kind
            )?;
        }
        Ok(())
    }
}

/// Judges `history` against `spec`, key by key, placing at most
/// `budget` search states per key (see the module docs).
pub fn search<S: Spec>(spec: &S, history: &History, budget: u64) -> Verdict {
    let by_key = abstract_ops(history);
    for (&key, ops) in &by_key {
        if let Some(v) = version_identity(key, ops) {
            return Verdict::Violation(v);
        }
    }
    let keys = by_key.len();
    let mut states = 0u64;
    // A blown budget on one key must not abort the history: a definite
    // violation on a later key outranks "inconclusive", and every key
    // deserves its own verdict.
    let mut inconclusive: Vec<Key> = Vec::new();
    for (key, ops) in by_key {
        let (verdict, explored) = search_key(spec, key, ops, budget);
        states += explored;
        match verdict {
            KeyVerdict::Ordered => {}
            KeyVerdict::Stuck(v) => return Verdict::Violation(v),
            KeyVerdict::OutOfBudget => inconclusive.push(key),
        }
    }
    if !inconclusive.is_empty() {
        return Verdict::Inconclusive {
            keys: inconclusive,
            states,
        };
    }
    Verdict::Ok {
        keys,
        events: history.events.len(),
        states,
    }
}

/// `(key, version)` identifies exactly one write, so no two distinct
/// tags may ever be observed under one version (Section 5.2, and the
/// model's `AtMostOnce`/`CoordPrepare` discipline). The violation
/// carries the two clashing observations.
fn version_identity(key: Key, ops: &[AbstractOp]) -> Option<Violation> {
    let mut seen: BTreeMap<Version, (Tag, &AbstractOp)> = BTreeMap::new();
    for op in ops {
        let Some((tag, version)) = op.observed_version() else {
            continue;
        };
        let &mut (prev_tag, prev_op) = seen.entry(version).or_insert((tag, op));
        if prev_tag != tag {
            return Some(Violation {
                key,
                detail: format!(
                    "version {version} observed with two different values: \
                     tags {prev_tag:?} and {tag:?}"
                ),
                events: vec![*prev_op, *op],
            });
        }
    }
    None
}

/// Fixed-width set of op indices, hashable for memoisation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OpSet(Vec<u64>);

impl OpSet {
    fn new(n: usize) -> OpSet {
        OpSet(vec![0; n.div_ceil(64)])
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// Verdict over one key's subhistory.
enum KeyVerdict {
    Ordered,
    Stuck(Violation),
    OutOfBudget,
}

/// The real-time rule: the ops not yet in `placed` that may go next —
/// those invoked no later than the earliest return among them.
fn eligible(ops: &[AbstractOp], placed: &OpSet) -> Vec<usize> {
    let unplaced = || (0..ops.len()).filter(|&i| !placed.get(i));
    let min_ret = unplaced().map(|i| ops[i].returned_ns).min();
    unplaced()
        .filter(|&i| Some(ops[i].invoked_ns) <= min_ret)
        .collect()
}

/// Exhaustive Wing & Gong search for one key; returns the verdict and
/// the states explored. Iterative: `path` is the chosen prefix and
/// `frames` holds, per depth, the eligible ops and the next choice to
/// try among them, so stack use does not grow with the ops on a key.
fn search_key<S: Spec>(
    spec: &S,
    key: Key,
    mut ops: Vec<AbstractOp>,
    budget: u64,
) -> (KeyVerdict, u64) {
    spec.prepare(&mut ops);
    // Invocation order keeps the search deterministic and tries the
    // likeliest order first.
    ops.sort_by_key(|o| (o.invoked_ns, o.returned_ns, o.client, o.op));
    let n = ops.len();

    let mut placed = OpSet::new(n);
    let mut state = spec.initial();
    // (op placed, state before it) per depth.
    let mut path: Vec<(usize, S::State)> = Vec::with_capacity(n);
    let mut frames = vec![(eligible(&ops, &placed), 0usize)];
    let mut seen: HashSet<(OpSet, S::State)> = HashSet::new();
    let mut states = 0u64;
    // On failure the deepest prefix reached is the evidence.
    let mut deepest = (0usize, placed.clone(), state.clone());

    while path.len() < n {
        let (frontier, cursor) = frames.last_mut().expect("one frame per depth");
        // Two choices per eligible op: place it, or (indefinite ops
        // only) leave it out — it may not have happened.
        let next = (*cursor..2 * frontier.len()).find_map(|choice| {
            *cursor = choice + 1;
            let i = frontier[choice / 2];
            let next = if choice % 2 == 0 {
                spec.step(&state, &ops[i])?
            } else if ops[i].is_definite() {
                return None;
            } else {
                state.clone()
            };
            let mut set = placed.clone();
            set.set(i);
            // An equivalent state was already explored: dead end.
            seen.insert((set, next.clone())).then_some((i, next))
        });
        match next {
            Some((i, next)) => {
                states += 1;
                if states > budget {
                    return (KeyVerdict::OutOfBudget, states);
                }
                placed.set(i);
                path.push((i, std::mem::replace(&mut state, next)));
                frames.push((eligible(&ops, &placed), 0));
                if path.len() > deepest.0 {
                    deepest = (path.len(), placed.clone(), state.clone());
                }
            }
            None => {
                frames.pop();
                let Some((i, prior)) = path.pop() else {
                    let (depth, placed, state) = deepest;
                    let stuck = Violation {
                        key,
                        detail: format!(
                            "no legal order: after {depth} of {n} ops the register holds \
                             {state:?} and none of the eligible ops can apply"
                        ),
                        events: eligible(&ops, &placed).iter().map(|&i| ops[i]).collect(),
                    };
                    return (KeyVerdict::Stuck(stuck), states);
                };
                placed.clear(i);
                state = prior;
            }
        }
    }
    (KeyVerdict::Ordered, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_events::AbstractKind;

    #[test]
    fn evidence_prints_open_windows_and_names_synthetic_ops() {
        let timed_out = AbstractOp {
            client: 3,
            op: 9,
            invoked_ns: 50,
            returned_ns: u64::MAX,
            kind: AbstractKind::Write {
                tag: Some((3, 9)),
                version: None,
                definite: false,
            },
            synthetic: false,
        };
        let extra = AbstractOp {
            synthetic: true,
            ..timed_out
        };
        let text = Violation {
            key: 7,
            detail: "stuck".into(),
            events: vec![timed_out, extra],
        }
        .to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "key 7: stuck");
        assert!(
            lines[1].contains("50ns..") && lines[1].contains('∞'),
            "{text}"
        );
        assert!(!text.contains(&u64::MAX.to_string()), "{text}");
        assert!(!lines[1].contains("synthetic") && lines[2].contains("synthetic"));
    }
}
