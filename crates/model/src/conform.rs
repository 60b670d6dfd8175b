//! Trace conformance: does a recorded chaos [`History`] refine the
//! `RingWriteSemantics` model?
//!
//! The refinement mapping (`ring_chaos::abstract_events`, DESIGN.md
//! §11) projects each concrete event onto an abstract versioned-register
//! operation. This module then searches, per key (P-compositionality,
//! like the linearizability checker), for an order of those operations
//! that (a) respects real-time precedence and (b) steps the abstract
//! register exactly as the model's write path allows.
//!
//! This is deliberately stronger than bare linearizability over
//! get/put: it cross-checks the *version numbers* the implementation
//! handed out against the model's `CoordPrepare`/`CommitFlag`
//! discipline:
//!
//! - **Version identity** (pre-pass): `(key, version)` names exactly
//!   one value — two different tags under one version is an immediate
//!   violation.
//! - **Real-time version floor**: once any response proves version `v`
//!   committed for a key, an operation *invoked after that response
//!   returned* can never observe a smaller version as the key's latest.
//! - **Monotone read versions**: in linearization order, the versions
//!   reads observe never decrease.
//! - **Monotone version assignment**: writes whose tag was only ever
//!   observed at one version must linearize in strictly increasing
//!   version order (the `next_version` discipline).
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
//! invocation or omitted entirely — "maybe happened" semantics.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use ring_chaos::abstract_events::{abstract_ops, AbstractKind, AbstractOp};
use ring_chaos::{History, Tag};
use ring_kvs::Key;

/// Default per-key search budget (memoized states); generous for soak
/// histories, where per-key concurrency is bounded by the client count.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

/// Verdict of a conformance check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conformance {
    /// Every key's subhistory refines the model.
    Ok {
        /// Keys checked.
        keys: usize,
        /// Memoized search states visited in total.
        states: u64,
    },
    /// Some key's subhistory admits no conforming order.
    Violation {
        /// The offending key.
        key: Key,
        /// Human-readable evidence.
        detail: String,
    },
    /// The search budget ran out on some keys; every other key passed.
    Inconclusive {
        /// Keys whose search was cut short.
        keys: Vec<Key>,
        /// Memoized search states visited in total.
        states: u64,
    },
}

impl Conformance {
    /// True when the whole history conformed.
    pub fn is_ok(&self) -> bool {
        matches!(self, Conformance::Ok { .. })
    }
}

impl fmt::Display for Conformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conformance::Ok { keys, states } => {
                write!(f, "conforms: {keys} key(s), {states} search states")
            }
            Conformance::Violation { key, detail } => {
                write!(f, "NON-CONFORMANT at key {key}:\n{detail}")
            }
            Conformance::Inconclusive { keys, states } => write!(
                f,
                "inconclusive on {} key(s) {:?} after {} search states; all others conform",
                keys.len(),
                keys,
                states
            ),
        }
    }
}

/// The abstract versioned register: the model's view of one key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Reg {
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
    fn initial() -> Reg {
        Reg {
            tag: None,
            version: None,
            floor: 0,
        }
    }
}

/// Fixed-width applied-set bitmap, hashable for memoization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Applied(Vec<u64>);

impl Applied {
    fn new(n: usize) -> Applied {
        Applied(vec![0; n.div_ceil(64)])
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

enum KeySearch {
    Conforms,
    Fails,
    OutOfBudget,
}

struct Search<'a> {
    ops: &'a [AbstractOp],
    /// Per op (index-aligned with `ops`), the highest version proven
    /// committed by responses that returned before this op was invoked.
    tfloor: &'a [u64],
    seen: HashSet<(Applied, Reg)>,
    budget: u64,
    visited: u64,
}

impl Search<'_> {
    /// All legal register steps for linearizing op `i` next (an apply,
    /// plus a skip for indefinite ops).
    fn apply_choices(&self, reg: &Reg, i: usize) -> Vec<Reg> {
        let op = &self.ops[i];
        let mut out = Vec::new();
        match &op.kind {
            AbstractKind::Write {
                tag,
                version,
                definite,
            } => {
                match *version {
                    // Pinned execution: the next_version discipline
                    // demands a fresh, larger version.
                    Some(v) => {
                        if v > reg.floor {
                            out.push(Reg {
                                tag: *tag,
                                version: Some(v),
                                floor: v,
                            });
                        }
                    }
                    // Version unknown (deletes, lost responses): the
                    // write happened at *some* fresh version nobody
                    // ever observed.
                    None => out.push(Reg {
                        tag: *tag,
                        version: None,
                        floor: reg.floor,
                    }),
                }
                if !definite {
                    out.push(reg.clone()); // May not have happened.
                }
            }
            AbstractKind::Rewrite { version, definite } => {
                // A move rewrites an existing value under a fresh
                // version. (A retried move's extra bumps surface as
                // extra observed versions of the *value's* tag, which
                // the execution split already turned into synthetic
                // writes.)
                if reg.tag.is_some() {
                    match *version {
                        Some(v) => {
                            if v > reg.floor {
                                out.push(Reg {
                                    tag: reg.tag,
                                    version: Some(v),
                                    floor: v,
                                });
                            }
                        }
                        None => out.push(Reg {
                            tag: reg.tag,
                            version: None,
                            floor: reg.floor,
                        }),
                    }
                }
                if !definite {
                    out.push(reg.clone());
                }
            }
            AbstractKind::Read { observed } => {
                let Some((tag, vo)) = observed else {
                    // Timed-out/errored read: observed nothing,
                    // constrains nothing.
                    out.push(reg.clone());
                    return out;
                };
                if *tag != reg.tag {
                    return out;
                }
                match *vo {
                    None => out.push(reg.clone()),
                    Some(vo) => {
                        // The observed version is the key's committed
                        // latest at bind time: it can never undercut
                        // the real-time floor, never decrease across
                        // linearized observations, and must agree with
                        // a pinned current version exactly.
                        if vo < self.tfloor[i] || vo < reg.floor {
                            return out;
                        }
                        if let Some(vr) = reg.version {
                            if vo != vr {
                                return out;
                            }
                        }
                        let mut r = reg.clone();
                        r.floor = vo;
                        out.push(r);
                    }
                }
            }
            AbstractKind::Noop => out.push(reg.clone()),
        }
        out
    }

    /// Depth-first search for a conforming order of the remaining ops.
    /// Real-time rule: an op may go next only if no *other* unapplied
    /// op returned before it was invoked.
    fn dfs(&mut self, applied: &mut Applied, reg: &Reg, remaining: usize) -> KeySearch {
        if remaining == 0 {
            return KeySearch::Conforms;
        }
        if self.visited >= self.budget {
            return KeySearch::OutOfBudget;
        }
        self.visited += 1;
        if !self.seen.insert((applied.clone(), reg.clone())) {
            return KeySearch::Fails; // Memoized dead end.
        }

        // Earliest return among unapplied ops bounds which may go next.
        let mut min_ret = u64::MAX;
        for (i, op) in self.ops.iter().enumerate() {
            if !applied.get(i) && op.returned_ns < min_ret {
                min_ret = op.returned_ns;
            }
        }
        for i in 0..self.ops.len() {
            if applied.get(i) || self.ops[i].invoked_ns > min_ret {
                continue;
            }
            for next in self.apply_choices(reg, i) {
                applied.set(i);
                match self.dfs(applied, &next, remaining - 1) {
                    KeySearch::Conforms => return KeySearch::Conforms,
                    KeySearch::Fails => {}
                    KeySearch::OutOfBudget => {
                        applied.clear(i);
                        return KeySearch::OutOfBudget;
                    }
                }
                applied.clear(i);
            }
        }
        KeySearch::Fails
    }
}

fn render_ops(ops: &[AbstractOp]) -> String {
    let mut s = String::new();
    for op in ops {
        s.push_str(&format!(
            "  client {} op {} [{} .. {}]: {:?}\n",
            op.client,
            op.op,
            op.invoked_ns,
            if op.returned_ns == u64::MAX {
                "∞".to_string()
            } else {
                op.returned_ns.to_string()
            },
            op.kind
        ));
    }
    s
}

/// The version an op's *response* proves committed (for floors and the
/// duplicate-evidence map).
fn proven_version(op: &AbstractOp) -> Option<u64> {
    match &op.kind {
        AbstractKind::Write { version, .. } | AbstractKind::Rewrite { version, .. } => *version,
        AbstractKind::Read { observed } => observed.and_then(|(_, v)| v),
        AbstractKind::Noop => None,
    }
}

/// Checks one key's abstract subhistory with a dedicated budget.
fn check_key(ops: &[AbstractOp], budget: u64) -> (KeySearch, u64, Vec<AbstractOp>) {
    // Every version each tag was observed at, from write responses and
    // read observations. More than one ⇒ the op executed more than once
    // (client retries under fresh request ids).
    let mut versions_of: BTreeMap<Tag, BTreeSet<u64>> = BTreeMap::new();
    for op in ops.iter() {
        let observed = match &op.kind {
            AbstractKind::Write {
                tag: Some(t),
                version: Some(v),
                ..
            } => Some((*t, *v)),
            AbstractKind::Read {
                observed: Some((Some(t), Some(v))),
            } => Some((*t, *v)),
            _ => None,
        };
        if let Some((t, v)) = observed {
            versions_of.entry(t).or_default().insert(v);
        }
    }

    // Versions a move's response accounts for: a read after a move
    // observes the moved value's tag at the move's version, which the
    // Rewrite op itself pins during the search — no synthetic needed.
    let move_versions: BTreeSet<u64> = ops
        .iter()
        .filter_map(|op| match op.kind {
            AbstractKind::Rewrite { version, .. } => version,
            _ => None,
        })
        .collect();

    // Execution split: one pinned, definite write per observed version
    // of each tag. The response execution keeps its real-time window;
    // the extra executions' commits may land arbitrarily late.
    let mut expanded: Vec<AbstractOp> = Vec::with_capacity(ops.len());
    for op in ops.iter() {
        expanded.push(*op);
        if let AbstractKind::Write {
            tag: Some(t),
            version,
            ..
        } = op.kind
        {
            let Some(vs) = versions_of.get(&t) else {
                continue;
            };
            for &v in vs {
                if Some(v) != version && !move_versions.contains(&v) {
                    expanded.push(AbstractOp {
                        returned_ns: u64::MAX,
                        kind: AbstractKind::Write {
                            tag: Some(t),
                            version: Some(v),
                            definite: true,
                        },
                        ..*op
                    });
                }
            }
        }
    }
    // Stable order by invocation keeps the search deterministic.
    expanded.sort_by_key(|op| (op.invoked_ns, op.client, op.op, op.returned_ns));

    // Real-time floor: responses carrying a version prove the key's
    // committed-latest reached it by their return time.
    let tfloor: Vec<u64> = expanded
        .iter()
        .map(|op| {
            expanded
                .iter()
                .filter(|p| p.returned_ns < op.invoked_ns)
                .filter_map(proven_version)
                .max()
                .unwrap_or(0)
        })
        .collect();

    let mut search = Search {
        ops: &expanded,
        tfloor: &tfloor,
        seen: HashSet::new(),
        budget,
        visited: 0,
    };
    let mut applied = Applied::new(expanded.len());
    let n = expanded.len();
    let verdict = search.dfs(&mut applied, &Reg::initial(), n);
    let visited = search.visited;
    (verdict, visited, expanded)
}

/// Checks a whole history against the abstract model, per key, with a
/// per-key search `budget`. A hard violation outranks any budget
/// exhaustion elsewhere; budget exhaustion on one key never silences
/// the remaining keys.
pub fn check_conformance_with_budget(h: &History, budget: u64) -> Conformance {
    if let Some(v) = ring_chaos::checker::check_version_consistency(h) {
        return Conformance::Violation {
            key: v.key,
            detail: v.detail,
        };
    }
    let by_key = abstract_ops(h);
    let mut total_states = 0u64;
    let mut inconclusive = Vec::new();
    let mut keys = 0usize;
    for (key, ops) in by_key.iter() {
        keys += 1;
        let (verdict, visited, expanded) = check_key(ops, budget);
        total_states += visited;
        match verdict {
            KeySearch::Conforms => {}
            KeySearch::Fails => {
                return Conformance::Violation {
                    key: *key,
                    detail: render_ops(&expanded),
                }
            }
            KeySearch::OutOfBudget => inconclusive.push(*key),
        }
    }
    if inconclusive.is_empty() {
        Conformance::Ok {
            keys,
            states: total_states,
        }
    } else {
        Conformance::Inconclusive {
            keys: inconclusive,
            states: total_states,
        }
    }
}

/// [`check_conformance_with_budget`] at [`DEFAULT_BUDGET`].
pub fn check_conformance(h: &History) -> Conformance {
    check_conformance_with_budget(h, DEFAULT_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_chaos::history::{Event, Invocation, Outcome};

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
            Conformance::Violation { key: 7, .. }
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
            Conformance::Violation { key: 7, .. }
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
            Conformance::Violation { key: 7, .. }
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
            Conformance::Violation { key: 7, .. }
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
            Conformance::Violation { key: 7, .. }
        ));
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
            Conformance::Inconclusive { keys, .. } => assert_eq!(keys, vec![7]),
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }
}
