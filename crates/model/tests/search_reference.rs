//! The history oracle's search core against a brute-force reference,
//! under both specs: the memoisation, the `min_ret` candidate pruning
//! and the leave-out rule for indefinite ops must accept exactly the
//! histories that plain enumeration accepts.

use proptest::prelude::*;
use ring_chaos::abstract_events::{project, AbstractKind, AbstractOp};
use ring_chaos::history::{Event, History, Invocation, Outcome};
use ring_chaos::{search, PlainRegister, Spec};
use ring_model::VersionedRegister;

/// Largest per-key op count (after `prepare`) the reference enumerates.
const MAX_OPS: usize = 7;

/// Does some order of `rest` step the spec from `state` to the end?
/// Tries every op next that real time allows (pairwise: nothing still
/// unplaced returned before it was invoked), placed or — indefinite ops
/// only — left out. No memo, no pruning.
fn explains<S: Spec>(spec: &S, state: &S::State, rest: &[AbstractOp]) -> bool {
    rest.is_empty()
        || (0..rest.len()).any(|i| {
            let op = rest[i];
            if rest.iter().any(|o| o.returned_ns < op.invoked_ns) {
                return false;
            }
            let others: Vec<AbstractOp> = rest[..i].iter().chain(&rest[i + 1..]).copied().collect();
            let placed = spec
                .step(state, &op)
                .is_some_and(|next| explains(spec, &next, &others));
            placed || (!op.is_definite() && explains(spec, state, &others))
        })
}

/// The reference verdict on a one-key history, or `None` when it is too
/// large to enumerate.
fn reference<S: Spec>(spec: &S, h: &History) -> Option<bool> {
    let mut ops: Vec<AbstractOp> = h.events.iter().map(project).collect();
    // Version identity: one version, one tag.
    let observed: Vec<_> = ops
        .iter()
        .filter_map(AbstractOp::observed_version)
        .collect();
    let forked = observed
        .iter()
        .any(|(t, v)| observed.iter().any(|(u, w)| v == w && t != u));
    spec.prepare(&mut ops);
    (ops.len() <= MAX_OPS).then(|| !forked && explains(spec, &spec.initial(), &ops))
}

/// A one-key history of overlapping ops over a handful of tags and
/// versions, so reads often — not always — have a write to explain
/// them. Event `i` is client `i`'s op `i`.
fn history_from(raw: &[(u8, u8, u8, u8, u8)]) -> History {
    let n = raw.len() as u64;
    let events = (0u64..)
        .zip(raw)
        .map(|(i, &(call, out, inv, dur, pick))| {
            let version = 1 + u64::from(pick % 4);
            let (call, outcome) = match call % 6 {
                0..=1 => (
                    Invocation::Put {
                        tag: (i as u32, i),
                        memgest: None,
                    },
                    match out % 4 {
                        0 => Outcome::Maybe,
                        1 => Outcome::Failed("injected".into()),
                        _ => Outcome::PutOk { version },
                    },
                ),
                2..=3 => (
                    Invocation::Get,
                    match out % 8 {
                        0 => Outcome::Maybe,
                        1 => Outcome::GetOk {
                            tag: None,
                            version: (out / 8 % 2 == 1).then_some(version),
                        },
                        sel => {
                            let writer = u64::from(out / 8) % n;
                            Outcome::GetOk {
                                tag: Some((writer as u32, writer)),
                                version: (sel > 2).then_some(version),
                            }
                        }
                    },
                ),
                4 => (
                    Invocation::Delete,
                    match out % 3 {
                        0 => Outcome::Maybe,
                        _ => Outcome::DeleteOk,
                    },
                ),
                _ => (
                    Invocation::Move { to: 1 },
                    match out % 4 {
                        0 => Outcome::Maybe,
                        1 => Outcome::MoveNoop,
                        _ => Outcome::MoveOk { version },
                    },
                ),
            };
            let invoked_ns = u64::from(inv % 32);
            Event {
                client: i as u32,
                op: i,
                key: 0,
                call,
                invoked_ns,
                returned_ns: invoked_ns + 1 + u64::from(dur % 16),
                outcome,
            }
        })
        .collect();
    History { events }
}

fn raw_history() -> impl Strategy<Value = Vec<(u8, u8, u8, u8, u8)>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
        ),
        0..=6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn plain_register_search_matches_brute_force(raw in raw_history()) {
        let h = history_from(&raw);
        let expected = reference(&PlainRegister, &h).expect("no prepare: at most 6 ops");
        prop_assert_eq!(search(&PlainRegister, &h, u64::MAX).is_ok(), expected, "{:?}", h);
    }

    #[test]
    fn versioned_register_search_matches_brute_force(raw in raw_history()) {
        let h = history_from(&raw);
        let Some(expected) = reference(&VersionedRegister, &h) else {
            return Ok(());
        };
        prop_assert_eq!(search(&VersionedRegister, &h, u64::MAX).is_ok(), expected, "{:?}", h);
    }

    /// The real-time version floor is not a rule of its own in the
    /// versioned register; it must follow from the ones that are.
    #[test]
    fn versioned_register_enforces_the_real_time_floor(raw in raw_history()) {
        let h = history_from(&raw);
        let ops: Vec<AbstractOp> = h.events.iter().map(project).collect();
        let proven = |op: &AbstractOp| match op.kind {
            AbstractKind::Write { version, .. } | AbstractKind::Rewrite { version, .. } => version,
            AbstractKind::Read { observed } => observed.and_then(|(_, v)| v),
            AbstractKind::Noop => None,
        };
        let undercut = ops.iter().any(|read| {
            let AbstractKind::Read { observed: Some((_, Some(seen))) } = read.kind else {
                return false;
            };
            ops.iter()
                .any(|p| p.returned_ns < read.invoked_ns && proven(p) > Some(seen))
        });
        if undercut {
            prop_assert!(!search(&VersionedRegister, &h, u64::MAX).is_ok(), "{:?}", h);
        }
    }
}
