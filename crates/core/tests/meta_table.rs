//! `MetaTable` against a `BTreeMap<(Key, Version), ObjectEntry>`
//! reference: random sequences of its calls must return what the
//! reference returns, and `iter`/`iter_mut` must walk the reference's
//! `(key, version)` order, which metadata fetches, rebuild info and the
//! stats rows depend on.

use std::collections::BTreeMap;

use proptest::prelude::*;
use ring_kvs::storage::{MetaTable, ObjectEntry};
use ring_kvs::{Key, Version};

type Reference = BTreeMap<(Key, Version), ObjectEntry>;

/// The reference's entries, in order, as `iter` yields them.
fn flat(model: &Reference) -> Vec<(Key, Version, ObjectEntry)> {
    model.iter().map(|(&(k, v), e)| (k, v, e.clone())).collect()
}

/// Every version of `key` in the reference.
fn versions_of(model: &Reference, key: Key) -> impl DoubleEndedIterator<Item = Version> + '_ {
    model
        .range((key, 0)..=(key, Version::MAX))
        .map(|(&(_, v), _)| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn meta_table_matches_a_btreemap_reference(
        ops in proptest::collection::vec((0u8..8, 0u64..24, 0u64..6, any::<u8>()), 1..160),
    ) {
        let mut table = MetaTable::new();
        let mut model = Reference::new();
        for (op, key, version, len) in ops {
            match op {
                0 | 1 => {
                    let e = ObjectEntry::new(len.into(), key as usize, op == 1);
                    table.insert(key, version, e.clone());
                    model.insert((key, version), e);
                }
                2 => {
                    let flip = |e: &mut ObjectEntry| {
                        e.committed = !e.committed;
                        e.clone()
                    };
                    let got = table.get_mut(key, version).map(flip);
                    prop_assert_eq!(got, model.get_mut(&(key, version)).map(flip));
                }
                3 => {
                    let want = versions_of(&model, key).next_back().map(|v| (v, &model[&(key, v)]));
                    prop_assert_eq!(table.highest(key), want);
                }
                4 => prop_assert_eq!(table.remove(key, version), model.remove(&(key, version))),
                5 => {
                    let doomed: Vec<Version> =
                        versions_of(&model, key).filter(|&v| v < version).collect();
                    let want: Vec<_> =
                        doomed.into_iter().map(|v| (v, model.remove(&(key, v)).unwrap())).collect();
                    prop_assert_eq!(table.remove_below(key, version), want);
                }
                6 => {
                    for (k, v, e) in table.iter_mut() {
                        e.fetch_attempts = e.fetch_attempts.wrapping_add(1);
                        let m = model.get_mut(&(k, v)).unwrap();
                        m.fetch_attempts = m.fetch_attempts.wrapping_add(1);
                    }
                    let seen: Vec<_> = table.iter_mut().map(|(k, v, _)| (k, v)).collect();
                    prop_assert_eq!(seen, model.keys().copied().collect::<Vec<_>>());
                }
                _ => prop_assert_eq!(table.get(key, version), model.get(&(key, version))),
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            prop_assert_eq!(table.approx_bytes(), model.len() * 36);
        }
        let got: Vec<_> = table.iter().map(|(k, v, e)| (k, v, e.clone())).collect();
        prop_assert_eq!(got, flat(&model));
    }
}
