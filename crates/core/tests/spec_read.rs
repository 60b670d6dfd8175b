//! The late-binding degraded read as a value: `SpecRead` is planned and
//! fed real RS-encoded stripe rows by hand — no cluster, threads or
//! clock. The end-to-end pin stays in `degraded_read.rs`.

use proptest::prelude::*;
use ring_erasure::{SrsCode, SrsLayout};
use ring_kvs::protocol::spec_read::{Ask, Outcome, SpecRead};
use ring_net::{NodeId, Payload};

const BLOCK: usize = 16;
const HEAP: usize = 4 * BLOCK;
/// Node ids: coordinator of data node `i` is `COORD + i`, parity node
/// `p` is `PARITY + p`.
const COORD: NodeId = 100;
const PARITY: NodeId = 200;

/// The heaps of one SRS memgest: `s` data heaps of pseudo-random bytes
/// and the `m` parity heaps the put path would have accumulated.
struct Stripes {
    layout: SrsLayout,
    coordinators: Vec<NodeId>,
    parity_nodes: Vec<NodeId>,
    data: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
}

impl Stripes {
    fn new(k: usize, m: usize, s: usize, seed: u64) -> Stripes {
        let layout = SrsLayout::new(SrsCode::new(k, m, s).unwrap(), BLOCK).unwrap();
        let mut x = seed | 1;
        let mut byte = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        };
        let data: Vec<Vec<u8>> = (0..s)
            .map(|_| (0..HEAP).map(|_| byte()).collect())
            .collect();
        let mut parity = vec![vec![0u8; layout.parity_len_for(HEAP)]; m];
        for (node, heap) in data.iter().enumerate() {
            for seg in layout.split_range(node, 0, HEAP) {
                for (p, region) in parity.iter_mut().enumerate() {
                    ring_gf::region::mul_acc(
                        &mut region[seg.parity_addr..seg.parity_addr + seg.len],
                        &heap[seg.data_addr..seg.data_addr + seg.len],
                        layout.coefficient(p, &seg),
                    );
                }
            }
        }
        Stripes {
            layout,
            coordinators: (0..s as NodeId).map(|i| COORD + i).collect(),
            parity_nodes: (0..m as NodeId).map(|p| PARITY + p).collect(),
            data,
            parity,
        }
    }

    fn plan(
        &self,
        shard: usize,
        addr: usize,
        len: usize,
        fanout: usize,
        attempt: u8,
    ) -> Option<(SpecRead, Vec<Ask>)> {
        SpecRead::plan(
            &self.layout,
            shard,
            addr,
            len,
            &self.coordinators,
            &self.parity_nodes,
            fanout,
            attempt,
        )
    }

    /// What the asked node would answer from its heap.
    fn serve(&self, ask: &Ask) -> Option<Payload> {
        let region = if ask.parity {
            &self.parity[(ask.to - PARITY) as usize]
        } else {
            &self.data[(ask.to - COORD) as usize]
        };
        let mut out = Vec::new();
        for &(addr, len) in &ask.ranges {
            out.extend_from_slice(&region[addr..addr + len]);
        }
        Some(Payload::from(out))
    }

    fn feed(&self, read: &mut SpecRead, ask: &Ask) -> Outcome {
        let rs = self.layout.code().rs();
        read.on_response(rs, ask.to, self.serve(ask))
    }

    fn decline(&self, read: &mut SpecRead, from: NodeId) -> Outcome {
        read.on_response(self.layout.code().rs(), from, None)
    }
}

fn targets(asks: &[Ask]) -> Vec<NodeId> {
    let mut t: Vec<NodeId> = asks.iter().map(|a| a.to).collect();
    t.sort_unstable();
    t
}

/// All orderings of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

#[test]
fn plan_contacts_the_data_peers_and_one_plus_delta_parities_rotated_by_attempt() {
    let st = Stripes::new(3, 2, 3, 7);
    // Δ = 0: the k − 1 surviving data peers plus one parity node.
    let (read, asks) = st.plan(0, 4, 8, 1, 0).unwrap();
    assert_eq!(read.range(), (4, 8));
    assert_eq!(targets(&asks), [COORD + 1, COORD + 2, PARITY]);
    for ask in &asks {
        assert_eq!(ask.parity, ask.to >= PARITY);
        assert_eq!(ask.ranges.iter().map(|r| r.1).sum::<usize>(), 8);
    }
    // The attempt number rotates which parity goes first...
    let (_, asks) = st.plan(0, 4, 8, 1, 1).unwrap();
    assert_eq!(targets(&asks), [COORD + 1, COORD + 2, PARITY + 1]);
    let (_, asks) = st.plan(1, 4, 8, 1, 2).unwrap();
    assert_eq!(targets(&asks), [COORD, COORD + 2, PARITY]);
    // ...and Δ = 1 contacts both; a larger Δ has no one left to add.
    for fanout in [2, 5] {
        let (_, asks) = st.plan(0, 4, 8, fanout, 1).unwrap();
        assert_eq!(targets(&asks), [COORD + 1, COORD + 2, PARITY, PARITY + 1]);
    }
}

#[test]
fn nothing_to_fan_out_means_no_plan() {
    let st = Stripes::new(3, 2, 3, 7);
    assert!(st.plan(0, 4, 0, 2, 0).is_none(), "empty range");
    let no_parity = SpecRead::plan(&st.layout, 0, 4, 8, &st.coordinators, &[], 2, 0);
    assert!(no_parity.is_none(), "no parity node to ask");
}

#[test]
fn each_decline_promotes_one_reserve_parity_until_none_is_left() {
    let st = Stripes::new(3, 3, 3, 11);
    let (mut read, asks) = st.plan(2, 0, 40, 1, 0).unwrap();
    assert_eq!(targets(&asks), [COORD, COORD + 1, PARITY]);
    // The reserve is promoted from its far end, one node per decline.
    let Outcome::Ask(more) = st.decline(&mut read, PARITY) else {
        panic!("a reserve parity keeps the read satisfiable");
    };
    assert_eq!(targets(&more), [PARITY + 2]);
    assert!(more[0].parity);
    assert_eq!(more[0].ranges, asks[2].ranges, "same parity addresses");
    let Outcome::Ask(more) = st.decline(&mut read, COORD) else {
        panic!("one reserve parity left");
    };
    assert_eq!(targets(&more), [PARITY + 1]);
    // Rows still reachable: data 1, parities 1 and 2 — exactly k, and
    // nobody left in reserve: the next decline leaves the read waiting
    // for its expiry, which re-plans it.
    assert_eq!(st.feed(&mut read, &asks[1]), Outcome::Wait);
    assert_eq!(st.feed(&mut read, &more[0]), Outcome::Wait);
    assert_eq!(st.decline(&mut read, PARITY + 2), Outcome::Wait);
}

#[test]
fn duplicates_strangers_and_short_answers_do_not_count_as_rows() {
    let st = Stripes::new(3, 2, 3, 13);
    let (mut read, asks) = st.plan(1, 8, 24, 1, 0).unwrap();
    let [d0, d2, p0] = &asks[..] else {
        panic!("two data peers and one parity: {asks:?}");
    };
    assert_eq!(st.feed(&mut read, d0), Outcome::Wait);
    // A re-delivery is not a second row, and a node never asked (the
    // reserve parity, a stranger) is not a row at all.
    assert_eq!(st.feed(&mut read, d0), Outcome::Wait);
    assert_eq!(st.feed(&mut read, d0), Outcome::Wait);
    let stranger = Ask {
        to: PARITY + 1,
        ..p0.clone()
    };
    assert_eq!(st.feed(&mut read, &stranger), Outcome::Wait);
    assert_eq!(st.decline(&mut read, 999), Outcome::Wait);
    // An answer of the wrong length is a decline: the reserve steps in.
    let rs = st.layout.code().rs();
    let short = Payload::from(vec![0u8; 23]);
    let Outcome::Ask(more) = read.on_response(rs, d2.to, Some(short)) else {
        panic!("the reserve parity replaces the garbled row");
    };
    assert_eq!(targets(&more), [PARITY + 1]);
    // The decliner's later, well-formed answer no longer counts either.
    assert_eq!(st.feed(&mut read, d2), Outcome::Wait);
    assert_eq!(st.feed(&mut read, p0), Outcome::Wait);
    let lost = st.data[1][8..32].to_vec();
    assert_eq!(st.feed(&mut read, &more[0]), Outcome::Decoded(lost));
}

/// With `s != k` the segments of one range take their rows from
/// different peers, so the decode has to wait for the slowest segment.
#[test]
fn a_range_spanning_blocks_waits_for_every_segments_rows() {
    let st = Stripes::new(2, 1, 3, 17);
    let (mut read, asks) = st.plan(1, 0, 2 * BLOCK, 1, 0).unwrap();
    assert_eq!(targets(&asks), [COORD, COORD + 2, PARITY]);
    let mut outcomes: Vec<Outcome> = asks.iter().map(|a| st.feed(&mut read, a)).collect();
    let last = outcomes.pop().unwrap();
    assert!(outcomes.iter().all(|o| *o == Outcome::Wait), "{outcomes:?}");
    assert_eq!(last, Outcome::Decoded(st.data[1][..2 * BLOCK].to_vec()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SRS(3,2), Δ = 1: four rows are asked for, any three decode. For
    /// every 3-subset of the rows in every arrival order, the lost
    /// bytes come out at the third row and never before.
    #[test]
    fn decodes_at_the_kth_row_in_any_arrival_order(
        seed in any::<u64>(),
        shard in 0usize..3,
        addr in 0usize..HEAP - 1,
        len in 1usize..=2 * BLOCK,
        attempt in any::<u8>(),
    ) {
        let st = Stripes::new(3, 2, 3, seed);
        let len = len.min(HEAP - addr);
        let lost = st.data[shard][addr..addr + len].to_vec();
        let (_, asks) = st.plan(shard, addr, len, 2, attempt).unwrap();
        prop_assert_eq!(asks.len(), 4);
        for skip in 0..asks.len() {
            let mut subset = asks.clone();
            subset.remove(skip);
            for order in permutations(&subset) {
                let (mut read, _) = st.plan(shard, addr, len, 2, attempt).unwrap();
                prop_assert_eq!(st.feed(&mut read, &order[0]), Outcome::Wait);
                prop_assert_eq!(st.feed(&mut read, &order[1]), Outcome::Wait);
                prop_assert_eq!(st.feed(&mut read, &order[2]), Outcome::Decoded(lost.clone()));
            }
        }
    }
}
