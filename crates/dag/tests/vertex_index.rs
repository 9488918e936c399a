//! Differential tests of the dense vertex index: [`VertexMap`] and
//! [`VertexSet`] against `BTreeMap` and `BTreeSet` over random operation
//! sequences — rounds starting at 0 or far above it, and sources on both
//! sides of 128, where a [`ProcessSet`](asym_quorum::ProcessSet) row spills
//! to the heap.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use asym_dag::{Round, VertexId, VertexMap, VertexSet};
use asym_quorum::{ProcessId, ProcessSet};

/// Rounds an operation touches: `base..base + SPAN`.
const SPAN: Round = 12;

#[derive(Clone, Debug)]
enum Op {
    Insert(VertexId, u32),
    Remove(VertexId),
    Get(VertexId),
    /// Entries of rounds `lo..=hi`, and of `(lo, ∞)` / `[0, hi)`.
    Range(Round, Round),
    Clear,
}

/// A random id of rounds `base..base + SPAN`, its source drawn on both
/// sides of 128.
fn random_id(rng: &mut SmallRng, base: Round) -> VertexId {
    let source = match rng.random_range(0..3u8) {
        0 => rng.random_range(0usize..12),
        1 => rng.random_range(120usize..136),
        _ => rng.random_range(250usize..260),
    };
    VertexId::new(base + rng.random_range(0..SPAN), ProcessId::new(source))
}

/// `len` random operations over rounds from `base`.
fn script(base: Round, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.random_range(0..15u8) {
            0..=5 => Op::Insert(random_id(&mut rng, base), rng.random_range(0..u32::MAX)),
            6..=9 => Op::Remove(random_id(&mut rng, base)),
            10..=11 => Op::Get(random_id(&mut rng, base)),
            12..=13 => Op::Range(
                base + rng.random_range(0..SPAN + 2),
                base + rng.random_range(0..SPAN + 2),
            ),
            _ => Op::Clear,
        })
        .collect()
}

fn model_sources<'a>(ids: impl Iterator<Item = &'a VertexId>, round: Round) -> ProcessSet {
    ids.filter(|id| id.round == round).map(|id| id.source).collect()
}

fn check_map(
    map: &VertexMap<u32>,
    model: &BTreeMap<VertexId, u32>,
    base: Round,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    let entries: Vec<(VertexId, u32)> = map.iter().map(|(id, v)| (id, *v)).collect();
    let expected: Vec<(VertexId, u32)> = model.iter().map(|(id, v)| (*id, *v)).collect();
    prop_assert_eq!(entries, expected);
    prop_assert_eq!(map.first_round(), model.keys().next().map(|id| id.round));
    prop_assert_eq!(map.last_round(), model.keys().next_back().map(|id| id.round));
    for round in base.saturating_sub(1)..=base + SPAN {
        let sources = map.sources_in_round(round).cloned().unwrap_or_default();
        prop_assert_eq!(sources, model_sources(model.keys(), round));
        let values: Vec<u32> = map.values_in_round(round).copied().collect();
        let expected: Vec<u32> =
            model.iter().filter(|(id, _)| id.round == round).map(|(_, v)| *v).collect();
        prop_assert_eq!(values, expected);
    }
    Ok(())
}

fn check_set(
    set: &VertexSet,
    model: &BTreeSet<VertexId>,
    base: Round,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    prop_assert_eq!(set.first_round(), model.first().map(|id| id.round));
    prop_assert_eq!(set.last_round(), model.last().map(|id| id.round));
    for round in base.saturating_sub(1)..=base + SPAN {
        let sources = set.sources_in_round(round).cloned().unwrap_or_default();
        prop_assert_eq!(sources, model_sources(model.iter(), round));
    }
    // Descending rows name every non-empty round of the model, high first.
    let rows: Vec<(Round, ProcessSet)> = set
        .rounds(..)
        .rev()
        .filter(|(_, row)| !row.is_empty())
        .map(|(r, row)| (r, row.clone()))
        .collect();
    let mut expected: Vec<Round> = model.iter().map(|id| id.round).collect();
    expected.dedup();
    expected.reverse();
    prop_assert_eq!(rows.iter().map(|(r, _)| *r).collect::<Vec<_>>(), expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vertex_map_and_set_match_btree_models(
        base in 0usize..3,
        seed in 0u64..1_000_000,
        len in 0usize..160,
    ) {
        let base: Round = [0, 7, 1 << 40][base];
        let mut map: VertexMap<u32> = VertexMap::new();
        let mut set = VertexSet::new();
        let mut map_model: BTreeMap<VertexId, u32> = BTreeMap::new();
        let mut set_model: BTreeSet<VertexId> = BTreeSet::new();
        for op in script(base, seed, len) {
            match op {
                Op::Insert(id, v) => {
                    prop_assert_eq!(map.insert(id, v), map_model.insert(id, v));
                    prop_assert_eq!(set.insert(id), set_model.insert(id));
                }
                Op::Remove(id) => {
                    prop_assert_eq!(map.remove(id), map_model.remove(&id));
                    prop_assert_eq!(set.remove(id), set_model.remove(&id));
                }
                Op::Get(id) => {
                    prop_assert_eq!(map.get(id), map_model.get(&id));
                    prop_assert_eq!(map.contains(id), map_model.contains_key(&id));
                    prop_assert_eq!(set.contains(id), set_model.contains(&id));
                }
                Op::Range(lo, hi) => {
                    let in_map = |r: (Bound<Round>, Bound<Round>)| {
                        map.range(r).map(|(id, v)| (id, *v)).collect::<Vec<_>>()
                    };
                    let in_model = |keep: &dyn Fn(Round) -> bool| {
                        map_model
                            .iter()
                            .filter(|(id, _)| keep(id.round))
                            .map(|(id, v)| (*id, *v))
                            .collect::<Vec<_>>()
                    };
                    let bounds = [
                        (Bound::Included(lo), Bound::Included(hi)),
                        (Bound::Excluded(lo), Bound::Unbounded),
                        (Bound::Unbounded, Bound::Excluded(hi)),
                    ];
                    let keeps: [&dyn Fn(Round) -> bool; 3] =
                        [&|r| lo <= r && r <= hi, &|r| r > lo, &|r| r < hi];
                    for (b, keep) in bounds.into_iter().zip(keeps) {
                        prop_assert_eq!(in_map(b), in_model(keep));
                        let ids: Vec<VertexId> = set.range(b).collect();
                        let expected: Vec<VertexId> =
                            set_model.iter().filter(|id| keep(id.round)).copied().collect();
                        prop_assert_eq!(ids, expected);
                    }
                }
                Op::Clear => {
                    map.clear();
                    set.clear();
                    map_model.clear();
                    set_model.clear();
                }
            }
            check_map(&map, &map_model, base)?;
            check_set(&set, &set_model, base)?;
        }
        // Collecting, equality and cloning agree with the models too.
        let rebuilt: VertexMap<u32> = map_model.iter().map(|(id, v)| (*id, *v)).collect();
        prop_assert_eq!(&rebuilt, &map);
        let rebuilt: VertexSet = set_model.iter().copied().collect();
        prop_assert_eq!(&rebuilt, &set.clone());
    }
}
