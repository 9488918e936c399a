//! The `f`-of-`n` threshold model pinned in closed form. A threshold system
//! is the slice system over all of `P`, so `QuorumSystem::threshold` and
//! `FailProneSystem::threshold` must answer exactly what counting members of
//! `P` says. Universes run up to 130 processes, across the 64-bit word
//! boundaries of `ProcessSet`, and observed sets include ids `≥ n`, which
//! never count.

use proptest::prelude::*;

use asym_quorum::{FailProneSystem, ProcessSet, QuorumSystem};

/// The set of `ids`, each reduced into `0..n + 2` so that a few land just
/// outside the universe, keeping the first `len % (n + 3)` of them.
fn observed(n: usize, ids: &[usize], len: usize) -> ProcessSet {
    ProcessSet::from_indices(ids.iter().take(len % (n + 3)).map(|i| i % (n + 2)))
}

/// `|o ∩ P|` for `P = {0, …, n − 1}`.
fn members(n: usize, o: &ProcessSet) -> usize {
    o.iter().filter(|p| p.index() < n).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn threshold_quorums_count_members_of_p(
        n in 1usize..=130,
        q_raw in 0usize..1000,
        ids in proptest::collection::vec(0usize..1000, 0..=133),
        len in 0usize..1000,
    ) {
        let q = 1 + q_raw % n;
        let qs = QuorumSystem::threshold(n, q);
        let o = observed(n, &ids, len);
        let m = members(n, &o);
        prop_assert_eq!(qs.contains_quorum(&o), m >= q, "n={} q={} o={}", n, q, o);
        prop_assert_eq!(qs.is_kernel(&o), m > n - q, "n={} q={} o={}", n, q, o);
        match qs.find_quorum(&o) {
            Some(found) => {
                prop_assert!(m >= q);
                prop_assert_eq!(found.len(), q);
                prop_assert!(found.is_subset(&o.intersection(&ProcessSet::full(n))));
            }
            None => prop_assert!(m < q),
        }
    }

    #[test]
    fn threshold_fail_prone_sets_are_small_subsets_of_p(
        n in 1usize..=130,
        f_raw in 0usize..1000,
        ids in proptest::collection::vec(0usize..1000, 0..=12),
        len in 0usize..1000,
    ) {
        // Half the draws keep f small enough for both verdicts to be common.
        let f = if f_raw % 2 == 0 { f_raw % n } else { f_raw % n.min(8) };
        let fps = FailProneSystem::threshold(n, f);
        let faulty = observed(n, &ids, len);
        let expected = faulty.len() <= f && faulty.is_subset(&ProcessSet::full(n));
        prop_assert_eq!(fps.covers(&faulty), expected, "n={} f={} F={}", n, f, faulty);
    }

    #[test]
    fn threshold_q3_iff_n_gt_3f_with_real_witnesses(
        n in 1usize..=130,
        f_raw in 0usize..1000,
    ) {
        // Half the draws sit at the boundary 3f ∈ {n − 1, n, n + 1}.
        let f = if f_raw % 2 == 0 { f_raw % n } else { ((n + f_raw % 3) / 3).min(n - 1) };
        let fps = FailProneSystem::threshold(n, f);
        prop_assert_eq!(fps.satisfies_q3(), n > 3 * f, "n={} f={}", n, f);
        if let Some(witness) = fps.q3_violation() {
            for s in &witness {
                prop_assert!(fps.covers(s), "n={} f={}: {} is not fail-prone", n, f, s);
            }
            let union = witness[0].union(&witness[1]).union(&witness[2]);
            prop_assert_eq!(union, ProcessSet::full(n), "n={} f={}", n, f);
        }
    }
}
