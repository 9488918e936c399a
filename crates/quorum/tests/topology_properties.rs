//! Property-based coverage of the seeded topology generators: everything
//! `random_slices` emits satisfies the quorum-system consistency
//! precondition, and generation is a pure function of its seed — the
//! guarantee the scenario matrix relies on to make failing cells
//! reproducible.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use asym_quorum::topology::{self, TopologySpec};
use asym_quorum::{maximal_guild, AsymFailProneSystem, FailProneSystem, ProcessId, ProcessSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever `random_slices` returns satisfies B³ and the
    /// consistency/availability preconditions of an asymmetric quorum
    /// system — for arbitrary (n, slice, f, seed) draws.
    #[test]
    fn random_slices_satisfy_consistency_precondition(
        n in 4usize..10,
        extra in 0usize..3,
        f in 1usize..=3,
        seed in 0u64..5000,
    ) {
        // Keep the slice large relative to n so B³ systems exist to be found.
        let slice = (3 * n).div_ceil(4) + extra;
        prop_assume!(slice <= n && f < slice);
        let Some(t) = topology::random_slices(n, slice, f, seed, 50) else {
            // No B³ system within the attempt budget is a legal outcome.
            return Ok(());
        };
        prop_assert!(t.fail_prone.satisfies_b3(), "{}: B3 violated", t.name);
        prop_assert!(t.quorums.check_consistency(&t.fail_prone).is_ok(), "{}", t.name);
        prop_assert!(t.quorums.check_availability(&t.fail_prone).is_ok(), "{}", t.name);
        prop_assert_eq!(t.n(), n);
    }

    /// Theorem 2.4 at scale: a random slice system satisfies B³ iff its
    /// canonical quorums are consistent and available.
    #[test]
    fn b3_iff_canonical_quorums_validate_at_scale(
        n in 16usize..=64,
        f in 1usize..=3,
        seed in 0u64..5000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Slices between about half and all of P: B³ both holds and fails.
        let systems = (0..n)
            .map(|i| {
                let size = rng.random_range(n / 2..=n).max(f + 1);
                let mut others: Vec<usize> = (0..n).filter(|j| *j != i).collect();
                others.shuffle(&mut rng);
                let mut slice: ProcessSet = others.into_iter().take(size - 1).collect();
                slice.insert(ProcessId::new(i));
                FailProneSystem::slice_threshold(n, slice, f)
            })
            .collect();
        let fps = AsymFailProneSystem::new(systems).expect("one slice per process");
        let valid = fps.canonical_quorums().validate(&fps);
        prop_assert_eq!(fps.satisfies_b3(), valid.is_ok(), "{:?}", valid);
    }

    /// Same seed ⇒ identical topology, bit for bit; and the `TopologySpec`
    /// wrapper rebuilds the same system the direct call produces.
    #[test]
    fn random_slices_deterministic_per_seed(
        n in 5usize..9,
        seed in 0u64..5000,
    ) {
        let slice = (3 * n).div_ceil(4);
        let a = topology::random_slices(n, slice, 1, seed, 50);
        let b = topology::random_slices(n, slice, 1, seed, 50);
        prop_assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert_eq!(&a.fail_prone, &b.fail_prone, "seed {} not deterministic", seed);
            prop_assert_eq!(&a.quorums, &b.quorums);
            let via_spec = TopologySpec::RandomSlices { n, slice, f: 1, seed }
                .build()
                .expect("direct call succeeded");
            prop_assert_eq!(&via_spec.fail_prone, &a.fail_prone);
        }
    }

    /// `random_faulty` respects its cardinality bound and the process-id
    /// range, and is deterministic given the RNG state.
    #[test]
    fn random_faulty_bounded_and_deterministic(
        n in 1usize..20,
        max_faulty in 0usize..6,
        seed in 0u64..5000,
    ) {
        let draw = |s| {
            let mut rng = SmallRng::seed_from_u64(s);
            (0..8).map(|_| topology::random_faulty(n, max_faulty, &mut rng))
                .collect::<Vec<ProcessSet>>()
        };
        let sets = draw(seed);
        for f in &sets {
            prop_assert!(f.len() <= max_faulty.min(n));
            prop_assert!(f.max_id().is_none_or(|m| m.index() < n));
        }
        prop_assert_eq!(sets, draw(seed), "same rng seed must redraw the same sets");
    }

    /// Generated random topologies work with the guild machinery: failing
    /// nobody always leaves the full process set as the maximal guild.
    #[test]
    fn random_slices_fault_free_guild_is_everyone(
        n in 5usize..9,
        seed in 0u64..1000,
    ) {
        let slice = (3 * n).div_ceil(4);
        let Some(t) = topology::random_slices(n, slice, 1, seed, 50) else {
            return Ok(());
        };
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &ProcessSet::new());
        prop_assert_eq!(guild, Some(ProcessSet::full(n)));
    }
}

/// Validation counts instead of enumerating, so systems far beyond
/// enumeration (`C(64, 21)` maximal sets per process) validate at once.
#[test]
fn large_topologies_validate() {
    for t in [
        topology::ripple_unl(20, 16, 3),
        topology::ripple_unl(64, 52, 8),
        topology::stellar_tiers(64, 10, 3),
        topology::uniform_threshold(64, 21),
    ] {
        assert!(t.fail_prone.satisfies_b3(), "{}: {:?}", t.name, t.fail_prone.b3_violation());
        assert_eq!(t.quorums.validate(&t.fail_prone), Ok(()), "{}", t.name);
    }
}
