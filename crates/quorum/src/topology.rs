//! Trust-topology generators for experiments and examples.
//!
//! These generators produce `(fail-prone system, quorum system)` pairs that
//! model the heterogeneous-trust settings the paper's introduction motivates:
//! uniform thresholds (the classic model embedded in the asymmetric one),
//! Ripple-style overlapping UNLs, Stellar-style tiered slices, and random
//! asymmetric systems for property-based sweeps.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};

use crate::{
    AsymFailProneSystem, AsymQuorumSystem, FailProneSystem, ProcessId, ProcessSet, QuorumSystem,
};

/// A named trust configuration: an asymmetric fail-prone system together with
/// its (usually canonical) asymmetric quorum system.
///
/// # Examples
///
/// ```
/// use asym_quorum::topology;
///
/// let t = topology::uniform_threshold(7, 2);
/// assert!(t.fail_prone.satisfies_b3());
/// assert!(t.quorums.validate(&t.fail_prone).is_ok());
/// assert_eq!(t.quorums.min_quorum_size(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable name used in experiment output.
    pub name: String,
    /// The asymmetric fail-prone system `F = [F_1, …, F_n]`.
    pub fail_prone: AsymFailProneSystem,
    /// The asymmetric quorum system `Q = [Q_1, …, Q_n]`.
    pub quorums: AsymQuorumSystem,
}

impl Topology {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.quorums.n()
    }
}

/// The uniform threshold topology: every process assumes at most `f` of `n`
/// processes fail and uses `(n−f)`-quorums. This embeds the symmetric model
/// (e.g. DAG-Rider's `n = 3f + 1`) into the asymmetric one.
///
/// # Panics
///
/// Panics if `f >= n`.
pub fn uniform_threshold(n: usize, f: usize) -> Topology {
    let fps = AsymFailProneSystem::uniform(FailProneSystem::threshold(n, f));
    let quorums = fps.canonical_quorums();
    Topology { name: format!("threshold(n={n},f={f})"), fail_prone: fps, quorums }
}

/// A mixed-threshold topology in the spirit of Cachin–Tackmann's asymmetric
/// trust: every process assumes at most `f` of `n` processes fail, except a
/// process `p0` that declares its own threshold `f0` (a cautious `f0 < f` or
/// a bolder `f0 > f`). Quorums are canonical. Not every choice satisfies
/// B³, so callers check it.
///
/// # Examples
///
/// ```
/// use asym_quorum::topology;
///
/// // n = 7: p0 tolerates 1 failure, everyone else 2.
/// let t = topology::mixed_thresholds(7, 2, 1);
/// assert!(t.fail_prone.satisfies_b3());
/// assert!(t.quorums.validate(&t.fail_prone).is_ok());
/// assert_eq!(t.quorums.min_quorum_size(), 5);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`, `f >= n` or `f0 >= n`.
pub fn mixed_thresholds(n: usize, f: usize, f0: usize) -> Topology {
    assert!(n >= 1, "a topology needs at least one process");
    let mut systems = vec![FailProneSystem::threshold(n, f); n];
    systems[0] = FailProneSystem::threshold(n, f0);
    let fail_prone = AsymFailProneSystem::new(systems).expect("thresholds are well-formed");
    let quorums = fail_prone.canonical_quorums();
    Topology { name: format!("mixed(n={n},f={f},f0={f0})"), fail_prone, quorums }
}

/// The paper's Figure-1 system (`n = 30`, one explicit quorum per process,
/// fail-prone sets their complements) from [`crate::counterexample`]: the
/// system on which the quorum-replacement gather fails and Algorithm 3
/// succeeds.
pub fn figure1() -> Topology {
    Topology {
        name: format!("figure-1(n={})", crate::counterexample::FIG1_N),
        fail_prone: crate::counterexample::fig1_fail_prone(),
        quorums: crate::counterexample::fig1_quorums(),
    }
}

/// A Ripple-style topology: process `i`'s UNL is the window
/// `{i, i+1, …, i+unl−1}` (mod `n`) and it tolerates `f` failures inside its
/// UNL. Neighbouring processes have heavily overlapping but *distinct* trust
/// assumptions.
///
/// # Examples
///
/// With large overlap the system satisfies B³ and admits valid asymmetric
/// quorums; with small, nearly disjoint UNLs it cannot:
///
/// ```
/// use asym_quorum::topology;
///
/// let good = topology::ripple_unl(10, 8, 1);
/// assert!(good.fail_prone.satisfies_b3());
/// assert!(good.quorums.validate(&good.fail_prone).is_ok());
/// assert_eq!(good.n(), 10);
///
/// let bad = topology::ripple_unl(12, 4, 1);
/// assert!(!bad.fail_prone.satisfies_b3());
/// ```
///
/// # Panics
///
/// Panics if `unl > n`, `unl == 0`, or `f >= unl`.
pub fn ripple_unl(n: usize, unl: usize, f: usize) -> Topology {
    assert!(unl >= 1 && unl <= n, "UNL size must be in 1..=n");
    assert!(f < unl, "UNL threshold must satisfy f < unl");
    let mut fail = Vec::with_capacity(n);
    let mut quo = Vec::with_capacity(n);
    for i in 0..n {
        let slice: ProcessSet = (0..unl).map(|k| (i + k) % n).collect();
        fail.push(FailProneSystem::slice_threshold(n, slice.clone(), f));
        quo.push(QuorumSystem::slice_threshold(n, slice, unl - f));
    }
    Topology {
        name: format!("ripple(n={n},unl={unl},f={f})"),
        fail_prone: AsymFailProneSystem::new(fail).expect("windowed UNLs are well-formed"),
        quorums: AsymQuorumSystem::new(quo).expect("windowed UNLs are well-formed"),
    }
}

/// A Stellar-style two-tier topology: `core` processes `{0, …, core−1}` trust
/// the core with threshold `f_core`; each *leaf* process trusts
/// `core ∪ {itself}` with the same threshold. This models the "everyone
/// ultimately watches a set of anchor institutions" configuration the Stellar
/// network converged to.
///
/// # Examples
///
/// Leaf failures never affect anyone else's assumptions, so the guild is
/// everything except the failed leaves:
///
/// ```
/// use asym_quorum::{maximal_guild, topology, ProcessSet};
///
/// let t = topology::stellar_tiers(12, 4, 1);
/// assert!(t.fail_prone.satisfies_b3());
///
/// let faulty = ProcessSet::from_indices([8, 9]);
/// let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty).unwrap();
/// assert_eq!(guild, ProcessSet::full(12).difference(&faulty));
/// ```
///
/// # Panics
///
/// Panics if `core == 0`, `core > n`, or `f_core >= core`.
pub fn stellar_tiers(n: usize, core: usize, f_core: usize) -> Topology {
    assert!(core >= 1 && core <= n, "core size must be in 1..=n");
    assert!(f_core < core, "core threshold must satisfy f_core < core");
    let core_set: ProcessSet = (0..core).collect();
    let mut fail = Vec::with_capacity(n);
    let mut quo = Vec::with_capacity(n);
    for i in 0..n {
        let mut slice = core_set.clone();
        slice.insert(ProcessId::new(i));
        let q = slice.len() - f_core;
        fail.push(FailProneSystem::slice_threshold(n, slice.clone(), f_core));
        quo.push(QuorumSystem::slice_threshold(n, slice, q));
    }
    Topology {
        name: format!("stellar(n={n},core={core},f={f_core})"),
        fail_prone: AsymFailProneSystem::new(fail).expect("tiered slices are well-formed"),
        quorums: AsymQuorumSystem::new(quo).expect("tiered slices are well-formed"),
    }
}

/// Generates a random asymmetric slice topology: every process trusts a
/// random slice of size `slice_size` containing itself, tolerating `f`
/// failures within the slice. Regenerates until the fail-prone system
/// satisfies B³ (up to `max_attempts` tries).
///
/// Returns `None` if no B³ system was found within the attempt budget —
/// callers typically loosen `slice_size`/`f` in that case.
///
/// # Panics
///
/// Panics if `slice_size` is not in `1..=n` or `f >= slice_size`.
pub fn random_slices(
    n: usize,
    slice_size: usize,
    f: usize,
    seed: u64,
    max_attempts: usize,
) -> Option<Topology> {
    assert!(slice_size >= 1 && slice_size <= n, "slice size must be in 1..=n");
    assert!(f < slice_size, "slice threshold must satisfy f < slice_size");
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..max_attempts {
        let mut fail = Vec::with_capacity(n);
        let mut quo = Vec::with_capacity(n);
        for i in 0..n {
            let mut others: Vec<usize> = (0..n).filter(|j| *j != i).collect();
            others.shuffle(&mut rng);
            let mut slice: ProcessSet = others.into_iter().take(slice_size - 1).collect();
            slice.insert(ProcessId::new(i));
            fail.push(FailProneSystem::slice_threshold(n, slice.clone(), f));
            quo.push(QuorumSystem::slice_threshold(n, slice, slice_size - f));
        }
        let fps = AsymFailProneSystem::new(fail).expect("random slices are well-formed");
        if fps.satisfies_b3() {
            let quorums = AsymQuorumSystem::new(quo).expect("random slices are well-formed");
            if quorums.validate(&fps).is_ok() {
                return Some(Topology {
                    name: format!("random(n={n},slice={slice_size},f={f},seed={seed})"),
                    fail_prone: fps,
                    quorums,
                });
            }
        }
    }
    None
}

/// A declarative, seed-replayable recipe for one topology family — the form
/// a scenario matrix can enumerate, print in a failure report, and rebuild
/// bit-for-bit.
///
/// Every variant maps onto one of the generator functions in this module;
/// [`TopologySpec::build`] performs the mapping. Specs are plain data
/// (`Copy`, `Eq`), so a failing sweep cell can report the exact spec and any
/// reader can reconstruct the identical [`Topology`].
///
/// # Examples
///
/// ```
/// use asym_quorum::topology::TopologySpec;
///
/// let spec = TopologySpec::RandomSlices { n: 8, slice: 6, f: 1, seed: 42 };
/// let a = spec.build().expect("seed 42 finds a B3 system");
/// let b = spec.build().unwrap();
/// assert_eq!(a.fail_prone, b.fail_prone, "specs rebuild deterministically");
/// assert_eq!(spec.family(), "random_slices");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// [`uniform_threshold`]`(n, f)`.
    UniformThreshold {
        /// Number of processes.
        n: usize,
        /// Uniform failure threshold.
        f: usize,
    },
    /// [`ripple_unl`]`(n, unl, f)`.
    RippleUnl {
        /// Number of processes.
        n: usize,
        /// UNL window size.
        unl: usize,
        /// Failures tolerated inside each UNL.
        f: usize,
    },
    /// [`stellar_tiers`]`(n, core, f_core)`.
    StellarTiers {
        /// Number of processes.
        n: usize,
        /// Size of the trusted core tier.
        core: usize,
        /// Failures tolerated inside the core.
        f_core: usize,
    },
    /// [`mixed_thresholds`]`(n, f, f0)`.
    MixedThresholds {
        /// Number of processes.
        n: usize,
        /// Failure threshold of every process but `p0`.
        f: usize,
        /// `p0`'s own failure threshold.
        f0: usize,
    },
    /// [`figure1`]`()`: the paper's 30-process Figure-1 system.
    Figure1,
    /// [`random_slices`]`(n, slice, f, seed, 200)`.
    RandomSlices {
        /// Number of processes.
        n: usize,
        /// Size of each random trust slice.
        slice: usize,
        /// Failures tolerated inside each slice.
        f: usize,
        /// Generation seed (determines the slices).
        seed: u64,
    },
}

impl TopologySpec {
    /// Builds the described topology. Returns `None` only for
    /// [`TopologySpec::RandomSlices`] when no B³ system is found within the
    /// attempt budget; the closed-form families always succeed.
    pub fn build(&self) -> Option<Topology> {
        match *self {
            TopologySpec::UniformThreshold { n, f } => Some(uniform_threshold(n, f)),
            TopologySpec::RippleUnl { n, unl, f } => Some(ripple_unl(n, unl, f)),
            TopologySpec::StellarTiers { n, core, f_core } => Some(stellar_tiers(n, core, f_core)),
            TopologySpec::MixedThresholds { n, f, f0 } => Some(mixed_thresholds(n, f, f0)),
            TopologySpec::Figure1 => Some(figure1()),
            TopologySpec::RandomSlices { n, slice, f, seed } => {
                random_slices(n, slice, f, seed, 200)
            }
        }
    }

    /// The family name (stable identifier for sweep tables).
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::UniformThreshold { .. } => "uniform_threshold",
            TopologySpec::RippleUnl { .. } => "ripple_unl",
            TopologySpec::StellarTiers { .. } => "stellar_tiers",
            TopologySpec::MixedThresholds { .. } => "mixed_thresholds",
            TopologySpec::Figure1 => "figure1",
            TopologySpec::RandomSlices { .. } => "random_slices",
        }
    }

    /// Number of processes the built topology will have.
    pub fn n(&self) -> usize {
        match *self {
            TopologySpec::UniformThreshold { n, .. }
            | TopologySpec::RippleUnl { n, .. }
            | TopologySpec::StellarTiers { n, .. }
            | TopologySpec::MixedThresholds { n, .. }
            | TopologySpec::RandomSlices { n, .. } => n,
            TopologySpec::Figure1 => crate::counterexample::FIG1_N,
        }
    }
}

impl core::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            TopologySpec::UniformThreshold { n, f: t } => write!(f, "threshold(n={n},f={t})"),
            TopologySpec::RippleUnl { n, unl, f: t } => write!(f, "ripple(n={n},unl={unl},f={t})"),
            TopologySpec::StellarTiers { n, core, f_core } => {
                write!(f, "stellar(n={n},core={core},f={f_core})")
            }
            TopologySpec::MixedThresholds { n, f: t, f0 } => {
                write!(f, "mixed(n={n},f={t},f0={f0})")
            }
            TopologySpec::Figure1 => {
                write!(f, "figure-1(n={})", crate::counterexample::FIG1_N)
            }
            TopologySpec::RandomSlices { n, slice, f: t, seed } => {
                write!(f, "random(n={n},slice={slice},f={t},seed={seed})")
            }
        }
    }
}

/// Samples a uniformly random failure set that the given process-class
/// targets allow: at most `max_faulty` processes, drawn without replacement.
pub fn random_faulty(n: usize, max_faulty: usize, rng: &mut impl Rng) -> ProcessSet {
    let k = rng.random_range(0..=max_faulty.min(n));
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    ids.into_iter().take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximal_guild;

    #[test]
    fn uniform_threshold_is_valid() {
        for (n, f) in [(4, 1), (7, 2), (10, 3), (31, 10)] {
            let t = uniform_threshold(n, f);
            assert!(t.fail_prone.satisfies_b3(), "{}", t.name);
            assert!(t.quorums.validate(&t.fail_prone).is_ok(), "{}", t.name);
            assert_eq!(t.n(), n);
        }
    }

    #[test]
    fn ripple_unl_valid_with_high_overlap() {
        // n=10, UNL=8, f=1: neighbouring UNLs overlap in ≥6 processes.
        let t = ripple_unl(10, 8, 1);
        assert!(t.fail_prone.satisfies_b3(), "{:?}", t.fail_prone.b3_violation());
        assert!(t.quorums.validate(&t.fail_prone).is_ok());
        assert_eq!(t.quorums.min_quorum_size(), 7);
    }

    #[test]
    fn ripple_unl_low_overlap_violates_b3() {
        // Tiny disjoint-ish UNLs cannot satisfy B3.
        let t = ripple_unl(12, 4, 1);
        assert!(!t.fail_prone.satisfies_b3());
    }

    #[test]
    fn stellar_tiers_valid() {
        let t = stellar_tiers(12, 4, 1);
        assert!(t.fail_prone.satisfies_b3(), "{:?}", t.fail_prone.b3_violation());
        assert!(t.quorums.validate(&t.fail_prone).is_ok());
        // A core failure within threshold leaves a guild containing the
        // remaining core and all leaves.
        let faulty = ProcessSet::from_indices([0]);
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty).unwrap();
        assert_eq!(guild, ProcessSet::full(12).difference(&faulty));
        // Exceeding the core threshold destroys the guild.
        let faulty = ProcessSet::from_indices([0, 1]);
        assert_eq!(maximal_guild(&t.fail_prone, &t.quorums, &faulty), None);
    }

    #[test]
    fn stellar_leaf_failures_do_not_matter() {
        let t = stellar_tiers(10, 4, 1);
        // Leaves 8, 9 failing hurt nobody else's assumptions.
        let faulty = ProcessSet::from_indices([8, 9]);
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty).unwrap();
        assert_eq!(guild, ProcessSet::full(10).difference(&faulty));
    }

    #[test]
    fn random_slices_deterministic_and_valid() {
        let a = random_slices(8, 6, 1, 42, 100).expect("seed 42 should find a B3 system");
        let b = random_slices(8, 6, 1, 42, 100).unwrap();
        assert_eq!(a.fail_prone, b.fail_prone, "same seed ⇒ same topology");
        assert!(a.fail_prone.satisfies_b3());
        assert!(a.quorums.validate(&a.fail_prone).is_ok());
    }

    #[test]
    fn random_slices_impossible_configuration_returns_none() {
        // Slices of size 2 with f=1 can never satisfy B3 for n ≥ 3.
        assert!(random_slices(6, 2, 1, 7, 20).is_none());
    }

    #[test]
    fn specs_build_their_families() {
        let specs = [
            TopologySpec::UniformThreshold { n: 7, f: 2 },
            TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
            TopologySpec::StellarTiers { n: 12, core: 4, f_core: 1 },
            TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 },
            TopologySpec::Figure1,
            TopologySpec::RandomSlices { n: 8, slice: 6, f: 1, seed: 42 },
        ];
        for spec in specs {
            let t = spec.build().unwrap_or_else(|| panic!("{spec} must build"));
            assert_eq!(t.n(), spec.n(), "{spec}");
            assert!(t.fail_prone.satisfies_b3(), "{spec}");
            assert!(t.quorums.validate(&t.fail_prone).is_ok(), "{spec}");
        }
    }

    #[test]
    fn spec_display_matches_topology_name() {
        let spec = TopologySpec::UniformThreshold { n: 4, f: 1 };
        assert_eq!(spec.to_string(), spec.build().unwrap().name);
        let spec = TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 };
        assert_eq!(spec.to_string(), spec.build().unwrap().name);
        let spec = TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 };
        assert_eq!(spec.to_string(), spec.build().unwrap().name);
        assert_eq!(TopologySpec::Figure1.to_string(), figure1().name);
    }

    #[test]
    fn mixed_thresholds_give_p0_its_own_threshold() {
        let t = mixed_thresholds(7, 2, 1);
        // p0 needs 6 of 7, everyone else 5 of 7.
        assert_eq!(t.quorums.of(ProcessId::new(0)).min_quorum_size(), 6);
        assert_eq!(t.quorums.of(ProcessId::new(1)).min_quorum_size(), 5);
        // A bold p0 (f0 = 3) breaks B3 at n = 7: its 3 suspects, another
        // process's 2 and 2 more they both suspect cover all 7.
        assert!(!mixed_thresholds(7, 2, 3).fail_prone.satisfies_b3());
    }

    #[test]
    fn random_faulty_respects_bound() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let f = random_faulty(10, 3, &mut rng);
            assert!(f.len() <= 3);
            assert!(f.max_id().is_none_or(|m| m.index() < 10));
        }
    }
}
