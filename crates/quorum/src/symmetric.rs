//! Symmetric (global) Byzantine quorum systems.
//!
//! This module implements the classic model of Malkhi–Reiter [26]: a single
//! *fail-prone system* `F ⊆ 2^P` shared by all processes, and a *Byzantine
//! quorum system* `Q` whose quorums pairwise intersect outside every common
//! fail-prone set (consistency) and avoid every fail-prone set (availability).
//!
//! Slice-threshold systems are represented implicitly by a slice and a bound:
//! everything outside the slice `S` may fail plus any `f` members of `S`, and
//! a quorum is any `q` members of `S`. A classic `f`-of-`n` threshold is the
//! slice `S = P` ([`FailProneSystem::threshold`], [`QuorumSystem::threshold`]),
//! so one representation serves both. Membership, kernel and coverage tests
//! count the members of the slice in place, word by word, instead of
//! enumerating `C(|S|, f)` subsets or allocating an intersection. Explicit
//! systems carry the antichain of maximal fail-prone sets / minimal quorums.

use crate::combinatorics::{combinations, minimal_hitting_sets, retain_maximal, retain_minimal};
use crate::set::count_members;
use crate::validation::Universe;
use crate::{ProcessSet, QuorumError};

/// A symmetric fail-prone system: the collection of sets of processes that may
/// jointly fail in some execution.
///
/// The collection is identified with the antichain of its *maximal* elements;
/// `F* = {F' | F' ⊆ F, F ∈ F}` is the downward closure queried by
/// [`FailProneSystem::covers`].
///
/// # Examples
///
/// ```
/// use asym_quorum::{FailProneSystem, ProcessSet};
///
/// // Up to 1 of 4 processes may fail.
/// let fps = FailProneSystem::threshold(4, 1);
/// assert!(fps.covers(&ProcessSet::from_indices([2])));
/// assert!(!fps.covers(&ProcessSet::from_indices([2, 3])));
/// assert!(fps.satisfies_q3());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailProneSystem {
    /// An explicit antichain of maximal fail-prone sets.
    Explicit {
        /// Number of processes in the system.
        n: usize,
        /// Maximal fail-prone sets (canonicalized: an antichain, sorted).
        sets: Vec<ProcessSet>,
    },
    /// Trust is placed only in `slice` (a Ripple UNL / simple Stellar slice):
    /// every process outside `slice` may fail, plus up to `f` members of
    /// `slice`. Maximal sets are `(P ∖ slice) ∪ C` for each `f`-subset `C` of
    /// `slice`. With `slice = P` this is the `f`-of-`n` threshold system.
    SliceThreshold {
        /// Number of processes in the system.
        n: usize,
        /// The trusted slice.
        slice: ProcessSet,
        /// Maximum number of slice members that may fail.
        f: usize,
    },
}

impl FailProneSystem {
    /// Creates the threshold fail-prone system tolerating `f` out of `n`
    /// failures: the slice system over all of `P`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= n`.
    pub fn threshold(n: usize, f: usize) -> Self {
        assert!(f < n, "threshold fail-prone system needs f < n (got f={f}, n={n})");
        FailProneSystem::slice_threshold(n, ProcessSet::full(n), f)
    }

    /// Creates an explicit fail-prone system from arbitrary sets.
    ///
    /// Non-maximal sets are dropped (the system is the downward closure of its
    /// maximal elements).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::Empty`] if no set is given, and
    /// [`QuorumError::OutOfRange`] if a set mentions a process `≥ n`.
    pub fn explicit(n: usize, mut sets: Vec<ProcessSet>) -> Result<Self, QuorumError> {
        if sets.is_empty() {
            return Err(QuorumError::Empty);
        }
        for s in &sets {
            if s.max_id().is_some_and(|m| m.index() >= n) {
                return Err(QuorumError::OutOfRange { set: s.clone(), n });
            }
        }
        retain_maximal(&mut sets);
        Ok(FailProneSystem::Explicit { n, sets })
    }

    /// Creates the slice-threshold fail-prone system: everything outside
    /// `slice` may fail, plus at most `f` members of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` reaches outside the universe or `f >= |slice|`.
    pub fn slice_threshold(n: usize, slice: ProcessSet, f: usize) -> Self {
        assert!(
            slice.max_id().is_some_and(|m| m.index() < n),
            "slice must be non-empty and within the universe"
        );
        assert!(f < slice.len(), "slice threshold needs f < |slice|");
        FailProneSystem::SliceThreshold { n, slice, f }
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        match self {
            FailProneSystem::Explicit { n, .. } | FailProneSystem::SliceThreshold { n, .. } => *n,
        }
    }

    /// Returns `true` if `faulty ∈ F*`, i.e. the system *foresees* this set of
    /// failures (some fail-prone set contains it).
    pub fn covers(&self, faulty: &ProcessSet) -> bool {
        match self {
            FailProneSystem::Explicit { sets, .. } => sets.iter().any(|s| faulty.is_subset(s)),
            FailProneSystem::SliceThreshold { n, slice, f } => {
                count_members(*n, [faulty, slice], |[a, s]| a & s) <= *f
                    && faulty.max_id().is_none_or(|m| m.index() < *n)
            }
        }
    }

    /// Returns the maximal fail-prone sets.
    ///
    /// For slice-threshold systems this *enumerates* all `C(|S|, f)` subsets
    /// — only call it on small systems (figure regeneration, tests).
    /// Validation calls it only for a pair of systems with an `Explicit`
    /// side; every other pair is decided by counting members of the slices.
    pub fn maximal_sets(&self) -> Vec<ProcessSet> {
        match self {
            FailProneSystem::Explicit { sets, .. } => sets.clone(),
            FailProneSystem::SliceThreshold { n, slice, f } => {
                let outside = slice.complement(*n);
                combinations(slice, *f).map(|c| c.union(&outside)).collect()
            }
        }
    }

    /// Checks the Q³ condition: no three fail-prone sets cover `P`.
    ///
    /// Q³ is necessary and sufficient for a Byzantine quorum system tolerating
    /// this fail-prone system to exist (Malkhi–Reiter).
    pub fn satisfies_q3(&self) -> bool {
        self.q3_violation().is_none()
    }

    /// Returns a witness of a Q³ violation, or `None` if Q³ holds.
    pub fn q3_violation(&self) -> Option<[ProcessSet; 3]> {
        match self {
            FailProneSystem::Explicit { n, sets } => {
                let full = ProcessSet::full(*n);
                for a in sets {
                    for b in sets {
                        let ab = a.union(b);
                        for c in sets {
                            if ab.union(c) == full {
                                return Some([a.clone(), b.clone(), c.clone()]);
                            }
                        }
                    }
                }
                None
            }
            FailProneSystem::SliceThreshold { n, slice, f } => {
                if slice.len() > 3 * *f {
                    return None;
                }
                // Three f-chunks of the slice cover it when 3f ≥ |slice|.
                let members = slice.to_vec();
                let outside = slice.complement(*n);
                let chunk = |k: usize| -> ProcessSet {
                    members
                        .iter()
                        .copied()
                        .cycle()
                        .skip(k * *f)
                        .take(*f)
                        .collect::<ProcessSet>()
                        .union(&outside)
                };
                Some([chunk(0), chunk(1), chunk(2)])
            }
        }
    }

    /// Returns the canonical quorum system: the complements of the maximal
    /// fail-prone sets.
    ///
    /// For a threshold system `f`-of-`n` this is the `(n−f)`-of-`n` quorum
    /// system used by classic BFT protocols.
    pub fn canonical_quorums(&self) -> QuorumSystem {
        match self {
            FailProneSystem::Explicit { n, sets } => {
                let mut quorums: Vec<ProcessSet> = sets.iter().map(|s| s.complement(*n)).collect();
                retain_minimal(&mut quorums);
                QuorumSystem::Explicit { n: *n, quorums }
            }
            FailProneSystem::SliceThreshold { n, slice, f } => {
                QuorumSystem::SliceThreshold { n: *n, slice: slice.clone(), q: slice.len() - f }
            }
        }
    }
}

/// A symmetric Byzantine quorum system: a collection of quorums, identified
/// with the antichain of its *minimal* elements (any superset of a quorum is a
/// quorum).
///
/// # Examples
///
/// ```
/// use asym_quorum::{ProcessSet, QuorumSystem};
///
/// // Classic n=4, f=1: quorums are all sets of ≥ 3 processes.
/// let qs = QuorumSystem::threshold(4, 3);
/// assert!(qs.contains_quorum(&ProcessSet::from_indices([0, 1, 3])));
/// assert!(!qs.contains_quorum(&ProcessSet::from_indices([0, 1])));
/// // A kernel must intersect every quorum: any 2 processes suffice here.
/// assert!(qs.is_kernel(&ProcessSet::from_indices([1, 2])));
/// assert!(!qs.is_kernel(&ProcessSet::from_indices([1])));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuorumSystem {
    /// An explicit antichain of minimal quorums.
    Explicit {
        /// Number of processes in the system.
        n: usize,
        /// Minimal quorums (canonicalized: an antichain, sorted).
        quorums: Vec<ProcessSet>,
    },
    /// Quorums are all subsets of `slice` of size at least `q` (the canonical
    /// quorum system of [`FailProneSystem::SliceThreshold`]). With
    /// `slice = P` this is the threshold system of all `q`-sets.
    SliceThreshold {
        /// Number of processes in the system.
        n: usize,
        /// The trusted slice.
        slice: ProcessSet,
        /// Minimum number of slice members forming a quorum.
        q: usize,
    },
}

impl QuorumSystem {
    /// Creates the threshold quorum system whose quorums are all sets of at
    /// least `q` processes: the slice system over all of `P`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `q > n`.
    pub fn threshold(n: usize, q: usize) -> Self {
        assert!(q >= 1 && q <= n, "threshold quorum size must satisfy 1 ≤ q ≤ n");
        QuorumSystem::slice_threshold(n, ProcessSet::full(n), q)
    }

    /// Creates an explicit quorum system from arbitrary quorums; non-minimal
    /// quorums are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::Empty`] if no quorum is given,
    /// [`QuorumError::OutOfRange`] if a quorum mentions a process `≥ n`, and
    /// [`QuorumError::EmptyQuorum`] if the empty set is given as a quorum.
    pub fn explicit(n: usize, mut quorums: Vec<ProcessSet>) -> Result<Self, QuorumError> {
        if quorums.is_empty() {
            return Err(QuorumError::Empty);
        }
        for q in &quorums {
            if q.is_empty() {
                return Err(QuorumError::EmptyQuorum { process: crate::ProcessId::new(0) });
            }
            if q.max_id().is_some_and(|m| m.index() >= n) {
                return Err(QuorumError::OutOfRange { set: q.clone(), n });
            }
        }
        retain_minimal(&mut quorums);
        Ok(QuorumSystem::Explicit { n, quorums })
    }

    /// Creates the slice-threshold quorum system whose quorums are all
    /// subsets of `slice` with at least `q` members.
    ///
    /// # Panics
    ///
    /// Panics if `slice` reaches outside the universe or `q` is not in
    /// `1..=|slice|`.
    pub fn slice_threshold(n: usize, slice: ProcessSet, q: usize) -> Self {
        assert!(
            slice.max_id().is_some_and(|m| m.index() < n),
            "slice must be non-empty and within the universe"
        );
        assert!(q >= 1 && q <= slice.len(), "slice quorum size must satisfy 1 ≤ q ≤ |slice|");
        QuorumSystem::SliceThreshold { n, slice, q }
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        match self {
            QuorumSystem::Explicit { n, .. } | QuorumSystem::SliceThreshold { n, .. } => *n,
        }
    }

    /// Size of the smallest quorum (`c(Q)` in the paper's Lemma 4.4).
    pub fn min_quorum_size(&self) -> usize {
        match self {
            QuorumSystem::Explicit { quorums, .. } => {
                quorums.iter().map(ProcessSet::len).min().unwrap_or(0)
            }
            QuorumSystem::SliceThreshold { q, .. } => *q,
        }
    }

    /// Returns `true` if `observed` contains some quorum.
    ///
    /// This is the protocols' round-advancement test `∃Q ∈ Q_i: Q ⊆ observed`.
    pub fn contains_quorum(&self, observed: &ProcessSet) -> bool {
        match self {
            QuorumSystem::Explicit { quorums, .. } => {
                quorums.iter().any(|qs| qs.is_subset(observed))
            }
            QuorumSystem::SliceThreshold { n, slice, q } => {
                count_members(*n, [observed, slice], |[o, s]| o & s) >= *q
            }
        }
    }

    /// Returns some quorum contained in `observed`, if any.
    pub fn find_quorum(&self, observed: &ProcessSet) -> Option<ProcessSet> {
        match self {
            QuorumSystem::Explicit { quorums, .. } => {
                quorums.iter().find(|qs| qs.is_subset(observed)).cloned()
            }
            QuorumSystem::SliceThreshold { slice, q, .. } => self
                .contains_quorum(observed)
                .then(|| observed.iter().filter(|p| slice.contains(*p)).take(*q).collect()),
        }
    }

    /// Returns `true` if `observed` intersects *every* quorum, i.e. contains a
    /// kernel (the protocols' amplification test `∃K ∈ K_i: K ⊆ observed`).
    pub fn is_kernel(&self, observed: &ProcessSet) -> bool {
        match self {
            QuorumSystem::Explicit { quorums, .. } => {
                quorums.iter().all(|qs| qs.intersects(observed))
            }
            QuorumSystem::SliceThreshold { n, slice, q } => {
                count_members(*n, [observed, slice], |[o, s]| o & s) > slice.len() - q
            }
        }
    }

    /// Enumerates the minimal quorums.
    ///
    /// For slice-threshold systems this enumerates `C(|T|, q)` sets — only
    /// call it on small systems. Validation calls it only for a pair of
    /// systems with an `Explicit` side.
    pub fn minimal_quorums(&self) -> Vec<ProcessSet> {
        match self {
            QuorumSystem::Explicit { quorums, .. } => quorums.clone(),
            QuorumSystem::SliceThreshold { slice, q, .. } => combinations(slice, *q).collect(),
        }
    }

    /// Computes the minimal kernels (minimal hitting sets of the quorums).
    ///
    /// Exponential in general; intended for inspection and tests on small
    /// systems. For slice-threshold systems the closed form (all
    /// `(|T|−q+1)`-subsets of the slice) is returned without search.
    pub fn minimal_kernels(&self) -> Vec<ProcessSet> {
        match self {
            QuorumSystem::Explicit { quorums, .. } => minimal_hitting_sets(quorums),
            QuorumSystem::SliceThreshold { slice, q, .. } => {
                combinations(slice, slice.len() - q + 1).collect()
            }
        }
    }

    /// Checks quorum **consistency** against a fail-prone system: any two
    /// quorums intersect in at least one process outside every common
    /// fail-prone set.
    ///
    /// This is the pair `i = j` of
    /// [`AsymQuorumSystem::check_consistency`](crate::AsymQuorumSystem::check_consistency):
    /// decided by counting unless a side is `Explicit`.
    ///
    /// # Errors
    ///
    /// Returns the violating pair and fail-prone set on failure.
    pub fn check_consistency(&self, fps: &FailProneSystem) -> Result<(), QuorumError> {
        let p0 = (crate::ProcessId::new(0), (self, fps));
        Universe::new(self.n()).consistency(p0, p0)
    }

    /// Checks quorum **availability** against a fail-prone system: for every
    /// fail-prone set there is a disjoint quorum.
    ///
    /// # Errors
    ///
    /// Returns the fail-prone set no quorum avoids on failure.
    pub fn check_availability(&self, fps: &FailProneSystem) -> Result<(), QuorumError> {
        Universe::new(self.n()).availability((crate::ProcessId::new(0), (self, fps)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ProcessSet::from_indices(ids.iter().copied())
    }

    #[test]
    fn threshold_covers() {
        let fps = FailProneSystem::threshold(7, 2);
        assert!(fps.covers(&ProcessSet::new()));
        assert!(fps.covers(&set(&[0, 6])));
        assert!(!fps.covers(&set(&[0, 1, 2])));
        assert!(!fps.covers(&set(&[7])), "out-of-universe processes are not covered");
    }

    #[test]
    fn explicit_covers_downward_closure() {
        let fps = FailProneSystem::explicit(5, vec![set(&[0, 1]), set(&[3])]).unwrap();
        assert!(fps.covers(&set(&[0])));
        assert!(fps.covers(&set(&[0, 1])));
        assert!(fps.covers(&set(&[3])));
        assert!(!fps.covers(&set(&[0, 3])));
    }

    #[test]
    fn explicit_canonicalizes_to_maximal_antichain() {
        let fps =
            FailProneSystem::explicit(5, vec![set(&[0]), set(&[0, 1]), set(&[0, 1])]).unwrap();
        assert_eq!(fps.maximal_sets(), vec![set(&[0, 1])]);
    }

    #[test]
    fn q3_threshold() {
        assert!(FailProneSystem::threshold(4, 1).satisfies_q3());
        assert!(FailProneSystem::threshold(7, 2).satisfies_q3());
        assert!(!FailProneSystem::threshold(6, 2).satisfies_q3());
        assert!(!FailProneSystem::threshold(3, 1).satisfies_q3());
        // Violation witnesses actually cover P with fail-prone sets.
        let fps = FailProneSystem::threshold(6, 2);
        let w = fps.q3_violation().unwrap();
        let union = w[0].union(&w[1]).union(&w[2]);
        assert_eq!(union, ProcessSet::full(6));
        for s in &w {
            assert!(fps.covers(s));
        }
    }

    #[test]
    fn q3_explicit() {
        let good =
            FailProneSystem::explicit(4, vec![set(&[0]), set(&[1]), set(&[2]), set(&[3])]).unwrap();
        assert!(good.satisfies_q3());
        let bad = FailProneSystem::explicit(3, vec![set(&[0]), set(&[1]), set(&[2])]).unwrap();
        assert!(!bad.satisfies_q3());
    }

    #[test]
    fn canonical_quorums_threshold() {
        let fps = FailProneSystem::threshold(4, 1);
        let qs = fps.canonical_quorums();
        assert_eq!(qs.min_quorum_size(), 3);
        assert!(qs.check_consistency(&fps).is_ok());
        assert!(qs.check_availability(&fps).is_ok());
    }

    #[test]
    fn canonical_quorums_explicit_are_complements() {
        let fps = FailProneSystem::explicit(4, vec![set(&[0]), set(&[1, 2])]).unwrap();
        let qs = fps.canonical_quorums();
        assert_eq!(qs.minimal_quorums(), vec![set(&[0, 3]), set(&[1, 2, 3])],);
    }

    #[test]
    fn quorum_membership_and_kernels_threshold() {
        let qs = QuorumSystem::threshold(4, 3);
        assert!(qs.contains_quorum(&set(&[0, 1, 2])));
        assert!(qs.contains_quorum(&set(&[0, 1, 2, 3])));
        assert!(!qs.contains_quorum(&set(&[0, 1])));
        let q = qs.find_quorum(&set(&[0, 1, 2, 3])).unwrap();
        assert_eq!(q.len(), 3);
        // kernel size n - q + 1 = 2
        assert!(qs.is_kernel(&set(&[0, 3])));
        assert!(!qs.is_kernel(&set(&[3])));
        assert_eq!(qs.minimal_kernels().len(), 6);
    }

    #[test]
    fn quorum_membership_explicit() {
        let qs = QuorumSystem::explicit(4, vec![set(&[0, 1]), set(&[2, 3])]).unwrap();
        assert!(qs.contains_quorum(&set(&[0, 1, 2])));
        assert!(!qs.contains_quorum(&set(&[0, 2])));
        assert_eq!(qs.find_quorum(&set(&[2, 3])), Some(set(&[2, 3])));
        // Kernels must hit both {0,1} and {2,3}.
        assert!(qs.is_kernel(&set(&[1, 2])));
        assert!(!qs.is_kernel(&set(&[0, 1])));
        let kernels = qs.minimal_kernels();
        assert_eq!(kernels.len(), 4);
        assert!(kernels.contains(&set(&[0, 2])));
    }

    #[test]
    fn consistency_availability_thresholds() {
        // n = 3f + 1, q = 2f + 1 is consistent and available.
        for f in 1..6 {
            let n = 3 * f + 1;
            let fps = FailProneSystem::threshold(n, f);
            let qs = QuorumSystem::threshold(n, 2 * f + 1);
            assert!(qs.check_consistency(&fps).is_ok(), "f={f}");
            assert!(qs.check_availability(&fps).is_ok(), "f={f}");
        }
        // Quorums too small: inconsistent.
        let fps = FailProneSystem::threshold(4, 1);
        let qs = QuorumSystem::threshold(4, 2);
        assert!(matches!(
            qs.check_consistency(&fps),
            Err(QuorumError::ConsistencyViolation { .. })
        ));
        // Quorums too large: unavailable.
        let qs = QuorumSystem::threshold(4, 4);
        assert!(matches!(
            qs.check_availability(&fps),
            Err(QuorumError::AvailabilityViolation { .. })
        ));
    }

    #[test]
    fn explicit_constructor_validation() {
        assert_eq!(QuorumSystem::explicit(3, vec![]), Err(QuorumError::Empty));
        assert!(matches!(
            QuorumSystem::explicit(3, vec![ProcessSet::new()]),
            Err(QuorumError::EmptyQuorum { .. })
        ));
        assert!(matches!(
            QuorumSystem::explicit(3, vec![set(&[5])]),
            Err(QuorumError::OutOfRange { .. })
        ));
        assert!(matches!(
            FailProneSystem::explicit(3, vec![set(&[5])]),
            Err(QuorumError::OutOfRange { .. })
        ));
    }

    #[test]
    fn threshold_explicit_agree() {
        // The implicit threshold representation must agree with the explicit
        // enumeration of the same system.
        let t = QuorumSystem::threshold(5, 3);
        let e = QuorumSystem::explicit(5, t.minimal_quorums()).unwrap();
        let fps_t = FailProneSystem::threshold(5, 1);
        let fps_e = FailProneSystem::explicit(5, fps_t.maximal_sets()).unwrap();
        assert_eq!(fps_t.satisfies_q3(), fps_e.satisfies_q3());
        assert_eq!(t.check_consistency(&fps_t).is_ok(), e.check_consistency(&fps_e).is_ok());
        assert_eq!(t.check_availability(&fps_t).is_ok(), e.check_availability(&fps_e).is_ok());
    }

    #[test]
    fn slice_threshold_membership() {
        // Slice {1,2,3,4,5} with f=1 → quorums are 4-subsets of the slice.
        let slice = set(&[1, 2, 3, 4, 5]);
        let fps = FailProneSystem::slice_threshold(8, slice.clone(), 1);
        assert!(fps.covers(&set(&[0, 6, 7, 3])), "outside + 1 slice member");
        assert!(!fps.covers(&set(&[2, 3])), "two slice members exceed f");
        let qs = fps.canonical_quorums();
        assert_eq!(qs.min_quorum_size(), 4);
        assert!(qs.contains_quorum(&set(&[1, 2, 3, 4])));
        assert!(!qs.contains_quorum(&set(&[0, 1, 2, 6, 7])), "outside processes don't count");
        assert_eq!(qs.find_quorum(&set(&[0, 1, 2, 3, 4])), Some(set(&[1, 2, 3, 4])));
        // Kernel: |slice| - q + 1 = 2 slice members.
        assert!(qs.is_kernel(&set(&[3, 5])));
        assert!(!qs.is_kernel(&set(&[3, 0, 6])));
        assert!(qs.check_consistency(&fps).is_ok());
        assert!(qs.check_availability(&fps).is_ok());
    }

    #[test]
    fn slice_threshold_q3() {
        let slice = set(&[0, 1, 2, 3]);
        assert!(FailProneSystem::slice_threshold(6, slice.clone(), 1).satisfies_q3());
        let fps = FailProneSystem::slice_threshold(6, set(&[0, 1, 2]), 1);
        assert!(!fps.satisfies_q3());
        let w = fps.q3_violation().unwrap();
        let union = w[0].union(&w[1]).union(&w[2]);
        assert_eq!(union, ProcessSet::full(6));
        for s in &w {
            assert!(fps.covers(s), "witness {s} not fail-prone");
        }
    }

    #[test]
    fn slice_threshold_maximal_sets() {
        let fps = FailProneSystem::slice_threshold(5, set(&[0, 1, 2]), 1);
        let max = fps.maximal_sets();
        assert_eq!(max.len(), 3);
        assert!(max.contains(&set(&[0, 3, 4])));
        assert!(max.contains(&set(&[1, 3, 4])));
        assert!(max.contains(&set(&[2, 3, 4])));
    }

    #[test]
    fn slice_threshold_agrees_with_explicit() {
        let slice = set(&[1, 3, 4]);
        let st = QuorumSystem::slice_threshold(6, slice, 2);
        let ex = QuorumSystem::explicit(6, st.minimal_quorums()).unwrap();
        for bits in 0..64usize {
            let obs: ProcessSet = (0..6).filter(|i| bits & (1 << i) != 0).collect();
            assert_eq!(st.contains_quorum(&obs), ex.contains_quorum(&obs), "{obs}");
            assert_eq!(st.is_kernel(&obs), ex.is_kernel(&obs), "{obs}");
        }
    }

    proptest! {
        #[test]
        fn prop_threshold_and_explicit_membership_agree(
            n in 3usize..8,
            q in 1usize..8,
            observed in proptest::collection::vec(0usize..8, 0..8),
        ) {
            prop_assume!(q <= n);
            let t = QuorumSystem::threshold(n, q);
            let e = QuorumSystem::explicit(n, t.minimal_quorums()).unwrap();
            let obs: ProcessSet = observed.into_iter().filter(|i| *i < n).collect();
            prop_assert_eq!(t.contains_quorum(&obs), e.contains_quorum(&obs));
            prop_assert_eq!(t.is_kernel(&obs), e.is_kernel(&obs));
        }

        #[test]
        fn prop_kernel_iff_hits_all_quorums(
            n in 3usize..7,
            q in 2usize..7,
            observed in proptest::collection::vec(0usize..7, 0..7),
        ) {
            prop_assume!(q <= n);
            let qs = QuorumSystem::threshold(n, q);
            let obs: ProcessSet = observed.into_iter().filter(|i| *i < n).collect();
            let hits_all = qs.minimal_quorums().iter().all(|quorum| quorum.intersects(&obs));
            prop_assert_eq!(qs.is_kernel(&obs), hits_all);
        }
    }
}
