//! Small combinatorial utilities used by quorum-system enumeration.
//!
//! Threshold fail-prone systems are *implicitly* all `f`-subsets of `P`;
//! explicit enumeration is exponential and only ever done for small systems
//! (tests, figure regeneration, minimal-kernel inspection, and validating a
//! pair of systems with an explicit side). The iterators here are lazy so
//! callers can bound the work.

use crate::{ProcessId, ProcessSet};

/// Lazy iterator over all `k`-subsets of a ground set, in lexicographic order.
///
/// # Examples
///
/// ```
/// use asym_quorum::combinatorics::combinations;
/// use asym_quorum::ProcessSet;
///
/// let ground = ProcessSet::from_indices([0, 1, 2]);
/// let pairs: Vec<ProcessSet> = combinations(&ground, 2).collect();
/// assert_eq!(pairs.len(), 3);
/// assert_eq!(pairs[0], ProcessSet::from_indices([0, 1]));
/// ```
pub fn combinations(ground: &ProcessSet, k: usize) -> Combinations {
    Combinations::new(ground.to_vec(), k)
}

/// Iterator type returned by [`combinations`].
#[derive(Clone, Debug)]
pub struct Combinations {
    elements: Vec<ProcessId>,
    /// Indices into `elements` of the current combination; empty when done.
    cursor: Vec<usize>,
    k: usize,
    started: bool,
    done: bool,
}

impl Combinations {
    fn new(elements: Vec<ProcessId>, k: usize) -> Self {
        let done = k > elements.len();
        Combinations { cursor: (0..k).collect(), elements, k, started: false, done }
    }

    fn current(&self) -> ProcessSet {
        self.cursor.iter().map(|&i| self.elements[i]).collect()
    }

    fn advance(&mut self) -> bool {
        let n = self.elements.len();
        let k = self.k;
        if k == 0 {
            return false;
        }
        // Find the rightmost index that can still move right.
        let mut i = k;
        while i > 0 {
            i -= 1;
            if self.cursor[i] != i + n - k {
                self.cursor[i] += 1;
                for j in i + 1..k {
                    self.cursor[j] = self.cursor[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }
}

impl Iterator for Combinations {
    type Item = ProcessSet;

    fn next(&mut self) -> Option<ProcessSet> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.current());
        }
        if self.advance() {
            Some(self.current())
        } else {
            self.done = true;
            None
        }
    }
}

/// Returns the binomial coefficient `C(n, k)`, saturating at `u64::MAX`.
pub fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Removes non-maximal sets (sets contained in another set of the family).
///
/// Used to canonicalize explicit fail-prone systems, which are identified with
/// the antichain of their maximal elements.
pub fn retain_maximal(sets: &mut Vec<ProcessSet>) {
    sets.sort_by_key(|s| core::cmp::Reverse(s.len()));
    sets.dedup();
    let mut kept: Vec<ProcessSet> = Vec::with_capacity(sets.len());
    for s in sets.drain(..) {
        if !kept.iter().any(|m| s.is_subset(m)) {
            kept.push(s);
        }
    }
    kept.sort();
    *sets = kept;
}

/// Removes non-minimal sets (sets containing another set of the family).
///
/// Used to canonicalize explicit quorum systems, which are identified with the
/// antichain of their minimal elements.
pub fn retain_minimal(sets: &mut Vec<ProcessSet>) {
    sets.sort_by_key(|s| s.len());
    sets.dedup();
    let mut kept: Vec<ProcessSet> = Vec::with_capacity(sets.len());
    for s in sets.drain(..) {
        if !kept.iter().any(|m| m.is_subset(&s)) {
            kept.push(s);
        }
    }
    kept.sort();
    *sets = kept;
}

/// Enumerates all *minimal hitting sets* of a family of non-empty sets:
/// minimal sets intersecting every member of the family.
///
/// For a quorum system this computes the minimal kernels. The algorithm is a
/// classic branch-and-prune enumeration and is exponential in the worst case;
/// it is intended for inspection and tests on small systems.
///
/// Returns an empty family if `sets` contains an empty set (nothing can hit
/// it); returns `[∅]`-like behaviour is avoided: if `sets` is empty, the empty
/// set hits everything vacuously and `vec![ProcessSet::new()]` is returned.
pub fn minimal_hitting_sets(sets: &[ProcessSet]) -> Vec<ProcessSet> {
    if sets.is_empty() {
        return vec![ProcessSet::new()];
    }
    if sets.iter().any(ProcessSet::is_empty) {
        return Vec::new();
    }
    let mut out: Vec<ProcessSet> = Vec::new();
    let mut current = ProcessSet::new();
    branch(sets, &mut current, &mut out);
    retain_minimal(&mut out);
    out
}

fn branch(sets: &[ProcessSet], current: &mut ProcessSet, out: &mut Vec<ProcessSet>) {
    // Find a set not yet hit.
    let unhit = sets.iter().find(|s| s.is_disjoint(current));
    let Some(unhit) = unhit else {
        out.push(current.clone());
        return;
    };
    // Prune: if some accumulated minimal set is a subset of current ∪ {e}
    // for every branch, that branch only produces non-minimal sets; cheap
    // check is done at the end by retain_minimal, with a light prune here.
    for e in unhit {
        current.insert(e);
        if !out.iter().any(|m| m.is_subset(current)) {
            branch(sets, current, out);
        }
        current.remove(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ProcessSet::from_indices(ids.iter().copied())
    }

    #[test]
    fn combinations_counts() {
        let ground = ProcessSet::full(6);
        for k in 0..=6 {
            let got = combinations(&ground, k).count() as u64;
            assert_eq!(got, binomial(6, k), "k={k}");
        }
        assert_eq!(combinations(&ground, 7).count(), 0);
    }

    #[test]
    fn combinations_of_sparse_ground_set() {
        let ground = set(&[2, 5, 9]);
        let combos: Vec<_> = combinations(&ground, 2).collect();
        assert_eq!(combos, vec![set(&[2, 5]), set(&[2, 9]), set(&[5, 9])]);
    }

    #[test]
    fn combinations_zero_k() {
        let ground = set(&[1, 2]);
        let combos: Vec<_> = combinations(&ground, 0).collect();
        assert_eq!(combos, vec![ProcessSet::new()]);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(30, 6), 593_775);
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(200, 100), u64::MAX); // saturates
    }

    #[test]
    fn maximal_and_minimal_antichains() {
        let mut fam = vec![set(&[0]), set(&[0, 1]), set(&[2]), set(&[0, 1])];
        retain_maximal(&mut fam);
        assert_eq!(fam, vec![set(&[0, 1]), set(&[2])]);

        let mut fam = vec![set(&[0]), set(&[0, 1]), set(&[2]), set(&[2, 3])];
        retain_minimal(&mut fam);
        assert_eq!(fam, vec![set(&[0]), set(&[2])]);
    }

    #[test]
    fn hitting_sets_simple() {
        // Family {{0,1},{1,2}}: minimal hitting sets are {1}, {0,2}.
        let fam = vec![set(&[0, 1]), set(&[1, 2])];
        let hs = minimal_hitting_sets(&fam);
        assert_eq!(hs, vec![set(&[1]), set(&[0, 2])]);
    }

    #[test]
    fn hitting_sets_threshold_quorums() {
        // Quorums = all 2-subsets of {0,1,2}; minimal kernels are all 2-subsets.
        let fam: Vec<_> = combinations(&ProcessSet::full(3), 2).collect();
        let hs = minimal_hitting_sets(&fam);
        assert_eq!(hs.len(), 3);
        assert!(hs.iter().all(|k| k.len() == 2));
    }

    #[test]
    fn hitting_sets_edge_cases() {
        assert_eq!(minimal_hitting_sets(&[]), vec![ProcessSet::new()]);
        assert!(minimal_hitting_sets(&[ProcessSet::new()]).is_empty());
    }

    #[test]
    fn hitting_sets_every_result_hits_everything() {
        let fam = vec![set(&[0, 1, 2]), set(&[2, 3]), set(&[4, 0]), set(&[1, 4])];
        for h in minimal_hitting_sets(&fam) {
            for s in &fam {
                assert!(h.intersects(s), "{h} misses {s}");
            }
        }
    }
}
