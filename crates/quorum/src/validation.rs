//! Per-pair validation rules: B³ (Definition 2.3), consistency and
//! availability (Definition 2.1). A symmetric system is the pair `i = j`; an
//! asymmetric one checks every pair of *distinct* per-process systems, since
//! each rule depends only on the two systems, not on the processes.
//!
//! A `SliceThreshold` system is a *slice* and a *bound*: its fail-prone sets
//! are everything outside a slice `S` plus any `f` members of `S`, and its
//! quorums are any `q` members of a slice `T` (a threshold system has
//! `S = T = P`). For two such systems every rule compares the sizes of a few
//! regions of the slices, counted by popcount without allocating. Only a pair
//! with an `Explicit` side enumerates maximal fail-prone sets and minimal
//! quorums. A violation is returned with a concrete witness either way.

use crate::combinatorics::retain_maximal;
use crate::set::count_members;
use crate::{FailProneSystem, ProcessId, ProcessSet, QuorumError, QuorumSystem};

/// A slice and the bound on its members: `(S, f)` of a fail-prone system or
/// `(T, q)` of a quorum system.
type Slice<'a> = (&'a ProcessSet, usize);

/// The quorum system and the fail-prone system of one process.
pub(crate) type Trust<'a> = (&'a QuorumSystem, &'a FailProneSystem);

/// The distinct entries of `systems`, each with the first process using it,
/// in order of first use.
pub(crate) fn distinct<T: PartialEq>(systems: impl IntoIterator<Item = T>) -> Vec<(ProcessId, T)> {
    let mut seen: Vec<(ProcessId, T)> = Vec::new();
    for (i, s) in systems.into_iter().enumerate() {
        if !seen.iter().any(|(_, t)| *t == s) {
            seen.push((ProcessId::new(i), s));
        }
    }
    seen
}

/// Every unordered pair `(a, b)` of `items`, including `a = b`.
pub(crate) fn pairs<T>(items: &[T]) -> impl Iterator<Item = (&T, &T)> {
    items.iter().enumerate().flat_map(move |(k, a)| items[k..].iter().map(move |b| (a, b)))
}

fn fail_slice(fail: &FailProneSystem) -> Option<Slice<'_>> {
    match fail {
        FailProneSystem::SliceThreshold { slice, f, .. } => Some((slice, *f)),
        FailProneSystem::Explicit { .. } => None,
    }
}

fn quorum_slice(quorums: &QuorumSystem) -> Option<Slice<'_>> {
    match quorums {
        QuorumSystem::SliceThreshold { slice, q, .. } => Some((slice, *q)),
        QuorumSystem::Explicit { .. } => None,
    }
}

/// The universe `P` of one validation, shared by every pair it checks.
pub(crate) struct Universe {
    n: usize,
    all: ProcessSet,
}

impl Universe {
    pub(crate) fn new(n: usize) -> Self {
        Universe { n, all: ProcessSet::full(n) }
    }

    /// B³ for the pair: no `F_i ∈ F_i`, `F_j ∈ F_j` and `F_ij ∈ F_i* ∩ F_j*`
    /// cover `P`.
    pub(crate) fn b3(
        &self,
        (i, fail_i): (ProcessId, &FailProneSystem),
        (j, fail_j): (ProcessId, &FailProneSystem),
    ) -> Result<(), QuorumError> {
        let witness = match (fail_slice(fail_i), fail_slice(fail_j)) {
            (Some(a), Some(b)) => self.b3_closed(a, b),
            _ => self.b3_enumerated(fail_i, fail_j),
        };
        witness.map_or(Ok(()), |[fi, fj, fij]| Err(QuorumError::B3Violation { i, j, fi, fj, fij }))
    }

    /// Consistency for the pair: no `Q_i ∈ Q_i`, `Q_j ∈ Q_j` and
    /// `F_ij ∈ F_i* ∩ F_j*` with `Q_i ∩ Q_j ⊆ F_ij`.
    pub(crate) fn consistency(
        &self,
        (i, (quorums_i, fail_i)): (ProcessId, Trust),
        (j, (quorums_j, fail_j)): (ProcessId, Trust),
    ) -> Result<(), QuorumError> {
        let slices = (
            quorum_slice(quorums_i),
            fail_slice(fail_i),
            quorum_slice(quorums_j),
            fail_slice(fail_j),
        );
        let witness = match slices {
            (Some(ti), Some(si), Some(tj), Some(sj)) => self.consistency_closed(ti, si, tj, sj),
            _ => consistency_enumerated((quorums_i, fail_i), (quorums_j, fail_j)),
        };
        witness.map_or(Ok(()), |[qi, qj, fij]| {
            Err(QuorumError::ConsistencyViolation { i, j, qi, qj, fij })
        })
    }

    /// Availability for `process`: every `F ∈ F_i` is avoided by a quorum.
    pub(crate) fn availability(
        &self,
        (process, (quorums, fail)): (ProcessId, Trust),
    ) -> Result<(), QuorumError> {
        let witness = match (quorum_slice(quorums), fail_slice(fail)) {
            (Some(t), Some(s)) => self.availability_closed(t, s),
            _ => availability_enumerated(quorums, fail),
        };
        witness.map_or(Ok(()), |fail_prone| {
            Err(QuorumError::AvailabilityViolation { process, fail_prone })
        })
    }

    fn count<const K: usize>(
        &self,
        sets: [&ProcessSet; K],
        combine: impl Fn([u64; K]) -> u64,
    ) -> usize {
        count_members(self.n, sets, combine)
    }

    /// Outside `S_i ∩ S_j`, `F_i ∪ F_j` already covers everything; inside it
    /// the three sets cover at most `f_i + f_j + min(f_i, f_j)` members.
    fn b3_closed(&self, (si, fi): Slice, (sj, fj): Slice) -> Option<[ProcessSet; 3]> {
        if self.count([si, sj], |[a, b]| a & b) > fi + fj + fi.min(fj) {
            return None;
        }
        // F_i and F_j take up to f_i and f_j shared members in turn; F_ij
        // takes the rest, at most min(f_i, f_j).
        let shared = si.intersection(sj);
        let ci = first(&shared, fi);
        let cj = first(&shared.difference(&ci), fj);
        let fij = shared.difference(&ci).difference(&cj);
        Some([self.maximal_fail_set((si, fi), ci), self.maximal_fail_set((sj, fj), cj), fij])
    }

    /// `Q_i ∩ Q_j` lies in `I = T_i ∩ T_j` and has at least `k` members; the
    /// pair is consistent iff no common fail-prone set covers `k` members of
    /// `I`.
    fn consistency_closed(
        &self,
        (ti, qi): Slice,
        (si, fi): Slice,
        (tj, qj): Slice,
        (sj, fj): Slice,
    ) -> Option<[ProcessSet; 3]> {
        let only_i = self.count([ti, tj], |[a, b]| a & !b);
        let only_j = self.count([ti, tj], |[a, b]| b & !a);
        // I split by membership in S_i and S_j.
        let side = |word: u64, inside: bool| if inside { word } else { !word };
        let part = |in_si: bool, in_sj: bool| {
            self.count([ti, tj, si, sj], |[a, b, c, d]| a & b & side(c, in_si) & side(d, in_sj))
        };
        let (r0, ri, rj, rij) =
            (part(false, false), part(true, false), part(false, true), part(true, true));
        let k = (qi.saturating_sub(only_i) + qj.saturating_sub(only_j))
            .saturating_sub(r0 + ri + rj + rij);
        // The largest common fail-prone subset of I spends f_i on I ∩ S_i ∖ S_j
        // and f_j on I ∩ S_j ∖ S_i first, then what both have left on
        // I ∩ S_i ∩ S_j.
        let (xi, xj) = (ri.min(fi), rj.min(fj));
        let xij = rij.min(fi - xi).min(fj - xj);
        if r0 + xi + xj + xij < k {
            return None;
        }
        let inter = ti.intersection(tj);
        let region = |in_si: bool, in_sj: bool| -> ProcessSet {
            inter.iter().filter(|p| si.contains(*p) == in_si && sj.contains(*p) == in_sj).collect()
        };
        let mut covered = region(false, false);
        covered.union_with(&first(&region(true, false), xi));
        covered.union_with(&first(&region(false, true), xj));
        covered.union_with(&first(&region(true, true), xij));
        // Two quorums meeting in exactly k covered members: each fills up
        // with its own slice outside I first, then with disjoint rests of I.
        let fij = first(&covered, k);
        let quorum =
            |own: &ProcessSet, other: &ProcessSet, q: usize, only: usize, free: &ProcessSet| {
                let mut quorum = fij.clone();
                quorum.union_with(&first(&own.difference(other), q - k));
                quorum.union_with(&first(free, (q - k).saturating_sub(only)));
                quorum
            };
        let rest = inter.difference(&fij);
        let quorum_i = quorum(ti, tj, qi, only_i, &rest);
        let quorum_j = quorum(tj, ti, qj, only_j, &rest.difference(&quorum_i));
        Some([quorum_i, quorum_j, fij])
    }

    /// A quorum avoiding `F` lies in `T ∩ S ∖ F`, and `F` can hold
    /// `min(f, |T ∩ S|)` members of `T ∩ S`.
    fn availability_closed(&self, (t, q): Slice, (s, f): Slice) -> Option<ProcessSet> {
        let trusted = self.count([t, s], |[a, b]| a & b);
        if q + trusted.min(f) <= trusted {
            return None;
        }
        Some(self.maximal_fail_set((s, f), first(&t.intersection(s), f)))
    }

    /// The maximal fail-prone set `(P ∖ S) ∪ C` whose `f` members of `S`
    /// start with `chosen`.
    fn maximal_fail_set(&self, (s, f): Slice, mut chosen: ProcessSet) -> ProcessSet {
        let pad = first(&s.difference(&chosen), f - chosen.len());
        chosen.union_with(&pad);
        chosen.union_with(&self.all.difference(s));
        chosen
    }

    fn b3_enumerated(
        &self,
        fail_i: &FailProneSystem,
        fail_j: &FailProneSystem,
    ) -> Option<[ProcessSet; 3]> {
        let (maximal_i, maximal_j) = (fail_i.maximal_sets(), fail_j.maximal_sets());
        let common = common_fail_sets(&maximal_i, &maximal_j);
        for fi in &maximal_i {
            for fj in &maximal_j {
                let union = fi.union(fj);
                if let Some(fij) = common.iter().find(|fij| union.union(fij) == self.all) {
                    return Some([fi.clone(), fj.clone(), fij.clone()]);
                }
            }
        }
        None
    }
}

fn consistency_enumerated(
    (quorums_i, fail_i): Trust,
    (quorums_j, fail_j): Trust,
) -> Option<[ProcessSet; 3]> {
    let common = common_fail_sets(&fail_i.maximal_sets(), &fail_j.maximal_sets());
    let minimal_j = quorums_j.minimal_quorums();
    for qi in quorums_i.minimal_quorums() {
        for qj in &minimal_j {
            let inter = qi.intersection(qj);
            if let Some(fij) = common.iter().find(|fij| inter.is_subset(fij)) {
                return Some([qi, qj.clone(), fij.clone()]);
            }
        }
    }
    None
}

fn availability_enumerated(quorums: &QuorumSystem, fail: &FailProneSystem) -> Option<ProcessSet> {
    let minimal = quorums.minimal_quorums();
    fail.maximal_sets().into_iter().find(|f| !minimal.iter().any(|q| q.is_disjoint(f)))
}

/// The maximal sets of `F_i* ∩ F_j*`: the maximal pairwise intersections of
/// maximal sets.
fn common_fail_sets(maximal_i: &[ProcessSet], maximal_j: &[ProcessSet]) -> Vec<ProcessSet> {
    let mut common: Vec<ProcessSet> =
        maximal_i.iter().flat_map(|a| maximal_j.iter().map(move |b| a.intersection(b))).collect();
    retain_maximal(&mut common);
    common
}

/// The `k` lowest members of `set` (all of them if it has fewer).
fn first(set: &ProcessSet, k: usize) -> ProcessSet {
    set.iter().take(k).collect()
}
