//! The round-indexed DAG store with reachability queries.
//!
//! The store enforces the invariant both DAG-Rider variants rely on: a vertex
//! is inserted only after its entire causal history is present (Algorithm 4,
//! line 96). Under that invariant, reachability queries never encounter
//! dangling references.

use std::collections::VecDeque;
use std::ops::RangeBounds;

use asym_quorum::{ProcessId, ProcessSet};

use crate::index::{VertexMap, VertexSet};
use crate::vertex::{Round, Vertex, VertexId};

/// Errors returned by [`DagStore::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// A vertex with the same `(source, round)` identity is already stored.
    Duplicate(VertexId),
    /// A referenced parent vertex is missing from the store.
    MissingParent {
        /// The vertex being inserted.
        vertex: VertexId,
        /// The absent parent.
        parent: VertexId,
    },
}

impl core::fmt::Display for DagError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DagError::Duplicate(v) => write!(f, "vertex {v} already present"),
            DagError::MissingParent { vertex, parent } => {
                write!(f, "vertex {vertex} references missing parent {parent}")
            }
        }
    }
}

impl std::error::Error for DagError {}

/// A local certified DAG: rounds of vertices, one per source, with
/// strong/weak-edge reachability queries.
///
/// The layout is the paper's `DAG[r]`: one row per round, one slot per
/// source (a [`VertexMap`]), spanning the rounds from the lowest to the
/// highest stored one. Every lookup is O(1). Rows are dense, so a store is
/// indexed only by rounds its owner's round counter gates: the rider
/// inserts a vertex only once its own round has reached the vertex's, and
/// never a round it read off an unchecked message.
///
/// # Examples
///
/// ```
/// use asym_dag::{DagStore, Vertex, VertexId};
/// use asym_quorum::{ProcessId, ProcessSet};
///
/// let mut dag: DagStore<Vec<u8>> = DagStore::with_genesis(3, Vec::new());
/// let v = Vertex::new(
///     ProcessId::new(0),
///     1,
///     vec![1],
///     ProcessSet::from_indices([0, 1, 2]),
///     vec![],
/// );
/// dag.insert(v)?;
/// assert!(dag.contains(VertexId::new(1, ProcessId::new(0))));
/// # Ok::<(), asym_dag::DagError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DagStore<B> {
    vertices: VertexMap<Vertex<B>>,
    /// Identities garbage-collected after delivery, one row of sources per
    /// round — the id test of insertion and the per-round set of round
    /// advancement alike. A missing parent is tolerated on insert **iff its
    /// exact id is recorded here** — a round-based floor would also excuse
    /// a slow old vertex this process simply never received, silently
    /// breaking delivery completeness.
    pruned: VertexSet,
    /// Highest round of any pruned vertex (`0` = nothing pruned) — the
    /// metadata the snapshot marker and the recovery fetch floor use.
    pruned_floor: Round,
}

impl<B> DagStore<B> {
    /// Creates an empty store (no genesis).
    pub fn new() -> Self {
        DagStore { vertices: VertexMap::new(), pruned: VertexSet::new(), pruned_floor: 0 }
    }

    /// Creates a store pre-populated with round-0 genesis vertices for all
    /// `n` processes, each carrying a clone of `genesis_block` (Algorithm 4,
    /// line 67: "DAG\[0\] ← hardcoded quorum of vertices").
    pub fn with_genesis(n: usize, genesis_block: B) -> Self
    where
        B: Clone,
    {
        let mut store = DagStore::new();
        for i in 0..n {
            store
                .insert(Vertex::genesis(ProcessId::new(i), genesis_block.clone()))
                .expect("fresh store accepts genesis");
        }
        store
    }

    /// Number of stored vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` if no vertex is stored.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Highest round containing at least one vertex (`None` when empty).
    pub fn max_round(&self) -> Option<Round> {
        self.vertices.last_round()
    }

    /// The pruning floor: the highest round of any garbage-collected
    /// vertex. `0` means nothing was pruned. (Metadata only — insert
    /// tolerance is decided per-id via [`DagStore::is_pruned`].)
    pub fn pruned_floor(&self) -> Round {
        self.pruned_floor
    }

    /// `true` if this exact identity was garbage-collected after delivery
    /// (its content can never be needed again).
    pub fn is_pruned(&self, id: VertexId) -> bool {
        self.pruned.contains(id)
    }

    /// Number of pruned identities recorded.
    pub fn pruned_len(&self) -> usize {
        self.pruned.len()
    }

    /// Records `id` as a garbage-collected delivered vertex *without*
    /// requiring it to be present — the replay path reconstructs the
    /// pruned set as "delivered but absent from the snapshot". Ratchets
    /// the floor.
    pub fn note_pruned(&mut self, id: VertexId) {
        self.pruned_floor = self.pruned_floor.max(id.round);
        self.pruned.insert(id);
    }

    /// Ratchets the floor metadata without recording an id — used when
    /// replaying a snapshot's pruning marker.
    pub fn set_pruned_floor(&mut self, floor: Round) {
        self.pruned_floor = self.pruned_floor.max(floor);
    }

    /// Garbage-collects one delivered vertex: removes it and records its
    /// identity so children referencing it still insert. The caller is
    /// responsible for only pruning *delivered* vertices — pruning an
    /// undelivered one would silently drop it from every later leader's
    /// causal history.
    pub fn prune(&mut self, id: VertexId) -> Option<Vertex<B>> {
        let v = self.remove(id)?;
        self.note_pruned(id);
        Some(v)
    }

    /// Inserts a vertex.
    ///
    /// # Errors
    ///
    /// [`DagError::Duplicate`] if the identity is taken;
    /// [`DagError::MissingParent`] if any strong or weak edge references an
    /// absent vertex (callers buffer such vertices — Algorithm 4 line 95).
    pub fn insert(&mut self, vertex: Vertex<B>) -> Result<(), DagError> {
        self.insert_with(vertex, |_| {})
    }

    /// Inserts a vertex, invoking `on_insert` on the stored vertex iff the
    /// insertion succeeds — the event-emitting hook a write-ahead log
    /// attaches to, so every vertex that enters the DAG is durably recorded
    /// in the same step.
    ///
    /// # Errors
    ///
    /// Same as [`DagStore::insert`]; `on_insert` is *not* called on error.
    pub fn insert_with(
        &mut self,
        vertex: Vertex<B>,
        on_insert: impl FnOnce(&Vertex<B>),
    ) -> Result<(), DagError> {
        let id = vertex.id();
        if self.contains(id) {
            return Err(DagError::Duplicate(id));
        }
        if let Some(parent) = self.missing_parent(&vertex) {
            return Err(DagError::MissingParent { vertex: id, parent });
        }
        self.store(vertex, on_insert);
        Ok(())
    }

    /// Inserts a vertex whose parents are all present (or pruned), invoking
    /// `on_insert` as [`DagStore::insert_with`] does, and checking each
    /// parent once. Unlike `insert_with` it checks the parents first: a
    /// vertex with a missing parent is handed back (`Err`), so a caller
    /// buffering it can keep it; one whose parents are present is consumed,
    /// and `Ok(false)` means its identity was already taken.
    pub fn insert_if_parents_present(
        &mut self,
        vertex: Vertex<B>,
        on_insert: impl FnOnce(&Vertex<B>),
    ) -> Result<bool, Vertex<B>> {
        if self.missing_parent(&vertex).is_some() {
            return Err(vertex);
        }
        if self.contains(vertex.id()) {
            return Ok(false);
        }
        self.store(vertex, on_insert);
        Ok(true)
    }

    /// The first parent of `vertex` that is neither stored nor pruned.
    /// Pruned parents count as present: they were delivered and
    /// garbage-collected.
    fn missing_parent(&self, vertex: &Vertex<B>) -> Option<VertexId> {
        vertex.parents().find(|p| !self.contains(*p) && !self.pruned.contains(*p))
    }

    fn store(&mut self, vertex: Vertex<B>, on_insert: impl FnOnce(&Vertex<B>)) {
        on_insert(self.vertices.get_or_insert_with(vertex.id(), || vertex));
    }

    /// Removes a vertex without recording it as pruned (prefer
    /// [`DagStore::prune`] for garbage collection — children referencing a
    /// plainly-removed vertex will no longer insert).
    pub fn remove(&mut self, id: VertexId) -> Option<Vertex<B>> {
        self.vertices.remove(id)
    }

    /// `true` if the identified vertex is stored.
    pub fn contains(&self, id: VertexId) -> bool {
        self.vertices.contains(id)
    }

    /// Fetches a vertex by identity.
    pub fn get(&self, id: VertexId) -> Option<&Vertex<B>> {
        self.vertices.get(id)
    }

    /// The sources with a vertex in `round`.
    pub fn sources_in_round(&self, round: Round) -> ProcessSet {
        self.vertices.sources_in_round(round).cloned().unwrap_or_default()
    }

    /// The sources whose round-`round` vertex was garbage-collected after
    /// delivery — the floor-aware complement of
    /// [`DagStore::sources_in_round`].
    pub fn pruned_sources_in_round(&self, round: Round) -> ProcessSet {
        self.pruned.sources_in_round(round).cloned().unwrap_or_default()
    }

    /// The sources of round-`round` vertices that are either stored **or**
    /// pruned (delivered and garbage-collected). This is the availability
    /// set round advancement must use after a delivered-state install: a
    /// pruned vertex existed, completed dissemination and was delivered, so
    /// it is a sound strong-edge target even though its content is gone —
    /// every peer holds it as present-or-pruned too.
    pub fn sources_in_round_or_pruned(&self, round: Round) -> ProcessSet {
        let mut s = self.sources_in_round(round);
        if let Some(pruned) = self.pruned.sources_in_round(round) {
            s.union_with(pruned);
        }
        s
    }

    /// Iterates over the vertices of `round` in source order.
    pub fn vertices_in_round(&self, round: Round) -> impl Iterator<Item = &Vertex<B>> {
        self.vertices.values_in_round(round)
    }

    /// Iterates over the stored vertices of `rounds` in `(round, source)`
    /// order, visiting only the rounds between the lowest and the highest
    /// stored one — so a pruned DAG is walked at the cost of the window it
    /// stores, not of its height.
    pub fn vertices_in_rounds(
        &self,
        rounds: impl RangeBounds<Round>,
    ) -> impl Iterator<Item = &Vertex<B>> {
        self.vertices.range(rounds).map(|(_, v)| v)
    }

    /// `true` if there is a path from `from` to `to` following **strong edges
    /// only** (edges between consecutive rounds) — the paper's
    /// `strong_path(u, v)`.
    pub fn strong_path(&self, from: VertexId, to: VertexId) -> bool {
        if from == to {
            return true;
        }
        if from.round <= to.round {
            return false;
        }
        // Walk down one round at a time, tracking reachable sources.
        let mut frontier = ProcessSet::singleton(from.source);
        let mut round = from.round;
        while round > to.round {
            let mut next = ProcessSet::new();
            for s in &frontier {
                if let Some(v) = self.get(VertexId::new(round, s)) {
                    next.union_with(v.strong_edges());
                }
            }
            if next.is_empty() {
                return false;
            }
            frontier = next;
            round -= 1;
        }
        frontier.contains(to.source)
    }

    /// The sources of round-`target_round` vertices reachable from `from`
    /// via strong edges (bulk form of [`DagStore::strong_path`]).
    pub fn strong_reachable_sources(&self, from: VertexId, target_round: Round) -> ProcessSet {
        if target_round > from.round {
            return ProcessSet::new();
        }
        if target_round == from.round {
            return ProcessSet::singleton(from.source);
        }
        let mut frontier = ProcessSet::singleton(from.source);
        let mut round = from.round;
        while round > target_round {
            let mut next = ProcessSet::new();
            for s in &frontier {
                if let Some(v) = self.get(VertexId::new(round, s)) {
                    next.union_with(v.strong_edges());
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
            round -= 1;
        }
        frontier
    }

    /// `true` if there is a path from `from` to `to` following strong **or**
    /// weak edges — the paper's `path(u, v)`.
    pub fn path(&self, from: VertexId, to: VertexId) -> bool {
        if from == to {
            return true;
        }
        if from.round <= to.round {
            return false;
        }
        let mut seen = VertexSet::new();
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        queue.push_back(from);
        seen.insert(from);
        while let Some(cur) = queue.pop_front() {
            let Some(v) = self.get(cur) else { continue };
            for p in v.parents() {
                if p == to {
                    return true;
                }
                if p.round >= to.round && seen.insert(p) {
                    queue.push_back(p);
                }
            }
        }
        false
    }

    /// All vertices reachable from `from` (inclusive) via strong or weak
    /// edges, in deterministic `(round, source)` order: the whole-DAG
    /// reference walk of `orderVertices` and `setWeakEdges`. Pruned parents
    /// are named but not expanded. The rider does not call it — its walks
    /// visit only what is new — but tests compare those walks against it.
    pub fn causal_history(&self, from: VertexId) -> Vec<VertexId> {
        let mut seen = VertexSet::new();
        if self.contains(from) {
            seen.insert(from);
            let mut stack = vec![from];
            while let Some(cur) = stack.pop() {
                let Some(v) = self.get(cur) else { continue };
                for p in v.parents() {
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        seen.iter().collect()
    }
}

impl<B> Default for DagStore<B> {
    fn default() -> Self {
        DagStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn vid(round: Round, source: usize) -> VertexId {
        VertexId::new(round, pid(source))
    }

    /// Builds a 4-process DAG with `rounds` full rounds where every vertex
    /// strongly references all vertices of the previous round.
    fn full_dag(n: usize, rounds: Round) -> DagStore<u64> {
        let mut dag = DagStore::with_genesis(n, 0u64);
        for r in 1..=rounds {
            for i in 0..n {
                let v = Vertex::new(pid(i), r, r * 100 + i as u64, ProcessSet::full(n), vec![]);
                dag.insert(v).unwrap();
            }
        }
        dag
    }

    #[test]
    fn insert_and_query() {
        let dag = full_dag(4, 3);
        assert_eq!(dag.len(), 16);
        assert_eq!(dag.max_round(), Some(3));
        assert!(dag.contains(vid(2, 1)));
        assert!(!dag.contains(vid(4, 0)));
        assert_eq!(dag.sources_in_round(1), ProcessSet::full(4));
        assert_eq!(dag.vertices_in_round(2).count(), 4);
        assert_eq!(dag.get(vid(3, 2)).unwrap().block(), &302);
    }

    #[test]
    fn duplicate_rejected() {
        let mut dag = full_dag(4, 1);
        let v = Vertex::new(pid(0), 1, 9u64, ProcessSet::full(4), vec![]);
        assert_eq!(dag.insert(v), Err(DagError::Duplicate(vid(1, 0))));
    }

    #[test]
    fn insert_hook_fires_only_on_success() {
        let mut dag: DagStore<u64> = DagStore::with_genesis(3, 0);
        let mut seen = Vec::new();
        let v = Vertex::new(pid(0), 1, 7u64, ProcessSet::full(3), vec![]);
        dag.insert_with(v.clone(), |v| seen.push(v.id())).unwrap();
        assert_eq!(seen, vec![vid(1, 0)]);
        // Duplicate: error, hook not fired.
        assert!(dag.insert_with(v, |v| seen.push(v.id())).is_err());
        let orphan = Vertex::new(pid(1), 2, 8u64, ProcessSet::from_indices([2]), vec![]);
        assert!(dag.insert_with(orphan, |v| seen.push(v.id())).is_err());
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn insert_if_parents_present_checks_parents_before_identity() {
        let mut dag: DagStore<u64> = DagStore::with_genesis(3, 0);
        let mut seen = Vec::new();
        let v = Vertex::new(pid(0), 1, 7u64, ProcessSet::full(3), vec![]);
        assert_eq!(dag.insert_if_parents_present(v.clone(), |v| seen.push(v.id())), Ok(true));
        assert_eq!(dag.insert_if_parents_present(v, |v| seen.push(v.id())), Ok(false));
        // A missing parent hands the vertex back, even under a taken identity.
        let orphan = Vertex::new(pid(1), 2, 8u64, ProcessSet::from_indices([1]), vec![]);
        assert_eq!(dag.insert_if_parents_present(orphan.clone(), |_| {}), Err(orphan));
        let taken = Vertex::new(pid(0), 1, 9u64, ProcessSet::from_indices([0, 5]), vec![]);
        assert_eq!(dag.insert_if_parents_present(taken.clone(), |_| {}), Err(taken));
        assert_eq!(seen, vec![vid(1, 0)]);
        assert_eq!(dag.len(), 4);
    }

    #[test]
    fn missing_parent_rejected() {
        let mut dag: DagStore<u64> = DagStore::with_genesis(4, 0);
        let v = Vertex::new(pid(0), 2, 9u64, ProcessSet::from_indices([1]), vec![]);
        assert_eq!(
            dag.insert(v),
            Err(DagError::MissingParent { vertex: vid(2, 0), parent: vid(1, 1) })
        );
    }

    #[test]
    fn strong_path_full_dag() {
        let dag = full_dag(4, 4);
        assert!(dag.strong_path(vid(4, 0), vid(1, 3)));
        assert!(dag.strong_path(vid(4, 0), vid(4, 0)), "reflexive");
        assert!(!dag.strong_path(vid(1, 0), vid(4, 0)), "no upward paths");
        assert_eq!(dag.strong_reachable_sources(vid(4, 2), 1), ProcessSet::full(4));
    }

    #[test]
    fn strong_path_sparse() {
        // Chain: only p0 creates vertices, each referencing only p0.
        let mut dag: DagStore<u64> = DagStore::with_genesis(3, 0);
        for r in 1..=3 {
            dag.insert(Vertex::new(pid(0), r, r, ProcessSet::from_indices([0]), vec![])).unwrap();
        }
        assert!(dag.strong_path(vid(3, 0), vid(1, 0)));
        assert!(!dag.strong_path(vid(3, 0), vid(1, 1)), "p1 has no round-1 vertex");
        assert_eq!(dag.strong_reachable_sources(vid(3, 0), 0), ProcessSet::from_indices([0]));
    }

    #[test]
    fn weak_edges_counted_by_path_not_strong_path() {
        let mut dag: DagStore<u64> = DagStore::with_genesis(3, 0);
        // p1 creates rounds 1-2; p0 skips round 1-2 and joins at round 3 with
        // a strong edge to p1's round-2 vertex and a weak edge to genesis p2.
        dag.insert(Vertex::new(pid(1), 1, 1, ProcessSet::from_indices([1]), vec![])).unwrap();
        dag.insert(Vertex::new(pid(1), 2, 2, ProcessSet::from_indices([1]), vec![])).unwrap();
        let v = Vertex::new(pid(0), 3, 3, ProcessSet::from_indices([1]), vec![vid(0, 2)]);
        dag.insert(v).unwrap();
        assert!(dag.path(vid(3, 0), vid(0, 2)), "weak edge gives a path");
        assert!(!dag.strong_path(vid(3, 0), vid(0, 2)), "but not a strong path");
        assert!(dag.strong_path(vid(3, 0), vid(1, 1)));
    }

    #[test]
    fn causal_history_is_complete_and_sorted() {
        let dag = full_dag(3, 2);
        let hist = dag.causal_history(vid(2, 0));
        // Everything from rounds 0..2 plus the vertex itself is reachable.
        assert_eq!(hist.len(), 3 + 3 + 1);
        let mut sorted = hist.clone();
        sorted.sort();
        assert_eq!(hist, sorted);
        assert!(hist.contains(&vid(0, 2)));
        assert!(hist.contains(&vid(2, 0)));
        assert!(!hist.contains(&vid(2, 1)));
    }

    #[test]
    fn causal_history_of_missing_vertex_is_empty() {
        let dag = full_dag(3, 1);
        assert!(dag.causal_history(vid(5, 0)).is_empty());
    }

    #[test]
    fn pruning_tolerates_exactly_the_pruned_parents() {
        let mut dag = full_dag(3, 2);
        assert_eq!(dag.pruned_floor(), 0);
        // Garbage-collect round 1 (pretend it was all delivered).
        for i in 0..3 {
            let v = dag.prune(vid(1, i)).expect("present");
            assert_eq!(v.id(), vid(1, i));
        }
        assert_eq!(dag.len(), 3 + 3, "genesis + round 2 remain");
        assert_eq!(dag.pruned_floor(), 1);
        assert_eq!(dag.pruned_len(), 3);
        assert!(dag.is_pruned(vid(1, 0)));
        // A round-2 latecomer referencing the pruned round still inserts…
        let v = Vertex::new(pid(0), 3, 3u64, ProcessSet::from_indices([0, 1]), vec![]);
        dag.insert(v).unwrap();
        // …but a parent that was merely never received is NOT excused,
        // even in an already-pruned round: tolerance is per exact id.
        let mut sparse: DagStore<u64> = DagStore::with_genesis(3, 0);
        sparse.insert(Vertex::new(pid(0), 1, 1, ProcessSet::from_indices([0]), vec![])).unwrap();
        sparse.prune(vid(1, 0)).unwrap();
        let orphan = Vertex::new(pid(1), 2, 2, ProcessSet::from_indices([0, 1]), vec![]);
        assert_eq!(
            sparse.insert(orphan),
            Err(DagError::MissingParent { vertex: vid(2, 1), parent: vid(1, 1) })
        );
        // Replay-side reconstruction: recording an absent id as pruned.
        sparse.note_pruned(vid(1, 1));
        assert!(sparse.is_pruned(vid(1, 1)));
        // Floor-aware queries: pruned sources are reported separately and
        // merged by the or-pruned form (what round advancement uses after
        // a delivered-state install).
        assert_eq!(dag.pruned_sources_in_round(1), ProcessSet::from_indices([0, 1, 2]));
        assert_eq!(dag.sources_in_round(1), ProcessSet::new());
        assert_eq!(dag.sources_in_round_or_pruned(1), ProcessSet::from_indices([0, 1, 2]));
        assert_eq!(dag.sources_in_round_or_pruned(2), ProcessSet::from_indices([0, 1, 2]));
        // `causal_history` still *names* pruned parents (their ids are
        // reachable) but cannot expand them — callers skip them via the
        // delivered set, which is never pruned.
        assert_eq!(
            dag.causal_history(vid(3, 0)),
            vec![vid(1, 0), vid(1, 1), vid(1, 2), vid(2, 0), vid(2, 1), vid(3, 0)]
        );
    }

    /// The pruned and stored queries against a model of two id sets, over
    /// random insert / prune / `note_pruned` / remove sequences.
    #[test]
    fn pruned_and_stored_queries_match_a_model() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::BTreeSet;

        fn check(dag: &DagStore<u64>, stored: &BTreeSet<VertexId>, pruned: &BTreeSet<VertexId>) {
            let in_round = |set: &BTreeSet<VertexId>, r: Round| -> ProcessSet {
                set.iter().filter(|id| id.round == r).map(|id| id.source).collect()
            };
            assert_eq!(dag.len(), stored.len());
            assert_eq!(dag.max_round(), stored.last().map(|id| id.round));
            assert_eq!(dag.pruned_len(), pruned.len());
            assert_eq!(dag.pruned_floor(), pruned.last().map_or(0, |id| id.round));
            for r in 0..=9 {
                for s in 0..5 {
                    assert_eq!(dag.is_pruned(vid(r, s)), pruned.contains(&vid(r, s)));
                    assert_eq!(dag.contains(vid(r, s)), stored.contains(&vid(r, s)));
                }
                assert_eq!(dag.sources_in_round(r), in_round(stored, r));
                assert_eq!(dag.pruned_sources_in_round(r), in_round(pruned, r));
                let both = &in_round(stored, r) | &in_round(pruned, r);
                assert_eq!(dag.sources_in_round_or_pruned(r), both);
                for hi in r..=9 {
                    let ids: Vec<VertexId> =
                        dag.vertices_in_rounds(r..=hi).map(Vertex::id).collect();
                    let model: Vec<VertexId> =
                        stored.range(vid(r, 0)..vid(hi + 1, 0)).copied().collect();
                    assert_eq!(ids, model, "rounds {r}..={hi}");
                }
            }
        }

        // A round that `remove` empties leaves no trace in any query.
        let mut dag: DagStore<u64> = DagStore::new();
        dag.insert(Vertex::new(pid(2), 3, 0, ProcessSet::new(), vec![])).unwrap();
        dag.insert(Vertex::new(pid(0), 5, 0, ProcessSet::new(), vec![])).unwrap();
        assert!(dag.remove(vid(5, 0)).is_some());
        assert_eq!(dag.max_round(), Some(3));
        assert!(dag.remove(vid(3, 2)).is_some());
        check(&dag, &BTreeSet::new(), &BTreeSet::new());

        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dag: DagStore<u64> = DagStore::new();
            let (mut stored, mut pruned) = (BTreeSet::new(), BTreeSet::new());
            for _ in 0..80 {
                let id = vid(rng.random_range(0..10), rng.random_range(0..5));
                match rng.random_range(0..4u8) {
                    0 => {
                        // Edge-free, so every identity inserts unless taken.
                        let v = Vertex::new(id.source, id.round, 0, ProcessSet::new(), vec![]);
                        assert_eq!(dag.insert(v).is_ok(), stored.insert(id));
                    }
                    1 => {
                        let was_stored = stored.remove(&id);
                        assert_eq!(dag.prune(id).is_some(), was_stored);
                        if was_stored {
                            pruned.insert(id);
                        }
                    }
                    2 => {
                        dag.note_pruned(id);
                        pruned.insert(id);
                    }
                    _ => assert_eq!(dag.remove(id).is_some(), stored.remove(&id)),
                }
                check(&dag, &stored, &pruned);
            }
        }
    }

    #[test]
    fn path_respects_round_bounds() {
        let dag = full_dag(3, 2);
        assert!(!dag.path(vid(1, 0), vid(2, 0)));
        assert!(dag.path(vid(2, 1), vid(2, 1)));
    }
}
