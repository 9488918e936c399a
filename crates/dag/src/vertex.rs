//! DAG vertices: one per `(source, round)`, carrying a block of transactions
//! and strong/weak edges.
//!
//! Because vertices are disseminated through (asymmetric) *reliable*
//! broadcast, a correct process never observes two different vertices from
//! the same source in the same round — `(source, round)` is a sound vertex
//! identity (the certified-DAG property DAG-Rider relies on).

use std::sync::Arc;

use asym_quorum::{ProcessId, ProcessSet};

/// Round number; round 0 holds the hard-coded genesis vertices.
pub type Round = u64;

/// Identity of a vertex in a certified DAG.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId {
    /// Round the vertex belongs to.
    pub round: Round,
    /// The process that created (and reliably broadcast) the vertex.
    pub source: ProcessId,
}

impl VertexId {
    /// Creates a vertex id.
    pub const fn new(round: Round, source: ProcessId) -> Self {
        VertexId { round, source }
    }
}

impl core::fmt::Display for VertexId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "v({}, r{})", self.source, self.round)
    }
}

impl core::fmt::Debug for VertexId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Display::fmt(self, f)
    }
}

/// A DAG vertex: a block plus references to earlier vertices.
///
/// *Strong edges* point to vertices of the previous round (stored as the set
/// of their sources — the round is implicit). *Weak edges* point to older
/// vertices not yet reachable, guaranteeing that every broadcast vertex is
/// eventually ordered (validity, Lemma 4.10).
///
/// A vertex is immutable and shared: it is one allocation behind a
/// reference count, so cloning it (per-recipient fan-out, broadcast
/// tallies, the DAG buffer and store) copies a pointer, not its edges or
/// its block. Equality, hashing and `Debug` go by content, exactly as for
/// the five fields held inline; equality checks pointer identity first, so
/// comparing two copies of one vertex is cheap, and two separately built
/// equal vertices are still equal.
#[derive(PartialEq, Eq, Hash)]
pub struct Vertex<B>(Arc<Inner<B>>);

#[derive(PartialEq, Eq, Hash)]
struct Inner<B> {
    source: ProcessId,
    round: Round,
    block: B,
    strong_edges: ProcessSet,
    weak_edges: Vec<VertexId>,
}

impl<B> Clone for Vertex<B> {
    fn clone(&self) -> Self {
        Vertex(Arc::clone(&self.0))
    }
}

impl<B: core::fmt::Debug> core::fmt::Debug for Vertex<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let v = &*self.0;
        f.debug_struct("Vertex")
            .field("source", &v.source)
            .field("round", &v.round)
            .field("block", &v.block)
            .field("strong_edges", &v.strong_edges)
            .field("weak_edges", &v.weak_edges)
            .finish()
    }
}

impl<B> Vertex<B> {
    /// Creates a vertex.
    ///
    /// # Panics
    ///
    /// Panics if a weak edge points to round `round − 1` or later (those must
    /// be strong edges), or if `round == 0` and any edge is present (genesis
    /// vertices are edge-free).
    pub fn new(
        source: ProcessId,
        round: Round,
        block: B,
        strong_edges: ProcessSet,
        weak_edges: Vec<VertexId>,
    ) -> Self {
        if round == 0 {
            assert!(
                strong_edges.is_empty() && weak_edges.is_empty(),
                "genesis vertices carry no edges"
            );
        }
        for w in &weak_edges {
            assert!(
                w.round + 1 < round,
                "weak edge {w} of a round-{round} vertex must point below round {}",
                round.saturating_sub(1)
            );
        }
        Vertex(Arc::new(Inner { source, round, block, strong_edges, weak_edges }))
    }

    /// Creates a genesis (round-0) vertex.
    pub fn genesis(source: ProcessId, block: B) -> Self {
        Vertex::new(source, 0, block, ProcessSet::new(), Vec::new())
    }

    /// The vertex identity.
    pub fn id(&self) -> VertexId {
        VertexId::new(self.0.round, self.0.source)
    }

    /// The creating process.
    pub fn source(&self) -> ProcessId {
        self.0.source
    }

    /// The round this vertex belongs to.
    pub fn round(&self) -> Round {
        self.0.round
    }

    /// The carried block.
    pub fn block(&self) -> &B {
        &self.0.block
    }

    /// Sources of the previous-round vertices this vertex strongly
    /// references.
    pub fn strong_edges(&self) -> &ProcessSet {
        &self.0.strong_edges
    }

    /// Weak edges to rounds `< round − 1`.
    pub fn weak_edges(&self) -> &[VertexId] {
        &self.0.weak_edges
    }

    /// All parents (strong first, then weak), as vertex ids.
    pub fn parents(&self) -> impl Iterator<Item = VertexId> + '_ {
        let prev = self.0.round.saturating_sub(1);
        self.0
            .strong_edges
            .iter()
            .map(move |s| VertexId::new(prev, s))
            .chain(self.0.weak_edges.iter().copied())
    }
}

impl<B: Clone> Vertex<B> {
    /// Consumes the vertex and returns the block: moved out when this is
    /// the only handle on the vertex, cloned otherwise.
    pub fn into_block(self) -> B {
        match Arc::try_unwrap(self.0) {
            Ok(inner) => inner.block,
            Err(shared) => shared.block.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample() -> Vertex<Vec<u8>> {
        Vertex::new(
            pid(2),
            3,
            vec![1u8, 2],
            ProcessSet::from_indices([0, 1]),
            vec![VertexId::new(1, pid(3))],
        )
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn clones_share_one_allocation() {
        let a = sample();
        let b = a.clone();
        assert!(std::ptr::eq(a.strong_edges(), b.strong_edges()));
        assert!(std::ptr::eq(a.weak_edges(), b.weak_edges()));
        assert!(std::ptr::eq(a.block(), b.block()));
    }

    #[test]
    fn separately_built_copies_compare_and_hash_by_content() {
        let (a, b) = (sample(), sample());
        assert!(!std::ptr::eq(a.strong_edges(), b.strong_edges()));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let other = Vertex::new(pid(2), 3, vec![9u8], ProcessSet::from_indices([0, 1]), Vec::new());
        assert_ne!(a, other, "an equivocator's two values stay apart");
    }

    #[test]
    fn hash_is_the_field_by_field_hash() {
        let v = sample();
        let mut h = DefaultHasher::new();
        v.source().hash(&mut h);
        v.round().hash(&mut h);
        v.block().hash(&mut h);
        v.strong_edges().hash(&mut h);
        v.weak_edges().hash(&mut h);
        assert_eq!(hash_of(&v), h.finish());
    }

    #[test]
    fn debug_prints_the_five_fields() {
        let v = sample();
        assert_eq!(
            format!("{v:?}"),
            "Vertex { source: p2, round: 3, block: [1, 2], strong_edges: {0, 1}, \
             weak_edges: [v(p3, r1)] }"
        );
        assert_eq!(
            format!("{v:#?}"),
            "Vertex {\n    source: p2,\n    round: 3,\n    block: [\n        1,\n        2,\n    ],\n    \
             strong_edges: {0, 1},\n    weak_edges: [\n        v(p3, r1),\n    ],\n}"
        );
    }

    #[test]
    fn into_block_moves_out_of_a_unique_handle() {
        let v = sample();
        let ptr = v.block().as_ptr();
        let block = v.into_block();
        assert_eq!(block.as_ptr(), ptr, "a unique handle's block is moved, not copied");
        let (v, keep) = (sample(), sample());
        let shared = v.clone();
        assert_eq!(v.into_block(), *keep.block());
        assert_eq!(shared.block(), keep.block(), "the other handle still holds the block");
    }

    #[test]
    fn accessors() {
        let v = Vertex::new(
            pid(2),
            3,
            vec![1u8, 2],
            ProcessSet::from_indices([0, 1]),
            vec![VertexId::new(1, pid(3))],
        );
        assert_eq!(v.id(), VertexId::new(3, pid(2)));
        assert_eq!(v.source(), pid(2));
        assert_eq!(v.round(), 3);
        assert_eq!(v.block(), &vec![1, 2]);
        assert_eq!(v.strong_edges().len(), 2);
        assert_eq!(v.weak_edges().len(), 1);
        let parents: Vec<VertexId> = v.parents().collect();
        assert_eq!(
            parents,
            vec![VertexId::new(2, pid(0)), VertexId::new(2, pid(1)), VertexId::new(1, pid(3)),]
        );
    }

    #[test]
    fn genesis_has_no_parents() {
        let g = Vertex::genesis(pid(0), Vec::<u8>::new());
        assert_eq!(g.round(), 0);
        assert_eq!(g.parents().count(), 0);
    }

    #[test]
    #[should_panic(expected = "weak edge")]
    fn weak_edge_to_previous_round_rejected() {
        let _ = Vertex::new(
            pid(0),
            3,
            Vec::<u8>::new(),
            ProcessSet::new(),
            vec![VertexId::new(2, pid(1))],
        );
    }

    #[test]
    #[should_panic(expected = "genesis")]
    fn genesis_with_edges_rejected() {
        let _ = Vertex::new(pid(0), 0, Vec::<u8>::new(), ProcessSet::from_indices([1]), Vec::new());
    }

    #[test]
    fn display_format() {
        let id = VertexId::new(5, pid(3));
        assert_eq!(id.to_string(), "v(p3, r5)");
    }
}
