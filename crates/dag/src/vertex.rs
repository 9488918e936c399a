//! DAG vertices: one per `(source, round)`, carrying a block of transactions
//! and strong/weak edges.
//!
//! Because vertices are disseminated through (asymmetric) *reliable*
//! broadcast, a correct process never observes two different vertices from
//! the same source in the same round — `(source, round)` is a sound vertex
//! identity (the certified-DAG property DAG-Rider relies on).

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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Vertex<B> {
    source: ProcessId,
    round: Round,
    block: B,
    strong_edges: ProcessSet,
    weak_edges: Vec<VertexId>,
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
        Vertex { source, round, block, strong_edges, weak_edges }
    }

    /// Creates a genesis (round-0) vertex.
    pub fn genesis(source: ProcessId, block: B) -> Self {
        Vertex::new(source, 0, block, ProcessSet::new(), Vec::new())
    }

    /// The vertex identity.
    pub fn id(&self) -> VertexId {
        VertexId::new(self.round, self.source)
    }

    /// The creating process.
    pub fn source(&self) -> ProcessId {
        self.source
    }

    /// The round this vertex belongs to.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The carried block.
    pub fn block(&self) -> &B {
        &self.block
    }

    /// Consumes the vertex and returns the block.
    pub fn into_block(self) -> B {
        self.block
    }

    /// Sources of the previous-round vertices this vertex strongly
    /// references.
    pub fn strong_edges(&self) -> &ProcessSet {
        &self.strong_edges
    }

    /// Weak edges to rounds `< round − 1`.
    pub fn weak_edges(&self) -> &[VertexId] {
        &self.weak_edges
    }

    /// All parents (strong first, then weak), as vertex ids.
    pub fn parents(&self) -> impl Iterator<Item = VertexId> + '_ {
        let prev = self.round.saturating_sub(1);
        self.strong_edges
            .iter()
            .map(move |s| VertexId::new(prev, s))
            .chain(self.weak_edges.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
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
