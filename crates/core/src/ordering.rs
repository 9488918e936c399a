//! Wave commitment and total ordering — the `waveReady` / `orderVertices`
//! logic shared by both DAG-Rider variants (Algorithm 6, lines 146–169).
//!
//! The two protocols differ only in their *commit rule* (which round-4
//! vertices must reach the leader by strong paths); everything downstream —
//! the leader stack walk-back, the deterministic causal-history delivery —
//! is identical and lives here.

use std::collections::HashMap;

use asym_crypto::CommonCoin;
use asym_dag::{round_of_wave, DagStore, VertexId, WaveId};
use asym_quorum::ProcessSet;

use crate::types::{Block, OrderedVertex};

/// Why a wave boundary did not commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The elected leader's round-1 vertex is not (yet) in the local DAG.
    NoLeaderVertex,
    /// The leader is present but the commit rule was not satisfied.
    RuleNotMet,
    /// The wave committed; `ordered` vertices were atomically delivered.
    Committed {
        /// Number of vertices delivered by this commit (including
        /// walked-back waves).
        ordered: usize,
    },
}

/// Per-process commitment state: the last decided wave, the set of already
/// delivered vertices, and the commit log.
#[derive(Clone, Debug, Default)]
pub struct WaveCommitter {
    decided_wave: WaveId,
    /// Every delivered vertex, tagged with the wave whose commit ordered it
    /// — the per-wave grouping delivered-state transfer ships to deep
    /// laggards.
    delivered: HashMap<VertexId, WaveId>,
    /// `(wave, leader)` pairs in commit order — the experiment harness reads
    /// wave gaps from this log.
    log: Vec<(WaveId, VertexId)>,
}

impl WaveCommitter {
    /// Creates a fresh committer (no wave decided).
    pub fn new() -> Self {
        WaveCommitter::default()
    }

    /// Reconstructs a committer from recovered durable state — the
    /// crash-recovery path. `delivered` is the set of already-delivered
    /// vertices, each tagged with its ordering wave (the guarantee that
    /// nothing is delivered twice across a restart); `log` is the commit
    /// log in commit order.
    ///
    /// # Panics
    ///
    /// Panics if `log` waves are not strictly increasing or exceed
    /// `decided_wave` — state no correct process can have persisted.
    pub fn from_parts(
        decided_wave: WaveId,
        delivered: impl IntoIterator<Item = (VertexId, WaveId)>,
        log: Vec<(WaveId, VertexId)>,
    ) -> Self {
        for w in log.windows(2) {
            assert!(w[0].0 < w[1].0, "recovered commit log must be strictly increasing");
        }
        if let Some((last, _)) = log.last() {
            assert!(*last <= decided_wave, "recovered log extends past the decided wave");
        }
        WaveCommitter { decided_wave, delivered: delivered.into_iter().collect(), log }
    }

    /// The last decided wave (0 = none).
    pub fn decided_wave(&self) -> WaveId {
        self.decided_wave
    }

    /// The commit log: directly committed leaders, in order.
    pub fn log(&self) -> &[(WaveId, VertexId)] {
        &self.log
    }

    /// Number of vertices delivered so far.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// `true` if the identified vertex has been atomically delivered.
    pub fn is_delivered(&self, vid: VertexId) -> bool {
        self.delivered.contains_key(&vid)
    }

    /// The delivered vertices, in no particular order (invariant checkers
    /// cross-reference this against the output stream and the DAG).
    pub fn delivered(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.delivered.keys().copied()
    }

    /// The delivered vertices with the wave whose commit ordered each, in
    /// no particular order — the durable form the WAL snapshot persists.
    pub fn delivered_waves(&self) -> impl Iterator<Item = (VertexId, WaveId)> + '_ {
        self.delivered.iter().map(|(id, w)| (*id, *w))
    }

    /// The vertices ordered by wave `w`'s commit, in the deterministic
    /// `(round, source)` delivery order — one transferable wave segment.
    /// Delivery within a commit walks `causal_history` (sorted) skipping
    /// already-delivered vertices, so this reconstruction *is* the original
    /// delivery order, bit for bit, at every honest process.
    pub fn delivered_in_wave(&self, w: WaveId) -> Vec<VertexId> {
        let mut ids: Vec<VertexId> =
            self.delivered.iter().filter(|(_, dw)| **dw == w).map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    }

    /// Installs one transferred wave segment: appends `(wave, leader)` to
    /// the commit log, ratchets the decided wave, and marks `deliveries`
    /// delivered — returning only the entries that were *not* already
    /// delivered (the caller outputs exactly those, so a state install can
    /// never re-deliver). The caller has already certified the segment
    /// against its own quorum system.
    ///
    /// # Panics
    ///
    /// Panics if `wave` is not beyond the decided wave — installs must be
    /// contiguous and forward-only.
    pub fn install_wave(
        &mut self,
        wave: WaveId,
        leader: VertexId,
        deliveries: &[(VertexId, Block)],
    ) -> Vec<(VertexId, Block)> {
        assert!(wave > self.decided_wave, "install_wave({wave}) at decided {}", self.decided_wave);
        self.decided_wave = wave;
        self.log.push((wave, leader));
        let mut fresh = Vec::new();
        for (id, block) in deliveries {
            if id.round == 0 || self.delivered.contains_key(id) {
                continue;
            }
            self.delivered.insert(*id, wave);
            fresh.push((*id, block.clone()));
        }
        fresh
    }

    /// Runs `waveReady(w)`: elects the leader by the common coin, applies
    /// the commit rule, and on success walks the leader stack back to the
    /// last decided wave and delivers causal histories in deterministic
    /// order. The commit rule asks `is_quorum` whether the round-4 sources
    /// with a strong path to the leader suffice; both protocol variants ask
    /// their quorum system, and tests pass constants to force an outcome.
    pub fn wave_ready(
        &mut self,
        dag: &DagStore<Block>,
        coin: &CommonCoin,
        w: WaveId,
        is_quorum: impl Fn(&ProcessSet) -> bool,
        out: &mut Vec<OrderedVertex>,
    ) -> CommitOutcome {
        debug_assert!(w > self.decided_wave, "waveReady({w}) after deciding {}", self.decided_wave);
        let Some(leader) = self.wave_leader(dag, coin, w) else {
            return CommitOutcome::NoLeaderVertex;
        };
        let r4 = round_of_wave(w, 4);
        let supporters: ProcessSet = dag
            .sources_in_round(r4)
            .iter()
            .filter(|p| dag.strong_path(VertexId::new(r4, *p), leader))
            .collect();
        if !is_quorum(&supporters) {
            return CommitOutcome::RuleNotMet;
        }

        // Lines 150–156: walk back through earlier undecided waves, pushing
        // every leader connected by a strong path.
        let mut stack: Vec<(WaveId, VertexId)> = vec![(w, leader)];
        let mut cur = leader;
        for w_prime in (self.decided_wave + 1..w).rev() {
            if let Some(prev_leader) = self.wave_leader(dag, coin, w_prime) {
                if dag.strong_path(cur, prev_leader) {
                    stack.push((w_prime, prev_leader));
                    cur = prev_leader;
                }
            }
        }
        self.decided_wave = w;

        // Lines 163–169: deliver each leader's yet-undelivered causal
        // history in deterministic (round, source) order; skip genesis.
        let mut ordered = 0;
        while let Some((wave, leader)) = stack.pop() {
            self.log.push((wave, leader));
            for vid in dag.causal_history(leader) {
                if vid.round == 0 || self.delivered.contains_key(&vid) {
                    continue;
                }
                self.delivered.insert(vid, wave);
                let vertex = dag.get(vid).expect("causal history vertices are stored");
                out.push(OrderedVertex {
                    id: vid,
                    block: vertex.block().clone(),
                    committed_in_wave: wave,
                });
                ordered += 1;
            }
        }
        CommitOutcome::Committed { ordered }
    }

    /// The leader *vertex* of wave `w` in this DAG, if present
    /// (`getWaveVertexLeader`).
    pub fn wave_leader(
        &self,
        dag: &DagStore<Block>,
        coin: &CommonCoin,
        w: WaveId,
    ) -> Option<VertexId> {
        let vid = VertexId::new(round_of_wave(w, 1), coin.leader(w));
        dag.contains(vid).then_some(vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_dag::Vertex;
    use asym_quorum::ProcessId;
    use std::collections::HashSet;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Full DAG over n processes, `rounds` rounds, everyone references all.
    fn full_dag(n: usize, rounds: u64) -> DagStore<Block> {
        let mut dag = DagStore::with_genesis(n, Block::default());
        for r in 1..=rounds {
            for i in 0..n {
                dag.insert(Vertex::new(
                    pid(i),
                    r,
                    Block::new(vec![r * 100 + i as u64]),
                    ProcessSet::full(n),
                    vec![],
                ))
                .unwrap();
            }
        }
        dag
    }

    #[test]
    fn commit_on_full_dag_orders_everything_once() {
        let n = 4;
        let dag = full_dag(n, 4);
        let coin = CommonCoin::new(1, n);
        let mut wc = WaveCommitter::new();
        let mut out = Vec::new();
        let outcome = wc.wave_ready(&dag, &coin, 1, |_| true, &mut out);
        match outcome {
            CommitOutcome::Committed { ordered } => {
                // Leader is a round-1 vertex: its causal history is itself +
                // genesis; genesis skipped → exactly 1 vertex ordered.
                assert_eq!(ordered, 1);
                assert_eq!(out.len(), 1);
                assert_eq!(out[0].committed_in_wave, 1);
                assert_eq!(out[0].id.round, 1);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(wc.decided_wave(), 1);
        assert_eq!(wc.log().len(), 1);
    }

    #[test]
    fn rule_not_met_and_missing_leader() {
        let n = 4;
        let dag = full_dag(n, 4);
        let coin = CommonCoin::new(1, n);
        let mut wc = WaveCommitter::new();
        let mut out = Vec::new();
        assert_eq!(wc.wave_ready(&dag, &coin, 1, |_| false, &mut out), CommitOutcome::RuleNotMet);
        assert!(out.is_empty());
        assert_eq!(wc.decided_wave(), 0);
        // Wave 2 leader lives in round 5 — absent from a 4-round DAG.
        assert_eq!(
            wc.wave_ready(&dag, &coin, 2, |_| true, &mut out),
            CommitOutcome::NoLeaderVertex
        );
    }

    #[test]
    fn walk_back_commits_skipped_waves_in_order() {
        let n = 4;
        let dag = full_dag(n, 9); // waves 1 and 2 complete, round 9 = wave 3 start
        let coin = CommonCoin::new(7, n);
        let mut wc = WaveCommitter::new();
        let mut out = Vec::new();
        // Skip wave 1 (pretend its rule failed), then commit wave 2: the
        // walk-back must pick up wave 1's leader (full DAG ⇒ strong path).
        assert_eq!(wc.wave_ready(&dag, &coin, 1, |_| false, &mut out), CommitOutcome::RuleNotMet);
        let outcome = wc.wave_ready(&dag, &coin, 2, |_| true, &mut out);
        assert!(matches!(outcome, CommitOutcome::Committed { .. }));
        assert_eq!(wc.log().len(), 2, "wave 1 committed via walk-back");
        assert_eq!(wc.log()[0].0, 1);
        assert_eq!(wc.log()[1].0, 2);
        // Ordering: all wave-1-leader history delivered before the rest.
        let first_wave: Vec<u64> = out.iter().map(|o| o.committed_in_wave).collect();
        let mut sorted = first_wave.clone();
        sorted.sort();
        assert_eq!(first_wave, sorted, "waves delivered oldest-first");
    }

    #[test]
    fn no_double_delivery_across_commits() {
        let n = 4;
        let dag = full_dag(n, 9);
        let coin = CommonCoin::new(3, n);
        let mut wc = WaveCommitter::new();
        let mut out = Vec::new();
        wc.wave_ready(&dag, &coin, 1, |_| true, &mut out);
        wc.wave_ready(&dag, &coin, 2, |_| true, &mut out);
        let mut seen = HashSet::new();
        for o in &out {
            assert!(seen.insert(o.id), "vertex {} delivered twice", o.id);
        }
        assert_eq!(wc.delivered_count(), out.len());
    }

    #[test]
    fn delivered_waves_group_the_delivery_order() {
        // Wave tags recorded by commits must reconstruct each wave's
        // delivery sequence exactly (sorted (round, source) within the
        // wave) — the bit-for-bit property state-transfer segments rely on.
        let n = 4;
        let dag = full_dag(n, 9);
        let coin = CommonCoin::new(3, n);
        let mut wc = WaveCommitter::new();
        let mut out = Vec::new();
        wc.wave_ready(&dag, &coin, 1, |_| true, &mut out);
        wc.wave_ready(&dag, &coin, 2, |_| true, &mut out);
        for w in [1, 2] {
            let expected: Vec<VertexId> =
                out.iter().filter(|o| o.committed_in_wave == w).map(|o| o.id).collect();
            assert!(!expected.is_empty());
            assert_eq!(wc.delivered_in_wave(w), expected, "wave {w} order must round-trip");
        }
        assert_eq!(wc.delivered_waves().count(), out.len());
    }

    #[test]
    fn install_wave_extends_the_log_and_skips_known_deliveries() {
        let mut wc = WaveCommitter::new();
        let l1 = VertexId::new(1, pid(2));
        let a = VertexId::new(1, pid(0));
        let fresh = wc.install_wave(1, l1, &[(a, Block::new(vec![1])), (l1, Block::new(vec![2]))]);
        assert_eq!(fresh.len(), 2);
        assert_eq!(wc.decided_wave(), 1);
        assert_eq!(wc.log(), &[(1, l1)]);
        // A later install never re-delivers what is already known —
        // including entries the previous install brought in.
        let l3 = VertexId::new(9, pid(1));
        let b = VertexId::new(2, pid(3));
        let fresh = wc.install_wave(3, l3, &[(a, Block::new(vec![1])), (b, Block::new(vec![9]))]);
        assert_eq!(fresh, vec![(b, Block::new(vec![9]))]);
        assert_eq!(wc.decided_wave(), 3);
        assert_eq!(wc.delivered_in_wave(3), vec![b]);
        assert_eq!(wc.delivered_in_wave(1), vec![a, l1]);
    }

    #[test]
    #[should_panic(expected = "install_wave")]
    fn install_wave_must_move_forward() {
        let mut wc = WaveCommitter::new();
        wc.install_wave(2, VertexId::new(5, pid(0)), &[]);
        wc.install_wave(2, VertexId::new(5, pid(0)), &[]);
    }

    #[test]
    fn deterministic_across_processes() {
        // Two committers over the same DAG and coin produce identical output
        // sequences even if one decides wave-by-wave and the other jumps.
        let n = 4;
        let dag = full_dag(n, 9);
        let coin = CommonCoin::new(9, n);

        let mut a = WaveCommitter::new();
        let mut out_a = Vec::new();
        a.wave_ready(&dag, &coin, 1, |_| true, &mut out_a);
        a.wave_ready(&dag, &coin, 2, |_| true, &mut out_a);

        let mut b = WaveCommitter::new();
        let mut out_b = Vec::new();
        b.wave_ready(&dag, &coin, 1, |_| false, &mut out_b); // skipped
        b.wave_ready(&dag, &coin, 2, |_| true, &mut out_b);

        let ids_a: Vec<VertexId> = out_a.iter().map(|o| o.id).collect();
        let ids_b: Vec<VertexId> = out_b.iter().map(|o| o.id).collect();
        assert_eq!(ids_a, ids_b, "total order must not depend on commit path");
    }
}
