//! **Symmetric DAG-Rider** (Keidar et al., PODC 2021) — the baseline the
//! paper generalizes (§4.1).
//!
//! Rounds advance once `n − f` vertices of the current round are in the local
//! DAG; every fourth round closes a *wave*, whose coin-elected round-1 leader
//! commits when `n − f` round-4 vertices reach it by strong paths. Committed
//! leaders atomically deliver their causal history in a deterministic order.
//!
//! A threshold is the uniform asymmetric quorum system whose quorums are the
//! `n − f`-sets, so the baseline runs on
//! [`AsymDagRider`](crate::AsymDagRider)'s quorum predicates: the same
//! vertex-validity rule, round-advance rule and commit rule
//! ([`DagCore::commit`]).
//! It differs only in lacking the ACK/READY/CONFIRM ladder that gates the
//! asymmetric protocol's move from round 2 to round 3.
//!
//! The baseline speaks the asymmetric protocol's wire type, so one
//! simulation can host either protocol (and the same Byzantine parties),
//! but it only ever sends [`AsymRiderMsg::Arb`]: ordering is zero-message,
//! driven by the DAG structure and the shared coin. Every other variant is
//! ignored.

use asym_crypto::CommonCoin;
use asym_dag::{DagStore, VertexId, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId, QuorumSystem};
use asym_sim::{Context, Protocol};

use crate::asym_rider::AsymRiderMsg;
use crate::dagcore::DagCore;
use crate::ordering::WaveCommitter;
use crate::types::{Block, OrderedVertex, RiderConfig, RiderMetrics};

/// One process of symmetric DAG-Rider.
///
/// *Input*: blocks to `aa-broadcast`. *Output*: [`OrderedVertex`] events in
/// atomic-broadcast order.
#[derive(Clone, Debug)]
pub struct DagRider {
    core: DagCore,
    committer: WaveCommitter,
    coin: CommonCoin,
}

impl DagRider {
    /// Creates a symmetric DAG-Rider process for the `f`-of-`n` threshold
    /// model; `coin_seed` must be shared by all processes of the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    pub fn new(me: ProcessId, n: usize, f: usize, coin_seed: u64, config: RiderConfig) -> Self {
        assert!(n > 3 * f, "DAG-Rider requires n > 3f");
        let quorums = AsymQuorumSystem::uniform(QuorumSystem::threshold(n, n - f));
        DagRider {
            core: DagCore::new(me, quorums, config),
            committer: WaveCommitter::new(),
            coin: CommonCoin::new(coin_seed, n),
        }
    }

    /// The local DAG (observer inspection).
    pub fn dag(&self) -> &DagStore<Block> {
        self.core.dag()
    }

    /// Execution counters.
    pub fn metrics(&self) -> RiderMetrics {
        self.core.metrics()
    }

    /// The last decided wave.
    pub fn decided_wave(&self) -> WaveId {
        self.committer.decided_wave()
    }

    /// Commit log of `(wave, leader)` pairs.
    pub fn commit_log(&self) -> &[(WaveId, VertexId)] {
        self.committer.log()
    }

    /// The wave-commitment state (observer inspection): decided wave,
    /// delivered set and commit log.
    pub fn committer(&self) -> &WaveCommitter {
        &self.committer
    }

    fn advance(&mut self, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        loop {
            self.core.drain_buffer();
            let cur = self.core.round();
            if cur >= self.core.config().max_round() {
                break;
            }
            let sources = self.core.dag().sources_in_round(cur);
            if !self.core.quorums().contains_quorum_for(self.core.me(), &sources) {
                break;
            }
            if cur > 0 && cur.is_multiple_of(4) {
                self.core.commit(&mut self.committer, &self.coin, cur / 4, ctx);
            }
            for m in self.core.advance_and_broadcast(cur + 1) {
                ctx.broadcast(AsymRiderMsg::Arb(m));
            }
        }
    }
}

impl Protocol for DagRider {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.advance(ctx);
    }

    fn on_input(&mut self, block: Block, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.core.enqueue_block(block);
        self.advance(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        let AsymRiderMsg::Arb(inner) = msg else { return };
        let (out, fresh) = self.core.handle_arb(from, inner);
        if let Some(m) = out {
            ctx.broadcast(AsymRiderMsg::Arb(m));
        }
        // `advance` is at its fixpoint between messages: a step that
        // delivered no vertex changed nothing it reads.
        if fresh.is_some() {
            self.advance(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_sim::{scheduler, FaultMode, Simulation};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn cluster(n: usize, f: usize, waves: WaveId) -> Vec<DagRider> {
        let config = RiderConfig { max_waves: waves, ..Default::default() };
        (0..n).map(|i| DagRider::new(pid(i), n, f, 42, config)).collect()
    }

    fn check_total_order(outputs: &[Vec<OrderedVertex>]) {
        // Prefix consistency: any two output sequences agree on their common
        // prefix, ids *and* blocks.
        for a in outputs {
            for b in outputs {
                let common = a.len().min(b.len());
                for k in 0..common {
                    assert_eq!(
                        (a[k].id, &a[k].block),
                        (b[k].id, &b[k].block),
                        "total order violated at position {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_processes_commit_and_agree() {
        for seed in 0..5 {
            let mut sim = Simulation::new(cluster(4, 1, 6), scheduler::Random::new(seed));
            for i in 0..4 {
                sim.input(pid(i), Block::new(vec![i as u64]));
            }
            let report = sim.run(10_000_000);
            assert!(report.quiescent, "seed {seed}");
            let outputs: Vec<Vec<OrderedVertex>> =
                (0..4).map(|i| sim.outputs(pid(i)).to_vec()).collect();
            check_total_order(&outputs);
            // Someone must have committed something in 6 waves.
            assert!(outputs.iter().any(|o| !o.is_empty()), "seed {seed}: no commits in 6 waves");
            // Validity: the injected blocks appear in every (long-enough) output.
            for i in 0..4 {
                let m = sim.process(pid(i)).metrics();
                assert!(m.waves_committed >= 1, "seed {seed} process {i}: {m:?}");
            }
        }
    }

    #[test]
    fn injected_blocks_are_delivered() {
        let mut sim = Simulation::new(cluster(4, 1, 8), scheduler::Random::new(9));
        for i in 0..4 {
            sim.input(pid(i), Block::new(vec![1000 + i as u64]));
        }
        assert!(sim.run(10_000_000).quiescent);
        for i in 0..4 {
            let delivered: Vec<u64> =
                sim.outputs(pid(i)).iter().flat_map(|o| o.block.txs.iter().copied()).collect();
            for tx in 1000..1004 {
                assert!(delivered.contains(&tx), "process {i} missing tx {tx}");
            }
        }
    }

    #[test]
    fn tolerates_f_crashed_processes() {
        for seed in 0..3 {
            let mut sim = Simulation::new(cluster(7, 2, 6), scheduler::Random::new(seed))
                .with_fault(pid(5), FaultMode::CrashedFromStart)
                .with_fault(pid(6), FaultMode::CrashedFromStart);
            for i in 0..5 {
                sim.input(pid(i), Block::new(vec![i as u64]));
            }
            assert!(sim.run(50_000_000).quiescent, "seed {seed}");
            let outputs: Vec<Vec<OrderedVertex>> =
                (0..5).map(|i| sim.outputs(pid(i)).to_vec()).collect();
            check_total_order(&outputs);
            assert!(outputs.iter().any(|o| !o.is_empty()), "seed {seed}: no progress");
        }
    }

    #[test]
    fn commit_rate_approximates_two_thirds() {
        // The leader is in the common core with probability ≥ 2/3 in the
        // threshold model; over many waves most should commit directly.
        let mut sim = Simulation::new(cluster(4, 1, 16), scheduler::Fifo);
        assert!(sim.run(50_000_000).quiescent);
        let m = sim.process(pid(0)).metrics();
        assert!(m.waves_attempted >= 12, "{m:?}");
        let rate = m.waves_committed as f64 / m.waves_attempted as f64;
        assert!(rate > 0.5, "commit rate {rate} suspiciously low: {m:?}");
    }

    #[test]
    fn no_duplicates_in_output() {
        let mut sim = Simulation::new(cluster(4, 1, 6), scheduler::Random::new(3));
        assert!(sim.run(10_000_000).quiescent);
        for i in 0..4 {
            let mut seen = std::collections::HashSet::new();
            for o in sim.outputs(pid(i)) {
                assert!(seen.insert(o.id), "process {i} delivered {} twice", o.id);
            }
        }
    }

    /// After every step of a run, one more `advance` of any process sends
    /// nothing, outputs nothing and leaves the round, the DAG and the buffer
    /// as they are: `on_message` skips `advance` after a broadcast step that
    /// delivered no vertex on the strength of this.
    #[test]
    fn advance_is_at_its_fixpoint_after_every_step() {
        for (n, f, seed) in [(4, 1, 1), (7, 2, 2)] {
            let mut sim = Simulation::new(cluster(n, f, 3), scheduler::Random::new(seed));
            for i in 0..n {
                sim.input(pid(i), Block::new(vec![i as u64]));
            }
            let mut step = 0;
            loop {
                for i in 0..n {
                    let mut probe = sim.process(pid(i)).clone();
                    let core = &probe.core;
                    let before = (core.round(), core.dag().len(), core.buffer_len());
                    let (mut sends, mut outputs) = (Vec::new(), Vec::new());
                    let mut ctx = Context::new(pid(i), n, sim.now(), &mut sends, &mut outputs);
                    probe.advance(&mut ctx);
                    let core = &probe.core;
                    let after = (core.round(), core.dag().len(), core.buffer_len());
                    assert!(
                        sends.is_empty(),
                        "step {step}: p{i} advanced and sent {}",
                        sends.len()
                    );
                    assert!(outputs.is_empty(), "step {step}: p{i} advanced and output");
                    assert_eq!(before, after, "step {step}: p{i} (round, DAG, buffer) moved");
                }
                if !sim.step() {
                    break;
                }
                step += 1;
            }
            assert!(!sim.outputs(pid(0)).is_empty(), "n = {n}: nothing ordered");
        }
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn rejects_unsound_threshold() {
        let _ = DagRider::new(pid(0), 9, 3, 1, RiderConfig::default());
    }
}
