//! **Algorithms 1 and 2** — the three-round gather and its quorum-replacement
//! generalization, which the paper proves unsound (Lemma 3.2), generalized to
//! `R` rounds.
//!
//! Algorithm 2 is Algorithm 1 (the classic threshold gather of Canetti–Rabin
//! / Abraham et al.) with every `n − f` threshold replaced by "one of my
//! quorums" and the reliable broadcast replaced by its asymmetric version —
//! the standard heuristic that *works* for broadcast and binary consensus but
//! fails here. With `R = 3` rounds it is exactly Algorithm 2. Since a
//! threshold is the uniform system whose quorums are the `n − f`-sets,
//! Algorithm 1 is the same protocol at `R = 3` over
//! [`uniform_threshold`](asym_quorum::topology::uniform_threshold)`(n, f)`,
//! where the counting argument does guarantee a common core of `n − f`
//! values.
//! The paper observes that quorum consistency does make the same round
//! structure converge, just not in three rounds: with `R` rounds of "collect
//! sets from one of my quorums, union, forward", any system with fewer than
//! `2^(R-1)` processes reaches a common core, so `log₂ n + 1` rounds always
//! suffice. That logarithmic latency is what a DAG protocol cannot afford,
//! which motivates the constant-round Algorithm 3.
//!
//! The module also provides the [`Lemma32Scheduler`], the adversarial
//! delivery schedule of Appendix A under which the Figure-1 system reaches
//! **no common core** at `R = 3` (every process hears exactly its own quorum
//! in each round), while `R = 4` already succeeds under the same adversary.

use asym_broadcast::{BcastMsg, BroadcastHub};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_sim::{Context, InFlight, Protocol, Scheduler, Step};

use crate::common::{merge_pairs, to_wire, ValueSet};

/// Wire messages of the quorum-replacement gather: the arb layer plus one
/// `DISTRIBUTE` message kind per round level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NaiveGatherMsg<V> {
    /// Asymmetric reliable broadcast layer for the initial values.
    Arb(BcastMsg<V>),
    /// Level-`k` set distribution: level 1 carries `S` (Algorithm 2's
    /// `DISTRIBUTE_S`), level 2 carries `T` (`DISTRIBUTE_T`), and so on.
    Distribute {
        /// Round level of the carried set (1-based).
        level: u32,
        /// The sender's accumulated set at the level below.
        pairs: Vec<(ProcessId, V)>,
    },
}

/// One process of the `R`-round quorum-replacement gather.
///
/// With `rounds == 3` this is exactly Algorithm 2 (unsound on Figure 1),
/// kept for the negative result and the comparison experiments, and over a
/// uniform threshold system it is Algorithm 1; with
/// `rounds ≥ log₂ n + 1` the quorum-consistency argument guarantees a common
/// core at the cost of logarithmic latency.
#[derive(Clone, Debug)]
pub struct NaiveGather<V> {
    me: ProcessId,
    quorums: AsymQuorumSystem,
    hub: BroadcastHub<V>,
    /// `sets[k]` = accumulated set at level `k` (0 = arb deliveries, `S`).
    sets: Vec<ValueSet<V>>,
    /// `senders[k]` = who contributed to `sets[k]`: arb-delivered origins at
    /// level 0, senders of level-`k` distribute messages above.
    senders: Vec<ProcessSet>,
    /// Whether the level-`k` distribute message was sent.
    sent: Vec<bool>,
    delivered: bool,
}

impl<V: Clone + Eq + std::hash::Hash + core::fmt::Debug> NaiveGather<V> {
    /// Creates an `R`-round quorum-replacement gather process under the
    /// given asymmetric quorum system; `rounds = 3` is Algorithm 2, and
    /// Algorithm 1 over a uniform threshold system.
    ///
    /// # Panics
    ///
    /// Panics if `rounds < 2` (one collection plus one distribution is the
    /// minimum meaningful configuration).
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem, rounds: u32) -> Self {
        assert!(rounds >= 2, "quorum-replacement gather needs at least 2 rounds");
        let r = rounds as usize;
        NaiveGather {
            me,
            hub: BroadcastHub::new(me, quorums.clone()),
            quorums,
            sets: vec![ValueSet::new(); r],
            senders: vec![ProcessSet::new(); r],
            sent: vec![false; r],
            delivered: false,
        }
    }

    fn advance(&mut self, ctx: &mut Context<'_, NaiveGatherMsg<V>, ValueSet<V>>) {
        // Level k fires on a quorum behind the level-(k−1) set: arb-delivered
        // values for k = 1, distribute messages above. Delivery fires on a
        // quorum of final-level distribute messages.
        let r = self.sets.len();
        for k in 1..r {
            if !self.sent[k] && self.quorums.contains_quorum_for(self.me, &self.senders[k - 1]) {
                self.sent[k] = true;
                ctx.broadcast(NaiveGatherMsg::Distribute {
                    level: k as u32,
                    pairs: to_wire(&self.sets[k - 1]),
                });
            }
        }
        if !self.delivered && self.quorums.contains_quorum_for(self.me, &self.senders[r - 1]) {
            self.delivered = true;
            ctx.output(self.sets[r - 1].clone());
        }
    }
}

impl<V: Clone + Eq + std::hash::Hash + core::fmt::Debug> Protocol for NaiveGather<V> {
    type Msg = NaiveGatherMsg<V>;
    type Input = V;
    type Output = ValueSet<V>;

    fn on_input(&mut self, value: V, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        for m in self.hub.broadcast(0, value) {
            ctx.broadcast(NaiveGatherMsg::Arb(m));
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        match msg {
            NaiveGatherMsg::Arb(inner) => {
                let (out, delivery) = self.hub.on_message(from, inner);
                if let Some(m) = out {
                    ctx.broadcast(NaiveGatherMsg::Arb(m));
                }
                if let Some(d) = delivery {
                    self.senders[0].insert(d.origin);
                    merge_pairs(&mut self.sets[0], &[(d.origin, d.value)]);
                }
            }
            NaiveGatherMsg::Distribute { level, pairs } => {
                let k = level as usize;
                if (1..self.sets.len()).contains(&k) && self.senders[k].insert(from) {
                    merge_pairs(&mut self.sets[k], &pairs);
                }
            }
        }
        self.advance(ctx);
    }
}

/// The Appendix-A adversary: a delivery schedule under which every process's
/// round conditions fire on **exactly its designated quorum**.
///
/// Rules (receiver `r`, designated quorum `Q(r)`):
///
/// * arb `SEND`/`ECHO` — always deliverable (the broadcast layer needs global
///   cooperation);
/// * arb `READY` for origin `o` — deliverable at `r` only if `o ∈ Q(r)`, so
///   `r` arb-delivers exactly the values of its quorum;
/// * `DISTRIBUTE` (any level) from `s` — deliverable at `r` only if
///   `s ∈ Q(r)`.
///
/// Starved messages model "arbitrarily delayed"; after the observable run
/// finishes, [`asym_sim::Simulation::flush_starved`] delivers them, which can
/// no longer change the already-delivered `U` sets.
#[derive(Clone, Debug)]
pub struct Lemma32Scheduler {
    /// Designated quorum of each process.
    quorum_of: Vec<ProcessSet>,
}

impl Lemma32Scheduler {
    /// Creates the scheduler from the designated quorum of each process.
    pub fn new(quorum_of: Vec<ProcessSet>) -> Self {
        Lemma32Scheduler { quorum_of }
    }

    fn allows<V>(&self, m: &InFlight<NaiveGatherMsg<V>>) -> bool {
        let q = &self.quorum_of[m.to.index()];
        match &m.msg {
            NaiveGatherMsg::Arb(BcastMsg::Ready { origin, .. }) => q.contains(*origin),
            NaiveGatherMsg::Arb(_) => true,
            NaiveGatherMsg::Distribute { .. } => q.contains(m.from),
        }
    }
}

impl<V> Scheduler<NaiveGatherMsg<V>> for Lemma32Scheduler {
    fn next(&mut self, pending: &[InFlight<NaiveGatherMsg<V>>], _now: Step) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, m)| self.allows(m))
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_pairwise_agreement;
    use crate::common::find_common_core;
    use crate::dataflow;
    use asym_quorum::counterexample::{fig1_quorum_of, fig1_quorums, FIG1_N};
    use asym_quorum::topology;
    use asym_sim::{scheduler, FaultMode, Simulation};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn fig1_choice() -> Vec<ProcessSet> {
        (0..FIG1_N).map(|i| fig1_quorum_of(pid(i))).collect()
    }

    /// The `rounds`-round gather on the Figure-1 system under the Appendix-A
    /// adversary, with every process's input given and nothing yet run.
    fn fig1_adversarial(rounds: u32) -> Simulation<NaiveGather<u64>, Lemma32Scheduler> {
        let qs = fig1_quorums();
        let procs = (0..FIG1_N).map(|i| NaiveGather::new(pid(i), qs.clone(), rounds)).collect();
        let mut sim = Simulation::new(procs, Lemma32Scheduler::new(fig1_choice()));
        for i in 0..FIG1_N {
            sim.input(pid(i), i as u64);
        }
        sim
    }

    /// Runs [`fig1_adversarial`] to quiescence; returns whether a common core
    /// was reached.
    fn fig1_with_rounds(rounds: u32) -> bool {
        let mut sim = fig1_adversarial(rounds);
        assert!(sim.run(200_000_000).quiescent);
        let outputs: Vec<ValueSet<u64>> = (0..FIG1_N)
            .map(|i| {
                let out = sim.outputs(pid(i));
                assert_eq!(out.len(), 1, "process {i} must deliver (rounds={rounds})");
                out[0].clone()
            })
            .collect();
        let refs: Vec<(ProcessId, &ValueSet<u64>)> =
            outputs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
        find_common_core(&fig1_quorums(), &ProcessSet::full(FIG1_N), &refs).is_some()
    }

    #[test]
    fn lemma_3_2_no_common_core_on_figure_1() {
        // The headline negative result, as a full message-passing execution:
        // running Algorithm 2 on the Figure-1 system under the Appendix-A
        // schedule delivers U sets with NO common core.
        let mut sim = fig1_adversarial(3);
        let report = sim.run(50_000_000);
        assert!(report.quiescent, "adversarial run must reach quiescence");

        // Every process delivered, and its U set matches Listing 1 exactly.
        let expected = dataflow::three_rounds(&fig1_choice());
        let mut outputs: Vec<ValueSet<u64>> = Vec::new();
        for i in 0..FIG1_N {
            let out = sim.outputs(pid(i));
            assert_eq!(out.len(), 1, "process {i} must ag-deliver exactly once");
            let support: ProcessSet = out[0].keys().copied().collect();
            assert_eq!(
                support,
                expected.u[i],
                "U set of process {} diverges from Listing 1",
                i + 1
            );
            outputs.push(out[0].clone());
        }

        // No common core: no process's S set is inside every U set.
        let refs: Vec<(ProcessId, &ValueSet<u64>)> =
            outputs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
        let core = find_common_core(&fig1_quorums(), &ProcessSet::full(FIG1_N), &refs);
        assert!(core.is_none(), "Lemma 3.2 violated: found core {core:?}");
    }

    #[test]
    fn four_rounds_succeed_on_figure_1() {
        // The dataflow analysis says the Figure-1 system converges at 4
        // rounds; the message-passing protocol agrees.
        assert!(fig1_with_rounds(4));
    }

    #[test]
    fn matches_dataflow_round_requirement() {
        let needed = dataflow::rounds_to_common_core(&fig1_choice(), 16).unwrap() as u32;
        assert!(!fig1_with_rounds(needed - 1));
        assert!(fig1_with_rounds(needed));
    }

    #[test]
    #[should_panic(expected = "at least 2 rounds")]
    fn rejects_degenerate_round_count() {
        let t = topology::uniform_threshold(4, 1);
        let _ = NaiveGather::<u64>::new(pid(0), t.quorums, 1);
    }

    /// Algorithm 1: the three-round gather over the `f`-of-`n` threshold
    /// system, with the processes in `crashed` down from the start and every
    /// other process `i` proposing `1000 + i`; run to quiescence.
    fn threshold_run<S: Scheduler<NaiveGatherMsg<u64>>>(
        n: usize,
        f: usize,
        scheduler: S,
        crashed: &[usize],
    ) -> Simulation<NaiveGather<u64>, S> {
        let t = topology::uniform_threshold(n, f);
        let procs = (0..n).map(|i| NaiveGather::new(pid(i), t.quorums.clone(), 3)).collect();
        let mut sim = Simulation::new(procs, scheduler)
            .with_faults(crashed.iter().map(|c| (pid(*c), FaultMode::CrashedFromStart)));
        for i in (0..n).filter(|i| !crashed.contains(i)) {
            sim.input(pid(i), 1000 + i as u64);
        }
        assert!(sim.run(10_000_000).quiescent, "gather must terminate");
        sim
    }

    /// Runs the failure-free threshold gather under each seed and asserts
    /// agreement plus a common core of exactly `n − f` values.
    fn assert_threshold_core(n: usize, f: usize, seeds: std::ops::Range<u64>) {
        let t = topology::uniform_threshold(n, f);
        for seed in seeds {
            let sim = threshold_run(n, f, scheduler::Random::new(seed), &[]);
            let outputs: Vec<ValueSet<u64>> =
                (0..n).map(|i| sim.outputs(pid(i))[0].clone()).collect();
            let refs: Vec<(ProcessId, &ValueSet<u64>)> =
                outputs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
            check_pairwise_agreement(&refs).expect("agreement");
            let core = find_common_core(&t.quorums, &ProcessSet::full(n), &refs);
            let (_, core) = core.unwrap_or_else(|| panic!("n={n} seed {seed}: no core"));
            assert_eq!(core.len(), n - f);
        }
    }

    #[test]
    fn failure_free_run_has_common_core_of_size_n_minus_f() {
        assert_threshold_core(4, 1, 0..8);
    }

    #[test]
    fn naive_gather_succeeds_on_threshold_systems() {
        // On uniform threshold systems Algorithm 2 is Algorithm 1 and does
        // reach a common core of n − f values — the failure is specific to
        // genuinely asymmetric systems.
        assert_threshold_core(7, 2, 0..5);
    }

    #[test]
    fn tolerates_f_crashes() {
        for seed in 0..5 {
            let sim = threshold_run(7, 2, scheduler::Random::new(seed), &[5, 6]);
            for i in 0..5 {
                let out = sim.outputs(pid(i));
                assert_eq!(out.len(), 1, "seed {seed} process {i} must deliver");
                assert!(out[0].len() >= 5, "output holds ≥ n−f values");
            }
        }
    }

    #[test]
    fn validity_outputs_only_real_inputs() {
        let sim = threshold_run(4, 1, scheduler::Random::new(3), &[]);
        for i in 0..4 {
            for (p, v) in sim.outputs(pid(i))[0].iter() {
                assert_eq!(*v, 1000 + p.index() as u64, "value attributed to wrong origin");
            }
        }
    }

    #[test]
    fn no_delivery_without_a_quorum() {
        // With 2 of 4 processes crashed (> f = 1), no quorum of 3 survives
        // and nobody can finish.
        let sim = threshold_run(4, 1, scheduler::Fifo, &[2, 3]);
        assert!(sim.outputs(pid(0)).is_empty());
        assert!(sim.outputs(pid(1)).is_empty());
    }

    #[test]
    fn naive_gather_on_fig1_under_fair_schedule_may_find_core() {
        // Under a *fair* (random) schedule the Figure-1 system usually does
        // reach a common core — the negative result needs the adversary.
        // We only assert termination and agreement here.
        let qs = fig1_quorums();
        let procs: Vec<NaiveGather<u64>> =
            (0..FIG1_N).map(|i| NaiveGather::new(pid(i), qs.clone(), 3)).collect();
        let mut sim = Simulation::new(procs, scheduler::Random::new(11));
        for i in 0..FIG1_N {
            sim.input(pid(i), i as u64);
        }
        assert!(sim.run(50_000_000).quiescent);
        for i in 0..FIG1_N {
            assert_eq!(sim.outputs(pid(i)).len(), 1, "process {i} delivers");
        }
    }

    #[test]
    fn flushing_starved_messages_after_delivery_changes_nothing() {
        // Outputs are final: late messages merge into local sets but cannot
        // retract or alter what was ag-delivered.
        let mut sim = fig1_adversarial(3);
        sim.run(50_000_000);
        let before: Vec<Vec<ValueSet<u64>>> =
            (0..FIG1_N).map(|i| sim.outputs(pid(i)).to_vec()).collect();
        sim.flush_starved(50_000_000);
        for (i, b) in before.iter().enumerate() {
            assert_eq!(sim.outputs(pid(i)), &b[..], "output mutated by flush");
        }
    }
}
