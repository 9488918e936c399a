//! **Algorithm 3** — the paper's constant-round asymmetric gather, the first
//! sound common-core primitive for asymmetric quorum systems.
//!
//! The protocol keeps the three-set skeleton of the classic gather (`S`, `T`,
//! `U`) but inserts a control-message layer between the `S` and `T` rounds:
//!
//! 1. arb-broadcast the input; collect arb-deliveries into `S`;
//! 2. once `S` covers one of my quorums, `DISTRIBUTE_S` to all;
//! 3. a receiver **acknowledges** a `DISTRIBUTE_S` only after arb-delivering
//!    everything in it (`S_j ⊆ S_i`) and only while it has not yet sent its
//!    `T` set;
//! 4. on ACKs from a quorum → `READY` to all; on READY from a quorum →
//!    `CONFIRM` to all; on CONFIRM from a **kernel** → `CONFIRM` (Bracha-style
//!    amplification, Lemma 3.4/3.6); on CONFIRM from a quorum →
//!    `DISTRIBUTE_T` and stop acknowledging;
//! 5. accept a `DISTRIBUTE_T` once `T_j ⊆ S_i`, merge into `U`; deliver `U`
//!    after accepting `DISTRIBUTE_T` from a full quorum.
//!
//! The CONFIRM layer guarantees (Lemma 3.5) that some guild member has
//! planted its `S` set in a whole quorum **before** anyone stops
//! acknowledging — that `S` set is the common core.

use asym_broadcast::{BcastMsg, BroadcastHub};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_sim::{Context, Protocol};

use crate::common::{merge_pairs, pairs_subset, to_wire, ValueSet};

/// Wire messages of the constant-round asymmetric gather.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsymGatherMsg<V> {
    /// Asymmetric reliable broadcast layer for the initial values.
    Arb(BcastMsg<V>),
    /// `DISTRIBUTE_S`: the sender's candidate common-core set.
    DistS(Vec<(ProcessId, V)>),
    /// Acknowledgement of an accepted `DISTRIBUTE_S` (point-to-point).
    Ack,
    /// The sender received ACKs from one of its quorums.
    Ready,
    /// The sender received READYs from a quorum (or CONFIRMs from a kernel).
    Confirm,
    /// `DISTRIBUTE_T`: the sender's accumulated `T` set.
    DistT(Vec<(ProcessId, V)>),
}

/// Tuning knobs for [`AsymGather`]; the defaults implement Algorithm 3
/// exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsymGatherConfig {
    /// Enable the CONFIRM-from-kernel amplification rule (lines 55–56).
    /// Disabling it is the liveness ablation run by `exp_ablation` (ABL).
    pub kernel_amplification: bool,
}

impl Default for AsymGatherConfig {
    fn default() -> Self {
        AsymGatherConfig { kernel_amplification: true }
    }
}

/// One process of the constant-round asymmetric gather (Algorithm 3).
///
/// *Input*: the value to `ag-propose`. *Output*: the `ag-delivered` set.
///
/// # Examples
///
/// Driving a full four-process cluster to completion:
///
/// ```
/// use asym_gather::AsymGather;
/// use asym_quorum::{topology, ProcessId};
/// use asym_sim::{scheduler, Simulation};
///
/// let t = topology::uniform_threshold(4, 1);
/// let procs: Vec<AsymGather<u64>> = (0..4)
///     .map(|i| AsymGather::new(ProcessId::new(i), t.quorums.clone()))
///     .collect();
/// let mut sim = Simulation::new(procs, scheduler::Random::new(1));
/// for i in 0..4 {
///     sim.input(ProcessId::new(i), 100 + i as u64);
/// }
/// assert!(sim.run(1_000_000).quiescent);
/// assert_eq!(sim.outputs(ProcessId::new(0)).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct AsymGather<V> {
    me: ProcessId,
    quorums: AsymQuorumSystem,
    config: AsymGatherConfig,
    hub: BroadcastHub<V>,
    s: ValueSet<V>,
    t: ValueSet<V>,
    u: ValueSet<V>,
    acks: ProcessSet,
    readys: ProcessSet,
    confirms: ProcessSet,
    accepted_t_from: ProcessSet,
    pending_s: Vec<(ProcessId, Vec<(ProcessId, V)>)>,
    pending_t: Vec<(ProcessId, Vec<(ProcessId, V)>)>,
    sent_s: bool,
    sent_ready: bool,
    sent_confirm: bool,
    sent_t: bool,
    delivered: bool,
}

impl<V: Clone + Eq + std::hash::Hash + core::fmt::Debug> AsymGather<V> {
    /// Creates a gather process with the default (paper-exact) configuration.
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem) -> Self {
        AsymGather::with_config(me, quorums, AsymGatherConfig::default())
    }

    /// Creates a gather process with an explicit configuration.
    pub fn with_config(me: ProcessId, quorums: AsymQuorumSystem, config: AsymGatherConfig) -> Self {
        AsymGather {
            me,
            hub: BroadcastHub::new(me, quorums.clone()),
            quorums,
            config,
            s: ValueSet::new(),
            t: ValueSet::new(),
            u: ValueSet::new(),
            acks: ProcessSet::new(),
            readys: ProcessSet::new(),
            confirms: ProcessSet::new(),
            accepted_t_from: ProcessSet::new(),
            pending_s: Vec::new(),
            pending_t: Vec::new(),
            sent_s: false,
            sent_ready: false,
            sent_confirm: false,
            sent_t: false,
            delivered: false,
        }
    }

    /// `true` once this process has sent its `T` set (and therefore stopped
    /// acknowledging `DISTRIBUTE_S` messages).
    pub fn sent_t(&self) -> bool {
        self.sent_t
    }

    /// Number of buffered (not yet acceptable) `DISTRIBUTE_S`/`DISTRIBUTE_T`
    /// messages — a liveness observability hook.
    pub fn buffered(&self) -> usize {
        self.pending_s.len() + self.pending_t.len()
    }

    fn advance(&mut self, ctx: &mut Context<'_, AsymGatherMsg<V>, ValueSet<V>>) {
        // Line 46–47: distribute S once it covers one of my quorums.
        if !self.sent_s {
            let support: ProcessSet = self.s.keys().copied().collect();
            if self.quorums.contains_quorum_for(self.me, &support) {
                self.sent_s = true;
                ctx.broadcast(AsymGatherMsg::DistS(to_wire(&self.s)));
            }
        }

        // Line 48–50: accept buffered DISTRIBUTE_S whose content is now
        // fully arb-delivered; acknowledge unless T was already sent.
        let mut i = 0;
        while i < self.pending_s.len() {
            if pairs_subset(&self.pending_s[i].1, &self.s) {
                let (from, pairs) = self.pending_s.swap_remove(i);
                if !self.sent_t {
                    merge_pairs(&mut self.t, &pairs);
                    ctx.send(from, AsymGatherMsg::Ack);
                }
            } else {
                i += 1;
            }
        }

        // Line 51–52: READY after ACKs from one of my quorums.
        if !self.sent_ready && self.quorums.contains_quorum_for(self.me, &self.acks) {
            self.sent_ready = true;
            ctx.broadcast(AsymGatherMsg::Ready);
        }

        // Line 53–54: CONFIRM after READYs from one of my quorums.
        if !self.sent_confirm && self.quorums.contains_quorum_for(self.me, &self.readys) {
            self.sent_confirm = true;
            ctx.broadcast(AsymGatherMsg::Confirm);
        }

        // Line 55–56: CONFIRM after CONFIRMs from one of my kernels.
        if self.config.kernel_amplification
            && !self.sent_confirm
            && self.quorums.hits_kernel_for(self.me, &self.confirms)
        {
            self.sent_confirm = true;
            ctx.broadcast(AsymGatherMsg::Confirm);
        }

        // Line 57–59: distribute T after CONFIRMs from one of my quorums.
        if !self.sent_t && self.quorums.contains_quorum_for(self.me, &self.confirms) {
            self.sent_t = true;
            ctx.broadcast(AsymGatherMsg::DistT(to_wire(&self.t)));
        }

        // Line 60–61: accept buffered DISTRIBUTE_T once `T_j ⊆ S_i`.
        let mut i = 0;
        while i < self.pending_t.len() {
            if pairs_subset(&self.pending_t[i].1, &self.s) {
                let (from, pairs) = self.pending_t.swap_remove(i);
                merge_pairs(&mut self.u, &pairs);
                self.accepted_t_from.insert(from);
            } else {
                i += 1;
            }
        }

        // Line 62–63: deliver after accepted DISTRIBUTE_T from a quorum.
        if !self.delivered && self.quorums.contains_quorum_for(self.me, &self.accepted_t_from) {
            self.delivered = true;
            ctx.output(self.u.clone());
        }
    }
}

impl<V: Clone + Eq + std::hash::Hash + core::fmt::Debug> Protocol for AsymGather<V> {
    type Msg = AsymGatherMsg<V>;
    type Input = V;
    type Output = ValueSet<V>;

    fn on_input(&mut self, value: V, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        for m in self.hub.broadcast(0, value) {
            ctx.broadcast(AsymGatherMsg::Arb(m));
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        match msg {
            AsymGatherMsg::Arb(inner) => {
                let (out, delivery) = self.hub.on_message(from, inner);
                if let Some(m) = out {
                    ctx.broadcast(AsymGatherMsg::Arb(m));
                }
                if let Some(d) = delivery {
                    merge_pairs(&mut self.s, &[(d.origin, d.value)]);
                }
            }
            AsymGatherMsg::DistS(pairs) => self.pending_s.push((from, pairs)),
            AsymGatherMsg::Ack => {
                self.acks.insert(from);
            }
            AsymGatherMsg::Ready => {
                self.readys.insert(from);
            }
            AsymGatherMsg::Confirm => {
                self.confirms.insert(from);
            }
            AsymGatherMsg::DistT(pairs) => self.pending_t.push((from, pairs)),
        }
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{check_pairwise_agreement, find_common_core};
    use asym_quorum::counterexample::{fig1_quorums, FIG1_N};
    use asym_quorum::{maximal_guild, topology};
    use asym_sim::{scheduler, FaultMode, Harness, Simulation};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn cluster(qs: &AsymQuorumSystem) -> Vec<AsymGather<u64>> {
        (0..qs.n()).map(|i| AsymGather::new(pid(i), qs.clone())).collect()
    }

    /// Runs gather on a topology with the given faulty set; asserts the paper
    /// properties relative to the maximal guild; returns delivered U sets.
    fn run_and_check(
        t: &topology::Topology,
        faulty: &[usize],
        seed: u64,
    ) -> Vec<Option<ValueSet<u64>>> {
        let n = t.n();
        let faulty_set: ProcessSet = faulty.iter().copied().collect();
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty_set)
            .expect("test topologies must retain a guild");
        let mut sim = Simulation::new(cluster(&t.quorums), scheduler::Random::new(seed));
        for fidx in faulty {
            sim = sim.with_fault(pid(*fidx), FaultMode::CrashedFromStart);
        }
        for i in 0..n {
            if !faulty.contains(&i) {
                sim.input(pid(i), 500 + i as u64);
            }
        }
        let report = sim.run(100_000_000);
        assert!(report.quiescent, "{}: run must quiesce", t.name);

        let outputs: Vec<Option<ValueSet<u64>>> =
            (0..n).map(|i| sim.outputs(pid(i)).first().cloned()).collect();
        // Liveness: every guild member delivers.
        for g in &guild {
            assert!(
                outputs[g.index()].is_some(),
                "{}: guild member {g} failed to deliver (seed {seed})",
                t.name
            );
        }
        // Agreement + validity over guild outputs.
        let refs: Vec<(ProcessId, &ValueSet<u64>)> =
            guild.iter().filter_map(|g| outputs[g.index()].as_ref().map(|u| (g, u))).collect();
        check_pairwise_agreement(&refs).expect("agreement among guild outputs");
        for (_, u) in &refs {
            for (p, v) in u.iter() {
                assert_eq!(*v, 500 + p.index() as u64, "validity: wrong value for {p}");
            }
        }
        // Common core among guild outputs (Definition 3.1).
        let core = find_common_core(&t.quorums, &guild, &refs);
        assert!(core.is_some(), "{}: no common core (seed {seed})", t.name);
        outputs
    }

    #[test]
    fn threshold_topologies_reach_common_core() {
        for seed in 0..4 {
            run_and_check(&topology::uniform_threshold(4, 1), &[], seed);
            run_and_check(&topology::uniform_threshold(7, 2), &[], seed);
        }
    }

    #[test]
    fn threshold_with_crashes() {
        for seed in 0..4 {
            run_and_check(&topology::uniform_threshold(4, 1), &[3], seed);
            run_and_check(&topology::uniform_threshold(7, 2), &[0, 6], seed);
        }
    }

    #[test]
    fn figure1_system_now_reaches_common_core() {
        // The contrast to Lemma 3.2: on the very system that defeats
        // Algorithm 2, Algorithm 3 delivers a common core.
        let t = topology::Topology {
            name: "figure-1".into(),
            fail_prone: asym_quorum::counterexample::fig1_fail_prone(),
            quorums: fig1_quorums(),
        };
        for seed in 0..3 {
            let outputs = run_and_check(&t, &[], seed);
            assert_eq!(outputs.iter().filter(|o| o.is_some()).count(), FIG1_N);
        }
    }

    #[test]
    fn ripple_topology_with_crash() {
        let t = topology::ripple_unl(10, 8, 1);
        for seed in 0..3 {
            run_and_check(&t, &[2], seed);
        }
    }

    #[test]
    fn stellar_topology_with_core_crash() {
        let t = topology::stellar_tiers(12, 4, 1);
        for seed in 0..3 {
            run_and_check(&t, &[0], seed);
        }
    }

    #[test]
    fn targeted_delay_does_not_break_liveness() {
        let t = topology::uniform_threshold(7, 2);
        let mut sim = Simulation::new(
            cluster(&t.quorums),
            scheduler::TargetedDelay::new(ProcessSet::from_indices([0, 1])),
        );
        for i in 0..7 {
            sim.input(pid(i), i as u64);
        }
        assert!(sim.run(100_000_000).quiescent);
        for i in 0..7 {
            assert_eq!(sim.outputs(pid(i)).len(), 1, "process {i} delivers");
        }
    }

    #[test]
    fn byzantine_dist_s_with_fabricated_pairs_is_never_accepted() {
        // A forged DISTRIBUTE_S containing a value that was never
        // arb-broadcast must stay buffered forever: no ACK, no merge.
        let t = topology::uniform_threshold(4, 1);
        let mut h = Harness::new(AsymGather::<u64>::new(pid(0), t.quorums.clone()), pid(0), 4);
        h.deliver(pid(3), AsymGatherMsg::DistS(vec![(pid(2), 666)]));
        assert_eq!(h.protocol.buffered(), 1);
        assert!(h.protocol.t.is_empty());
        assert!(h.sends.iter().all(|(_, m)| !matches!(m, AsymGatherMsg::Ack)));
    }

    #[test]
    fn ack_flow_until_ready() {
        // Drive one process manually through the ACK → READY transition.
        let t = topology::uniform_threshold(4, 1);
        let mut h = Harness::new(AsymGather::<u64>::new(pid(0), t.quorums.clone()), pid(0), 4);
        for i in [1usize, 2, 3] {
            h.deliver(pid(i), AsymGatherMsg::Ack);
        }
        assert!(
            h.sends.iter().any(|(_, m)| matches!(m, AsymGatherMsg::Ready)),
            "READY after a quorum (3) of ACKs"
        );
    }

    #[test]
    fn confirm_amplification_from_kernel() {
        // Kernel size for threshold(4, q=3) is 2: two CONFIRMs amplify.
        let t = topology::uniform_threshold(4, 1);
        let mut h = Harness::new(AsymGather::<u64>::new(pid(0), t.quorums.clone()), pid(0), 4);
        h.deliver(pid(1), AsymGatherMsg::Confirm);
        assert!(h.sends.iter().all(|(_, m)| !matches!(m, AsymGatherMsg::Confirm)));
        h.deliver(pid(2), AsymGatherMsg::Confirm);
        assert!(
            h.sends.iter().any(|(_, m)| matches!(m, AsymGatherMsg::Confirm)),
            "kernel of CONFIRMs must amplify"
        );
    }

    #[test]
    fn no_amplification_when_disabled() {
        let t = topology::uniform_threshold(4, 1);
        let cfg = AsymGatherConfig { kernel_amplification: false };
        let mut h =
            Harness::new(AsymGather::<u64>::with_config(pid(0), t.quorums.clone(), cfg), pid(0), 4);
        h.deliver(pid(1), AsymGatherMsg::Confirm);
        h.deliver(pid(2), AsymGatherMsg::Confirm);
        assert!(
            h.sends.iter().all(|(_, m)| !matches!(m, AsymGatherMsg::Confirm)),
            "disabled amplification must not CONFIRM from a kernel"
        );
    }

    #[test]
    fn stops_acking_after_sending_t() {
        let t = topology::uniform_threshold(4, 1);
        let mut h = Harness::new(AsymGather::<u64>::new(pid(0), t.quorums.clone()), pid(0), 4);
        // Feed arb deliveries directly: simulate by feeding Confirms to force
        // sentT, after S covers a quorum via the arb layer.
        // Simpler: drive the hub through real arb messages for 3 origins.
        for origin in [0usize, 1, 2] {
            for sender in 0..4 {
                h.deliver(
                    pid(sender),
                    AsymGatherMsg::Arb(BcastMsg::Echo {
                        origin: pid(origin),
                        tag: 0,
                        value: origin as u64,
                    }),
                );
            }
            for sender in 0..4 {
                h.deliver(
                    pid(sender),
                    AsymGatherMsg::Arb(BcastMsg::Ready {
                        origin: pid(origin),
                        tag: 0,
                        value: origin as u64,
                    }),
                );
            }
        }
        assert_eq!(h.protocol.s.len(), 3, "arb layer delivered 3 values");
        assert!(h.protocol.sent_s);
        // Force DISTRIBUTE_T via a quorum of CONFIRMs.
        for i in [1usize, 2, 3] {
            h.deliver(pid(i), AsymGatherMsg::Confirm);
        }
        assert!(h.protocol.sent_t());
        h.take_sends();
        // An acceptable DISTRIBUTE_S now arrives: no ACK anymore.
        h.deliver(pid(2), AsymGatherMsg::DistS(vec![(pid(1), 1)]));
        assert!(h.sends.iter().all(|(_, m)| !matches!(m, AsymGatherMsg::Ack)));
    }
}
