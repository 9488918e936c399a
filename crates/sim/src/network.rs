//! The deterministic discrete-event simulation engine.
//!
//! A [`Simulation`] owns one [`Protocol`] instance per process, a bag of
//! in-flight messages, and a [`Scheduler`] (the asynchronous adversary). Each
//! [`Simulation::step`] asks the scheduler for the next message, delivers it,
//! and enqueues whatever the receiving process sends in response. Executions
//! are fully deterministic given the protocol, fault plan and scheduler seed.

use asym_quorum::{ProcessId, ProcessSet};

use crate::process::{Context, Dest, Protocol, Step};
use crate::scheduler::{InFlight, Scheduler};
use crate::seq_index::SeqIndex;

/// Fault mode of a process, applied by the network layer.
///
/// Byzantine *behaviour* (protocol-level deviation) is modelled inside the
/// protocol type itself (e.g. a malicious variant of the state machine);
/// the network layer provides the generic crash/omission faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Never starts: sends nothing, receives nothing.
    CrashedFromStart,
    /// Behaves correctly until it has processed `0..k` deliveries, then
    /// silently stops (no sends, deliveries dropped).
    CrashAfter(u64),
    /// Receives messages but all its sends are dropped (send-omission).
    Mute,
    /// Crashes like [`FaultMode::CrashAfter`]`(crash_at)`, but restarts once
    /// the simulation has executed `recover_at` delivery steps (or at
    /// quiescence, if the network drains first): the engine then invokes
    /// [`Protocol::on_recover`], which is where a persistence-backed
    /// protocol replays its log and rejoins. Messages sent to or by the
    /// process during the down window are dropped, exactly as for a crash.
    RestartAfter {
        /// Deliveries this process handles before crashing.
        crash_at: u64,
        /// Global delivery step at which the process restarts.
        recover_at: u64,
    },
}

/// Counters describing an execution; useful for message-complexity
/// experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network (unicasts; a broadcast counts `n`).
    pub sent: u64,
    /// Messages delivered to a process.
    pub delivered: u64,
    /// Messages dropped because the recipient (or sender) was faulty.
    pub dropped: u64,
    /// Largest number of simultaneously in-flight messages observed.
    pub max_in_flight: usize,
}

/// Result of [`Simulation::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Delivery steps executed during this call.
    pub steps: u64,
    /// `true` if the run stopped because no message was deliverable
    /// (quiescence), `false` if the step budget was exhausted.
    pub quiescent: bool,
}

/// A deterministic simulation of `n` processes exchanging messages through an
/// adversarial scheduler.
///
/// # Examples
///
/// ```
/// use asym_quorum::ProcessId;
/// use asym_sim::{scheduler, Context, Protocol, Simulation};
///
/// // Every process broadcasts a ping on start and outputs each ping heard.
/// struct Ping;
/// impl Protocol for Ping {
///     type Msg = ();
///     type Input = ();
///     type Output = ProcessId;
///     fn on_start(&mut self, ctx: &mut Context<'_, (), ProcessId>) {
///         ctx.broadcast(());
///     }
///     fn on_message(&mut self, from: ProcessId, _m: (), ctx: &mut Context<'_, (), ProcessId>) {
///         ctx.output(from);
///     }
/// }
///
/// let mut sim = Simulation::new(vec![Ping, Ping, Ping], scheduler::Fifo::default());
/// let report = sim.run(10_000);
/// assert!(report.quiescent);
/// assert_eq!(sim.outputs(ProcessId::new(0)).len(), 3);
/// ```
pub struct Simulation<P: Protocol, S> {
    nodes: Vec<P>,
    faults: Vec<FaultMode>,
    deliveries: Vec<u64>,
    recovered: Vec<bool>,
    /// The [`FaultMode::RestartAfter`] processes not yet recovered, in
    /// ascending order — the only ones a step checks for a due recovery.
    awaiting_restart: Vec<usize>,
    steps_done: u64,
    pending: Vec<InFlight<P::Msg>>,
    scheduler: S,
    now: Step,
    seq: u64,
    started: bool,
    outputs: Vec<Vec<P::Output>>,
    /// The send buffer every callback's [`Context`] fills and
    /// `enqueue` drains, so a step allocates no buffer.
    sends: Vec<(Dest, P::Msg)>,
    stats: NetStats,
}

impl<P: Protocol, S: Scheduler<P::Msg>> Simulation<P, S> {
    /// Creates a simulation over the given processes (process `i` runs
    /// `processes[i]`) and scheduler. All processes start [`FaultMode::Correct`].
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty.
    pub fn new(processes: Vec<P>, scheduler: S) -> Self {
        assert!(!processes.is_empty(), "simulation needs at least one process");
        let n = processes.len();
        Simulation {
            nodes: processes,
            faults: vec![FaultMode::Correct; n],
            deliveries: vec![0; n],
            recovered: vec![false; n],
            awaiting_restart: Vec::new(),
            steps_done: 0,
            pending: Vec::new(),
            scheduler,
            now: 0,
            seq: 0,
            started: false,
            outputs: (0..n).map(|_| Vec::new()).collect(),
            sends: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Sets the fault mode of one process (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn with_fault(self, p: ProcessId, mode: FaultMode) -> Self {
        self.with_faults([(p, mode)])
    }

    /// Applies a whole fault plan — `(process, mode)` assignments — at once
    /// (builder-style). The form sweep harnesses use.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn with_faults<I: IntoIterator<Item = (ProcessId, FaultMode)>>(mut self, plan: I) -> Self {
        assert!(!self.started, "fault plan must be fixed before the run starts");
        for (p, mode) in plan {
            self.faults[p.index()] = mode;
        }
        self.awaiting_restart = (0..self.n())
            .filter(|&i| matches!(self.faults[i], FaultMode::RestartAfter { .. }))
            .collect();
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Step {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The set of processes that are (still) correct right now. A
    /// [`FaultMode::RestartAfter`] process counts as correct outside its
    /// down window (before the crash, and again after recovery).
    pub fn correct_processes(&self) -> ProcessSet {
        (0..self.n())
            .filter(|i| match self.faults[*i] {
                FaultMode::Correct => true,
                FaultMode::CrashedFromStart | FaultMode::Mute => false,
                FaultMode::CrashAfter(k) => self.deliveries[*i] < k,
                FaultMode::RestartAfter { crash_at, .. } => {
                    self.recovered[*i] || self.deliveries[*i] < crash_at
                }
            })
            .collect()
    }

    /// `true` if a [`FaultMode::RestartAfter`] process's crash window
    /// actually opened and the engine fired its recovery. Stays `false`
    /// when the run ended before the process reached `crash_at` deliveries
    /// (the fault was vacuous) — harnesses use this to tell "never crashed"
    /// from "crashed and restarted".
    pub fn was_recovered(&self, p: ProcessId) -> bool {
        self.recovered[p.index()]
    }

    /// Immutable access to a process's state (observer inspection).
    pub fn process(&self, p: ProcessId) -> &P {
        &self.nodes[p.index()]
    }

    /// Outputs a process has produced so far, in order.
    pub fn outputs(&self, p: ProcessId) -> &[P::Output] {
        &self.outputs[p.index()]
    }

    /// Drains the outputs of a process.
    pub fn take_outputs(&mut self, p: ProcessId) -> Vec<P::Output> {
        core::mem::take(&mut self.outputs[p.index()])
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// `(from, to)` endpoints of every message still in flight, in no
    /// particular order — the observable behind starvation checks ("did the
    /// adversary leave correct-to-correct traffic undelivered?").
    pub fn pending_endpoints(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.pending.iter().map(|m| (m.from, m.to))
    }

    fn is_silent(&self, i: usize) -> bool {
        match self.faults[i] {
            FaultMode::Correct | FaultMode::Mute => false,
            FaultMode::CrashedFromStart => true,
            FaultMode::CrashAfter(k) => self.deliveries[i] >= k,
            FaultMode::RestartAfter { crash_at, .. } => {
                !self.recovered[i] && self.deliveries[i] >= crash_at
            }
        }
    }

    /// Fires [`Protocol::on_recover`] for every crashed [`FaultMode::RestartAfter`]
    /// process whose `recover_at` step has been reached.
    fn fire_due_recoveries(&mut self) {
        let mut k = 0;
        while let Some(&i) = self.awaiting_restart.get(k) {
            let FaultMode::RestartAfter { crash_at, recover_at } = self.faults[i] else {
                unreachable!("only restartable processes await a restart");
            };
            if self.deliveries[i] < crash_at || self.steps_done < recover_at {
                k += 1;
                continue;
            }
            self.recover_process(i); // drops `i` from the list at `k`
        }
    }

    fn recover_process(&mut self, i: usize) {
        self.recovered[i] = true;
        self.awaiting_restart.retain(|&j| j != i);
        self.call(i, |p, ctx| p.on_recover(ctx));
    }

    /// The first process awaiting its restart that is down right now.
    fn down_awaiting_restart(&self) -> Option<usize> {
        self.awaiting_restart.iter().copied().find(|&i| self.is_silent(i))
    }

    /// Runs one callback of process `i` against the shared send buffer and
    /// enqueues what it sent.
    fn call(&mut self, i: usize, f: impl FnOnce(&mut P, &mut Context<'_, P::Msg, P::Output>)) {
        let n = self.n();
        let mut ctx =
            Context::new(ProcessId::new(i), n, self.now, &mut self.sends, &mut self.outputs[i]);
        f(&mut self.nodes[i], &mut ctx);
        self.enqueue(i);
    }

    /// If the network drained while a crashed restartable process is still
    /// waiting for its `recover_at` step, fast-forward and restart it now —
    /// "eventually the operator brings the node back". Returns `true` if a
    /// recovery fired.
    fn force_pending_recovery(&mut self) -> bool {
        match self.down_awaiting_restart() {
            Some(i) => {
                self.recover_process(i);
                true
            }
            None => false,
        }
    }

    fn sends_dropped(&self, i: usize) -> bool {
        matches!(self.faults[i], FaultMode::Mute) || self.is_silent(i)
    }

    /// Drains the send buffer into the network, or counts it dropped.
    fn enqueue(&mut self, from: usize) {
        let n = self.n();
        if self.sends_dropped(from) {
            self.stats.dropped += self
                .sends
                .drain(..)
                .map(|(d, _)| if matches!(d, Dest::All) { n as u64 } else { 1 })
                .sum::<u64>();
            return;
        }
        for (dest, msg) in self.sends.drain(..) {
            match dest {
                Dest::To(to) => {
                    self.stats.sent += 1;
                    self.pending.push(InFlight {
                        seq: self.seq,
                        from: ProcessId::new(from),
                        to,
                        sent_at: self.now,
                        msg,
                    });
                    self.seq += 1;
                }
                Dest::All => {
                    for to in 0..n {
                        self.stats.sent += 1;
                        self.pending.push(InFlight {
                            seq: self.seq,
                            from: ProcessId::new(from),
                            to: ProcessId::new(to),
                            sent_at: self.now,
                            msg: msg.clone(),
                        });
                        self.seq += 1;
                    }
                }
            }
        }
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.pending.len());
    }

    /// Starts all correct processes (idempotent; called automatically by the
    /// first [`Simulation::step`] / [`Simulation::run`]).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.n() {
            if matches!(self.faults[i], FaultMode::CrashedFromStart) {
                continue;
            }
            self.call(i, |p, ctx| p.on_start(ctx));
        }
    }

    /// Injects a client input into process `p` (e.g. `g-propose`,
    /// `aa-broadcast`).
    pub fn input(&mut self, p: ProcessId, input: P::Input) {
        self.start();
        let i = p.index();
        if self.is_silent(i) {
            return;
        }
        self.call(i, |p, ctx| p.on_input(input, ctx));
    }

    /// Delivers one message chosen by the scheduler. Returns `false` if the
    /// scheduler starved (no deliverable message) and no process restart is
    /// pending.
    pub fn step(&mut self) -> bool {
        self.start();
        self.fire_due_recoveries();
        let Some(idx) = self.scheduler.next(&self.pending, self.now) else {
            // A drained network still wakes crashed-but-restartable
            // processes; their recovery sends usually refill it.
            return self.force_pending_recovery();
        };
        let m = self.pending.swap_remove(idx);
        self.steps_done += 1;
        self.now = self.scheduler.delivery_time(&m, self.now);
        let i = m.to.index();
        if self.is_silent(i) {
            self.stats.dropped += 1;
            return true;
        }
        self.deliveries[i] += 1;
        self.stats.delivered += 1;
        self.call(i, |p, ctx| p.on_message(m.from, m.msg, ctx));
        true
    }

    /// Runs until quiescence or until `max_steps` deliveries, whichever comes
    /// first.
    pub fn run(&mut self, max_steps: u64) -> RunReport {
        self.start();
        let mut steps = 0;
        while steps < max_steps {
            if !self.step() {
                return RunReport { steps, quiescent: true };
            }
            steps += 1;
        }
        RunReport { steps, quiescent: !self.step_would_progress() }
    }

    fn step_would_progress(&mut self) -> bool {
        self.scheduler.next(&self.pending, self.now).is_some()
            || self.down_awaiting_restart().is_some()
    }

    /// Runs until `pred` holds (checked after every delivery) or the budget
    /// is exhausted; returns `true` if the predicate held.
    pub fn run_until(
        &mut self,
        max_steps: u64,
        mut pred: impl FnMut(&Simulation<P, S>) -> bool,
    ) -> bool {
        self.start();
        if pred(self) {
            return true;
        }
        for _ in 0..max_steps {
            if !self.step() {
                return pred(self);
            }
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Delivers all still-pending messages in FIFO order, bypassing the
    /// scheduler — models "the delayed messages eventually arrive" after a
    /// starving adversary has achieved its goal.
    ///
    /// Each delivery advances `now` by one, which tells a stateful
    /// scheduler that the slice changed behind its back. The flush finds the
    /// oldest message through an index of its own (built once per call,
    /// O(log n) per delivery) and removes it with `swap_remove`, so a flush
    /// that runs out of budget leaves `pending` in the same order as one
    /// that scanned for each oldest message.
    pub fn flush_starved(&mut self, max_steps: u64) -> RunReport {
        self.start();
        let mut index = SeqIndex::default();
        let mut steps = 0;
        while steps < max_steps {
            // Restartable processes recover during a flush exactly as they
            // do in `step`: on schedule, or forced once the bag drains.
            self.fire_due_recoveries();
            if self.pending.is_empty() && !self.force_pending_recovery() {
                break;
            }
            if self.pending.is_empty() {
                continue; // a recovery fired but sent nothing
            }
            index.sync(&self.pending, &mut |_| 0);
            let (_, idx) = index.front(0).expect("pending is non-empty");
            let m = self.pending.swap_remove(idx);
            index.swap_remove(idx);
            self.now += 1;
            self.steps_done += 1;
            let i = m.to.index();
            if self.is_silent(i) {
                self.stats.dropped += 1;
            } else {
                self.deliveries[i] += 1;
                self.stats.delivered += 1;
                self.call(i, |p, ctx| p.on_message(m.from, m.msg, ctx));
            }
            steps += 1;
        }
        RunReport { steps, quiescent: self.pending.is_empty() }
    }
}

impl<P: Protocol + core::fmt::Debug, S: core::fmt::Debug> core::fmt::Debug for Simulation<P, S>
where
    P::Msg: core::fmt::Debug,
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.nodes.len())
            .field("now", &self.now)
            .field("in_flight", &self.pending.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler;

    /// Gossip: every process broadcasts `round` on start; on hearing a value
    /// it outputs `(from, value)`.
    #[derive(Debug)]
    struct Gossip;

    impl Protocol for Gossip {
        type Msg = u32;
        type Input = u32;
        type Output = (ProcessId, u32);

        fn on_start(&mut self, ctx: &mut Context<'_, u32, (ProcessId, u32)>) {
            ctx.broadcast(1);
        }

        fn on_input(&mut self, input: u32, ctx: &mut Context<'_, u32, (ProcessId, u32)>) {
            ctx.broadcast(input);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: u32,
            ctx: &mut Context<'_, u32, (ProcessId, u32)>,
        ) {
            ctx.output((from, msg));
        }
    }

    #[test]
    fn all_broadcasts_delivered_under_fifo() {
        let mut sim =
            Simulation::new(vec![Gossip, Gossip, Gossip, Gossip], scheduler::Fifo::default());
        let report = sim.run(1_000);
        assert!(report.quiescent);
        assert_eq!(report.steps, 16, "4 broadcasts × 4 recipients");
        for i in 0..4 {
            assert_eq!(sim.outputs(ProcessId::new(i)).len(), 4);
        }
        assert_eq!(sim.stats().sent, 16);
        assert_eq!(sim.stats().delivered, 16);
    }

    #[test]
    fn deterministic_under_random_scheduler() {
        let run = |seed| {
            let mut sim =
                Simulation::new(vec![Gossip, Gossip, Gossip], scheduler::Random::new(seed));
            sim.run(1_000);
            (0..3).map(|i| sim.outputs(ProcessId::new(i)).to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        // Different seeds usually give different delivery orders.
        // (Not asserted: could coincide; just ensure both complete.)
        let _ = run(6);
    }

    #[test]
    fn crashed_from_start_sends_and_receives_nothing() {
        let mut sim = Simulation::new(vec![Gossip, Gossip, Gossip], scheduler::Fifo::default())
            .with_fault(ProcessId::new(2), FaultMode::CrashedFromStart);
        sim.run(1_000);
        // p2 broadcast suppressed: others see 2 messages each.
        assert_eq!(sim.outputs(ProcessId::new(0)).len(), 2);
        assert_eq!(sim.outputs(ProcessId::new(2)).len(), 0);
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn mute_receives_but_never_sends() {
        let mut sim = Simulation::new(vec![Gossip, Gossip, Gossip], scheduler::Fifo::default())
            .with_fault(ProcessId::new(1), FaultMode::Mute);
        sim.run(1_000);
        assert_eq!(sim.outputs(ProcessId::new(1)).len(), 2, "mute still receives");
        assert_eq!(sim.outputs(ProcessId::new(0)).len(), 2, "mute's broadcast dropped");
    }

    #[test]
    fn crash_after_k_deliveries() {
        let mut sim = Simulation::new(vec![Gossip, Gossip, Gossip], scheduler::Fifo::default())
            .with_fault(ProcessId::new(0), FaultMode::CrashAfter(1));
        sim.run(1_000);
        assert_eq!(sim.outputs(ProcessId::new(0)).len(), 1, "processed one delivery only");
        assert!(!sim.correct_processes().contains(ProcessId::new(0)));
        assert!(sim.correct_processes().contains(ProcessId::new(1)));
    }

    /// Gossips `1` on start, outputs everything heard, and broadcasts a
    /// recovery marker `99` when restarted.
    #[derive(Debug)]
    struct Restartable;

    impl Protocol for Restartable {
        type Msg = u32;
        type Input = u32;
        type Output = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            ctx.broadcast(1);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u32>) {
            ctx.output(msg);
        }

        fn on_recover(&mut self, ctx: &mut Context<'_, u32, u32>) {
            ctx.broadcast(99);
        }
    }

    #[test]
    fn restart_after_crash_window_rejoins() {
        let mut sim = Simulation::new(
            vec![Restartable, Restartable, Restartable],
            scheduler::Fifo::default(),
        )
        .with_fault(ProcessId::new(0), FaultMode::RestartAfter { crash_at: 1, recover_at: 4 });
        let report = sim.run(1_000);
        assert!(report.quiescent);
        // p0 heard its own 1, crashed (dropping p1's 1), recovered at step 4
        // and then heard p2's 1 plus its own recovery marker.
        assert_eq!(sim.outputs(ProcessId::new(0)), &[1, 1, 99]);
        // The live processes saw all three 1s plus the marker.
        assert_eq!(sim.outputs(ProcessId::new(1)), &[1, 1, 1, 99]);
        assert!(sim.stats().dropped > 0, "down-window deliveries are dropped");
        assert!(sim.correct_processes().contains(ProcessId::new(0)), "recovered = correct");
    }

    #[test]
    fn recovery_is_forced_at_quiescence_if_network_drains_first() {
        // recover_at far beyond the traffic: the drained network must still
        // bring the process back ("the operator eventually restarts it").
        let mut sim = Simulation::new(
            vec![Restartable, Restartable, Restartable],
            scheduler::Fifo::default(),
        )
        .with_fault(
            ProcessId::new(2),
            FaultMode::RestartAfter { crash_at: 0, recover_at: 1_000_000 },
        );
        let report = sim.run(1_000);
        assert!(report.quiescent);
        let out2 = sim.outputs(ProcessId::new(2));
        assert_eq!(out2, &[99], "everything before the forced restart was dropped");
        assert!(sim.outputs(ProcessId::new(0)).contains(&99));
    }

    #[test]
    fn restart_is_deterministic() {
        let run = || {
            let mut sim = Simulation::new(
                vec![Restartable, Restartable, Restartable],
                scheduler::Random::new(7),
            )
            .with_fault(ProcessId::new(1), FaultMode::RestartAfter { crash_at: 1, recover_at: 5 });
            let report = sim.run(1_000);
            let outs: Vec<Vec<u32>> =
                (0..3).map(|i| sim.outputs(ProcessId::new(i)).to_vec()).collect();
            (report, outs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inputs_reach_the_network() {
        let mut sim = Simulation::new(vec![Gossip, Gossip], scheduler::Fifo::default());
        sim.run(100);
        sim.input(ProcessId::new(0), 42);
        sim.run(100);
        let out1 = sim.outputs(ProcessId::new(1));
        assert!(out1.contains(&(ProcessId::new(0), 42)));
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Simulation::new(vec![Gossip, Gossip, Gossip], scheduler::Fifo::default());
        let ok = sim.run_until(1_000, |s| s.outputs(ProcessId::new(1)).len() >= 2);
        assert!(ok);
        assert!(sim.in_flight() > 0, "stopped before quiescence");
    }

    #[test]
    fn filtered_scheduler_starves_then_flush_delivers() {
        let allow = |from: ProcessId, _to: ProcessId| from.index() != 0;
        let mut sim =
            Simulation::new(vec![Gossip, Gossip, Gossip], scheduler::Filtered::new(allow));
        let report = sim.run(1_000);
        assert!(report.quiescent);
        // p0's 3 broadcast copies starved.
        assert_eq!(sim.in_flight(), 3);
        let flush = sim.flush_starved(1_000);
        assert!(flush.quiescent);
        assert_eq!(sim.outputs(ProcessId::new(1)).len(), 3);
    }

    #[test]
    fn latency_scheduler_advances_clock_beyond_steps() {
        let mut sim =
            Simulation::new(vec![Gossip, Gossip], scheduler::RandomLatency::new(3, 10, 20));
        let report = sim.run(1_000);
        assert!(report.quiescent);
        assert!(sim.now() >= 10, "clock advanced by latency, got {}", sim.now());
    }

    #[test]
    fn take_outputs_drains() {
        let mut sim = Simulation::new(vec![Gossip, Gossip], scheduler::Fifo::default());
        sim.run(100);
        let got = sim.take_outputs(ProcessId::new(0));
        assert_eq!(got.len(), 2);
        assert!(sim.outputs(ProcessId::new(0)).is_empty());
    }

    /// Relays every first-hop value once more, so a flush meets new sends.
    #[derive(Clone, Debug)]
    struct Relay;

    impl Protocol for Relay {
        type Msg = (bool, u32);
        type Input = u32;
        type Output = (ProcessId, u32);

        fn on_start(&mut self, ctx: &mut Context<'_, (bool, u32), (ProcessId, u32)>) {
            ctx.broadcast((false, ctx.id().index() as u32));
        }

        fn on_input(&mut self, v: u32, ctx: &mut Context<'_, (bool, u32), (ProcessId, u32)>) {
            ctx.broadcast((false, v));
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            (relayed, v): (bool, u32),
            ctx: &mut Context<'_, (bool, u32), (ProcessId, u32)>,
        ) {
            ctx.output((from, v));
            if !relayed {
                ctx.broadcast((true, v + 100));
            }
        }

        fn on_recover(&mut self, ctx: &mut Context<'_, (bool, u32), (ProcessId, u32)>) {
            ctx.broadcast((false, 99));
        }
    }

    /// `flush_starved` as it was before its index, scanning for the lowest
    /// seq on every delivery: the reference the indexed flush must match.
    fn flush_by_scan<P: Protocol, S: Scheduler<P::Msg>>(
        sim: &mut Simulation<P, S>,
        max_steps: u64,
    ) -> RunReport {
        sim.start();
        let mut steps = 0;
        while steps < max_steps {
            sim.fire_due_recoveries();
            if sim.pending.is_empty() && !sim.force_pending_recovery() {
                break;
            }
            if sim.pending.is_empty() {
                continue;
            }
            let idx = sim
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.seq)
                .map(|(i, _)| i)
                .expect("pending is non-empty");
            let m = sim.pending.swap_remove(idx);
            sim.now += 1;
            sim.steps_done += 1;
            let i = m.to.index();
            if sim.is_silent(i) {
                sim.stats.dropped += 1;
            } else {
                sim.deliveries[i] += 1;
                sim.stats.delivered += 1;
                sim.call(i, |p, ctx| p.on_message(m.from, m.msg, ctx));
            }
            steps += 1;
        }
        RunReport { steps, quiescent: sim.pending.is_empty() }
    }

    #[test]
    fn indexed_flush_matches_the_scan() {
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        for seed in 0..64 {
            let trace = |indexed: bool| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let victims = ProcessSet::from_indices([rng.random_range(0usize..5)]);
                let restart = FaultMode::RestartAfter {
                    crash_at: rng.random_range(0..6),
                    recover_at: rng.random_range(0..120),
                };
                let mut sim = Simulation::new(vec![Relay; 5], scheduler::Starve::new(victims))
                    .with_fault(ProcessId::new(rng.random_range(0usize..5)), restart);
                let mut trace = Vec::new();
                for _ in 0..12 {
                    let report = match rng.random_range(0u8..4) {
                        0 => sim.run(rng.random_range(0..40)),
                        1 => {
                            sim.input(ProcessId::new(rng.random_range(0usize..5)), 7);
                            sim.run(0)
                        }
                        _ if indexed => sim.flush_starved(rng.random_range(1..30)),
                        _ => flush_by_scan(&mut sim, rng.random_range(1..30)),
                    };
                    let seqs: Vec<u64> = sim.pending.iter().map(|m| m.seq).collect();
                    let outputs: Vec<_> = (0..5).map(|i| sim.outputs[i].clone()).collect();
                    trace.push((report, sim.now, sim.stats, seqs, outputs));
                }
                trace
            };
            assert_eq!(trace(true), trace(false), "seed {seed}");
        }
    }
}
