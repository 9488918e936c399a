//! One execution, run plainly (timed as a whole) or probed (every layer
//! boundary timed), plus what the benchmark checks and keeps of it.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

use asym_core::{AsymDagRider, AsymRiderMsg, OrderedVertex};
use asym_dag::{VertexId, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId};
use asym_sim::{Protocol, Scheduler, Simulation, Step};

use crate::layers::{self, DagTimes, QuorumTimes, StorageTimes};
use crate::probe::{Probe, Rider, SchedStats, TimedScheduler, CLASSES};
use crate::report::{ratio, Metrics};

pub type Sched = Box<dyn Scheduler<AsymRiderMsg>>;
pub type ProbedSim = Simulation<Probe, TimedScheduler<Sched>>;

pub fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// What two runs of one execution must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub steps: u64,
    pub sent: u64,
    /// Hash of every process's outputs (ids, blocks, waves) and commit log.
    pub digest: u64,
}

pub fn digest<'a>(
    per_process: impl Iterator<Item = (&'a [OrderedVertex], &'a [(WaveId, VertexId)])>,
) -> u64 {
    let mut h = DefaultHasher::new();
    for (outputs, log) in per_process {
        outputs.len().hash(&mut h);
        for o in outputs {
            o.id.hash(&mut h);
            o.block.hash(&mut h);
            o.committed_in_wave.hash(&mut h);
        }
        log.hash(&mut h);
    }
    h.finish()
}

pub fn fingerprint<P, S>(sim: &Simulation<P, S>, steps: u64) -> Fingerprint
where
    P: Protocol<Output = OrderedVertex> + Rider,
    S: Scheduler<P::Msg>,
{
    let per_process =
        (0..sim.n()).map(|i| (sim.outputs(pid(i)), sim.process(pid(i)).rider().commit_log()));
    Fingerprint { steps, sent: sim.stats().sent, digest: digest(per_process) }
}

/// The correctness gate of one consensus execution: it quiesced, and every
/// correct process delivered the same non-empty, duplicate-free sequence
/// (ids and blocks). Returns the transactions every correct process
/// delivered.
pub fn gate(quiescent: bool, outputs: &[&[OrderedVertex]]) -> Result<u64, String> {
    if !quiescent {
        return Err("the execution did not quiesce".into());
    }
    let reference = outputs[0];
    if reference.is_empty() {
        return Err("a correct process delivered nothing".into());
    }
    let mut seen = HashSet::new();
    if let Some(dup) = reference.iter().find(|o| !seen.insert(o.id)) {
        return Err(format!("{} delivered twice", dup.id));
    }
    for (i, out) in outputs.iter().enumerate() {
        if out.len() != reference.len() {
            return Err(format!(
                "correct process #{i} delivered {} vertices, the first {}",
                out.len(),
                reference.len()
            ));
        }
        if let Some(k) = (0..out.len())
            .find(|k| out[*k].id != reference[*k].id || out[*k].block != reference[*k].block)
        {
            return Err(format!("correct process #{i} diverges at position {k}"));
        }
    }
    Ok(reference.iter().map(|o| o.block.txs.len() as u64).sum())
}

/// A probed execution after its step loop.
pub struct ProbedRun {
    pub sim: ProbedSim,
    pub sched: Rc<Cell<SchedStats>>,
    pub steps: u64,
    /// Time inside `Simulation::step` (and the starvation flush).
    pub step_ns: u64,
    /// Time of the whole step loop.
    pub wall_ns: u64,
}

impl ProbedRun {
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(&self.sim, self.steps)
    }
}

/// Runs a probed simulation step by step, timing every `step` call, until
/// quiescence or `max_steps`; `flush` then delivers what a starving
/// adversary left in flight, as the scenario runner does. `after_step`
/// sees the simulation after every step, outside the timed calls.
pub fn run_probed(
    mut sim: ProbedSim,
    sched: Rc<Cell<SchedStats>>,
    max_steps: u64,
    flush: bool,
    mut after_step: impl FnMut(&ProbedSim, u64),
) -> ProbedRun {
    let wall = Instant::now();
    let (mut steps, mut step_ns) = (0, 0);
    while steps < max_steps {
        let start = Instant::now();
        let progressed = sim.step();
        step_ns += start.elapsed().as_nanos() as u64;
        if !progressed {
            break;
        }
        steps += 1;
        after_step(&sim, steps);
    }
    if flush {
        let start = Instant::now();
        let flushed = sim.flush_starved(max_steps.saturating_sub(steps));
        step_ns += start.elapsed().as_nanos() as u64;
        steps += flushed.steps;
    }
    ProbedRun { sim, sched, steps, step_ns, wall_ns: wall.elapsed().as_nanos() as u64 }
}

/// Simulated time from each vertex's first SEND at its source to its
/// output at each of `correct`, over all such (vertex, process) pairs.
pub fn commit_latencies(run: &ProbedRun, correct: &[usize]) -> Vec<Step> {
    let mut created: HashMap<VertexId, Step> = HashMap::new();
    for i in 0..run.sim.n() {
        for (id, at) in &run.sim.process(pid(i)).stats().created {
            created.entry(*id).or_insert(*at);
        }
    }
    let mut samples = Vec::new();
    for i in correct {
        for (id, at) in &run.sim.process(pid(*i)).stats().delivered {
            if let Some(c) = created.get(id) {
                samples.push(at.saturating_sub(*c));
            }
        }
    }
    samples
}

/// Per-layer totals over every probed execution of a traced run.
#[derive(Default)]
pub struct Layers {
    class_ns: [u64; CLASSES],
    class_calls: [u64; CLASSES],
    recover_ns: u64,
    recovers: u64,
    sched: SchedStats,
    step_ns: u64,
    steps: u64,
    wall_ns: u64,
    sent: u64,
    vertices_created: u64,
    max_in_flight: usize,
    segments_received: u64,
    waves_installed: u64,
    dag: DagTimes,
    quorum: QuorumTimes,
    storage: StorageTimes,
}

impl Layers {
    /// Folds one probed execution in and times the DAG (process 0's final
    /// DAG), quorum-predicate and storage layers on what it left behind.
    pub fn absorb(&mut self, run: &ProbedRun, quorums: &AsymQuorumSystem) -> Result<(), String> {
        let n = run.sim.n();
        let mut created = HashSet::new();
        let mut observed = Vec::with_capacity(n);
        for i in 0..n {
            let probe = run.sim.process(pid(i));
            let stats = probe.stats();
            for c in 0..CLASSES {
                self.class_ns[c] += stats.ns[c];
                self.class_calls[c] += stats.calls[c];
            }
            self.recover_ns += stats.recover_ns;
            self.recovers += stats.recovers;
            created.extend(stats.created.iter().map(|(id, _)| *id));
            observed.push(stats.bcast.as_slice());
            let rider: &AsymDagRider = probe.rider();
            let transfer = rider.transfer_stats();
            self.segments_received += transfer.segments_received;
            self.waves_installed += transfer.waves_installed;
            layers::time_storage(rider, run.sim.outputs(pid(i)).len(), &mut self.storage)?;
        }
        let sched = run.sched.get();
        self.sched.ns += sched.ns;
        self.sched.picks += sched.picks;
        self.sched.pending += sched.pending;
        self.step_ns += run.step_ns;
        self.steps += run.steps;
        self.wall_ns += run.wall_ns;
        self.sent += run.sim.stats().sent;
        self.vertices_created += created.len() as u64;
        self.max_in_flight = self.max_in_flight.max(run.sim.stats().max_in_flight);
        let p0 = run.sim.process(pid(0)).rider();
        layers::time_dag(p0.dag(), n, p0.commit_log(), &mut self.dag);
        layers::time_predicates(quorums, &observed, &mut self.quorum);
        Ok(())
    }

    /// Time inside the protocol and scheduler callbacks.
    fn callback_ns(&self) -> u64 {
        self.class_ns.iter().sum::<u64>() + self.recover_ns + self.sched.ns
    }

    /// Share of the traced wall time the step timings cover; the layer self
    /// times plus the engine's own time add up to exactly that share.
    pub fn accounted(&self) -> f64 {
        ratio(self.step_ns as f64, self.wall_ns as f64)
    }

    /// Step-loop wall time of the probed executions.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    pub fn push_metrics(&self, m: &mut Metrics) {
        let per = |ns: u64, calls: u64| ratio(ns as f64, calls as f64);
        m.push("sim.sched_ns_per_pick", per(self.sched.ns, self.sched.picks), "ns");
        m.push("sim.sched_pending_per_pick", per(self.sched.pending, self.sched.picks), "count");
        let engine = self.step_ns.saturating_sub(self.callback_ns());
        m.push("sim.engine_ns_per_step", per(engine, self.steps), "ns");
        m.push("sim.msgs_per_vertex", per(self.sent, self.vertices_created), "count");
        m.push("sim.max_in_flight", self.max_in_flight as f64, "count");
        for (c, name) in ["commit", "advance", "control", "catchup"].iter().enumerate() {
            m.push(&format!("core.{name}_ns"), per(self.class_ns[c], self.class_calls[c]), "ns");
            m.push(&format!("core.{name}_calls"), self.class_calls[c] as f64, "count");
        }
        m.push("core.recover_ms", per(self.recover_ns, self.recovers) / 1e6, "ms");
        m.push(
            "core.transfer_useful_ratio",
            per(self.waves_installed, self.segments_received),
            "ratio",
        );
        for (c, name) in ["send", "echo", "ready"].iter().enumerate() {
            let c = c + 4;
            m.push(
                &format!("broadcast.{name}_ns"),
                per(self.class_ns[c], self.class_calls[c]),
                "ns",
            );
        }
        let d = &self.dag;
        m.push("dag.insert_ns", per(d.insert_ns, d.inserts), "ns");
        m.push("dag.strong_path_ns", per(d.strong_ns, d.strongs), "ns");
        m.push("dag.causal_history_ns", per(d.causal_ns, d.causals), "ns");
        m.push("dag.vertices", per(d.vertices, d.dags), "count");
        let q = &self.quorum;
        m.push("quorum.contains_ns", per(q.contains_ns, q.contains), "ns");
        m.push("quorum.kernel_ns", per(q.kernel_ns, q.kernels), "ns");
        let s = &self.storage;
        m.push("storage.append_ns", per(s.append_ns, s.appends), "ns");
        m.push("storage.replay_ms", per(s.replay_ns, s.replays) / 1e6, "ms");
        m.push("storage.records_per_vertex", per(s.records, s.delivered), "count");
        m.push("storage.bytes_per_vertex", per(s.bytes, s.delivered), "B");
        m.push("storage.snapshots", s.snapshots as f64, "count");
        m.push("trace.accounted", self.accounted(), "ratio");
    }
}
