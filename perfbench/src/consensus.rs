//! The three consensus workloads. Each is one pinned execution shape, built
//! only from `Simulation`, `Adversary::build`, `AsymDagRider::new` /
//! `with_storage` and an in-memory `DagLog`; the workload seed derives the
//! scheduler and coin seed of every execution.

use std::time::Instant;

use asym_core::{AsymDagRider, AsymRiderMsg, Block, DagLog, OrderedVertex, RiderConfig};
use asym_quorum::topology::{self, Topology};
use asym_sim::{Adversary, FaultMode, Protocol, Scheduler, Simulation};
use asym_storage::StorageBackend;

use crate::exec::{self, fingerprint, gate, pid, run_probed, Layers, Sched};
use crate::meter::Meter;
use crate::probe::{Probe, TimedScheduler};
use crate::report::{peak_rss_mb, percentile};
use crate::{derive_seed, Args, Outcome, MAX_STEPS};

/// A crash-restart fault: the process crashes after `crash_at` deliveries
/// and restarts at global step `recover_at` (or at quiescence).
pub struct Restart {
    pub process: usize,
    pub crash_at: u64,
    pub recover_at: u64,
    /// Catch-up path the restart is meant to exercise, which names its
    /// `recovery.catchup_steps_*` metric.
    pub path: &'static str,
}

pub struct Consensus {
    pub name: &'static str,
    topology: fn() -> Topology,
    waves: u64,
    txs_per_block: usize,
    /// `Adversary::Latency { min: 1, max: 20 }` instead of `Adversary::Random`.
    latency: bool,
    /// In-memory WAL on every process (snapshot every 64 records, pruning on).
    wal: bool,
    restarts: &'static [Restart],
}

fn threshold10() -> Topology {
    topology::uniform_threshold(10, 3)
}

fn ripple10() -> Topology {
    topology::ripple_unl(10, 8, 1)
}

fn ripple16() -> Topology {
    topology::ripple_unl(16, 13, 2)
}

pub static WORKLOADS: [Consensus; 3] = [
    Consensus {
        name: "latency_threshold10",
        topology: threshold10,
        waves: 4,
        txs_per_block: 16,
        latency: true,
        wal: false,
        restarts: &[],
    },
    Consensus {
        name: "random_ripple10_long",
        topology: ripple10,
        waves: 32,
        txs_per_block: 256,
        latency: false,
        wal: false,
        restarts: &[],
    },
    Consensus {
        name: "restart_catchup",
        topology: ripple16,
        waves: 16,
        txs_per_block: 16,
        latency: false,
        wal: true,
        restarts: &[
            // Crashes almost at once and restarts only at quiescence, after
            // every peer pruned below its floor: delivered-state transfer.
            Restart { process: 1, crash_at: 60, recover_at: u64::MAX, path: "transfer" },
            // Crashes near step 20,000 (1/16 of the deliveries are its own)
            // and restarts at step 150,000: WAL replay plus fetch.
            Restart { process: 2, crash_at: 1_250, recover_at: 150_000, path: "fetch" },
        ],
    },
];

const WAL_SNAPSHOT_EVERY: usize = 64;

/// Delivery steps per timed interval of an untraced execution.
const CHUNK_STEPS: u64 = 2_048;

/// Timed executions re-run probed for commit latency.
const LATENCY_EXECUTIONS: usize = 4;

/// Scheduler and coin seed of execution `k`.
fn exec_seeds(seed: u64, k: u64) -> (u64, u64) {
    (derive_seed(seed, 1, k), derive_seed(seed, 2, k))
}

impl Consensus {
    pub fn named(name: &str) -> Option<&'static Consensus> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Builds the topology and checks B³ and quorum validity; returns the
    /// seconds the two checks took.
    fn validated_topology(&self) -> Result<(Topology, f64), String> {
        let t = (self.topology)();
        let start = Instant::now();
        if !t.fail_prone.satisfies_b3() {
            return Err(format!("{} violates B3", t.name));
        }
        t.quorums.validate(&t.fail_prone).map_err(|e| format!("{}: {e}", t.name))?;
        Ok((t, start.elapsed().as_secs_f64()))
    }

    fn riders(&self, t: &Topology, coin: u64) -> Vec<AsymDagRider> {
        let config =
            RiderConfig { max_waves: self.waves, prune_wal: self.wal, ..Default::default() };
        (0..t.n())
            .map(|i| {
                let rider = AsymDagRider::new(pid(i), t.quorums.clone(), coin, config);
                if self.wal {
                    rider.with_storage(
                        DagLog::new(StorageBackend::in_memory())
                            .with_snapshot_every(WAL_SNAPSHOT_EVERY),
                    )
                } else {
                    rider
                }
            })
            .collect()
    }

    fn adversary(&self, seed: u64) -> Adversary {
        if self.latency {
            Adversary::Latency { seed, min: 1, max: 20 }
        } else {
            Adversary::Random(seed)
        }
    }

    /// The simulation with its fault plan and the standing backlog: one
    /// queued block per vertex each process will create, with globally
    /// unique transaction ids.
    fn simulation<P, S>(&self, procs: Vec<P>, scheduler: S) -> Simulation<P, S>
    where
        P: Protocol<Msg = AsymRiderMsg, Input = Block, Output = OrderedVertex>,
        S: Scheduler<AsymRiderMsg>,
    {
        let n = procs.len();
        let faults = self.restarts.iter().map(|r| {
            (
                pid(r.process),
                FaultMode::RestartAfter { crash_at: r.crash_at, recover_at: r.recover_at },
            )
        });
        let mut sim = Simulation::new(procs, scheduler).with_faults(faults);
        let blocks = 4 * self.waves + 1;
        let txs = self.txs_per_block as u64;
        for b in 0..blocks {
            for i in 0..n {
                let base = (b * n as u64 + i as u64) * txs;
                sim.input(pid(i), Block::new((1..=txs).map(|t| base + t).collect()));
            }
        }
        sim
    }

    fn plain(&self, t: &Topology, (sched, coin): (u64, u64)) -> Simulation<AsymDagRider, Sched> {
        self.simulation(self.riders(t, coin), self.adversary(sched).build())
    }

    /// One set-up: build and validate the topology, build the processes,
    /// queue the backlog.
    fn setup(&self, seed: u64) -> Result<(Topology, Simulation<AsymDagRider, Sched>), String> {
        let (t, _) = self.validated_topology()?;
        let sim = self.plain(&t, exec_seeds(seed, 0));
        Ok((t, sim))
    }

    /// Checks one finished execution: the gate over all processes (a
    /// restarted process counts as correct again), plus every restart
    /// having fired. Returns the transactions every process delivered.
    fn check<P, S>(&self, sim: &Simulation<P, S>, quiescent: bool) -> Result<u64, String>
    where
        P: Protocol<Msg = AsymRiderMsg, Input = Block, Output = OrderedVertex>,
        S: Scheduler<AsymRiderMsg>,
    {
        if let Some(r) = self.restarts.iter().find(|r| !sim.was_recovered(pid(r.process))) {
            return Err(format!("p{} never restarted", r.process));
        }
        let outputs: Vec<&[OrderedVertex]> = (0..sim.n()).map(|i| sim.outputs(pid(i))).collect();
        gate(quiescent, &outputs)
    }

    fn repro(&self, seed: u64, k: u64) -> String {
        let (sched, coin) = exec_seeds(seed, k);
        format!(
            "workload={} seed={seed} execution={k} scheduler_seed={sched} coin_seed={coin}",
            self.name
        )
    }

    pub fn run(&self, args: &Args) -> Result<Outcome, String> {
        if args.trace {
            self.run_traced(args)
        } else {
            self.run_timed(args)
        }
    }

    /// Closed loop: executions back to back until the meter has enough
    /// (see [`Meter::done`]), each stepped in timed chunks and gated
    /// afterwards; then the first executions again, probed, for commit
    /// latency.
    fn run_timed(&self, args: &Args) -> Result<Outcome, String> {
        let mut meter = Meter::new();
        let (t, _) = meter.sample_setup(|| self.setup(args.seed))?.expect("first set-up sampled");
        let mut out = Outcome::default();
        let mut first = Vec::new();
        for k in 0.. {
            if k > 0 && meter.done(args.seconds) {
                break;
            }
            meter.sample_setup(|| self.setup(args.seed))?;
            let mut sim = self.plain(&t, exec_seeds(args.seed, k));
            let mark = meter.mark();
            let (mut steps, mut quiescent) = (0, false);
            while !quiescent {
                let start = Instant::now();
                let mut chunk = 0;
                while chunk < CHUNK_STEPS {
                    if !sim.step() {
                        quiescent = true;
                        break;
                    }
                    chunk += 1;
                }
                meter.record(start, chunk);
                steps += chunk;
            }
            out.attempted += 1;
            let txs = self.check(&sim, quiescent).unwrap_or_else(|e| {
                out.fail(&self.repro(args.seed, k), &e);
                0
            });
            meter.credit(mark, txs as f64, 1.0);
            if first.len() < LATENCY_EXECUTIONS {
                first.push(fingerprint(&sim, steps));
            }
        }
        let mut latencies = Vec::new();
        for (k, expected) in first.into_iter().enumerate() {
            let (sim, sched) = self.probed(&t, exec_seeds(args.seed, k as u64));
            let run = run_probed(sim, sched, MAX_STEPS, false, |_, _| {});
            if run.fingerprint() != expected {
                let why = "the probed replay diverged from the timed run";
                out.fail(&self.repro(args.seed, k as u64), why);
            }
            latencies.extend(exec::commit_latencies(&run, &(0..t.n()).collect::<Vec<_>>()));
        }
        let rates = meter.rates();
        let m = &mut out.metrics;
        m.push("steps_per_s", rates.steps_per_s, "steps/s");
        m.push("txs_per_s", rates.txs_per_s, "txs/s");
        m.push("ops_per_s", rates.ops_per_s, "ops/s");
        m.push("commit_latency_p50", percentile(&mut latencies, 0.50), "sim_time");
        m.push("commit_latency_p99", percentile(&mut latencies, 0.99), "sim_time");
        m.push("setup_s", meter.setup_secs(), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MiB");
        eprintln!(
            "{}: {} executions in {:.2} s ({:.0}% uncontended, probe ratio {:.2?}), {} latency samples",
            self.name,
            out.attempted,
            meter.secs(),
            100.0 * meter.uncontended_share(),
            meter.ratio_range(),
            latencies.len()
        );
        Ok(out)
    }

    fn probed(
        &self,
        t: &Topology,
        (sched, coin): (u64, u64),
    ) -> (exec::ProbedSim, std::rc::Rc<std::cell::Cell<crate::probe::SchedStats>>) {
        let probes = self.riders(t, coin).into_iter().map(Probe::new).collect();
        let (scheduler, stats) = TimedScheduler::new(self.adversary(sched).build());
        (self.simulation(probes, scheduler), stats)
    }

    /// Execution 0 twice: plainly for reference, then probed at every layer
    /// boundary. The probed run must reproduce the plain one exactly.
    fn run_traced(&self, args: &Args) -> Result<Outcome, String> {
        let (t, validate_s) = self.validated_topology()?;
        let mut out = Outcome { attempted: 1, ..Outcome::default() };
        let seeds = exec_seeds(args.seed, 0);
        let mut sim = self.plain(&t, seeds);
        let start = Instant::now();
        let report = sim.run(MAX_STEPS);
        let plain_ns = start.elapsed().as_nanos() as f64;
        let reference = fingerprint(&sim, report.steps);
        if let Err(e) = self.check(&sim, report.quiescent) {
            out.fail(&self.repro(args.seed, 0), &e);
        }
        drop(sim);

        let healthy: Vec<usize> =
            (0..t.n()).filter(|i| self.restarts.iter().all(|r| r.process != *i)).collect();
        // Per restart: (step it restarted at, deliveries to reach, steps taken).
        let mut catchup: Vec<(Option<u64>, usize, Option<u64>)> =
            vec![(None, 0, None); self.restarts.len()];
        let (sim, sched) = self.probed(&t, seeds);
        let run = run_probed(sim, sched, MAX_STEPS, false, |sim, step| {
            for (r, c) in self.restarts.iter().zip(catchup.iter_mut()) {
                if c.0.is_none() && sim.was_recovered(pid(r.process)) {
                    c.0 = Some(step);
                    c.1 = healthy.iter().map(|h| sim.outputs(pid(*h)).len()).min().unwrap_or(0);
                }
                if let (Some(at), None) = (c.0, c.2) {
                    if sim.outputs(pid(r.process)).len() >= c.1 {
                        c.2 = Some(step - at);
                    }
                }
            }
        });
        if run.fingerprint() != reference {
            out.fail(&self.repro(args.seed, 0), "the traced run diverged from the untraced run");
        }
        let mut layers = Layers::default();
        layers.absorb(&run, &t.quorums)?;
        if layers.accounted() < crate::MIN_ACCOUNTED {
            out.fail(&self.repro(args.seed, 0), "step timings cover too little of the traced wall");
        }
        let m = &mut out.metrics;
        layers.push_metrics(m);
        m.push("quorum.validate_s", validate_s, "s");
        for path in ["transfer", "fetch"] {
            let steps = self
                .restarts
                .iter()
                .zip(&catchup)
                .find(|(r, _)| r.path == path)
                .and_then(|(_, c)| c.2)
                .unwrap_or(0);
            m.push(&format!("recovery.catchup_steps_{path}"), steps as f64, "steps");
        }
        crate::sweep::push_idle_scenario_metrics(m);
        m.push("trace.overhead", layers.wall_ns() as f64 / plain_ns, "ratio");
        eprintln!(
            "{}: {} steps, restarts at {:?}",
            self.name,
            run.steps,
            catchup.iter().map(|c| c.0).collect::<Vec<_>>()
        );
        Ok(out)
    }
}
