//! The scenario runner: descriptor in, fully-observed execution out.

use asym_core::{
    AsymDagRider, Block, DagLog, DagRider, OrderedVertex, RiderConfig, RiderMetrics, TransferStats,
    WaveCommitter,
};
use asym_dag::{DagStore, VertexId, WaveId};
use asym_quorum::topology::{Topology, TopologySpec};
use asym_quorum::{maximal_guild, ProcessId, ProcessSet};
use asym_sim::{NetStats, RunReport, Simulation};
use asym_storage::{PowerlossPlan, RecoveredState, StorageBackend, WalStats};

use crate::byzantine::{ByzProcess, Party};
use crate::pid;
use crate::spec::{Fault, ProtocolSpec, Scenario, StorageSpec};

/// Why a scenario could not be executed (as opposed to failing a check).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The topology spec found no valid system (random families only).
    TopologyUnavailable(TopologySpec),
    /// A fault was assigned to a process outside `0..n`.
    FaultIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// System size.
        n: usize,
    },
    /// The symmetric DAG-Rider baseline cannot run this cell: it needs a
    /// [`TopologySpec::UniformThreshold`] with `n > 3f`, and it has no
    /// write-ahead log for a restart fault or the all-pruned axis.
    BaselineUnsupported(&'static str),
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::TopologyUnavailable(spec) => {
                write!(f, "no valid topology for {spec} within the attempt budget")
            }
            ScenarioError::FaultIndexOutOfRange { index, n } => {
                write!(f, "fault assigned to p{index} but the topology has n={n}")
            }
            ScenarioError::BaselineUnsupported(reason) => {
                write!(f, "the DAG-Rider baseline cannot run this cell: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Everything one execution observably produced — the input to every
/// invariant checker.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The descriptor that produced this outcome.
    pub scenario: Scenario,
    /// The built topology.
    pub topology: Topology,
    /// `true` if the run ended in quiescence (vs. budget exhaustion).
    pub quiescent: bool,
    /// Delivery steps executed.
    pub steps: u64,
    /// Final simulated clock.
    pub time: u64,
    /// Network counters.
    pub net: NetStats,
    /// Atomic-broadcast outputs per process, in delivery order.
    pub outputs: Vec<Vec<OrderedVertex>>,
    /// Per-process commit logs (`(wave, leader)` pairs; empty for Byzantine).
    pub commit_logs: Vec<Vec<(WaveId, VertexId)>>,
    /// Wave-commitment state snapshots — decided wave, delivered-vertex set,
    /// log — audited by the `delivery_bookkeeping` checker (`None` for
    /// Byzantine processes).
    pub committers: Vec<Option<WaveCommitter>>,
    /// Local DAG snapshots (`None` for Byzantine processes).
    pub dags: Vec<Option<DagStore<Block>>>,
    /// Protocol counters (default for Byzantine processes).
    pub metrics: Vec<RiderMetrics>,
    /// For every WAL-equipped (restart-faulted) process: the state its
    /// final write-ahead log replays to — what the `wal_state_equivalence`
    /// checker compares against the live snapshots — or the storage error
    /// as a string. `None` for processes without storage.
    pub wal_replays: Vec<Option<Result<RecoveredState<Block>, String>>>,
    /// WAL activity counters for WAL-equipped processes.
    pub wal_stats: Vec<Option<WalStats>>,
    /// Per-snapshot blob sizes (in install order) for WAL-equipped
    /// processes — the `exp_recovery` observable proving pruning keeps the
    /// sequence bounded (sawtooth) instead of monotonically growing.
    pub wal_snapshot_sizes: Vec<Option<Vec<u64>>>,
    /// Whether each process actually executed its recovery path (rebuilt
    /// itself from its log).
    pub recovered: Vec<bool>,
    /// Per-process delivered-state-transfer counters (`None` for Byzantine
    /// processes): offers seen, requests sent, segments received/rejected,
    /// waves and deliveries installed — how the `state_transfer_consistency`
    /// checker and the tier-1 cells prove a deep laggard recovered through
    /// the transfer path.
    pub transfers: Vec<Option<TransferStats>>,
    /// Whether the engine fired a restart for each process — `false` for a
    /// [`Fault::Restart`] process whose crash window never opened (the run
    /// ended before `crash_at` deliveries), in which case the fault was
    /// vacuous and `recovered` is legitimately `false` too.
    pub restart_fired: Vec<bool>,
    /// Blocks injected per process, in injection order.
    pub injected: Vec<Vec<Block>>,
    /// Processes running the honest protocol (everyone but Byzantine —
    /// includes crash/mute processes, whose local state is still honest).
    pub honest: ProcessSet,
    /// Processes with no fault at all.
    pub correct: ProcessSet,
    /// The maximal guild of the fault plan's faulty set, if any.
    pub guild: Option<ProcessSet>,
}

impl ScenarioOutcome {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.outputs.len()
    }

    /// Transactions delivered by a process, in order.
    pub fn delivered_txs(&self, p: ProcessId) -> Vec<u64> {
        self.outputs[p.index()].iter().flat_map(|o| o.block.txs.iter().copied()).collect()
    }

    /// The longest commit log across honest processes.
    pub fn max_commits(&self) -> usize {
        self.honest.iter().map(|p| self.commit_logs[p.index()].len()).max().unwrap_or(0)
    }

    /// Indices of the processes assigned a [`Fault::Restart`].
    pub fn restarted(&self) -> Vec<usize> {
        self.scenario.faults.restarts().collect()
    }

    /// Transactions ordered by the best-progressed process.
    pub fn max_txs_ordered(&self) -> u64 {
        self.metrics.iter().map(|m| m.txs_ordered).max().unwrap_or(0)
    }

    /// Wave boundaries per direct commit, summed over every process that
    /// attempted a wave — the Lemma 4.4 observable, bounded in expectation
    /// by `|P| / c(Q)`. `None` if nothing committed.
    pub fn waves_per_commit(&self) -> Option<f64> {
        let (attempted, committed) = self
            .metrics
            .iter()
            .fold((0, 0), |(a, c), m| (a + m.waves_attempted, c + m.waves_committed));
        (committed > 0).then(|| attempted as f64 / committed as f64)
    }
}

impl Scenario {
    /// Executes the scenario. Deterministic: equal scenarios yield equal
    /// outcomes.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::TopologyUnavailable`] if a random topology family
    /// finds no valid system; [`ScenarioError::FaultIndexOutOfRange`] if the
    /// fault plan targets a process the topology does not have;
    /// [`ScenarioError::BaselineUnsupported`] if the baseline protocol is
    /// asked to run a cell it cannot.
    pub fn try_run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        let topology =
            self.topology.build().ok_or(ScenarioError::TopologyUnavailable(self.topology))?;
        let n = topology.n();
        if let Some(max) = self.faults.max_index() {
            if max >= n {
                return Err(ScenarioError::FaultIndexOutOfRange { index: max, n });
            }
        }
        let baseline_f = match self.protocol {
            ProtocolSpec::AsymDagRider => None,
            ProtocolSpec::DagRider => Some(self.baseline_threshold()?),
        };

        let config = RiderConfig { max_waves: self.waves, prune_wal: self.prune_wal };
        let byz: Vec<Option<crate::ByzAttack>> = (0..n)
            .map(|i| self.faults.byzantine().find(|(b, _)| *b == i).map(|(_, a)| a))
            .collect();
        let restartable: Vec<bool> = {
            let mut r = vec![false; n];
            for i in self.faults.restarts() {
                r[i] = true;
            }
            r
        };
        // File-backed cells get a unique fresh directory per process per
        // run invocation (runs of the same cell may execute concurrently —
        // the determinism checker replays cells while the matrix pool is
        // still sweeping), removed once the outcome is harvested.
        let mut temp_dirs: Vec<std::path::PathBuf> = Vec::new();
        let procs: Vec<Party> = (0..n)
            .map(|i| match (byz[i], baseline_f) {
                (Some(attack), _) => {
                    Party::Byzantine(ByzProcess::new(pid(i), n, attack, self.coin_seed()))
                }
                (None, Some(f)) => {
                    Party::Baseline(DagRider::new(pid(i), n, f, self.coin_seed(), config))
                }
                (None, None) => {
                    let mut rider = AsymDagRider::new(
                        pid(i),
                        topology.quorums.clone(),
                        self.coin_seed(),
                        config,
                    );
                    if restartable[i] || self.wal_everywhere {
                        rider = rider.with_storage(
                            DagLog::new(self.wal_backend(i, &mut temp_dirs))
                                .with_snapshot_every(self.snapshot_every),
                        );
                    }
                    Party::Honest(rider)
                }
            })
            .collect();

        let mut sim = Simulation::new(procs, self.scheduler.adversary(self.seed).build())
            .with_faults(
                self.faults.assignments().iter().map(|(i, f)| (pid(*i), f.network_mode())),
            );

        // Globally unique transaction ids: block b of process i carries
        // txs (b·n + i)·txs_per_block + 1 ..= +txs_per_block.
        let mut injected: Vec<Vec<Block>> = vec![Vec::new(); n];
        for b in 0..self.blocks_per_process {
            for i in 0..n {
                let skip = byz[i].is_some()
                    || matches!(
                        self.faults.assignments().iter().find(|(p, _)| *p == i),
                        Some((_, Fault::Crash))
                    );
                if skip {
                    continue;
                }
                let base = ((b * n + i) * self.txs_per_block) as u64;
                let block = Block::new((1..=self.txs_per_block as u64).map(|t| base + t).collect());
                injected[i].push(block.clone());
                sim.input(pid(i), block);
            }
        }

        let mut report = sim.run(self.max_steps);
        if self.scheduler.needs_flush() {
            // A hard-starving adversary quiesces with victim traffic still
            // in flight; "the delayed messages eventually arrive" before
            // any liveness claim is audited.
            let flush = sim.flush_starved(self.max_steps.saturating_sub(report.steps));
            report = RunReport {
                steps: report.steps + flush.steps,
                quiescent: report.quiescent && flush.quiescent,
            };
        }

        // One path for every party: the consensus state both protocols
        // share, then what only an asymmetric rider has (WAL, recovery,
        // state transfer). Attackers report empty or `None` throughout.
        let parties: Vec<&Party> = (0..n).map(|i| sim.process(pid(i))).collect();
        let riders: Vec<Option<&AsymDagRider>> = parties.iter().map(|p| p.as_honest()).collect();
        let committers: Vec<Option<WaveCommitter>> =
            parties.iter().map(|p| p.committer().cloned()).collect();
        let commit_logs =
            committers.iter().map(|c| c.as_ref().map_or_else(Vec::new, |c| c.log().to_vec()));
        let logs: Vec<Option<&DagLog>> =
            riders.iter().map(|r| r.and_then(AsymDagRider::storage)).collect();
        let outcome = ScenarioOutcome {
            scenario: self.clone(),
            quiescent: report.quiescent,
            steps: report.steps,
            time: sim.now(),
            net: sim.stats(),
            outputs: (0..n).map(|i| sim.outputs(pid(i)).to_vec()).collect(),
            commit_logs: commit_logs.collect(),
            dags: parties.iter().map(|p| p.dag().cloned()).collect(),
            metrics: parties.iter().map(|p| p.metrics()).collect(),
            wal_replays: riders
                .iter()
                .map(|r| {
                    r.and_then(|r| r.replay_storage()).map(|res| res.map_err(|e| e.to_string()))
                })
                .collect(),
            wal_stats: logs.iter().map(|l| l.map(DagLog::stats)).collect(),
            wal_snapshot_sizes: logs
                .iter()
                .map(|l| l.map(|l| l.snapshot_sizes().to_vec()))
                .collect(),
            recovered: riders.iter().map(|r| r.is_some_and(AsymDagRider::has_recovered)).collect(),
            transfers: riders.iter().map(|r| r.map(AsymDagRider::transfer_stats)).collect(),
            committers,
            restart_fired: (0..n).map(|i| sim.was_recovered(pid(i))).collect(),
            injected,
            honest: (0..n).filter(|i| byz[*i].is_none()).collect(),
            correct: self.faults.faulty_set().complement(n),
            guild: maximal_guild(
                &topology.fail_prone,
                &topology.quorums,
                &self.faults.faulty_set(),
            ),
            topology,
        };

        for dir in temp_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(outcome)
    }

    /// The baseline's threshold `f`, or why the baseline cannot run here.
    fn baseline_threshold(&self) -> Result<usize, ScenarioError> {
        let TopologySpec::UniformThreshold { n, f } = self.topology else {
            return Err(ScenarioError::BaselineUnsupported(
                "it needs a uniform-threshold topology",
            ));
        };
        if n <= 3 * f {
            return Err(ScenarioError::BaselineUnsupported("it needs n > 3f"));
        }
        let restarts = self
            .faults
            .assignments()
            .iter()
            .any(|(_, f)| matches!(f, Fault::Restart { .. } | Fault::ByzantineRestart { .. }));
        if restarts || self.wal_everywhere {
            return Err(ScenarioError::BaselineUnsupported(
                "it has no write-ahead log to restart from",
            ));
        }
        Ok(f)
    }

    /// Executes the scenario, panicking with the reproduction tuple if it
    /// cannot be built.
    ///
    /// # Panics
    ///
    /// Panics on [`ScenarioError`] (unbuildable topology / bad fault index).
    pub fn run(&self) -> ScenarioOutcome {
        self.try_run().unwrap_or_else(|e| panic!("scenario {self} failed to build: {e}"))
    }

    /// Builds the WAL backend for restart process `i` per the scenario's
    /// [`StorageSpec`]: in-memory or a fresh temp-dir file store, optionally
    /// wrapped in the powerloss injector with a per-process damage seed
    /// respecting the process's fsync barriers.
    fn wal_backend(&self, i: usize, temp_dirs: &mut Vec<std::path::PathBuf>) -> StorageBackend {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let backend = if self.storage.is_file() {
            let dir = std::env::temp_dir().join(format!(
                "asym-scn-{}-{}-p{}",
                std::process::id(),
                NEXT_DIR.fetch_add(1, Ordering::Relaxed),
                i
            ));
            let _ = std::fs::remove_dir_all(&dir);
            temp_dirs.push(dir.clone());
            StorageBackend::file(&dir).expect("scenario temp dir must be writable")
        } else {
            StorageBackend::in_memory()
        };
        match self.storage {
            StorageSpec::PowerlossMem { seed } | StorageSpec::PowerlossFile { seed } => {
                // Decorrelate damage across processes sharing one cell.
                let mixed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                backend.with_powerloss(PowerlossPlan::fsync_barriers(mixed, pid(i)))
            }
            StorageSpec::Mem | StorageSpec::File => backend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultPlan, SchedulerSpec};
    use crate::ByzAttack;

    fn base() -> Scenario {
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Random,
            3,
        )
        .waves(4)
    }

    #[test]
    fn fault_free_run_commits_everywhere() {
        let out = base().run();
        assert!(out.quiescent);
        assert_eq!(out.n(), 4);
        assert_eq!(out.correct, ProcessSet::full(4));
        assert_eq!(out.guild, Some(ProcessSet::full(4)));
        for p in &out.correct {
            assert!(!out.outputs[p.index()].is_empty(), "{p} ordered nothing");
            assert!(!out.commit_logs[p.index()].is_empty());
            assert!(out.dags[p.index()].is_some());
        }
        // The injected workload is recorded with globally unique tx ids.
        let all: Vec<u64> =
            out.injected.iter().flatten().flat_map(|b| b.txs.iter().copied()).collect();
        let unique: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(all.len(), unique.len());
    }

    #[test]
    fn latency_scheduler_drives_the_simulated_clock() {
        // Without latency the clock counts delivery steps; with long
        // per-message latencies in a small system it runs ahead of them.
        let random = base().run();
        assert_eq!(random.time, random.steps);
        let mut latency = base().waves(3);
        latency.scheduler = SchedulerSpec::RandomLatency { min: 10, max: 100 };
        let latency = latency.run();
        assert!(latency.quiescent);
        assert!(latency.time > latency.steps, "{} vs {}", latency.time, latency.steps);
    }

    #[test]
    fn equal_scenarios_equal_outcomes() {
        let a = base().run();
        let b = base().run();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.commit_logs, b.commit_logs);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn byzantine_processes_have_no_dag_snapshot() {
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(3, crate::Fault::Byzantine(ByzAttack::ConfirmFlood)),
            SchedulerSpec::Random,
            1,
        )
        .waves(4);
        let out = s.run();
        assert!(out.dags[3].is_none());
        assert_eq!(out.honest, ProcessSet::from_indices([0, 1, 2]));
        assert_eq!(out.correct, ProcessSet::from_indices([0, 1, 2]));
        assert!(out.injected[3].is_empty(), "attackers inject no workload");
    }

    #[test]
    fn out_of_range_fault_is_reported() {
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::crash_from_start([7]),
            SchedulerSpec::Fifo,
            1,
        );
        assert_eq!(
            s.try_run().unwrap_err(),
            ScenarioError::FaultIndexOutOfRange { index: 7, n: 4 }
        );
    }

    #[test]
    fn unbuildable_random_topology_is_reported() {
        // Slices of size 2 with f=1 can never satisfy B3 for n ≥ 3.
        let spec = TopologySpec::RandomSlices { n: 6, slice: 2, f: 1, seed: 7 };
        let s = Scenario::new(spec, FaultPlan::none(), SchedulerSpec::Fifo, 1);
        assert_eq!(s.try_run().unwrap_err(), ScenarioError::TopologyUnavailable(spec));
    }

    #[test]
    fn baseline_refuses_cells_it_cannot_run() {
        let baseline = |topology, faults| {
            Scenario::new(topology, faults, SchedulerSpec::Fifo, 1)
                .waves(2)
                .protocol(ProtocolSpec::DagRider)
        };
        let unsupported = |s: Scenario| match s.try_run() {
            Err(ScenarioError::BaselineUnsupported(reason)) => reason,
            other => panic!("{s}: expected BaselineUnsupported, got {:?}", other.map(|o| o.steps)),
        };
        let ripple = TopologySpec::RippleUnl { n: 7, unl: 6, f: 1 };
        assert!(unsupported(baseline(ripple, FaultPlan::none())).contains("uniform-threshold"));
        let threshold = TopologySpec::UniformThreshold { n: 4, f: 1 };
        let restart = FaultPlan::none().with(1, Fault::Restart { crash_at: 50, recover_at: 500 });
        assert!(unsupported(baseline(threshold, restart)).contains("write-ahead log"));
        let byz_restart = FaultPlan::none().with(
            1,
            Fault::ByzantineRestart {
                attack: ByzAttack::ConfirmFlood,
                crash_at: 50,
                recover_at: 500,
            },
        );
        assert!(unsupported(baseline(threshold, byz_restart)).contains("write-ahead log"));
        let everywhere = baseline(threshold, FaultPlan::none()).wal_everywhere(true);
        assert!(unsupported(everywhere).contains("write-ahead log"));
        let unsound = TopologySpec::UniformThreshold { n: 6, f: 2 };
        assert!(unsupported(baseline(unsound, FaultPlan::none())).contains("n > 3f"));
        // The same cell runs once the protocol is the asymmetric one.
        assert!(baseline(ripple, FaultPlan::none())
            .protocol(ProtocolSpec::AsymDagRider)
            .try_run()
            .is_ok());
    }
}
