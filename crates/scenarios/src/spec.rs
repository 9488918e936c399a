//! The scenario descriptor: plain data identifying one execution exactly.
//!
//! A [`Scenario`] is the unit the matrix sweeps over and the tuple a failure
//! report prints. Everything in it is `Clone + PartialEq + Debug` data —
//! no closures, no trait objects — so two equal descriptors always produce
//! bit-for-bit identical executions.

use asym_quorum::topology::TopologySpec;
use asym_quorum::ProcessSet;
use asym_sim::{Adversary, FaultMode};

use crate::byzantine::ByzAttack;

/// One process's assigned misbehaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Never starts: sends nothing, receives nothing.
    Crash,
    /// Behaves correctly until it has processed `k` deliveries, then dies.
    CrashAfter(u64),
    /// Receives everything but all its sends vanish (send-omission).
    Mute,
    /// Crashes after `crash_at` deliveries, then restarts at global step
    /// `recover_at` (or at quiescence, whichever comes first) and rebuilds
    /// itself from its write-ahead log — the crash-*recovery* axis. The
    /// runner attaches an in-memory WAL to the process automatically.
    Restart {
        /// Deliveries the process handles before crashing.
        crash_at: u64,
        /// Global delivery step at which it restarts from its log.
        recover_at: u64,
    },
    /// Runs a protocol-level attack instead of the honest state machine.
    Byzantine(ByzAttack),
    /// A Byzantine process that also crashes and restarts: it mounts its
    /// attack at start, goes silent after `crash_at` deliveries, and is
    /// revived at `recover_at` — where it mounts the attack's
    /// *recovery-time* lies (equivocating re-SENDs, false CONFIRM
    /// re-announcements, forged catch-up state) instead of an honest
    /// WAL replay. No write-ahead log is attached: an attacker needs no
    /// honest storage.
    ByzantineRestart {
        /// The mounted attack (start-time and recovery-time halves).
        attack: ByzAttack,
        /// Deliveries the attacker handles before crashing.
        crash_at: u64,
        /// Global delivery step at which it restarts (lying).
        recover_at: u64,
    },
}

impl Fault {
    /// The network-layer fault mode realizing this fault. Byzantine
    /// deviation is protocol-level, so its network mode is `Correct`.
    pub fn network_mode(&self) -> FaultMode {
        match self {
            Fault::Crash => FaultMode::CrashedFromStart,
            Fault::CrashAfter(k) => FaultMode::CrashAfter(*k),
            Fault::Mute => FaultMode::Mute,
            Fault::Restart { crash_at, recover_at }
            | Fault::ByzantineRestart { crash_at, recover_at, .. } => {
                FaultMode::RestartAfter { crash_at: *crash_at, recover_at: *recover_at }
            }
            Fault::Byzantine(_) => FaultMode::Correct,
        }
    }
}

impl core::fmt::Display for Fault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Fault::Crash => write!(f, "crash"),
            Fault::CrashAfter(k) => write!(f, "crash-after-{k}"),
            Fault::Mute => write!(f, "mute"),
            Fault::Restart { crash_at, recover_at } => {
                write!(f, "restart({crash_at}..{recover_at})")
            }
            Fault::Byzantine(a) => write!(f, "byz-{a}"),
            Fault::ByzantineRestart { attack, crash_at, recover_at } => {
                write!(f, "byz-restart-{attack}({crash_at}..{recover_at})")
            }
        }
    }
}

/// A named assignment of faults to process indices.
///
/// Plans are data; the runner lowers crash/omission faults to the network
/// layer ([`FaultMode`]) and Byzantine assignments to [`crate::Party`]
/// protocol instances.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    assignments: Vec<(usize, Fault)>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit `(process index, fault)` assignments.
    ///
    /// # Panics
    ///
    /// Panics if an index is assigned twice.
    pub fn new<I: IntoIterator<Item = (usize, Fault)>>(assignments: I) -> Self {
        let mut assignments: Vec<(usize, Fault)> = assignments.into_iter().collect();
        assignments.sort_by_key(|(i, _)| *i);
        for w in assignments.windows(2) {
            assert!(w[0].0 != w[1].0, "process {} assigned two faults", w[0].0);
        }
        FaultPlan { assignments }
    }

    /// Crashes the given processes from the start.
    pub fn crash_from_start<I: IntoIterator<Item = usize>>(ids: I) -> Self {
        FaultPlan::new(ids.into_iter().map(|i| (i, Fault::Crash)))
    }

    /// Adds one more assignment (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the index already has a fault.
    pub fn with(self, index: usize, fault: Fault) -> Self {
        let mut assignments = self.assignments;
        assignments.push((index, fault));
        FaultPlan::new(assignments)
    }

    /// The `(index, fault)` assignments, sorted by index.
    pub fn assignments(&self) -> &[(usize, Fault)] {
        &self.assignments
    }

    /// Every process with any fault assigned — the set guild computations
    /// take as "faulty" (a process that ever deviates or dies is faulty).
    pub fn faulty_set(&self) -> ProcessSet {
        self.assignments.iter().map(|(i, _)| *i).collect()
    }

    /// The Byzantine assignments — including attackers that restart
    /// ([`Fault::ByzantineRestart`]); both run an attacker state machine.
    pub fn byzantine(&self) -> impl Iterator<Item = (usize, ByzAttack)> + '_ {
        self.assignments.iter().filter_map(|(i, f)| match f {
            Fault::Byzantine(a) | Fault::ByzantineRestart { attack: a, .. } => Some((*i, *a)),
            _ => None,
        })
    }

    /// The *honest* crash-restart assignments only — the processes the
    /// runner equips with a write-ahead log. Byzantine restarts are not
    /// included: an attacker "recovers" by lying, not by replaying.
    pub fn restarts(&self) -> impl Iterator<Item = usize> + '_ {
        self.assignments.iter().filter_map(|(i, f)| match f {
            Fault::Restart { .. } => Some(*i),
            _ => None,
        })
    }

    /// The Byzantine-restart assignments (attackers that crash and revive
    /// mid-run to lie during their own recovery).
    pub fn byz_restarts(&self) -> impl Iterator<Item = (usize, ByzAttack)> + '_ {
        self.assignments.iter().filter_map(|(i, f)| match f {
            Fault::ByzantineRestart { attack, .. } => Some((*i, *attack)),
            _ => None,
        })
    }

    /// Largest assigned index (`None` for the fault-free plan). The matrix
    /// uses it to skip plans that do not fit a topology.
    pub fn max_index(&self) -> Option<usize> {
        self.assignments.last().map(|(i, _)| *i)
    }
}

impl core::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.assignments.is_empty() {
            return write!(f, "fault-free");
        }
        for (k, (i, fault)) in self.assignments.iter().enumerate() {
            if k > 0 {
                write!(f, "+")?;
            }
            write!(f, "{fault}(p{i})")?;
        }
        Ok(())
    }
}

/// Where a restart-faulted process's write-ahead log physically lives —
/// the storage axis of a scenario. Powerloss variants wrap the backend in
/// [`asym_storage::FaultyStorage`]: the crash deterministically tears the
/// final append, drops an unsynced suffix (respecting the process's fsync
/// barriers) or reverts/reorders the latest snapshot rename, and recovery
/// must still replay a consistent prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageSpec {
    /// Deterministic in-memory storage — the simulator default.
    Mem,
    /// Real `std::fs` files (`wal.log` + `snapshot.bin`) in a per-run
    /// temporary directory the runner creates and removes.
    File,
    /// In-memory storage behind the powerloss injector; `seed` drives the
    /// damage (decorrelated per process).
    PowerlossMem {
        /// Damage seed.
        seed: u64,
    },
    /// File-backed storage behind the powerloss injector.
    PowerlossFile {
        /// Damage seed.
        seed: u64,
    },
}

impl StorageSpec {
    /// Stable family name for sweep tables.
    pub fn name(&self) -> &'static str {
        match self {
            StorageSpec::Mem => "mem",
            StorageSpec::File => "file",
            StorageSpec::PowerlossMem { .. } => "powerloss-mem",
            StorageSpec::PowerlossFile { .. } => "powerloss-file",
        }
    }

    /// `true` if this spec injects powerloss damage at the crash.
    pub fn is_powerloss(&self) -> bool {
        matches!(self, StorageSpec::PowerlossMem { .. } | StorageSpec::PowerlossFile { .. })
    }

    /// `true` if this spec is backed by real files.
    pub fn is_file(&self) -> bool {
        matches!(self, StorageSpec::File | StorageSpec::PowerlossFile { .. })
    }
}

impl core::fmt::Display for StorageSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageSpec::Mem => write!(f, "mem"),
            StorageSpec::File => write!(f, "file"),
            StorageSpec::PowerlossMem { seed } => write!(f, "powerloss-mem(seed={seed})"),
            StorageSpec::PowerlossFile { seed } => write!(f, "powerloss-file(seed={seed})"),
        }
    }
}

/// Which consensus protocol the honest processes of a scenario run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Asymmetric DAG-Rider (Algorithms 4–6) over the topology's quorums.
    AsymDagRider,
    /// The symmetric DAG-Rider baseline (Keidar et al.) with `n − f`
    /// thresholds. It needs a threshold `f`, so it runs only on
    /// [`TopologySpec::UniformThreshold`], and it has no write-ahead log, so
    /// it runs no restart fault and no all-pruned cell.
    DagRider,
}

impl core::fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolSpec::AsymDagRider => write!(f, "asym-dag-rider"),
            ProtocolSpec::DagRider => write!(f, "dag-rider"),
        }
    }
}

/// A delivery-adversary family; the scenario seed supplies its randomness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Send-order delivery.
    Fifo,
    /// Seeded uniformly random delivery order.
    Random,
    /// Per-message random latency in `min..=max` simulated time units.
    RandomLatency {
        /// Minimum per-message latency.
        min: u64,
        /// Maximum per-message latency.
        max: u64,
    },
    /// Messages to/from the victims are starved as long as possible.
    TargetedDelay {
        /// Victim process indices.
        victims: Vec<usize>,
    },
    /// Messages to/from the victims are starved **forever** (the
    /// Appendix-A starvation shape): the run quiesces with victim traffic
    /// still in flight, and the runner then flushes it FIFO
    /// ([`asym_sim::Simulation::flush_starved`] — "the delayed messages
    /// eventually arrive") before the checker suite applies.
    Starve {
        /// Victim process indices.
        victims: Vec<usize>,
    },
    /// Cross-group messages blocked until `heal_at` delivery steps.
    Partition {
        /// The isolated groups (process indices).
        groups: Vec<Vec<usize>>,
        /// Step at which the partition heals.
        heal_at: u64,
    },
}

impl SchedulerSpec {
    /// Instantiates the described adversary with the scenario seed.
    pub fn adversary(&self, seed: u64) -> Adversary {
        match self {
            SchedulerSpec::Fifo => Adversary::Fifo,
            SchedulerSpec::Random => Adversary::Random(seed),
            SchedulerSpec::RandomLatency { min, max } => {
                Adversary::Latency { seed, min: *min, max: *max }
            }
            SchedulerSpec::TargetedDelay { victims } => {
                Adversary::TargetedDelay(victims.iter().copied().collect())
            }
            SchedulerSpec::Starve { victims } => {
                Adversary::Starve(victims.iter().copied().collect())
            }
            SchedulerSpec::Partition { groups, heal_at } => Adversary::Partition {
                groups: groups.iter().map(|g| g.iter().copied().collect()).collect(),
                heal_at: *heal_at,
            },
        }
    }

    /// Stable family name for sweep tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::Fifo => "fifo",
            SchedulerSpec::Random => "random",
            SchedulerSpec::RandomLatency { .. } => "latency",
            SchedulerSpec::TargetedDelay { .. } => "targeted-delay",
            SchedulerSpec::Starve { .. } => "starve",
            SchedulerSpec::Partition { .. } => "partition",
        }
    }

    /// `true` if this adversary deliberately never quiesces on its own, so
    /// the runner must deliver the starved remainder
    /// ([`asym_sim::Simulation::flush_starved`]) before liveness checkers
    /// are meaningful.
    pub fn needs_flush(&self) -> bool {
        matches!(self, SchedulerSpec::Starve { .. })
    }
}

impl core::fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SchedulerSpec::Fifo => write!(f, "fifo"),
            SchedulerSpec::Random => write!(f, "random"),
            SchedulerSpec::RandomLatency { min, max } => write!(f, "latency({min}..={max})"),
            SchedulerSpec::TargetedDelay { victims } => {
                write!(f, "targeted-delay({victims:?})")
            }
            SchedulerSpec::Starve { victims } => write!(f, "starve({victims:?})"),
            SchedulerSpec::Partition { groups, heal_at } => {
                write!(f, "partition({groups:?},heal={heal_at})")
            }
        }
    }
}

/// One fully-specified execution: the matrix cell and the reproduction
/// tuple. Equal scenarios run to identical outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The trust-topology family and its parameters.
    pub topology: TopologySpec,
    /// Who misbehaves, and how.
    pub faults: FaultPlan,
    /// The delivery adversary family.
    pub scheduler: SchedulerSpec,
    /// Seed feeding the scheduler (and, decorrelated, the common coin).
    pub seed: u64,
    /// Wave budget per process.
    pub waves: u64,
    /// Blocks each non-crashed, non-Byzantine process injects.
    pub blocks_per_process: usize,
    /// Transactions per injected block.
    pub txs_per_block: usize,
    /// Delivery-step budget.
    pub max_steps: u64,
    /// Snapshot cadence of restart-faulted processes' write-ahead logs
    /// (`0` = never snapshot; replay then folds the entire log).
    pub snapshot_every: usize,
    /// Storage backend of restart-faulted processes' write-ahead logs.
    pub storage: StorageSpec,
    /// Garbage-collect delivered prefixes at snapshot time (WAL pruning).
    pub prune_wal: bool,
    /// Equip **every** honest process with a write-ahead log (not only the
    /// restart-faulted ones) — the *all-pruned* axis: combined with
    /// `prune_wal`, every peer garbage-collects its delivered prefix, so a
    /// deep laggard can only recover through delivered-state transfer
    /// (no peer retains the full DAG to serve a plain `FetchReply`).
    pub wal_everywhere: bool,
    /// The protocol the honest processes run (asymmetric DAG-Rider unless
    /// set otherwise).
    pub protocol: ProtocolSpec,
}

impl Scenario {
    /// A scenario with the default workload (6 waves, 1 block of 2 txs per
    /// process, 500M-step budget) and the default persistence axis
    /// (in-memory WAL, snapshot every 64 records, pruning on).
    pub fn new(
        topology: TopologySpec,
        faults: FaultPlan,
        scheduler: SchedulerSpec,
        seed: u64,
    ) -> Self {
        Scenario {
            topology,
            faults,
            scheduler,
            seed,
            waves: 6,
            blocks_per_process: 1,
            txs_per_block: 2,
            max_steps: 500_000_000,
            snapshot_every: 64,
            storage: StorageSpec::Mem,
            prune_wal: true,
            wal_everywhere: false,
            protocol: ProtocolSpec::AsymDagRider,
        }
    }

    /// Overrides the wave budget (builder-style).
    pub fn waves(mut self, waves: u64) -> Self {
        self.waves = waves;
        self
    }

    /// Overrides the blocks injected per process (builder-style).
    pub fn blocks_per_process(mut self, blocks: usize) -> Self {
        self.blocks_per_process = blocks;
        self
    }

    /// Overrides the transactions per block (builder-style).
    pub fn txs_per_block(mut self, txs: usize) -> Self {
        self.txs_per_block = txs;
        self
    }

    /// Overrides the delivery-step budget (builder-style).
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Overrides the WAL snapshot cadence (builder-style; `0` = never).
    pub fn snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Overrides the WAL storage backend (builder-style).
    pub fn storage(mut self, storage: StorageSpec) -> Self {
        self.storage = storage;
        self
    }

    /// Enables or disables WAL pruning (builder-style).
    pub fn prune_wal(mut self, prune: bool) -> Self {
        self.prune_wal = prune;
        self
    }

    /// Equips every honest process with a write-ahead log — the all-pruned
    /// axis (builder-style).
    pub fn wal_everywhere(mut self, everywhere: bool) -> Self {
        self.wal_everywhere = everywhere;
        self
    }

    /// Selects the protocol the honest processes run (builder-style).
    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.protocol = protocol;
        self
    }

    /// The shared coin seed: derived from the scenario seed but decorrelated
    /// from the scheduler's RNG stream.
    pub fn coin_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_C01D
    }

    /// The human-readable `(topology, fault plan, scheduler, seed)` cell
    /// label printed by sweep tables and failure reports. Cells with a
    /// write-ahead log (any restart fault) also name the persistence axis,
    /// and baseline cells name their protocol.
    pub fn cell(&self) -> String {
        let mut cell = format!(
            "(topology={}, faults={}, scheduler={}, seed={})",
            self.topology, self.faults, self.scheduler, self.seed
        );
        if self.faults.restarts().next().is_some() || self.wal_everywhere {
            cell.push_str(&format!(
                " wal=({}, every={}, prune={}{})",
                self.storage,
                self.snapshot_every,
                self.prune_wal,
                if self.wal_everywhere { ", everywhere" } else { "" }
            ));
        }
        if self.protocol != ProtocolSpec::AsymDagRider {
            cell.push_str(&format!(" protocol={}", self.protocol));
        }
        cell
    }

    /// A copy-pasteable reproduction of this scenario: a constructor
    /// expression that compiles verbatim under
    /// `use asym_scenarios::{ByzAttack, Fault, FaultPlan, ProtocolSpec, Scenario, SchedulerSpec, StorageSpec, TopologySpec};`
    /// and rebuilds an equal `Scenario`. The protocol is named only when it
    /// is not the default.
    pub fn repro(&self) -> String {
        let faults = if self.faults.assignments().is_empty() {
            "FaultPlan::none()".to_string()
        } else {
            let items: Vec<String> = self
                .faults
                .assignments()
                .iter()
                .map(|(i, f)| {
                    let fault = match f {
                        Fault::Crash => "Fault::Crash".to_string(),
                        Fault::CrashAfter(k) => format!("Fault::CrashAfter({k})"),
                        Fault::Mute => "Fault::Mute".to_string(),
                        Fault::Restart { crash_at, recover_at } => format!(
                            "Fault::Restart {{ crash_at: {crash_at}, recover_at: {recover_at} }}"
                        ),
                        Fault::Byzantine(a) => format!("Fault::Byzantine(ByzAttack::{a:?})"),
                        Fault::ByzantineRestart { attack, crash_at, recover_at } => format!(
                            "Fault::ByzantineRestart {{ attack: ByzAttack::{attack:?}, \
                             crash_at: {crash_at}, recover_at: {recover_at} }}"
                        ),
                    };
                    format!("({i}, {fault})")
                })
                .collect();
            format!("FaultPlan::new([{}])", items.join(", "))
        };
        let scheduler = match &self.scheduler {
            SchedulerSpec::Fifo => "SchedulerSpec::Fifo".to_string(),
            SchedulerSpec::Random => "SchedulerSpec::Random".to_string(),
            SchedulerSpec::RandomLatency { min, max } => {
                format!("SchedulerSpec::RandomLatency {{ min: {min}, max: {max} }}")
            }
            SchedulerSpec::TargetedDelay { victims } => {
                format!("SchedulerSpec::TargetedDelay {{ victims: vec!{victims:?} }}")
            }
            SchedulerSpec::Starve { victims } => {
                format!("SchedulerSpec::Starve {{ victims: vec!{victims:?} }}")
            }
            SchedulerSpec::Partition { groups, heal_at } => {
                let groups: Vec<String> = groups.iter().map(|g| format!("vec!{g:?}")).collect();
                format!(
                    "SchedulerSpec::Partition {{ groups: vec![{}], heal_at: {heal_at} }}",
                    groups.join(", ")
                )
            }
        };
        let protocol = if self.protocol == ProtocolSpec::AsymDagRider {
            String::new()
        } else {
            format!(".protocol(ProtocolSpec::{:?})", self.protocol)
        };
        format!(
            "Scenario::new(TopologySpec::{:?}, {faults}, {scheduler}, {}).waves({})\
             .blocks_per_process({}).txs_per_block({}).max_steps({}).snapshot_every({})\
             .storage(StorageSpec::{:?}).prune_wal({}).wal_everywhere({}){protocol}",
            self.topology,
            self.seed,
            self.waves,
            self.blocks_per_process,
            self.txs_per_block,
            self.max_steps,
            self.snapshot_every,
            self.storage,
            self.prune_wal,
            self.wal_everywhere
        )
    }
}

impl core::fmt::Display for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.cell())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_sorts_and_reports() {
        let plan = FaultPlan::new([(3, Fault::Mute), (1, Fault::Crash)]);
        assert_eq!(plan.assignments()[0], (1, Fault::Crash));
        assert_eq!(plan.max_index(), Some(3));
        assert_eq!(plan.faulty_set(), ProcessSet::from_indices([1, 3]));
        assert_eq!(plan.to_string(), "crash(p1)+mute(p3)");
        assert_eq!(FaultPlan::none().to_string(), "fault-free");
    }

    #[test]
    #[should_panic(expected = "two faults")]
    fn duplicate_assignment_rejected() {
        FaultPlan::new([(1, Fault::Crash), (1, Fault::Mute)]);
    }

    #[test]
    fn byzantine_assignments_are_network_correct() {
        let plan = FaultPlan::none().with(2, Fault::Byzantine(ByzAttack::EquivocateVertices));
        assert_eq!(plan.assignments()[0].1.network_mode(), FaultMode::Correct);
        assert_eq!(plan.byzantine().count(), 1);
        assert_eq!(plan.faulty_set(), ProcessSet::from_indices([2]));
    }

    #[test]
    fn restart_fault_lowers_to_restart_after_and_reproduces() {
        let plan = FaultPlan::none().with(2, Fault::Restart { crash_at: 150, recover_at: 900 });
        assert_eq!(
            plan.assignments()[0].1.network_mode(),
            FaultMode::RestartAfter { crash_at: 150, recover_at: 900 }
        );
        assert_eq!(plan.restarts().collect::<Vec<_>>(), vec![2]);
        assert_eq!(plan.to_string(), "restart(150..900)(p2)");
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            plan,
            SchedulerSpec::Fifo,
            1,
        );
        assert!(
            s.repro().contains("Fault::Restart { crash_at: 150, recover_at: 900 }"),
            "{}",
            s.repro()
        );
    }

    #[test]
    fn byzantine_restart_fault_is_both_byzantine_and_restarting() {
        let plan = FaultPlan::none().with(
            3,
            Fault::ByzantineRestart {
                attack: ByzAttack::EquivocateVertices,
                crash_at: 100,
                recover_at: 800,
            },
        );
        assert_eq!(
            plan.assignments()[0].1.network_mode(),
            FaultMode::RestartAfter { crash_at: 100, recover_at: 800 }
        );
        assert_eq!(plan.byzantine().count(), 1, "an attacker even while restarting");
        assert_eq!(plan.restarts().count(), 0, "no WAL for attackers");
        assert_eq!(
            plan.byz_restarts().collect::<Vec<_>>(),
            vec![(3, ByzAttack::EquivocateVertices)]
        );
        assert_eq!(plan.to_string(), "byz-restart-equivocate(100..800)(p3)");
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            plan,
            SchedulerSpec::Fifo,
            1,
        );
        assert!(s.repro().contains(
            "Fault::ByzantineRestart { attack: ByzAttack::EquivocateVertices, crash_at: 100, \
             recover_at: 800 }"
        ));
    }

    #[test]
    fn starve_scheduler_needs_flush_and_reproduces() {
        let spec = SchedulerSpec::Starve { victims: vec![1, 2] };
        assert!(spec.needs_flush());
        assert!(!SchedulerSpec::Random.needs_flush());
        assert!(!SchedulerSpec::TargetedDelay { victims: vec![1] }.needs_flush());
        assert_eq!(spec.name(), "starve");
        assert_eq!(
            spec.adversary(4),
            Adversary::Starve(asym_quorum::ProcessSet::from_indices([1, 2]))
        );
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            spec,
            4,
        );
        assert!(s.repro().contains("SchedulerSpec::Starve { victims: vec![1, 2] }"));
    }

    #[test]
    fn restart_cells_name_the_persistence_axis() {
        let plain = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Fifo,
            1,
        );
        assert!(!plain.cell().contains("wal="), "no WAL, no axis: {}", plain.cell());
        let restart = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 10, recover_at: 90 }),
            SchedulerSpec::Fifo,
            1,
        )
        .storage(StorageSpec::PowerlossMem { seed: 3 })
        .snapshot_every(8);
        let cell = restart.cell();
        for needle in ["wal=(powerloss-mem(seed=3)", "every=8", "prune=true"] {
            assert!(cell.contains(needle), "{cell} missing {needle}");
        }
        assert!(!cell.contains("everywhere"), "{cell}");
        // The all-pruned axis names itself even without a restart fault.
        let all = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Fifo,
            1,
        )
        .wal_everywhere(true);
        assert!(all.cell().contains("everywhere"), "{}", all.cell());
    }

    #[test]
    fn scheduler_spec_builds_seeded_adversary() {
        assert_eq!(SchedulerSpec::Random.adversary(9), Adversary::Random(9));
        assert_eq!(
            SchedulerSpec::RandomLatency { min: 1, max: 5 }.adversary(3),
            Adversary::Latency { seed: 3, min: 1, max: 5 }
        );
        assert_eq!(SchedulerSpec::Fifo.adversary(9), Adversary::Fifo);
    }

    #[test]
    fn cell_names_every_axis() {
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::crash_from_start([3]),
            SchedulerSpec::Random,
            42,
        );
        let cell = s.cell();
        for needle in ["threshold(n=4,f=1)", "crash(p3)", "random", "seed=42"] {
            assert!(cell.contains(needle), "{cell} missing {needle}");
        }
        assert!(s.repro().contains("UniformThreshold"));
        // Only a baseline cell names its protocol, so every existing label
        // and repro string stays as it was.
        assert!(!cell.contains("protocol") && !s.repro().contains("protocol"), "{cell}");
        let baseline = s.protocol(ProtocolSpec::DagRider);
        assert!(baseline.cell().ends_with(" protocol=dag-rider"), "{}", baseline.cell());
    }

    #[test]
    fn repro_string_is_a_compiling_constructor_expression() {
        let scenario = Scenario::new(
            TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
            FaultPlan::new([(2, Fault::Mute), (5, Fault::Byzantine(ByzAttack::ConfirmFlood))]),
            SchedulerSpec::TargetedDelay { victims: vec![0, 1] },
            13,
        )
        .waves(5);
        // The exact expression repro() prints, compiled — if repro() drifts
        // from constructible syntax, the strings below stop matching.
        let rebuilt = Scenario::new(
            TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
            FaultPlan::new([(2, Fault::Mute), (5, Fault::Byzantine(ByzAttack::ConfirmFlood))]),
            SchedulerSpec::TargetedDelay { victims: vec![0, 1] },
            13,
        )
        .waves(5)
        .blocks_per_process(1)
        .txs_per_block(2)
        .max_steps(500000000)
        .snapshot_every(64)
        .storage(StorageSpec::Mem)
        .prune_wal(true)
        .wal_everywhere(false);
        assert_eq!(rebuilt, scenario);
        assert_eq!(
            scenario.repro(),
            "Scenario::new(TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 }, \
             FaultPlan::new([(2, Fault::Mute), (5, Fault::Byzantine(ByzAttack::ConfirmFlood))]), \
             SchedulerSpec::TargetedDelay { victims: vec![0, 1] }, 13).waves(5)\
             .blocks_per_process(1).txs_per_block(2).max_steps(500000000).snapshot_every(64)\
             .storage(StorageSpec::Mem).prune_wal(true).wal_everywhere(false)"
        );
        assert_eq!(
            Scenario::new(
                TopologySpec::UniformThreshold { n: 4, f: 1 },
                FaultPlan::none(),
                SchedulerSpec::Random,
                7,
            )
            .storage(StorageSpec::PowerlossFile { seed: 9 })
            .snapshot_every(0)
            .prune_wal(false)
            .wal_everywhere(true)
            .repro(),
            "Scenario::new(TopologySpec::UniformThreshold { n: 4, f: 1 }, FaultPlan::none(), \
             SchedulerSpec::Random, 7).waves(6).blocks_per_process(1).txs_per_block(2)\
             .max_steps(500000000).snapshot_every(0)\
             .storage(StorageSpec::PowerlossFile { seed: 9 }).prune_wal(false)\
             .wal_everywhere(true)"
        );
        // A baseline cell, the Figure-1 system and the mixed-threshold
        // family, each rebuilt from the printed expression.
        let baseline = Scenario::new(
            TopologySpec::UniformThreshold { n: 7, f: 2 },
            FaultPlan::crash_from_start([6]),
            SchedulerSpec::Fifo,
            3,
        )
        .protocol(ProtocolSpec::DagRider);
        assert_eq!(
            baseline.repro(),
            "Scenario::new(TopologySpec::UniformThreshold { n: 7, f: 2 }, \
             FaultPlan::new([(6, Fault::Crash)]), SchedulerSpec::Fifo, 3).waves(6)\
             .blocks_per_process(1).txs_per_block(2).max_steps(500000000).snapshot_every(64)\
             .storage(StorageSpec::Mem).prune_wal(true).wal_everywhere(false)\
             .protocol(ProtocolSpec::DagRider)"
        );
        assert_eq!(
            Scenario::new(
                TopologySpec::UniformThreshold { n: 7, f: 2 },
                FaultPlan::new([(6, Fault::Crash)]),
                SchedulerSpec::Fifo,
                3,
            )
            .waves(6)
            .blocks_per_process(1)
            .txs_per_block(2)
            .max_steps(500000000)
            .snapshot_every(64)
            .storage(StorageSpec::Mem)
            .prune_wal(true)
            .wal_everywhere(false)
            .protocol(ProtocolSpec::DagRider),
            baseline
        );
        let figure1 =
            Scenario::new(TopologySpec::Figure1, FaultPlan::none(), SchedulerSpec::Random, 8)
                .waves(5);
        assert_eq!(
            figure1.repro(),
            "Scenario::new(TopologySpec::Figure1, FaultPlan::none(), SchedulerSpec::Random, 8)\
             .waves(5).blocks_per_process(1).txs_per_block(2).max_steps(500000000)\
             .snapshot_every(64).storage(StorageSpec::Mem).prune_wal(true).wal_everywhere(false)"
        );
        assert_eq!(
            Scenario::new(TopologySpec::Figure1, FaultPlan::none(), SchedulerSpec::Random, 8)
                .waves(5)
                .blocks_per_process(1)
                .txs_per_block(2)
                .max_steps(500000000)
                .snapshot_every(64)
                .storage(StorageSpec::Mem)
                .prune_wal(true)
                .wal_everywhere(false),
            figure1
        );
        let mixed = Scenario::new(
            TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 },
            FaultPlan::none(),
            SchedulerSpec::Random,
            3,
        );
        assert_eq!(
            mixed.repro(),
            "Scenario::new(TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 }, \
             FaultPlan::none(), SchedulerSpec::Random, 3).waves(6).blocks_per_process(1)\
             .txs_per_block(2).max_steps(500000000).snapshot_every(64)\
             .storage(StorageSpec::Mem).prune_wal(true).wal_everywhere(false)"
        );
        assert_eq!(
            Scenario::new(
                TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 },
                FaultPlan::none(),
                SchedulerSpec::Random,
                3,
            )
            .waves(6)
            .blocks_per_process(1)
            .txs_per_block(2)
            .max_steps(500000000)
            .snapshot_every(64)
            .storage(StorageSpec::Mem)
            .prune_wal(true)
            .wal_everywhere(false),
            mixed
        );
    }

    #[test]
    fn coin_seed_decorrelates_neighbouring_seeds() {
        let mk = |seed| {
            Scenario::new(
                TopologySpec::UniformThreshold { n: 4, f: 1 },
                FaultPlan::none(),
                SchedulerSpec::Random,
                seed,
            )
        };
        assert_ne!(mk(1).coin_seed(), mk(2).coin_seed());
        assert_ne!(mk(1).coin_seed(), 1, "coin stream must differ from scheduler stream");
    }
}
