//! `checked_sweep`: the benchmark's own copy of the 336-cell smoke matrix
//! (its topologies, fault plans, schedulers, seeds and persistence axis as
//! they stood when the benchmark was written), each cell run through
//! `Scenario::try_run` and audited by every `checks::standard_checks()`
//! checker. The cells are pinned so that the oracle cannot drift; the
//! workload seed sets the order they run in, and with it which cells feed
//! commit latency.

use std::collections::HashSet;
use std::time::Instant;

use asym_core::{AsymDagRider, Block, DagLog, OrderedVertex, RiderConfig};
use asym_quorum::topology::Topology;
use asym_scenarios::checks::standard_checks;
use asym_scenarios::{
    ByzAttack, Fault, FaultPlan, Scenario, ScenarioOutcome, SchedulerSpec, StorageSpec,
    TopologySpec,
};
use asym_sim::{Protocol, Scheduler, Simulation};
use asym_storage::{PowerlossPlan, StorageBackend};

use crate::exec::{self, digest, pid, run_probed, Fingerprint, Layers, Sched};
use crate::meter::Meter;
use crate::probe::{Probe, TimedScheduler};
use crate::report::{median, peak_rss_mb, percentile, ratio, Metrics};
use crate::{derive_seed, Args, Outcome};

pub const NAME: &str = "checked_sweep";

/// Cells in one sweep; asserted, so the workload cannot drift silently.
const CELLS: usize = 336;

/// The standard checkers as they stand when the benchmark was written; each
/// gets its own per-layer metric.
const CHECKERS: [&str; 16] = [
    "quiescence",
    "prefix_consistency",
    "no_duplicates",
    "no_fabrication",
    "dag_no_fabrication",
    "cross_dag_consistency",
    "dag_well_formed",
    "commit_log_coin",
    "delivery_bookkeeping",
    "guild_liveness",
    "same_seed_determinism",
    "restart_no_double_delivery",
    "restart_prefix_consistency",
    "restart_liveness",
    "wal_state_equivalence",
    "state_transfer_consistency",
];

/// Byzantine-free cells probed in an untraced run, for commit latency (the
/// first in the run's cell order, so the sample depends on the seed).
const LATENCY_CELLS: usize = 96;

const TOPOLOGIES: [TopologySpec; 4] = [
    TopologySpec::UniformThreshold { n: 4, f: 1 },
    TopologySpec::RippleUnl { n: 7, unl: 6, f: 1 },
    TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
    TopologySpec::RandomSlices { n: 8, slice: 6, f: 1, seed: 11 },
];

fn restart(crash_at: u64, recover_at: u64) -> Fault {
    Fault::Restart { crash_at, recover_at }
}

/// Every cell, in matrix order.
pub fn cells() -> Vec<Scenario> {
    let seeds = [1, 2];
    let schedulers =
        [SchedulerSpec::Random, SchedulerSpec::Fifo, SchedulerSpec::Starve { victims: vec![0] }];
    let plans = [
        FaultPlan::none(),
        FaultPlan::crash_from_start([3]),
        FaultPlan::none().with(1, Fault::CrashAfter(150)),
        FaultPlan::none().with(2, Fault::Mute),
        FaultPlan::none().with(1, restart(120, 900)),
        FaultPlan::none().with(3, Fault::Byzantine(ByzAttack::EquivocateVertices)),
        FaultPlan::none()
            .with(1, restart(120, 900))
            .with(3, Fault::Byzantine(ByzAttack::ForgeFetchReplies)),
        FaultPlan::none().with(
            3,
            Fault::ByzantineRestart {
                attack: ByzAttack::EquivocateVertices,
                crash_at: 40,
                recover_at: 600,
            },
        ),
    ];
    let all_pruned = [
        FaultPlan::none().with(1, restart(60, 40_000_000)),
        FaultPlan::none()
            .with(1, restart(60, 40_000_000))
            .with(3, Fault::Byzantine(ByzAttack::ForgeStateOffers)),
    ];
    // Restart plans sweep the persistence axis: both snapshot cadences on
    // the in-memory WAL, plus the powerloss-injected WAL.
    let wal_axis = [
        (64, StorageSpec::Mem),
        (0, StorageSpec::Mem),
        (64, StorageSpec::PowerlossMem { seed: 7 }),
    ];
    let cell = |t: TopologySpec, plan: &FaultPlan, sched: &SchedulerSpec, seed: u64| {
        Scenario::new(t, plan.clone(), sched.clone(), seed)
            .waves(5)
            .blocks_per_process(1)
            .txs_per_block(2)
    };
    let mut out = Vec::with_capacity(CELLS);
    for t in TOPOLOGIES {
        for plan in &plans {
            let axis =
                if plan.restarts().next().is_some() { &wal_axis[..] } else { &wal_axis[..1] };
            for sched in &schedulers {
                for seed in seeds {
                    for (every, storage) in axis {
                        out.push(
                            cell(t, plan, sched, seed).snapshot_every(*every).storage(*storage),
                        );
                    }
                }
            }
        }
        for plan in &all_pruned {
            for sched in &schedulers {
                for seed in seeds {
                    out.push(cell(t, plan, sched, seed).snapshot_every(8).wal_everywhere(true));
                }
            }
        }
    }
    assert_eq!(out.len(), CELLS, "the pinned sweep must keep its cell count");
    out
}

/// A seed-derived permutation of `0..len` (Fisher–Yates).
fn order(seed: u64, k: u64, len: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (derive_seed(seed, 4, k * len as u64 + i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn fingerprint_of(o: &ScenarioOutcome) -> Fingerprint {
    let per_process =
        o.outputs.iter().zip(&o.commit_logs).map(|(a, b)| (a.as_slice(), b.as_slice()));
    Fingerprint { steps: o.steps, sent: o.net.sent, digest: digest(per_process) }
}

/// Transactions every fault-free process delivered.
fn common_txs(o: &ScenarioOutcome) -> u64 {
    let txs = |out: &[OrderedVertex]| out.iter().map(|v| v.block.txs.len() as u64).sum::<u64>();
    o.correct.iter().map(|p| txs(&o.outputs[p.index()])).min().unwrap_or(0)
}

/// One checked cell of a timed sweep.
struct CellRun {
    cell: usize,
    /// Seconds of `Scenario::try_run` plus all checkers.
    secs: f64,
    /// The meter's probe ratio around the cell.
    ratio: f64,
    steps: u64,
    txs: u64,
    fingerprint: Fingerprint,
}

/// One timed sweep.
#[derive(Default)]
struct Sweep {
    secs: f64,
    run_secs: f64,
    check_secs: Vec<f64>,
    cells: u64,
    /// Every cell that ran, in run order.
    ran: Vec<CellRun>,
}

/// Runs and checks every cell in `order`, sampling set-up between cells
/// when `sample_setup` is set.
fn run_sweep(
    cells: &[Scenario],
    order: &[usize],
    sample_setup: bool,
    meter: &mut Meter,
    out: &mut Outcome,
) -> Result<Sweep, String> {
    let checks = standard_checks();
    let mut sweep = Sweep { check_secs: vec![0.0; checks.len()], ..Sweep::default() };
    for (n, &i) in order.iter().enumerate() {
        if sample_setup && n % SETUP_EVERY_CELLS == 0 {
            meter.sample_setup(setup)?;
        }
        let s = &cells[i];
        out.attempted += 1;
        sweep.cells += 1;
        let mark = meter.mark();
        let cell_start = Instant::now();
        let mut secs = 0.0;
        let outcome = s.try_run();
        let ran = cell_start.elapsed().as_secs_f64();
        sweep.run_secs += ran;
        secs += ran;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                meter.record(cell_start, 0);
                meter.credit(mark, 0.0, 1.0);
                out.fail(&s.repro(), &e.to_string());
                continue;
            }
        };
        let mut failure = None;
        for (k, (name, check)) in checks.iter().enumerate() {
            let start = Instant::now();
            let verdict = check(&outcome);
            let checked = start.elapsed().as_secs_f64();
            sweep.check_secs[k] += checked;
            secs += checked;
            if let Err(detail) = verdict {
                failure.get_or_insert(format!("{name}: {detail}"));
            }
        }
        meter.record(cell_start, outcome.steps);
        let txs = common_txs(&outcome);
        meter.credit(mark, txs as f64, 1.0);
        if let Some(f) = failure {
            out.fail(&s.repro(), &f);
        }
        sweep.secs += secs;
        let fingerprint = fingerprint_of(&outcome);
        let ratio = meter.last_ratio();
        sweep.ran.push(CellRun { cell: i, secs, ratio, steps: outcome.steps, txs, fingerprint });
    }
    Ok(sweep)
}

/// The honest processes of a Byzantine-free cell, built the way the
/// scenario runner builds them; `None` for cells the benchmark does not
/// re-execute outside the runner (Byzantine parties, file-backed WALs).
fn replica_riders(s: &Scenario, t: &Topology) -> Option<Vec<AsymDagRider>> {
    if s.faults.byzantine().next().is_some() {
        return None;
    }
    let config = RiderConfig { max_waves: s.waves, prune_wal: s.prune_wal, ..Default::default() };
    let restarts: HashSet<usize> = s.faults.restarts().collect();
    (0..t.n())
        .map(|i| {
            let rider = AsymDagRider::new(pid(i), t.quorums.clone(), s.coin_seed(), config);
            if !restarts.contains(&i) && !s.wal_everywhere {
                return Some(rider);
            }
            let backend = match s.storage {
                StorageSpec::Mem => StorageBackend::in_memory(),
                StorageSpec::PowerlossMem { seed } => {
                    let mixed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    StorageBackend::in_memory()
                        .with_powerloss(PowerlossPlan::fsync_barriers(mixed, pid(i)))
                }
                _ => return None,
            };
            Some(rider.with_storage(DagLog::new(backend).with_snapshot_every(s.snapshot_every)))
        })
        .collect()
}

fn replica_sim<P, S>(s: &Scenario, procs: Vec<P>, scheduler: S) -> Simulation<P, S>
where
    P: Protocol<Msg = asym_core::AsymRiderMsg, Input = Block, Output = OrderedVertex>,
    S: Scheduler<asym_core::AsymRiderMsg>,
{
    let n = procs.len();
    let modes = s.faults.assignments().iter().map(|(i, f)| (pid(*i), f.network_mode()));
    let mut sim = Simulation::new(procs, scheduler).with_faults(modes);
    let crashed: HashSet<usize> = s
        .faults
        .assignments()
        .iter()
        .filter(|(_, f)| *f == Fault::Crash)
        .map(|(i, _)| *i)
        .collect();
    for b in 0..s.blocks_per_process {
        for i in (0..n).filter(|i| !crashed.contains(i)) {
            let base = ((b * n + i) * s.txs_per_block) as u64;
            sim.input(pid(i), Block::new((1..=s.txs_per_block as u64).map(|t| base + t).collect()));
        }
    }
    sim
}

/// A probed re-execution of one cell, checked against the runner's.
fn probe_cell(
    s: &Scenario,
    t: &Topology,
    expected: Fingerprint,
    out: &mut Outcome,
) -> Option<exec::ProbedRun> {
    let probes = replica_riders(s, t)?.into_iter().map(Probe::new).collect();
    let (scheduler, stats) = TimedScheduler::new(s.scheduler.adversary(s.seed).build());
    let sim = replica_sim(s, probes, scheduler);
    let run = run_probed(sim, stats, s.max_steps, s.scheduler.needs_flush(), |_, _| {});
    if run.fingerprint() != expected {
        out.fail(&s.repro(), "the probed re-execution diverged from Scenario::try_run");
    }
    Some(run)
}

/// Wall time of a plain re-execution of one cell, in ns.
fn plain_cell_ns(s: &Scenario, t: &Topology) -> Option<f64> {
    let riders = replica_riders(s, t)?;
    let mut sim =
        replica_sim::<AsymDagRider, Sched>(s, riders, s.scheduler.adversary(s.seed).build());
    let start = Instant::now();
    let report = sim.run(s.max_steps);
    if s.scheduler.needs_flush() {
        sim.flush_starved(s.max_steps.saturating_sub(report.steps));
    }
    Some(start.elapsed().as_nanos() as f64)
}

fn correct_of(s: &Scenario, n: usize) -> Vec<usize> {
    let faulty = s.faults.faulty_set();
    (0..n).filter(|i| !faulty.contains(pid(*i))).collect()
}

/// Builds and validates every topology of the sweep; returns them with
/// the seconds B³ plus validity took.
fn topologies() -> Result<(Vec<Topology>, f64), String> {
    let mut validate = 0.0;
    let mut built = Vec::new();
    for spec in TOPOLOGIES {
        let t = spec.build().ok_or_else(|| format!("{spec} is unbuildable"))?;
        let start = Instant::now();
        if !t.fail_prone.satisfies_b3() {
            return Err(format!("{spec} violates B3"));
        }
        t.quorums.validate(&t.fail_prone).map_err(|e| format!("{spec}: {e}"))?;
        validate += start.elapsed().as_secs_f64();
        built.push(t);
    }
    Ok((built, validate))
}

fn topology_of<'a>(s: &Scenario, built: &'a [Topology]) -> &'a Topology {
    &built[TOPOLOGIES.iter().position(|t| *t == s.topology).expect("pinned topology")]
}

/// One set-up: enumerate the cells, then build and validate their
/// topologies.
fn setup() -> Result<Vec<Topology>, String> {
    let cells = cells();
    let (built, _) = topologies()?;
    drop(cells);
    Ok(built)
}

/// Seconds, steps and transactions of one sweep, from two or more. Each
/// cell counts with its fastest uncontended run (probe ratio at most
/// `limit`); a cell contended in every run counts with its fastest run
/// divided by the median slowdown of the cells that ran both ways.
fn cell_totals(sweeps: &[Sweep], cells: usize, limit: f64) -> (f64, u64, u64) {
    let mut runs: Vec<Vec<&CellRun>> = vec![Vec::new(); cells];
    for run in sweeps.iter().flat_map(|s| &s.ran) {
        runs[run.cell].push(run);
    }
    let fastest = |rs: &[&CellRun], fast: bool| {
        rs.iter().filter(|r| (r.ratio <= limit) == fast).map(|r| r.secs).min_by(f64::total_cmp)
    };
    let slowdowns: Vec<f64> =
        runs.iter().filter_map(|rs| Some(fastest(rs, false)? / fastest(rs, true)?)).collect();
    let slowdown = median(&slowdowns).max(1.0);
    let (mut secs, mut steps, mut txs) = (0.0, 0, 0);
    for rs in runs.iter().filter(|rs| !rs.is_empty()) {
        secs += fastest(rs, true).unwrap_or_else(|| fastest(rs, false).unwrap_or(0.0) / slowdown);
        steps += rs[0].steps;
        txs += rs[0].txs;
    }
    (secs, steps, txs)
}

/// Timed sweeps per untraced run.
const SWEEPS: u64 = 2;

/// Cells between two batches of set-up samples.
const SETUP_EVERY_CELLS: usize = 16;

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_timed(args)
    }
}

/// Two whole sweeps in two seed-derived orders (see [`cell_totals`] for
/// how they combine); then the first Byzantine-free cells of the first
/// sweep again, probed, for commit latency.
fn run_timed(args: &Args) -> Result<Outcome, String> {
    let mut meter = Meter::new();
    let built = meter.sample_setup(setup)?.expect("first set-up sampled");
    let mut out = Outcome::default();
    let cells = cells();
    let mut sweeps = Vec::new();
    for k in 0..SWEEPS {
        let order = order(args.seed, k, cells.len());
        sweeps.push(run_sweep(&cells, &order, true, &mut meter, &mut out)?);
    }
    let (secs, steps, txs) = cell_totals(&sweeps, cells.len(), meter.limit());
    let mut latencies = Vec::new();
    let mut probed = 0;
    for run in &sweeps[0].ran {
        if probed == LATENCY_CELLS {
            break;
        }
        let s = &cells[run.cell];
        let t = topology_of(s, &built);
        if let Some(probe) = probe_cell(s, t, run.fingerprint, &mut out) {
            latencies.extend(exec::commit_latencies(&probe, &correct_of(s, t.n())));
            probed += 1;
        }
    }
    let m = &mut out.metrics;
    m.push("steps_per_s", steps as f64 / secs, "steps/s");
    m.push("txs_per_s", txs as f64 / secs, "txs/s");
    m.push("ops_per_s", cells.len() as f64 / secs, "ops/s");
    m.push("commit_latency_p50", percentile(&mut latencies, 0.50), "sim_time");
    m.push("commit_latency_p99", percentile(&mut latencies, 0.99), "sim_time");
    m.push("setup_s", meter.setup_secs(), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "{NAME}: {} cells in {:.2} s, {:.2} s counted, {} latency samples from {probed} cells",
        out.attempted,
        meter.secs(),
        secs,
        latencies.len()
    );
    Ok(out)
}

/// Sweep 0 with every checker timed, then each Byzantine-free cell of it
/// re-executed plainly and probed at every layer boundary.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let (built, validate_s) = topologies()?;
    let mut out = Outcome::default();
    let cells = cells();
    let order = order(args.seed, 0, cells.len());
    let sweep = run_sweep(&cells, &order, false, &mut Meter::new(), &mut out)?;
    let mut layers = Layers::default();
    let mut plain_ns = 0.0;
    for run in &sweep.ran {
        let s = &cells[run.cell];
        let t = topology_of(s, &built);
        let Some(plain) = plain_cell_ns(s, t) else { continue };
        let probe = probe_cell(s, t, run.fingerprint, &mut out).expect("replayable like its twin");
        plain_ns += plain;
        layers.absorb(&probe, &t.quorums)?;
    }
    if layers.accounted() < crate::MIN_ACCOUNTED {
        out.fail(NAME, "step timings cover too little of the traced wall");
    }
    let m = &mut out.metrics;
    layers.push_metrics(m);
    m.push("quorum.validate_s", validate_s, "s");
    m.push("recovery.catchup_steps_transfer", 0.0, "steps");
    m.push("recovery.catchup_steps_fetch", 0.0, "steps");
    let per_cell = |secs: f64| secs * 1e3 / sweep.cells as f64;
    m.push("scenarios.run_ms_per_cell", per_cell(sweep.run_secs), "ms");
    let names: Vec<&str> = standard_checks().iter().map(|(name, _)| *name).collect();
    let check_secs =
        |name: &str| names.iter().position(|n| *n == name).map_or(0.0, |k| sweep.check_secs[k]);
    for name in CHECKERS {
        m.push(&format!("scenarios.check.{name}_ms_per_cell"), per_cell(check_secs(name)), "ms");
    }
    m.push(
        "scenarios.determinism_share",
        ratio(check_secs("same_seed_determinism"), sweep.secs),
        "ratio",
    );
    m.push("trace.overhead", layers.wall_ns() as f64 / plain_ns, "ratio");
    Ok(out)
}

/// The scenario-layer metrics of a workload that runs no scenario cells.
pub fn push_idle_scenario_metrics(m: &mut Metrics) {
    m.push("scenarios.run_ms_per_cell", 0.0, "ms");
    for name in CHECKERS {
        m.push(&format!("scenarios.check.{name}_ms_per_cell"), 0.0, "ms");
    }
    m.push("scenarios.determinism_share", 0.0, "ratio");
}
