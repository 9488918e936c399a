//! REC: the persistence & crash-recovery experiment — WAL append
//! throughput (in-memory and file backends), snapshot size vs. DAG height
//! with and without delivered-prefix pruning, recovery (replay) latency
//! vs. DAG height, an end-to-end restart scenario reporting how much work
//! recovery actually performed, and the per-snapshot size sequence of a
//! live pruned run (bounded sawtooth) vs. an unpruned one (monotone
//! growth), deep catch-up vs. lag depth, and the per-wave cost and largest
//! snapshot of WAL-everywhere runs against their horizon (REC-6).
//!
//! Exits non-zero if any replayed state diverges from its source.
//!
//! ```bash
//! cargo run --release -p asym-bench --bin exp_recovery            # full sweep
//! cargo run --release -p asym-bench --bin exp_recovery -- --smoke # CI subset
//! ```

use std::time::Instant;

use asym_bench::{render_table, Row};
use asym_core::Block;
use asym_dag::{Vertex, VertexId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_scenarios::{checks, Fault, FaultPlan, Scenario, SchedulerSpec, TopologySpec};
use asym_storage::WalStats;
use asym_storage::{DagEvent, EventLog, StorageBackend, RECORD_HEADER_BYTES};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

type Log = EventLog<Block, StorageBackend>;

/// The event stream of a full `n`-process DAG of `rounds` rounds, with one
/// delivery + decision per wave — the synthetic workload all measurements
/// share.
fn workload(n: usize, rounds: u64) -> Vec<DagEvent<Block>> {
    let mut events = Vec::new();
    for r in 1..=rounds {
        for i in 0..n {
            events.push(DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                Block::new(vec![r * 100 + i as u64, r, i as u64]),
                ProcessSet::full(n),
                vec![],
            )));
        }
        if r.is_multiple_of(4) {
            let wave = r / 4;
            let leader = VertexId::new(4 * (wave - 1) + 1, pid((wave as usize) % n));
            events.push(DagEvent::WaveConfirmed { wave });
            events.push(DagEvent::WaveDecided { wave, leader });
            events.push(DagEvent::BlockDelivered { id: leader, wave });
        }
    }
    events
}

/// `uniform_threshold(4, 1)` / `ripple_unl(10, 8, 1)` for the REC-6 title.
fn scenario_label(topology: &TopologySpec) -> String {
    match topology {
        TopologySpec::UniformThreshold { n, f } => format!("uniform_threshold({n}, {f})"),
        TopologySpec::RippleUnl { n, unl, f } => format!("ripple_unl({n}, {unl}, {f})"),
        other => format!("{other:?}"),
    }
}

fn append_all(log: &mut Log, events: &[DagEvent<Block>]) {
    for ev in events {
        log.append(ev).expect("append");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = 8;
    let heights: &[u64] = if smoke { &[8, 16] } else { &[8, 16, 32, 64, 128] };
    let throughput_rounds = if smoke { 32 } else { 256 };

    // ── WAL append throughput, per backend ────────────────────────────────
    let events = workload(n, throughput_rounds);
    let total_bytes: u64 =
        events.iter().map(|e| (e.encode().len() + RECORD_HEADER_BYTES) as u64).sum();
    let mut rows = Vec::new();
    let file_dir = std::env::temp_dir().join(format!("exp-recovery-{}", std::process::id()));
    let backends: Vec<(&str, Log)> = vec![
        ("mem", Log::new(StorageBackend::in_memory()).with_snapshot_every(0)),
        (
            "file",
            Log::new(StorageBackend::file(&file_dir).expect("temp dir writable"))
                .with_snapshot_every(0),
        ),
    ];
    for (name, mut log) in backends {
        let start = Instant::now();
        append_all(&mut log, &events);
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        rows.push(Row {
            label: format!("append/{name}"),
            values: vec![
                ("events".into(), events.len() as f64),
                ("kB".into(), total_bytes as f64 / 1024.0),
                ("events/ms".into(), events.len() as f64 / (dt * 1e3)),
                ("MB/s".into(), total_bytes as f64 / (1024.0 * 1024.0) / dt),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            &format!(
                "REC-1 — WAL append throughput (n={n}, {throughput_rounds} rounds; \
                 framed little-endian records, FNV-1a-64 checksums)"
            ),
            &rows
        )
    );

    // ── Snapshot size and recovery latency vs. DAG height ─────────────────
    let mut rows = Vec::new();
    for &h in heights {
        let events = workload(n, h);
        let mut log = Log::new(StorageBackend::in_memory()).with_snapshot_every(0);
        append_all(&mut log, &events);
        let log_bytes = log.stats().bytes_appended;

        let t0 = Instant::now();
        let replayed = log.replay(n, pid(0), Block::default()).expect("replay");
        let replay_log_us = t0.elapsed().as_secs_f64() * 1e6;
        assert_eq!(replayed.dag.len(), n + (n as u64 * h) as usize, "replay lost vertices");

        // Compact into a snapshot and measure both its size and how fast
        // recovery gets when it replays the snapshot instead of the log.
        let mut snapped = Log::new(StorageBackend::in_memory());
        snapped.compact_from(&replayed).expect("snapshot");
        let snap_bytes = snapped.stats().last_snapshot_bytes;
        let sealed_bytes = snapped.stats().sealed_bytes;
        let t1 = Instant::now();
        let re = snapped.replay(n, pid(0), Block::default()).expect("replay snapshot");
        let replay_snap_us = t1.elapsed().as_secs_f64() * 1e6;
        assert_eq!(re.dag.len(), replayed.dag.len(), "snapshot replay diverged");
        assert_eq!(re.delivered, replayed.delivered, "snapshot lost deliveries");

        // Prune the delivered prefix the way a long-running node would
        // (everything below the decided wave's leader round delivered) and
        // measure the snapshot again: the pruned blob carries only the
        // undelivered frontier plus bookkeeping.
        let mut pruned_state = replayed.clone();
        let decided = pruned_state.decided_wave;
        let floor = if decided >= 1 { asym_dag::round_of_wave(decided, 1) } else { 0 };
        for r in 1..=floor {
            for i in 0..n {
                pruned_state.delivered.insert(VertexId::new(r, pid(i)));
            }
        }
        pruned_state.prune_delivered(floor);
        let mut pruned_log = Log::new(StorageBackend::in_memory());
        pruned_log.compact_from(&pruned_state).expect("pruned snapshot");
        let pruned_bytes = pruned_log.stats().last_snapshot_bytes;
        assert!(
            floor == 0 || pruned_bytes < snap_bytes,
            "pruning must shrink the snapshot ({pruned_bytes} !< {snap_bytes})"
        );
        // Pruned replay still reproduces the post-prefix state exactly.
        let rep = pruned_log.replay(n, pid(0), Block::default()).expect("replay pruned");
        assert_eq!(rep.dag.len(), pruned_state.dag.len(), "pruned replay diverged");
        assert_eq!(rep.pruned_round, floor, "pruning marker lost");
        assert_eq!(rep.delivered, pruned_state.delivered, "pruned replay lost deliveries");
        assert_eq!(rep.commit_log, pruned_state.commit_log, "pruned replay lost commits");

        rows.push(Row {
            label: format!("height={h} ({} waves)", h / 4),
            values: vec![
                ("log kB".into(), log_bytes as f64 / 1024.0),
                ("snap kB".into(), snap_bytes as f64 / 1024.0),
                ("sealed kB".into(), sealed_bytes as f64 / 1024.0),
                ("pruned kB".into(), pruned_bytes as f64 / 1024.0),
                ("replay µs".into(), replay_log_us),
                ("snap-replay µs".into(), replay_snap_us),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            &format!(
                "REC-2 — snapshot size and recovery latency vs. DAG height (n={n}).\n\
                 replay µs = folding the raw WAL back into DAG + delivered set + commit log;\n\
                 sealed kB = the decided waves, sealed once next to the snapshot;\n\
                 pruned kB = the same snapshot after garbage-collecting the delivered prefix"
            ),
            &rows
        )
    );

    // ── End-to-end: a restart cell, with recovery work accounting ─────────
    let waves = if smoke { 5 } else { 6 };
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
        SchedulerSpec::Random,
        3,
    )
    .waves(waves);
    let t0 = Instant::now();
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| {
        eprintln!("restart scenario violated an invariant:\n{e}");
        std::process::exit(1);
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = outcome.wal_stats[1].expect("restart process has a WAL");
    let replay = outcome.wal_replays[1].as_ref().unwrap().as_ref().unwrap();
    let rows = vec![Row {
        label: scenario.cell(),
        values: vec![
            ("wall ms".into(), wall_ms),
            ("wal records".into(), stats.records_appended as f64),
            ("wal kB".into(), stats.bytes_appended as f64 / 1024.0),
            ("snapshots".into(), stats.snapshots_written as f64),
            ("delivered".into(), outcome.outputs[1].len() as f64),
            ("replay dag".into(), replay.dag.len() as f64),
        ],
    }];
    println!(
        "{}",
        render_table(
            "REC-3 — end-to-end restart cell (crash at 150 deliveries, recover at step 1200):\n\
             the process rebuilds from its WAL, refetches, and rejoins — all invariant\n\
             checkers (incl. no-double-delivery and WAL/state equivalence) pass",
            &rows
        )
    );

    // ── REC-4: snapshot size over a live run — pruning bounds the sequence ─
    let mk = |prune: bool| {
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 120, recover_at: 900 }),
            SchedulerSpec::Random,
            5,
        )
        .waves(if smoke { 6 } else { 8 })
        .snapshot_every(12)
        .prune_wal(prune)
    };
    let pruned_outcome = checks::run_and_check_all(&mk(true)).unwrap_or_else(|e| {
        eprintln!("pruned REC-4 cell violated an invariant:\n{e}");
        std::process::exit(1);
    });
    let unpruned_outcome = checks::run_and_check_all(&mk(false)).unwrap_or_else(|e| {
        eprintln!("unpruned REC-4 cell violated an invariant:\n{e}");
        std::process::exit(1);
    });
    let pruned_sizes = pruned_outcome.wal_snapshot_sizes[1].clone().expect("WAL attached");
    let unpruned_sizes = unpruned_outcome.wal_snapshot_sizes[1].clone().expect("WAL attached");
    println!("REC-4 — per-snapshot blob sizes over one restart cell (cadence 12):");
    println!("  pruned   : {pruned_sizes:?}");
    println!("  unpruned : {unpruned_sizes:?}");
    assert!(
        unpruned_sizes.windows(2).all(|w| w[1] >= w[0]),
        "without pruning the snapshot sequence grows monotonically"
    );
    // Pruning drops the delivered vertices from the snapshot; their ids,
    // wave tags and blocks are sealed once per wave (DagEvent::WaveSealed)
    // instead of rewritten, so the pruned sequence is a flat sawtooth
    // while the unpruned one grows, and the per-snapshot savings widen as
    // more history is pruned.
    let common = pruned_sizes.len().min(unpruned_sizes.len());
    assert!(common > 2, "need a few snapshots to compare");
    for k in 1..common {
        assert!(
            pruned_sizes[k] < unpruned_sizes[k],
            "pruned snapshot {k} not smaller: {} !< {}",
            pruned_sizes[k],
            unpruned_sizes[k]
        );
    }
    let savings: Vec<i64> =
        (0..common).map(|k| unpruned_sizes[k] as i64 - pruned_sizes[k] as i64).collect();
    assert!(
        savings.last() > savings.first(),
        "pruning savings must widen with history: {savings:?}"
    );
    assert!(
        pruned_sizes.iter().max() < unpruned_sizes.iter().max(),
        "the pruned sequence must stay below the unpruned peak"
    );
    println!(
        "  pruned peak {} B < unpruned peak {} B; savings widen {} B → {} B ✓",
        pruned_sizes.iter().max().unwrap(),
        unpruned_sizes.iter().max().unwrap(),
        savings.first().unwrap(),
        savings.last().unwrap()
    );

    // ── REC-5: deep catch-up latency vs. lag depth (all-pruned cells) ─────
    // Every honest process prunes (wal_everywhere + cadence 8); the laggard
    // crashes after `crash_at` deliveries and recovers only at quiescence.
    // Smaller crash_at = deeper lag below the common pruning floor, so more
    // of the recovery arrives via delivered-state transfer instead of
    // fetch. `xfer waves`/`xfer blocks` = state installed through
    // StateChunk segments; `delivered` = the laggard's total output.
    let depths: &[u64] = if smoke { &[30, 150] } else { &[30, 80, 150, 400] };
    let mut rows = Vec::new();
    for &crash_at in depths {
        let scenario = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at, recover_at: 40_000_000 }),
            SchedulerSpec::Random,
            3,
        )
        .waves(waves)
        .snapshot_every(8)
        .wal_everywhere(true);
        let t0 = Instant::now();
        let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| {
            eprintln!("all-pruned catch-up cell violated an invariant:\n{e}");
            std::process::exit(1);
        });
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = outcome.transfers[1].expect("honest laggard has transfer counters");
        rows.push(Row {
            label: format!("crash_at={crash_at}"),
            values: vec![
                ("xfer waves".into(), stats.waves_installed as f64),
                ("xfer blocks".into(), stats.deliveries_installed as f64),
                ("offers".into(), stats.offers_received as f64),
                ("delivered".into(), outcome.outputs[1].len() as f64),
                ("steps".into(), outcome.steps as f64),
                ("wall ms".into(), wall_ms),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            "REC-5 — deep catch-up vs. lag depth: every peer prunes (all-pruned cells), the\n\
             laggard recovers at quiescence. Deeper lag (smaller crash_at) ⇒ more state\n\
             arrives as certified outputs (delivered-state transfer) instead of DAG vertices",
            &rows
        )
    );

    // ── REC-6: per-wave cost and snapshot size vs. horizon ────────────────
    // Every process carries a pruning WAL; a snapshot every 64 records. The
    // snapshot holds only the window above the sealed waves, so neither
    // the largest snapshot nor the cost per wave may grow with the horizon.
    let (topology, horizons): (TopologySpec, &[u64]) = if smoke {
        (TopologySpec::UniformThreshold { n: 4, f: 1 }, &[8, 32])
    } else {
        (TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 }, &[32, 128, 512])
    };
    let mut rows = Vec::new();
    let mut largest = Vec::new();
    let mut per_wave = Vec::new();
    for &waves in horizons {
        let scenario = Scenario::new(topology, FaultPlan::none(), SchedulerSpec::Random, 1)
            .waves(waves)
            .snapshot_every(64)
            .wal_everywhere(true);
        let t0 = Instant::now();
        let outcome = scenario.try_run().unwrap_or_else(|e| {
            eprintln!("REC-6 cell failed to run: {e}");
            std::process::exit(1);
        });
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = checks::wal_state_equivalence(&outcome) {
            eprintln!("REC-6 cell at {waves} waves: WAL and live state differ:\n{e}");
            std::process::exit(1);
        }
        let max_snapshot = outcome.wal_snapshot_sizes.iter().flatten().flatten().max().copied();
        let stats: Vec<WalStats> = outcome.wal_stats.iter().flatten().copied().collect();
        let sum = |f: fn(&WalStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        largest.push(max_snapshot.unwrap_or(0));
        per_wave.push(wall_ms / waves as f64);
        rows.push(Row {
            label: format!("{waves} waves"),
            values: vec![
                ("wall ms".into(), wall_ms),
                ("ms/wave".into(), wall_ms / waves as f64),
                ("max snap B".into(), max_snapshot.unwrap_or(0) as f64),
                ("snapshots".into(), sum(|s| s.snapshots_written)),
                ("sealed kB".into(), sum(|s| s.sealed_bytes) / 1024.0),
                ("log kB".into(), sum(|s| s.bytes_appended) / 1024.0),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            &format!(
                "REC-6 — cost per wave and largest snapshot vs. horizon ({}, Random, seed 1;\n\
                 WAL and pruning on every process, a snapshot every 64 records).\n\
                 sealed kB = decided waves written once to the sealed area, all processes",
                scenario_label(&topology)
            ),
            &rows
        )
    );
    let (first, last) = (largest[0], *largest.last().expect("horizons"));
    let growth = per_wave.last().expect("horizons") / per_wave[0];
    println!(
        "  largest snapshot {first} B → {last} B ({:.2}×); per-wave cost {:.1} → {:.1} ms ({growth:.2}×, \
         target ≤ 1.5×: {})",
        last as f64 / first as f64,
        per_wave[0],
        per_wave.last().expect("horizons"),
        if growth <= 1.5 { "✓" } else { "✗" }
    );
    assert!(
        2 * last <= 3 * first,
        "the largest snapshot grew with the horizon: {first} B → {last} B"
    );

    let _ = std::fs::remove_dir_all(&file_dir);
    println!("REC: all replays equivalent; recovery invariants hold ✓");
}
