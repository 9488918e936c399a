//! Snapshots stay bounded over a long horizon. With the WAL on every
//! process and pruning on, a snapshot holds only the window above the
//! sealed watermark — the pruning marker, the stored vertices and the
//! confirmed waves not yet decided — while every decided wave is sealed
//! once into the append-only sealed area. A snapshot that rewrote the
//! delivered history would instead grow with every wave.

use asym_scenarios::{checks, FaultPlan, Scenario, ScenarioOutcome, SchedulerSpec, TopologySpec};

/// A `waves`-wave run with a WAL on every process, after checking that
/// every process's WAL replays to its live state.
fn run(waves: u64) -> ScenarioOutcome {
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none(),
        SchedulerSpec::Random,
        1,
    )
    .waves(waves)
    .snapshot_every(16)
    .wal_everywhere(true);
    assert!(scenario.prune_wal, "pruning is on by default");
    let outcome = scenario.try_run().unwrap_or_else(|e| panic!("{}: {e}", scenario.cell()));
    checks::wal_state_equivalence(&outcome)
        .unwrap_or_else(|e| panic!("{waves} waves: WAL/state equivalence failed: {e}"));
    outcome
}

/// Every snapshot blob size of the run, sorted.
fn sorted_sizes(outcome: &ScenarioOutcome) -> Vec<u64> {
    let mut sizes: Vec<u64> =
        outcome.wal_snapshot_sizes.iter().flatten().flatten().copied().collect();
    sizes.sort_unstable();
    sizes
}

#[test]
fn snapshots_do_not_grow_with_the_horizon() {
    let (short, long) = (run(8), run(64));
    let (short_sizes, long_sizes) = (sorted_sizes(&short), sorted_sizes(&long));
    assert!(long_sizes.len() >= 8 * short_sizes.len() / 2, "too few snapshots at 64 waves");
    let median = |s: &[u64]| s[s.len() / 2];
    let largest = |s: &[u64]| *s.last().expect("snapshots were written");
    assert!(
        2 * median(&long_sizes) <= 3 * median(&short_sizes),
        "the median snapshot grew with the horizon: {} B at 8 waves, {} B at 64",
        median(&short_sizes),
        median(&long_sizes)
    );
    // A wave whose leader no process commits leaves two waves of vertices
    // above the decided wave until the next commit; at 64 waves seed 1
    // has one, which doubles the window at one snapshot per process
    // (2,464 B = 2 × 1,232 B). Snapshots that rewrite the delivered
    // history grow ≈ 0.6 kB per wave here instead: their median goes from
    // 6.4 kB at 8 waves to 39.9 kB at 64.
    assert!(
        largest(&long_sizes) <= 2 * largest(&short_sizes),
        "the largest snapshot grew with the horizon: {} B at 8 waves, {} B at 64",
        largest(&short_sizes),
        largest(&long_sizes)
    );
    // The last snapshot of every process holds its stored vertices, the
    // pruning marker and at most the confirmed waves not yet decided.
    for (i, replay) in long.wal_replays.iter().enumerate() {
        let replay = replay.as_ref().expect("WAL everywhere").as_ref().expect("replayable");
        let stored = replay.dag.len() - long.n();
        assert!(
            replay.events_from_snapshot <= stored + 1 + 2,
            "process {i}: {} snapshot events for {stored} stored vertices",
            replay.events_from_snapshot
        );
    }
}
