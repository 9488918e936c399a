//! WAVES (Lemma 4.4): measures the observed number of wave boundaries per
//! direct commit against the paper's bound `|P| / c(Q)`, under three
//! delivery regimes:
//!
//! * **fair** — seeded random delivery: DAGs become complete, every wave
//!   commits (the benign floor of 1.0);
//! * **delay** — a targeted-delay adversary starves `f` victims' messages as
//!   long as anything else is deliverable, so leader vertices are often
//!   missing at wave boundaries — the adversarial regime the lemma bounds;
//! * **crash** — `f` processes crash: elected-but-dead leaders always skip
//!   (threshold topologies; crash patterns that keep a guild).
//!
//! `--symmetric` adds the DAG-Rider baseline (classic bound 3/2). Every
//! execution is a scenario cell audited by the full invariant-checker
//! suite; the scenario seed drives the scheduler and the common coin.
//!
//! ```bash
//! cargo run -p asym-bench --bin exp_waves [-- --symmetric]
//! ```

use asym_bench::{render_table, standard_topologies, Row};
use asym_dag_rider::prelude::*;

const WAVES: u64 = 16;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

fn mean_wpc(outcomes: &[ScenarioOutcome]) -> f64 {
    let wpcs: Vec<f64> = outcomes.iter().filter_map(ScenarioOutcome::waves_per_commit).collect();
    if wpcs.is_empty() {
        return f64::INFINITY;
    }
    wpcs.iter().sum::<f64>() / wpcs.len() as f64
}

fn skip_rate(outcomes: &[ScenarioOutcome]) -> f64 {
    let (mut skipped, mut attempted) = (0u64, 0u64);
    for o in outcomes {
        for m in &o.metrics {
            skipped += m.waves_skipped_no_leader + m.waves_skipped_rule;
            attempted += m.waves_attempted;
        }
    }
    if attempted == 0 {
        return f64::NAN;
    }
    100.0 * skipped as f64 / attempted as f64
}

/// Runs one checked cell per seed; the seed drives both the scheduler and
/// (decorrelated) the common coin.
fn run_suite(
    t: TopologySpec,
    faults: &FaultPlan,
    scheduler: &SchedulerSpec,
    protocol: ProtocolSpec,
) -> Vec<ScenarioOutcome> {
    SEEDS
        .map(|seed| {
            let scenario = Scenario::new(t, faults.clone(), scheduler.clone(), seed)
                .waves(WAVES)
                .protocol(protocol);
            checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// Victims for the delay adversary: a small tolerable set (delaying is not
/// crashing, so any size is *safe*, but starving many processes mostly slows
/// the simulation without sharpening the measurement).
fn victims(t: &topology::Topology) -> Vec<usize> {
    let n = t.n();
    let tolerable = (n - t.quorums.min_quorum_size()).clamp(1, 3);
    (n - tolerable..n).collect()
}

fn main() {
    let symmetric = std::env::args().any(|a| a == "--symmetric");

    let mut rows = Vec::new();
    let asym = ProtocolSpec::AsymDagRider;
    for spec in standard_topologies() {
        let t = spec.build().expect("closed-form families");
        let n = t.n() as f64;
        let c_q = t.quorums.min_quorum_size() as f64;
        let fair = run_suite(spec, &FaultPlan::none(), &SchedulerSpec::Random, asym);
        // The O(pending)-per-step delay adversary is too slow for the
        // 30-process figure-1 system; its adversarial regime is covered by
        // the crash table below and the experiment notes in the README.
        let delay = (t.n() <= 10).then(|| {
            let delay = SchedulerSpec::TargetedDelay { victims: victims(&t) };
            run_suite(spec, &FaultPlan::none(), &delay, asym)
        });
        rows.push(Row {
            label: t.name.clone(),
            values: vec![
                ("bound |P|/c(Q)".into(), n / c_q),
                ("fair w/c".into(), mean_wpc(&fair)),
                ("delay w/c".into(), delay.as_ref().map_or(f64::NAN, |d| mean_wpc(d))),
                ("delay skip%".into(), delay.as_ref().map_or(f64::NAN, |d| skip_rate(d))),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            &format!(
                "WAVES — asymmetric DAG-Rider, {WAVES} waves × {} seeds.\n\
                 w/c = wave boundaries per direct commit (Lemma 4.4 bound: |P|/c(Q))",
                SEEDS.count()
            ),
            &rows
        )
    );

    // Crash regime: threshold topologies with f crashes — an elected dead
    // leader has no vertex, so commit probability is (n−f)/n.
    let mut rows = Vec::new();
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let t = TopologySpec::UniformThreshold { n, f };
        let reports =
            run_suite(t, &FaultPlan::crash_from_start(n - f..n), &SchedulerSpec::Random, asym);
        rows.push(Row {
            label: format!("threshold n={n}, {f} crashed"),
            values: vec![
                ("bound |P|/c(Q)".into(), n as f64 / (n - f) as f64),
                ("expected n/(n−f)".into(), n as f64 / (n - f) as f64),
                ("observed w/c".into(), mean_wpc(&reports)),
                ("skip%".into(), skip_rate(&reports)),
            ],
        });
    }
    println!(
        "{}",
        render_table("WAVES/crash — dead leaders force skips (geometric retries)", &rows)
    );

    if symmetric {
        let mut rows = Vec::new();
        for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let t = TopologySpec::UniformThreshold { n, f };
            let reports =
                run_suite(t, &FaultPlan::none(), &SchedulerSpec::Random, ProtocolSpec::DagRider);
            rows.push(Row {
                label: format!("baseline n={n}, f={f}"),
                values: vec![
                    ("bound 3/2".into(), 1.5),
                    ("observed w/c".into(), mean_wpc(&reports)),
                ],
            });
        }
        println!("{}", render_table("BASE — symmetric DAG-Rider under fair delivery", &rows));
    }

    println!(
        "shape: fair delivery sits at the 1.0 floor; adversarial delay and crashes\n\
         push the rate toward (never beyond twice) the |P|/c(Q) bound, and the\n\
         ordering across topologies follows the bound — the §4.3 constant at work."
    );
}
