//! A Stellar-like tiered trust topology: a small core of anchor institutions
//! plus leaves that each trust `core ∪ {self}`. Demonstrates
//!
//! * consensus surviving a within-threshold core failure,
//! * leaf failures being entirely harmless,
//! * the *guild* collapsing (and safety-by-stalling) when the core
//!   assumption is exceeded — the "chose the wrong friends" regime.
//!
//! ```bash
//! cargo run --example stellar_tiers
//! ```

use asym_dag_rider::prelude::*;
use asym_quorum::classify;

/// One checked cell on the tiered topology with the given crashes.
fn run(t: TopologySpec, crashed: &[usize], seed: u64, waves: u64) -> ScenarioOutcome {
    let scenario = Scenario::new(
        t,
        FaultPlan::crash_from_start(crashed.iter().copied()),
        SchedulerSpec::Random,
        seed,
    )
    .waves(waves)
    .blocks_per_process(2);
    checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"))
}

fn main() {
    let spec = TopologySpec::StellarTiers { n: 12, core: 4, f_core: 1 };
    let t = spec.build().expect("closed-form family");
    println!("topology: {} (core = p0..p3, leaves trust core ∪ self)", t.name);
    assert!(t.fail_prone.satisfies_b3());
    t.quorums.validate(&t.fail_prone).expect("valid");

    // ---- Scenario A: one core member crashes (within threshold). ----
    // The checkers already demand that every guild member commits.
    let outcome = run(spec, &[1], 5, 6);
    let guild = outcome.guild.clone().expect("guild survives one core crash");
    println!("\nA: core member p1 crashes → guild = {guild}");
    println!(
        "   all {} guild members commit; {} txs ordered at p0; waves/commit ≈ {:.2}",
        guild.len(),
        outcome.metrics[0].txs_ordered,
        outcome.waves_per_commit().unwrap_or(f64::NAN),
    );

    // ---- Scenario B: two leaves crash (outside everyone's slice). ----
    let outcome = run(spec, &[10, 11], 6, 6);
    let guild = outcome.guild.clone().expect("leaf crashes keep the guild");
    println!("\nB: leaves p10, p11 crash → guild = {guild} (all correct processes)");
    println!("   progress unaffected: {} waves/commit", outcome.waves_per_commit().unwrap());

    // ---- Scenario C: the core assumption is exceeded. ----
    let faulty = ProcessSet::from_indices([0, 1]);
    println!("\nC: core members p0, p1 both crash (threshold is 1):");
    for i in [2usize, 3, 6] {
        println!(
            "   {} is {}",
            ProcessId::new(i),
            classify(&t.fail_prone, &faulty, ProcessId::new(i))
        );
    }
    assert_eq!(maximal_guild(&t.fail_prone, &t.quorums, &faulty), None);
    println!("   no guild exists — the paper gives no liveness guarantee here;");

    // Without a guild the liveness checkers are vacuous; the safety ones
    // (total order, integrity, validity) still apply.
    let outcome = run(spec, &[0, 1], 7, 4);
    assert_eq!(outcome.guild, None);
    let progressed = outcome.outputs.iter().filter(|o| !o.is_empty()).count();
    println!(
        "   observed: {} of 12 processes committed anything (safety holds: \
         the protocol stalls rather than forks)",
        progressed
    );
    println!("   outputs that do exist are still mutually consistent ✓");
}
