//! Scheduler guarantees the scenario harness leans on: executions are
//! replayable (same seed ⇒ identical delivery order) and no adversary except
//! the explicitly-starving ones leaves correct-to-correct traffic undelivered
//! in a completed (quiescent) run.

use asym_quorum::{ProcessId, ProcessSet};
use asym_sim::{scheduler, Adversary, Context, FaultMode, Protocol, Simulation};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Gossip with one relay hop: enough traffic that delivery order is
/// observable and schedulers have real choices to make.
#[derive(Clone, Debug)]
struct Relay;

impl Protocol for Relay {
    type Msg = (u8, u64);
    type Input = u64;
    type Output = (ProcessId, u8, u64);

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        ctx.broadcast((0, ctx.id().index() as u64));
    }

    fn on_input(&mut self, input: u64, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        ctx.broadcast((0, input));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        (hop, value): Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        ctx.output((from, hop, value));
        if hop == 0 {
            ctx.broadcast((1, value));
        }
    }
}

fn all_adversaries(n: usize) -> Vec<Adversary> {
    vec![
        Adversary::Fifo,
        Adversary::Random(11),
        Adversary::Latency { seed: 11, min: 1, max: 25 },
        Adversary::TargetedDelay(ProcessSet::from_indices([0, 1])),
        Adversary::Partition {
            groups: vec![ProcessSet::from_indices(0..n / 2), ProcessSet::from_indices(n / 2..n)],
            heal_at: 40,
        },
    ]
}

/// Per-process relay outputs: the observable image of the delivery order.
type Outputs = Vec<Vec<(ProcessId, u8, u64)>>;

/// Runs the relay protocol under one adversary and returns per-process
/// outputs plus leftover `(from, to)` endpoints.
fn run(
    n: usize,
    adversary: &Adversary,
    faults: &[(usize, FaultMode)],
) -> (Outputs, Vec<(ProcessId, ProcessId)>) {
    let procs = vec![Relay; n];
    let mut sim = Simulation::new(procs, adversary.build())
        .with_faults(faults.iter().map(|(i, m)| (pid(*i), *m)));
    for i in 0..n {
        sim.input(pid(i), 100 + i as u64);
    }
    let report = sim.run(1_000_000);
    assert!(report.quiescent, "{adversary}: run must quiesce");
    let outputs = (0..n).map(|i| sim.outputs(pid(i)).to_vec()).collect();
    (outputs, sim.pending_endpoints().collect())
}

#[test]
fn same_seed_same_delivery_order() {
    for adversary in all_adversaries(6) {
        let (a, _) = run(6, &adversary, &[]);
        let (b, _) = run(6, &adversary, &[]);
        assert_eq!(a, b, "{adversary}: same description must replay identically");
    }
}

#[test]
fn same_seed_same_delivery_order_under_faults() {
    let faults = [(4usize, FaultMode::Mute), (5usize, FaultMode::CrashAfter(7))];
    for adversary in all_adversaries(6) {
        let (a, _) = run(6, &adversary, &faults);
        let (b, _) = run(6, &adversary, &faults);
        assert_eq!(a, b, "{adversary}: fault plan must not break determinism");
    }
}

#[test]
fn different_random_seeds_usually_differ() {
    let (a, _) = run(6, &Adversary::Random(1), &[]);
    let (b, _) = run(6, &Adversary::Random(2), &[]);
    // Not guaranteed in principle, but with 6 relaying processes the orders
    // coincide only with negligible probability — a regression here means
    // the seed is being ignored.
    assert_ne!(a, b, "distinct seeds should explore distinct schedules");
}

#[test]
fn no_starvation_of_correct_to_correct_messages() {
    // Every eventually-delivering adversary must leave zero correct-to-correct
    // messages pending once the run quiesces.
    for adversary in all_adversaries(6) {
        let (_, leftovers) = run(6, &adversary, &[]);
        assert!(
            leftovers.is_empty(),
            "{adversary}: {} message(s) starved between correct processes",
            leftovers.len()
        );
    }
}

#[test]
fn no_starvation_between_surviving_processes_under_faults() {
    // With crashed/mute processes in the mix, traffic between the *remaining*
    // correct processes must still be fully delivered at quiescence.
    let faults = [(5usize, FaultMode::CrashedFromStart)];
    for adversary in all_adversaries(6) {
        let (_, leftovers) = run(6, &adversary, &faults);
        let correct_pair: Vec<_> =
            leftovers.iter().filter(|(f, t)| f.index() != 5 && t.index() != 5).collect();
        assert!(
            correct_pair.is_empty(),
            "{adversary}: correct-to-correct traffic starved: {correct_pair:?}"
        );
    }
}

#[test]
fn filtered_scheduler_starves_only_disallowed_traffic() {
    // The deliberately-starving adversary: everything it leaves behind must
    // violate its own predicate — it may not starve allowed traffic.
    let allow = |from: ProcessId, _to: ProcessId| from.index() != 2;
    let mut sim = Simulation::new(vec![Relay; 4], scheduler::Filtered::new(allow));
    for i in 0..4 {
        sim.input(pid(i), i as u64);
    }
    assert!(sim.run(1_000_000).quiescent);
    let leftovers: Vec<_> = sim.pending_endpoints().collect();
    assert!(!leftovers.is_empty(), "the filter must have starved something");
    for (from, _to) in leftovers {
        assert_eq!(from.index(), 2, "only disallowed traffic may be starved");
    }
}
