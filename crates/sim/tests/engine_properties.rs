//! Engine-level integration tests: budget exhaustion, statistics accounting,
//! and determinism guarantees of the simulation core.

use asym_quorum::ProcessId;
use asym_sim::{scheduler, Context, FaultMode, Protocol, Simulation};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Ping-pong forever between processes 0 and 1 (never quiesces on its own).
struct PingPong;

impl Protocol for PingPong {
    type Msg = u64;
    type Input = u64;
    type Output = u64;

    fn on_input(&mut self, v: u64, ctx: &mut Context<'_, u64, u64>) {
        ctx.send(pid(1), v);
    }

    fn on_message(&mut self, from: ProcessId, v: u64, ctx: &mut Context<'_, u64, u64>) {
        ctx.output(v);
        ctx.send(from, v + 1);
    }
}

#[test]
fn budget_exhaustion_reports_non_quiescent() {
    let mut sim = Simulation::new(vec![PingPong, PingPong], scheduler::Fifo::default());
    sim.input(pid(0), 0);
    let report = sim.run(100);
    assert_eq!(report.steps, 100);
    assert!(!report.quiescent, "infinite ping-pong cannot quiesce");
    assert!(sim.in_flight() > 0);
    // Resuming continues exactly where it stopped.
    let before = sim.outputs(pid(1)).len() + sim.outputs(pid(0)).len();
    sim.run(50);
    let after = sim.outputs(pid(1)).len() + sim.outputs(pid(0)).len();
    assert_eq!(after - before, 50);
}

#[test]
fn stats_account_for_every_message() {
    let mut sim = Simulation::new(vec![PingPong, PingPong], scheduler::Fifo::default());
    sim.input(pid(0), 0);
    sim.run(73);
    let s = sim.stats();
    assert_eq!(s.delivered, 73);
    // Every delivery spawned one send, plus the initial input send.
    assert_eq!(s.sent, 74);
    assert_eq!(s.dropped, 0);
    assert!(s.max_in_flight >= 1);
}

#[test]
fn dropped_messages_are_counted_not_delivered() {
    let mut sim = Simulation::new(vec![PingPong, PingPong], scheduler::Fifo::default())
        .with_fault(pid(1), FaultMode::CrashedFromStart);
    sim.input(pid(0), 0);
    let report = sim.run(1_000);
    assert!(report.quiescent);
    let s = sim.stats();
    assert_eq!(s.delivered, 0, "the only recipient is crashed");
    assert_eq!(s.dropped, 1);
}

#[test]
fn identical_seeds_identical_traces() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(vec![PingPong, PingPong], scheduler::Random::new(seed));
        sim.input(pid(0), 0);
        sim.run(500);
        (sim.outputs(pid(0)).to_vec(), sim.outputs(pid(1)).to_vec(), sim.stats(), sim.now())
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn correct_processes_reflects_crash_progression() {
    let mut sim = Simulation::new(vec![PingPong, PingPong], scheduler::Fifo::default())
        .with_fault(pid(1), FaultMode::CrashAfter(5));
    sim.input(pid(0), 0);
    assert!(sim.correct_processes().contains(pid(1)));
    sim.run(4);
    // p1 processed at most 4 deliveries so far (inputs don't count).
    assert!(sim.correct_processes().contains(pid(1)));
    sim.run(1_000);
    assert!(!sim.correct_processes().contains(pid(1)));
    assert!(sim.correct_processes().contains(pid(0)));
}
