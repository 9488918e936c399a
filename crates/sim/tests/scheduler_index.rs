//! The indexed oldest-first schedulers against the scans they replaced.
//!
//! Every case drives three simulations of one relay protocol through the
//! same random interleaving of `run` (whose budget-exhausted end peeks
//! without removing), `input`, and partial and full `flush_starved`, under
//! random crash and restart faults. The first runs the indexed scheduler
//! directly; the second runs it behind a pass-through wrapper that forwards
//! only `next` and `delivery_time`, the shape of a timing probe; the third
//! runs the scan-based reference below behind the same wrapper. Every pick,
//! every `now`, every output and the final in-flight order must agree.

use std::cell::RefCell;
use std::rc::Rc;

use asym_quorum::{ProcessId, ProcessSet};
use asym_sim::scheduler::{self, InFlight, Scheduler};
use asym_sim::{Context, FaultMode, Protocol, RunReport, Simulation, Step};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

type Msg = (u8, u64);
type Out = (ProcessId, u8, u64);

/// Relays every value for two hops, by broadcast or by a unicast that
/// depends on the value, so the in-flight bag mixes old and new traffic.
#[derive(Clone, Debug)]
struct Relay;

impl Protocol for Relay {
    type Msg = Msg;
    type Input = u64;
    type Output = Out;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg, Out>) {
        ctx.broadcast((0, ctx.id().index() as u64));
    }

    fn on_input(&mut self, value: u64, ctx: &mut Context<'_, Msg, Out>) {
        ctx.broadcast((0, value));
    }

    fn on_message(&mut self, from: ProcessId, (hop, v): Msg, ctx: &mut Context<'_, Msg, Out>) {
        ctx.output((from, hop, v));
        let me = ctx.id().index() as u64;
        if hop >= 2 {
            return;
        }
        if (v + me).is_multiple_of(2) {
            ctx.broadcast((hop + 1, v));
        } else {
            let to = ProcessId::new((v + u64::from(hop)) as usize % ctx.n());
            ctx.send(to, (hop + 1, v * 3 + me));
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Msg, Out>) {
        ctx.broadcast((0, 1000 + ctx.id().index() as u64));
    }
}

fn filter(from: ProcessId, to: ProcessId) -> bool {
    !(from.index() + 2 * to.index()).is_multiple_of(3)
}

// ---- The reference: the scans as they were before the index. ----

fn touches(victims: &ProcessSet, m: &InFlight<Msg>) -> bool {
    victims.contains(m.from) || victims.contains(m.to)
}

struct ScanFifo;

impl Scheduler<Msg> for ScanFifo {
    fn next(&mut self, pending: &[InFlight<Msg>], _now: Step) -> Option<usize> {
        pending.iter().enumerate().min_by_key(|(_, m)| m.seq).map(|(i, _)| i)
    }
}

struct ScanTargetedDelay(ProcessSet);

impl Scheduler<Msg> for ScanTargetedDelay {
    fn next(&mut self, pending: &[InFlight<Msg>], _now: Step) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, m)| !touches(&self.0, m))
            .min_by_key(|(_, m)| m.seq)
            .or_else(|| pending.iter().enumerate().min_by_key(|(_, m)| m.seq))
            .map(|(i, _)| i)
    }
}

struct ScanPartition {
    groups: Vec<ProcessSet>,
    heal_at: Step,
    healed: bool,
}

impl Scheduler<Msg> for ScanPartition {
    fn next(&mut self, pending: &[InFlight<Msg>], now: Step) -> Option<usize> {
        if now >= self.heal_at {
            self.healed = true;
        }
        if !self.healed {
            let intra = pending
                .iter()
                .enumerate()
                .filter(|(_, m)| self.groups.iter().any(|g| g.contains(m.from) && g.contains(m.to)))
                .min_by_key(|(_, m)| m.seq)
                .map(|(i, _)| i);
            if intra.is_some() {
                return intra;
            }
            if pending.is_empty() {
                return None;
            }
            self.healed = true;
        }
        pending.iter().enumerate().min_by_key(|(_, m)| m.seq).map(|(i, _)| i)
    }
}

struct ScanStarve(ProcessSet);

impl Scheduler<Msg> for ScanStarve {
    fn next(&mut self, pending: &[InFlight<Msg>], _now: Step) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, m)| !touches(&self.0, m))
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
    }
}

struct ScanFiltered;

impl Scheduler<Msg> for ScanFiltered {
    fn next(&mut self, pending: &[InFlight<Msg>], _now: Step) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, m)| filter(m.from, m.to))
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
    }
}

/// One adversary of the comparison.
#[derive(Clone, Debug)]
enum Kind {
    Fifo,
    TargetedDelay(ProcessSet),
    Partition(Vec<ProcessSet>, Step),
    Starve(ProcessSet),
    Filtered,
}

impl Kind {
    fn indexed(&self) -> Box<dyn Scheduler<Msg>> {
        match self.clone() {
            Kind::Fifo => Box::new(scheduler::Fifo::default()),
            Kind::TargetedDelay(v) => Box::new(scheduler::TargetedDelay::new(v)),
            Kind::Partition(groups, heal_at) => {
                Box::new(scheduler::Partition::new(groups, heal_at))
            }
            Kind::Starve(v) => Box::new(scheduler::Starve::new(v)),
            Kind::Filtered => Box::new(scheduler::Filtered::new(filter)),
        }
    }

    fn scan(&self) -> Box<dyn Scheduler<Msg>> {
        match self.clone() {
            Kind::Fifo => Box::new(ScanFifo),
            Kind::TargetedDelay(v) => Box::new(ScanTargetedDelay(v)),
            Kind::Partition(groups, heal_at) => {
                Box::new(ScanPartition { groups, heal_at, healed: false })
            }
            Kind::Starve(v) => Box::new(ScanStarve(v)),
            Kind::Filtered => Box::new(ScanFiltered),
        }
    }
}

/// One scheduler call as the engine made it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Call {
    Next { in_flight: usize, now: Step, pick: Option<usize> },
    Delivered { seq: u64, now: Step, at: Step },
}

/// Forwards `next` and `delivery_time` only, logging each call.
struct PassThrough {
    inner: Box<dyn Scheduler<Msg>>,
    log: Rc<RefCell<Vec<Call>>>,
}

impl Scheduler<Msg> for PassThrough {
    fn next(&mut self, pending: &[InFlight<Msg>], now: Step) -> Option<usize> {
        let pick = self.inner.next(pending, now);
        self.log.borrow_mut().push(Call::Next { in_flight: pending.len(), now, pick });
        pick
    }

    fn delivery_time(&mut self, chosen: &InFlight<Msg>, now: Step) -> Step {
        let at = self.inner.delivery_time(chosen, now);
        self.log.borrow_mut().push(Call::Delivered { seq: chosen.seq, now, at });
        at
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Run(u64),
    Input(usize, u64),
    Flush(u64),
}

/// Everything observable about a simulation after one operation.
type Snapshot = (RunReport, Step, u64, Vec<Vec<Out>>, Vec<(ProcessId, ProcessId)>);

fn apply<S: Scheduler<Msg>>(sim: &mut Simulation<Relay, S>, op: Op) -> Snapshot {
    let report = match op {
        Op::Run(budget) => sim.run(budget),
        Op::Input(p, v) => {
            sim.input(ProcessId::new(p), v);
            RunReport { steps: 0, quiescent: false }
        }
        Op::Flush(budget) => sim.flush_starved(budget),
    };
    let outputs = (0..sim.n()).map(|i| sim.outputs(ProcessId::new(i)).to_vec()).collect();
    let stats = sim.stats();
    (report, sim.now(), stats.delivered, outputs, sim.pending_endpoints().collect())
}

/// A random adversary, fault plan and operation sequence for `n` processes.
fn draw(rng: &mut SmallRng, n: usize) -> (Vec<Kind>, Vec<FaultMode>, Vec<Op>) {
    let victims: ProcessSet = (0..n).filter(|_| rng.random_bool(0.3)).collect();
    let cut = rng.random_range(1..n);
    let groups = vec![ProcessSet::from_indices(0..cut), ProcessSet::from_indices(cut..n)];
    let heal_at = if rng.random_bool(0.3) { Step::MAX } else { rng.random_range(0..400) };
    let kinds = vec![
        Kind::Fifo,
        Kind::TargetedDelay(victims.clone()),
        Kind::Partition(groups, heal_at),
        Kind::Starve(victims),
        Kind::Filtered,
    ];
    let faults = (0..n)
        .map(|_| match rng.random_range(0u8..6) {
            0 => FaultMode::CrashAfter(rng.random_range(0..12)),
            1 => FaultMode::RestartAfter {
                crash_at: rng.random_range(0..8),
                recover_at: rng.random_range(0..300),
            },
            _ => FaultMode::Correct,
        })
        .collect();
    let ops = (0..rng.random_range(4usize..20))
        .map(|_| match rng.random_range(0u8..10) {
            0..=4 => Op::Run(rng.random_range(0..80)),
            5 | 6 => Op::Input(rng.random_range(0..n), rng.random_range(0..100)),
            7 | 8 => Op::Flush(rng.random_range(1..60)),
            _ => Op::Flush(u64::MAX),
        })
        .chain([Op::Run(u64::MAX), Op::Flush(u64::MAX), Op::Run(u64::MAX)])
        .collect();
    (kinds, faults, ops)
}

fn sim<S: Scheduler<Msg>>(n: usize, faults: &[FaultMode], s: S) -> Simulation<Relay, S> {
    Simulation::new(vec![Relay; n], s)
        .with_faults(faults.iter().enumerate().map(|(i, f)| (ProcessId::new(i), *f)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_schedulers_match_the_scans(seed in 0u64..u64::MAX, n in 2usize..7) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (kinds, faults, ops) = draw(&mut rng, n);
        for kind in kinds {
            let (index_log, scan_log) = Default::default();
            let mut direct = sim(n, &faults, kind.indexed());
            let mut wrapped = sim(
                n,
                &faults,
                PassThrough { inner: kind.indexed(), log: Rc::clone(&index_log) },
            );
            let mut reference =
                sim(n, &faults, PassThrough { inner: kind.scan(), log: Rc::clone(&scan_log) });
            for (i, op) in ops.iter().enumerate() {
                let want = apply(&mut reference, *op);
                prop_assert_eq!(&apply(&mut wrapped, *op), &want, "{:?}: op {} = {:?}", kind, i, op);
                prop_assert_eq!(&apply(&mut direct, *op), &want, "{:?}: op {} = {:?}", kind, i, op);
                prop_assert_eq!(&*index_log.borrow(), &*scan_log.borrow(), "{:?}: op {}", kind, i);
            }
            prop_assert_eq!(direct.stats(), reference.stats(), "{:?}", kind);
        }
    }
}
