//! Cost of the delivery scheduler per engine step at a steady in-flight
//! count: pick a message, `swap_remove` it, report its delivery and append
//! one new send, as `Simulation::step` does. The two sizes are the mean
//! and the maximum in-flight count of the smoke scenario sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use asym_quorum::{ProcessId, ProcessSet};
use asym_sim::scheduler::{self, InFlight, Scheduler};

/// Processes the messages run between.
const N: usize = 16;

/// `in_flight` messages in send order, spread over every `(from, to)` pair.
fn bag(in_flight: usize) -> Vec<InFlight<()>> {
    (0..in_flight)
        .map(|i| InFlight {
            seq: i as u64,
            from: ProcessId::new(i % N),
            to: ProcessId::new((i / N + i) % N),
            sent_at: 0,
            msg: (),
        })
        .collect()
}

/// Builds one scheduler under test.
type Build = fn() -> Box<dyn Scheduler<()>>;

fn victims() -> ProcessSet {
    ProcessSet::from_indices([0])
}

fn halves() -> Vec<ProcessSet> {
    vec![ProcessSet::from_indices(0..N / 2), ProcessSet::from_indices(N / 2..N)]
}

fn bench_pick(c: &mut Criterion) {
    let schedulers: [(&str, Build); 5] = [
        ("fifo", || Box::new(scheduler::Fifo::default())),
        ("starve", || Box::new(scheduler::Starve::new(victims()))),
        ("targeted-delay", || Box::new(scheduler::TargetedDelay::new(victims()))),
        ("partition", || Box::new(scheduler::Partition::new(halves(), u64::MAX))),
        ("random", || Box::new(scheduler::Random::new(7))),
    ];
    let mut g = c.benchmark_group("scheduler-pick");
    for in_flight in [400usize, 2_700] {
        for (name, build) in schedulers {
            g.bench_with_input(BenchmarkId::new(name, in_flight), &in_flight, |b, &in_flight| {
                let (mut s, mut pending) = (build(), bag(in_flight));
                let (mut now, mut seq) = (0, in_flight as u64);
                b.iter(|| {
                    let i = s.next(&pending, now).expect("a deliverable message is in flight");
                    let m = pending.swap_remove(i);
                    now = s.delivery_time(&m, now);
                    // The same endpoints again, so each class keeps its size.
                    pending.push(InFlight { seq, sent_at: now, ..m });
                    seq += 1;
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_pick);
criterion_main!(benches);
