//! Delivery schedulers: the asynchronous adversary.
//!
//! In the asynchronous model the adversary controls message delivery order
//! subject only to *eventual delivery between correct processes*. A
//! [`Scheduler`] realizes one adversary strategy: given the multiset of
//! in-flight messages it picks the next one to deliver (or `None` to starve
//! the remainder, which models "delayed beyond the end of the observed
//! execution" — legal in an asynchronous system as long as the run has
//! finished its observable work).
//!
//! All schedulers are deterministic given their seed, so every execution in
//! tests and benchmarks is replayable.
//!
//! The oldest-first schedulers ([`Fifo`], [`TargetedDelay`], [`Partition`],
//! [`Starve`], [`Filtered`]) keep an index of the in-flight slice, so a pick
//! costs O(log n) rather than a scan; their picks are exactly the scan's.

use asym_quorum::{ProcessId, ProcessSet};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::process::Step;
use crate::seq_index::SeqIndex;

/// A message in flight: sent but not yet delivered.
#[derive(Clone, Debug)]
pub struct InFlight<M> {
    /// Monotone sequence number (send order).
    pub seq: u64,
    /// Authenticated sender.
    pub from: ProcessId,
    /// Recipient.
    pub to: ProcessId,
    /// Time at which the message was sent.
    pub sent_at: Step,
    /// Payload.
    pub msg: M,
}

/// An adversary strategy choosing the next message to deliver.
///
/// # Engine discipline
///
/// A scheduler may keep state about the in-flight slice between calls; the
/// [`Simulation`](crate::Simulation) engine guarantees four things it can
/// rely on:
///
/// * the engine removes a pick with `pending.swap_remove(index)`;
/// * it calls [`Scheduler::delivery_time`] exactly once per such removal,
///   right after it, and at no other time (a `next` whose pick is not
///   removed is a peek);
/// * it appends new sends at the end of the slice, in increasing `seq`
///   order, with every new `seq` above every live one;
/// * a removal outside a pick ([`Simulation::flush_starved`]) advances
///   `now`, so the next `next` sees a `now` it has not seen.
///
/// A wrapper around a scheduler needs to forward only these two methods.
///
/// [`Simulation::flush_starved`]: crate::Simulation::flush_starved
pub trait Scheduler<M> {
    /// Returns the index (into `pending`) of the next message to deliver, or
    /// `None` to leave all remaining messages undelivered for now.
    ///
    /// `now` is the current simulation time.
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize>;

    /// Advisory simulated delivery time for the chosen message; the default
    /// advances the clock by one step. Latency-modelling schedulers override
    /// this to report the message's arrival time.
    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        let _ = chosen;
        now + 1
    }
}

impl<M, S: Scheduler<M> + ?Sized> Scheduler<M> for Box<S> {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        (**self).next(pending, now)
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        (**self).delivery_time(chosen, now)
    }
}

/// Delivers messages in send order — the synchronous-looking baseline.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    index: SeqIndex,
}

impl<M> Scheduler<M> for Fifo {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        self.index.pick(pending, now, |_| 0, |ix| ix.front(0))
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen, now)
    }
}

/// `1` if `m` is to or from one of the `victims`, else `0`: the index class
/// of the victim-starving schedulers.
fn victim_class<M>(victims: &ProcessSet, m: &InFlight<M>) -> usize {
    usize::from(victims.contains(m.from) || victims.contains(m.to))
}

/// Delivers a uniformly random pending message — the classic "oblivious"
/// asynchronous adversary. Deterministic given its seed.
#[derive(Clone, Debug)]
pub struct Random {
    rng: SmallRng,
}

impl Random {
    /// Creates a seeded random scheduler.
    pub fn new(seed: u64) -> Self {
        Random { rng: SmallRng::seed_from_u64(seed) }
    }
}

impl<M> Scheduler<M> for Random {
    fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
        if pending.is_empty() {
            None
        } else {
            Some(self.rng.random_range(0..pending.len()))
        }
    }
}

/// Assigns every message an independent random latency in `min..=max` and
/// delivers in arrival-time order; the simulation clock jumps to each arrival
/// time. Use this scheduler for latency measurements in "simulated time
/// units" rather than delivery steps.
#[derive(Clone, Debug)]
pub struct RandomLatency {
    rng: SmallRng,
    min: Step,
    max: Step,
    /// Assigned arrival times, keyed by message `seq`; lazily populated.
    deadlines: std::collections::HashMap<u64, Step>,
}

impl RandomLatency {
    /// Creates a seeded latency scheduler with per-message latency drawn
    /// uniformly from `min..=max`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `max == 0`.
    pub fn new(seed: u64, min: Step, max: Step) -> Self {
        assert!(min <= max && max > 0, "latency range must be non-empty and positive");
        RandomLatency {
            rng: SmallRng::seed_from_u64(seed),
            min,
            max,
            deadlines: Default::default(),
        }
    }

    // Inlined into `next`'s scan, its hot loop; left to the inliner, that
    // choice flips with unrelated changes elsewhere in the crate.
    #[inline]
    fn deadline(&mut self, m: &InFlight<impl Sized>) -> Step {
        let (rng, min, max) = (&mut self.rng, self.min, self.max);
        *self.deadlines.entry(m.seq).or_insert_with(|| m.sent_at + rng.random_range(min..=max))
    }
}

impl<M> Scheduler<M> for RandomLatency {
    fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
        let mut best: Option<(usize, Step, u64)> = None;
        for (i, m) in pending.iter().enumerate() {
            let d = self.deadline(m);
            let better = match best {
                None => true,
                Some((_, bd, bseq)) => (d, m.seq) < (bd, bseq),
            };
            if better {
                best = Some((i, d, m.seq));
            }
        }
        best.map(|(i, _, _)| i)
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        let d = self.deadline(chosen);
        self.deadlines.remove(&chosen.seq);
        d.max(now)
    }
}

/// Starves every message to or from the `victims` for as long as any other
/// message is pending, then delivers victim messages oldest-first — a
/// targeted-delay adversary that still guarantees eventual delivery.
#[derive(Clone, Debug)]
pub struct TargetedDelay {
    victims: ProcessSet,
    index: SeqIndex,
}

impl TargetedDelay {
    /// Creates a targeted-delay adversary against the given victims.
    pub fn new(victims: ProcessSet) -> Self {
        TargetedDelay { victims, index: SeqIndex::default() }
    }
}

impl<M> Scheduler<M> for TargetedDelay {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let TargetedDelay { victims, index } = self;
        index.pick(pending, now, |m| victim_class(victims, m), |ix| ix.front(0).or(ix.front(1)))
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen, now)
    }
}

/// A network partition: until the heal, only messages within the same group
/// are deliverable. The partition heals at step `heal_at`, or **earlier** if
/// no intra-group message is left (simulated time only advances on
/// deliveries, and an asynchronous partition may delay messages only
/// finitely). Cross-group messages queue up — none are lost, modelling an
/// asynchronous partition rather than a crash.
#[derive(Clone, Debug)]
pub struct Partition {
    groups: Vec<ProcessSet>,
    heal_at: Step,
    healed: bool,
    /// Class 0: intra-group messages; class 1: cross-group ones.
    index: SeqIndex,
}

impl Partition {
    /// Creates a partition of the given groups healing at step `heal_at`
    /// (or earlier on intra-group quiescence). Processes not in any group
    /// are isolated until the heal.
    pub fn new(groups: Vec<ProcessSet>, heal_at: Step) -> Self {
        Partition { groups, heal_at, healed: false, index: SeqIndex::default() }
    }

    /// `true` once the partition has healed.
    pub fn healed(&self) -> bool {
        self.healed
    }
}

impl<M> Scheduler<M> for Partition {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        if now >= self.heal_at {
            self.healed = true;
        }
        let Partition { groups, healed, index, .. } = self;
        let cross = |m: &InFlight<M>| {
            usize::from(!groups.iter().any(|g| g.contains(m.from) && g.contains(m.to)))
        };
        let pick = index.pick(pending, now, cross, |ix| {
            if *healed {
                ix.oldest()
            } else {
                ix.front(0).or(ix.oldest())
            }
        });
        if !*healed && index.front(0).is_none() && !pending.is_empty() {
            // Both sides quiesced: the partition cannot starve any longer.
            *healed = true;
        }
        pick
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen, now)
    }
}

/// Starves every message to or from the `victims` **forever**: unlike
/// [`TargetedDelay`] it never falls back to delivering victim traffic, so
/// the run quiesces with victim messages still pending — the Appendix-A
/// starvation shape as a plain-data adversary. Harnesses must follow up
/// with [`crate::Simulation::flush_starved`] ("the delayed messages
/// eventually arrive") before checking liveness properties.
#[derive(Clone, Debug)]
pub struct Starve {
    victims: ProcessSet,
    index: SeqIndex,
}

impl Starve {
    /// Creates a hard-starvation adversary against the given victims.
    pub fn new(victims: ProcessSet) -> Self {
        Starve { victims, index: SeqIndex::default() }
    }
}

impl<M> Scheduler<M> for Starve {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let Starve { victims, index } = self;
        index.pick(pending, now, |m| victim_class(victims, m), |ix| ix.front(0))
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen, now)
    }
}

/// Delivers (oldest-first) only messages satisfying a predicate; the rest are
/// starved until [`crate::Simulation::flush_starved`] or forever. This is the
/// scheduler used to realize the paper's Appendix-A execution, where every
/// process hears **exactly its own quorum** in each round.
///
/// The predicate runs once per message, when the scheduler first sees it
/// (and once more for each message still in flight whenever the scheduler
/// rebuilds its index, e.g. after a flush), so it must depend on its
/// arguments alone.
pub struct Filtered<F> {
    allow: F,
    /// Class 0: allowed messages; class 1: the starved rest.
    index: SeqIndex,
}

impl<F> Filtered<F> {
    /// Creates a filtered scheduler from an `allow(from, to) -> bool`
    /// predicate.
    pub fn new(allow: F) -> Self {
        Filtered { allow, index: SeqIndex::default() }
    }
}

impl<M, F: FnMut(ProcessId, ProcessId) -> bool> Scheduler<M> for Filtered<F> {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let Filtered { allow, index } = self;
        index.pick(pending, now, |m| usize::from(!allow(m.from, m.to)), |ix| ix.front(0))
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen, now)
    }
}

impl<F> core::fmt::Debug for Filtered<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Filtered(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64, from: usize, to: usize) -> InFlight<u8> {
        InFlight { seq, from: ProcessId::new(from), to: ProcessId::new(to), sent_at: 0, msg: 0 }
    }

    #[test]
    fn fifo_picks_lowest_seq() {
        let pending = vec![msg(5, 0, 1), msg(2, 1, 0), msg(9, 2, 0)];
        assert_eq!(Scheduler::<u8>::next(&mut Fifo::default(), &pending, 0), Some(1));
        assert_eq!(Scheduler::<u8>::next(&mut Fifo::default(), &[], 0), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let pending: Vec<_> = (0..10).map(|i| msg(i, 0, 1)).collect();
        let picks_a: Vec<_> = (0..20).map(|_| Random::new(7).next(&pending, 0).unwrap()).collect();
        let picks_b: Vec<_> = (0..20).map(|_| Random::new(7).next(&pending, 0).unwrap()).collect();
        assert_eq!(picks_a, picks_b);
    }

    #[test]
    fn random_covers_range() {
        let pending: Vec<_> = (0..5).map(|i| msg(i, 0, 1)).collect();
        let mut r = Random::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(Scheduler::<u8>::next(&mut r, &pending, 0).unwrap());
        }
        assert_eq!(seen.len(), 5, "all pending messages eventually pickable");
    }

    #[test]
    fn latency_scheduler_orders_by_deadline_and_advances_clock() {
        let mut s = RandomLatency::new(1, 10, 20);
        let pending = vec![msg(0, 0, 1), msg(1, 1, 0)];
        let i = s.next(&pending, 0).unwrap();
        let t = s.delivery_time(&pending[i], 0);
        assert!((10..=20).contains(&t));
        // Deterministic per seed.
        let mut s2 = RandomLatency::new(1, 10, 20);
        let i2 = s2.next(&pending, 0).unwrap();
        assert_eq!(i, i2);
    }

    #[test]
    fn targeted_delay_starves_victims_until_last() {
        let mut s = TargetedDelay::new(ProcessSet::from_indices([2]));
        let pending = vec![msg(0, 2, 1), msg(1, 0, 1), msg(2, 1, 2)];
        // Picks seq 1 (only non-victim message) first.
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(1));
        // With only victim messages left, delivers oldest.
        let pending = vec![msg(0, 2, 1), msg(2, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(0));
    }

    #[test]
    fn partition_prefers_intra_group_until_heal() {
        let g1 = ProcessSet::from_indices([0, 1]);
        let g2 = ProcessSet::from_indices([2, 3]);
        let mut s = Partition::new(vec![g1.clone(), g2.clone()], 100);
        let pending = vec![msg(0, 0, 2), msg(1, 0, 1)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 5), Some(1));
        assert!(!s.healed());
        // After the heal time, cross-group traffic flows (oldest first).
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 100), Some(0));
        assert!(s.healed());
    }

    #[test]
    fn partition_self_heals_on_intra_group_quiescence() {
        let g1 = ProcessSet::from_indices([0, 1]);
        let g2 = ProcessSet::from_indices([2, 3]);
        let mut s = Partition::new(vec![g1, g2], 1_000_000);
        // Only a cross-group message is pending: the partition cannot starve
        // it forever — it heals early instead of deadlocking the run.
        let pending = vec![msg(0, 0, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 5), Some(0));
        assert!(s.healed());
        assert_eq!(Scheduler::<u8>::next(&mut s, &[], 6), None);
    }

    #[test]
    fn starve_never_delivers_victim_traffic() {
        let mut s = Starve::new(ProcessSet::from_indices([2]));
        let pending = vec![msg(0, 2, 1), msg(1, 0, 1), msg(2, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(1));
        // Unlike TargetedDelay there is NO fallback: victim-only traffic
        // starves forever.
        let pending = vec![msg(0, 2, 1), msg(2, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), None);
    }

    #[test]
    fn filtered_starves_disallowed() {
        let allow_from_0 = |from: ProcessId, _to: ProcessId| from.index() == 0;
        let mut s = Filtered::new(allow_from_0);
        let pending = vec![msg(0, 1, 2), msg(1, 0, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(1));
        let pending = vec![msg(0, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), None);
    }
}
