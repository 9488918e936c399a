//! The oldest-first index behind the ordered schedulers and
//! [`Simulation::flush_starved`](crate::Simulation::flush_starved).

use std::collections::VecDeque;

use crate::process::Step;
use crate::scheduler::InFlight;

/// A mirror of the engine's in-flight slice that finds the oldest message
/// of a class without scanning the slice.
///
/// Slot `i` mirrors `pending[i]`: its `seq` and its class. Each of the two
/// classes keeps its `(seq, slot)` pairs sorted by `seq`, which the engine
/// keeps unique. A new message has a seq above every live one, so it goes
/// to the back of its class; every pick is the oldest message of some
/// class, so a removal is a `pop_front`; and when `swap_remove` moves the
/// last slot into the freed one, the moved pair is found by binary search.
/// A pick, a removal and a move each cost O(log n).
///
/// A scheduler drives the mirror from [`Scheduler::next`] and
/// [`Scheduler::delivery_time`] alone (see [`SeqIndex::pick`]), so it
/// survives any wrapper that forwards those two calls.
///
/// [`Scheduler::next`]: crate::Scheduler::next
/// [`Scheduler::delivery_time`]: crate::Scheduler::delivery_time
#[derive(Clone, Debug, Default)]
pub(crate) struct SeqIndex {
    /// `(seq, class)` of each mirrored slot.
    slots: Vec<(u64, u8)>,
    /// `(seq, slot)` of each class, oldest first.
    classes: [VecDeque<(u64, usize)>; 2],
    /// The `now` the engine passes next if it made no removal the scheduler
    /// did not see; `None` forces a rebuild.
    seen: Option<Step>,
    /// `(seq, slot)` of the last pick, until `delivery_time` confirms it.
    picked: Option<(u64, usize)>,
}

impl SeqIndex {
    /// The oldest `(seq, slot)` of `class`.
    pub(crate) fn front(&self, class: usize) -> Option<(u64, usize)> {
        self.classes[class].front().copied()
    }

    /// The oldest `(seq, slot)` of either class.
    pub(crate) fn oldest(&self) -> Option<(u64, usize)> {
        self.classes.iter().filter_map(|q| q.front().copied()).min()
    }

    /// Mirrors the messages appended to `pending` since the last call,
    /// rebuilding the whole mirror if one is not newer than its class's
    /// newest.
    pub(crate) fn sync<M>(
        &mut self,
        pending: &[InFlight<M>],
        class: &mut impl FnMut(&InFlight<M>) -> usize,
    ) {
        for (slot, m) in pending.iter().enumerate().skip(self.slots.len()) {
            let c = class(m);
            let q = &mut self.classes[c];
            if q.back().is_some_and(|&(seq, _)| seq >= m.seq) {
                self.rebuild(pending, class);
                return;
            }
            q.push_back((m.seq, slot));
            self.slots.push((m.seq, c as u8));
        }
    }

    /// Rebuilds the mirror of `pending` from scratch in O(n log n).
    fn rebuild<M>(
        &mut self,
        pending: &[InFlight<M>],
        class: &mut impl FnMut(&InFlight<M>) -> usize,
    ) {
        self.slots.clear();
        self.classes.iter_mut().for_each(VecDeque::clear);
        for (slot, m) in pending.iter().enumerate() {
            let c = class(m);
            self.slots.push((m.seq, c as u8));
            self.classes[c].push_back((m.seq, slot));
        }
        for q in &mut self.classes {
            q.make_contiguous().sort_unstable();
        }
    }

    /// Mirrors `pending.swap_remove(slot)`, where `slot` holds the oldest
    /// message of its class.
    pub(crate) fn swap_remove(&mut self, slot: usize) {
        let (seq, class) = self.slots.swap_remove(slot);
        let front = self.classes[class as usize].pop_front();
        debug_assert_eq!(front, Some((seq, slot)), "only the oldest of a class is removed");
        if let Some(&(seq, class)) = self.slots.get(slot) {
            let q = &mut self.classes[class as usize];
            let i = q
                .binary_search_by_key(&seq, |&(s, _)| s)
                .expect("every mirrored slot is in its class");
            q[i].1 = slot;
        }
    }

    /// A scheduler's [`next`](crate::Scheduler::next): brings the mirror
    /// level with `pending`, lets `choose` pick from it and remembers the
    /// pick for [`SeqIndex::delivered`].
    ///
    /// The mirror is trusted only while three O(1) checks hold; otherwise it
    /// is rebuilt from the slice. (1) `now` is the value last seen here or
    /// last returned by `delivered`: the engine advances `now` on every
    /// removal it makes outside a pick. (2) The slice is no shorter than the
    /// mirror. (3) The chosen slot holds the chosen seq.
    pub(crate) fn pick<M>(
        &mut self,
        pending: &[InFlight<M>],
        now: Step,
        mut class: impl FnMut(&InFlight<M>) -> usize,
        choose: impl Fn(&Self) -> Option<(u64, usize)>,
    ) -> Option<usize> {
        if self.seen == Some(now) && pending.len() >= self.slots.len() {
            self.sync(pending, &mut class);
        } else {
            self.rebuild(pending, &mut class);
        }
        let mut pick = choose(self);
        if pick.is_some_and(|(seq, slot)| pending.get(slot).map(|m| m.seq) != Some(seq)) {
            self.rebuild(pending, &mut class);
            pick = choose(self);
        }
        self.seen = Some(now);
        self.picked = pick;
        pick.map(|(_, slot)| slot)
    }

    /// A scheduler's [`delivery_time`](crate::Scheduler::delivery_time):
    /// the engine `swap_remove`d `chosen`. If it is the last pick, the
    /// mirror follows; otherwise the next pick rebuilds it. Returns
    /// `now + 1`.
    pub(crate) fn delivered<M>(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        let at = now + 1;
        match self.picked.take() {
            Some((seq, slot)) if seq == chosen.seq && self.seen == Some(now) => {
                self.swap_remove(slot);
                self.seen = Some(at);
            }
            _ => self.seen = None,
        }
        at
    }
}
