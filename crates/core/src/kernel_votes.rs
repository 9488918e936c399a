//! Kernel-matched acceptance of evidence that bypasses reliable broadcast.
//!
//! Fetched vertices and transferred wave segments reach a recovering
//! process point-to-point, so one responder alone proves nothing. A value
//! is accepted only once bit-identical copies arrived from one of the
//! receiver's *kernels* — a set meeting every one of its quorums, hence
//! holding at least one process its trust assumption counts on
//! (Algorithm 5, line 131). [`KernelVotes`] is the one implementation of
//! that rule: one vote per responder per key (the first copy wins, which
//! bounds the copies per key by `n`), tallied per copy, so a forged first
//! copy can neither be accepted alone nor veto the genuine one.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};

/// Per-key copy tallies awaiting kernel corroboration, for at most the
/// lowest `WINDOW` keys at once (unbounded by default).
#[derive(Clone, Debug)]
pub(crate) struct KernelVotes<K, V, const WINDOW: usize = { usize::MAX }> {
    /// key → the distinct copies seen, each with the responders vouching.
    votes: BTreeMap<K, Vec<(V, ProcessSet)>>,
}

impl<K, V, const WINDOW: usize> Default for KernelVotes<K, V, WINDOW> {
    fn default() -> Self {
        KernelVotes { votes: BTreeMap::new() }
    }
}

impl<K: Ord + Copy, V: Eq, const WINDOW: usize> KernelVotes<K, V, WINDOW> {
    /// Records `from`'s copy for `key`; `true` if the vote counted. A
    /// responder that already voted for `key` is ignored. A new key in a
    /// full window evicts the highest pending key if it lies below it and
    /// is dropped otherwise, so the lowest keys — the next to be released
    /// — always fit.
    pub(crate) fn vote(&mut self, key: K, from: ProcessId, value: V) -> bool {
        if !self.votes.contains_key(&key) && self.votes.len() >= WINDOW {
            match self.votes.last_key_value() {
                Some((highest, _)) if key < *highest => self.votes.pop_last(),
                _ => return false,
            };
        }
        let copies = self.votes.entry(key).or_default();
        if copies.iter().any(|(_, voters)| voters.contains(from)) {
            return false;
        }
        match copies.iter_mut().find(|(copy, _)| *copy == value) {
            Some((_, voters)) => {
                voters.insert(from);
            }
            None => copies.push((value, ProcessSet::singleton(from))),
        }
        true
    }

    /// Removes and returns the first copy, in key order within `keys`, that
    /// satisfies `extra` and is vouched for by one of `me`'s kernels; the
    /// released key's other copies are dropped with it.
    pub(crate) fn take_ready(
        &mut self,
        keys: impl RangeBounds<K>,
        quorums: &AsymQuorumSystem,
        me: ProcessId,
        extra: impl Fn(&V) -> bool,
    ) -> Option<V> {
        let (key, slot) = self.votes.range(keys).find_map(|(key, copies)| {
            let slot = copies
                .iter()
                .position(|(copy, voters)| extra(copy) && quorums.hits_kernel_for(me, voters))?;
            Some((*key, slot))
        })?;
        let mut copies = self.votes.remove(&key).expect("key just found");
        Some(copies.swap_remove(slot).0)
    }

    /// Drops every key at or below `watermark`.
    pub(crate) fn discard_through(&mut self, watermark: K) {
        self.votes.retain(|key, _| *key > watermark);
    }

    /// Number of keys with pending votes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.votes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Ready-check under `uniform_threshold(4, 1)` as seen by p0: any two
    /// processes form a kernel.
    fn take<const W: usize>(votes: &mut KernelVotes<u64, u64, W>) -> Option<u64> {
        let t = topology::uniform_threshold(4, 1);
        votes.take_ready(.., &t.quorums, pid(0), |_| true)
    }

    #[test]
    fn one_vote_per_responder_across_copies() {
        let mut votes = KernelVotes::<u64, u64>::default();
        assert!(votes.vote(1, pid(1), 7));
        // A responder's second vote counts for neither copy.
        assert!(!votes.vote(1, pid(1), 7));
        assert!(!votes.vote(1, pid(1), 8));
        assert_eq!(take(&mut votes), None, "one voucher is never a kernel");
        assert!(votes.vote(1, pid(3), 7));
        assert_eq!(take(&mut votes), Some(7));
        assert_eq!(votes.len(), 0, "releasing a key clears its entry");
    }

    #[test]
    fn forged_first_copy_cannot_veto_the_genuine_one() {
        let mut votes = KernelVotes::<u64, u64>::default();
        // The liar answers first; its copy is tallied on its own.
        assert!(votes.vote(1, pid(3), 666));
        assert!(votes.vote(1, pid(1), 7));
        assert_eq!(take(&mut votes), None);
        assert!(votes.vote(1, pid(2), 7));
        assert_eq!(take(&mut votes), Some(7), "the genuine copy wins, not the forged one");
    }

    #[test]
    fn window_keeps_the_lowest_keys_and_evicts_the_highest() {
        let mut votes = KernelVotes::<u64, u64, 4>::default();
        // A flood of far-future keys fills the window and no more.
        for key in 10..20 {
            votes.vote(key, pid(3), 666);
        }
        assert_eq!(votes.len(), 4);
        // A lower key still gets in, evicting the highest pending key.
        assert!(votes.vote(1, pid(1), 7));
        assert!(votes.vote(1, pid(2), 7));
        assert_eq!(votes.len(), 4);
        assert!(!votes.vote(13, pid(1), 7), "key 13 was evicted and lies above the window");
        assert_eq!(take(&mut votes), Some(7));
        votes.discard_through(11);
        assert_eq!(votes.len(), 1, "only key 12 lies above the watermark");
    }

    #[test]
    fn lowest_ready_release_honours_the_predicate() {
        let t = topology::uniform_threshold(4, 1);
        let mut votes = KernelVotes::<u64, u64>::default();
        for key in [3, 2] {
            votes.vote(key, pid(1), key * 10);
            votes.vote(key, pid(2), key * 10);
        }
        let thirty = |v: &u64| *v == 30;
        // Key 2 is lower, but only key 3's copy satisfies the predicate.
        assert_eq!(votes.take_ready(.., &t.quorums, pid(0), thirty), Some(30));
        assert_eq!(votes.take_ready(.., &t.quorums, pid(0), thirty), None);
        assert_eq!(votes.take_ready(3.., &t.quorums, pid(0), |_| true), None, "range excludes 2");
        assert_eq!(votes.take_ready(.., &t.quorums, pid(0), |_| true), Some(20));
    }
}
