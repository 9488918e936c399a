//! Per-instance vote tallies shared by the reliable and consistent hubs.

use asym_quorum::{ProcessId, ProcessSet};

/// Who sent which value for one broadcast instance: a short list of
/// `(value, senders)` pairs, matched by `==`.
///
/// An honest instance sees a single value, so a list beats a hash map: no
/// hashing of (possibly large) values and no clone of the value as a map
/// key on every vote. Values are matched by content, so separately
/// allocated copies of one value share a tally; for shared payloads such as
/// `Arc`, equality short-circuits on pointer identity first. A sender may
/// appear under several values (an equivocator's echoes count for each).
#[derive(Clone, Debug)]
pub(crate) struct Tally<T>(Vec<(T, ProcessSet)>);

impl<T> Default for Tally<T> {
    fn default() -> Self {
        Tally(Vec::new())
    }
}

impl<T: Clone + Eq> Tally<T> {
    /// Records `from` as a sender of `value` and returns everyone who sent
    /// that value so far. `value` is cloned only the first time it is seen.
    pub(crate) fn add(&mut self, value: &T, from: ProcessId) -> &ProcessSet {
        let slot = match self.0.iter().position(|(v, _)| v == value) {
            Some(i) => i,
            None => {
                self.0.push((value.clone(), ProcessSet::new()));
                self.0.len() - 1
            }
        };
        let senders = &mut self.0[slot].1;
        senders.insert(from);
        senders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn counts_senders_per_value() {
        let mut t = Tally::default();
        assert_eq!(t.add(&7u32, pid(0)).len(), 1);
        assert_eq!(t.add(&7, pid(1)).len(), 2);
        // A repeated vote is idempotent.
        assert_eq!(t.add(&7, pid(1)).len(), 2);
        // Another value starts its own tally; a sender may be in both.
        assert_eq!(t.add(&8, pid(1)).len(), 1);
        assert_eq!(t.add(&7, pid(2)).len(), 3);
    }
}
