//! Dense vertex-keyed state: [`VertexMap`] and its unit-valued case
//! [`VertexSet`], rows of per-source slots over a span of rounds.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

use asym_quorum::{ProcessId, ProcessSet};

use crate::vertex::{Round, VertexId};

/// What one round of a [`Span`] holds.
trait Row: Default {
    fn is_empty(&self) -> bool;
}

impl Row for ProcessSet {
    fn is_empty(&self) -> bool {
        ProcessSet::is_empty(self)
    }
}

/// Rows for the rounds `first..first + rows.len()`. The first and the last
/// row are non-empty; rows in between may be empty.
#[derive(Clone)]
struct Span<R> {
    first: Round,
    rows: VecDeque<R>,
}

impl<R> Default for Span<R> {
    fn default() -> Self {
        Span { first: 0, rows: VecDeque::new() }
    }
}

impl<R: Row> Span<R> {
    fn row(&self, round: Round) -> Option<&R> {
        let i = round.checked_sub(self.first)?;
        self.rows.get(usize::try_from(i).ok()?)
    }

    fn row_mut(&mut self, round: Round) -> Option<&mut R> {
        let i = round.checked_sub(self.first)?;
        self.rows.get_mut(usize::try_from(i).ok()?)
    }

    /// The row of `round`, opening the rows between the span and it.
    fn open(&mut self, round: Round) -> &mut R {
        if self.rows.is_empty() {
            self.first = round;
        } else if round < self.first {
            for _ in round..self.first {
                self.rows.push_front(R::default());
            }
            self.first = round;
        }
        let i = usize::try_from(round - self.first).expect("a span fits in memory");
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, R::default);
        }
        &mut self.rows[i]
    }

    /// Drops empty rows at both ends.
    fn trim(&mut self) {
        while self.rows.back().is_some_and(R::is_empty) {
            self.rows.pop_back();
        }
        while self.rows.front().is_some_and(R::is_empty) {
            self.rows.pop_front();
            self.first += 1;
        }
    }

    fn first_round(&self) -> Option<Round> {
        (!self.rows.is_empty()).then_some(self.first)
    }

    fn last_round(&self) -> Option<Round> {
        (!self.rows.is_empty()).then(|| self.first + (self.rows.len() as Round - 1))
    }

    /// The rows of the rounds in `rounds` that the span covers, with their
    /// rounds, ascending.
    fn range(
        &self,
        rounds: impl RangeBounds<Round>,
    ) -> impl DoubleEndedIterator<Item = (Round, &R)> + '_ {
        let lo = match rounds.start_bound() {
            Bound::Included(&r) => Some(r),
            Bound::Excluded(&r) => r.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let hi = match rounds.end_bound() {
            Bound::Included(&r) => Some(r),
            Bound::Excluded(&r) => r.checked_sub(1),
            Bound::Unbounded => Some(Round::MAX),
        };
        let (from, to) = match (lo, hi, self.last_round()) {
            (Some(lo), Some(hi), Some(last)) if lo.max(self.first) <= hi.min(last) => {
                let from = lo.max(self.first);
                ((from - self.first) as usize, (hi.min(last) - self.first) as usize + 1)
            }
            _ => (0, 0),
        };
        let base = self.first + from as Round;
        self.rows.range(from..to).enumerate().map(move |(k, row)| (base + k as Round, row))
    }
}

/// The slots of one round of a [`VertexMap`]: who holds a value, and the
/// values indexed by source.
#[derive(Clone)]
struct Slots<V> {
    sources: ProcessSet,
    values: Vec<Option<V>>,
}

impl<V> Default for Slots<V> {
    fn default() -> Self {
        Slots { sources: ProcessSet::new(), values: Vec::new() }
    }
}

impl<V> Row for Slots<V> {
    fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

impl<V> Slots<V> {
    fn iter(&self, round: Round) -> impl Iterator<Item = (VertexId, &V)> + '_ {
        self.values.iter().enumerate().filter_map(move |(s, v)| {
            v.as_ref().map(|v| (VertexId::new(round, ProcessId::new(s)), v))
        })
    }
}

/// A map keyed by [`VertexId`], stored the way the paper's `DAG[r]` is: a
/// row per round, a slot per source, plus a [`ProcessSet`] of the occupied
/// sources. Lookup, insert and remove are O(1), and iteration runs in
/// `(round, source)` order, [`VertexId`]'s `Ord`, with no sort.
///
/// Rows span the rounds from the lowest to the highest one held (empty
/// rows at either end are dropped), so a map over a window of rounds costs
/// O(window), wherever the window lies. In between the rows are dense: key
/// a map only by rounds that something trusted gates, such as the owner's
/// own round counter — one round read off an unchecked message could open
/// every row up to it.
///
/// # Examples
///
/// ```
/// use asym_dag::{VertexId, VertexMap};
/// use asym_quorum::ProcessId;
///
/// let id = |round, source| VertexId::new(round, ProcessId::new(source));
/// let mut waves: VertexMap<u64> = VertexMap::new();
/// waves.insert(id(5, 2), 2);
/// waves.insert(id(1, 3), 1);
/// waves.insert(id(5, 0), 2);
/// assert_eq!(waves.get(id(1, 3)), Some(&1));
/// assert_eq!(waves.keys().collect::<Vec<_>>(), [id(1, 3), id(5, 0), id(5, 2)]);
/// assert_eq!(waves.remove(id(1, 3)), Some(1));
/// assert_eq!(waves.first_round(), Some(5));
/// ```
#[derive(Clone)]
pub struct VertexMap<V> {
    span: Span<Slots<V>>,
    len: usize,
    /// Slots a new row allocates: one past the highest source seen.
    width: usize,
}

impl<V> Default for VertexMap<V> {
    fn default() -> Self {
        VertexMap { span: Span::default(), len: 0, width: 0 }
    }
}

impl<V> VertexMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        VertexMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `id` has an entry.
    pub fn contains(&self, id: VertexId) -> bool {
        self.span.row(id.round).is_some_and(|row| row.sources.contains(id.source))
    }

    /// The value of `id`.
    pub fn get(&self, id: VertexId) -> Option<&V> {
        self.span.row(id.round)?.values.get(id.source.index())?.as_ref()
    }

    /// The value of `id`, inserting `value()` first if it has none.
    pub fn get_or_insert_with(&mut self, id: VertexId, value: impl FnOnce() -> V) -> &mut V {
        let s = id.source.index();
        self.width = self.width.max(s + 1);
        let row = self.span.open(id.round);
        if row.values.len() <= s {
            row.values.resize_with(self.width, || None);
        }
        let slot = &mut row.values[s];
        if slot.is_none() {
            row.sources.insert(id.source);
            self.len += 1;
        }
        slot.get_or_insert_with(value)
    }

    /// Sets the value of `id`; returns the value it replaced.
    pub fn insert(&mut self, id: VertexId, value: V) -> Option<V> {
        let mut value = Some(value);
        let slot = self.get_or_insert_with(id, || value.take().expect("taken once"));
        value.map(|value| std::mem::replace(slot, value))
    }

    /// Removes the entry of `id` and returns its value.
    pub fn remove(&mut self, id: VertexId) -> Option<V> {
        let row = self.span.row_mut(id.round)?;
        let value = row.values.get_mut(id.source.index())?.take()?;
        row.sources.remove(id.source);
        self.len -= 1;
        if row.sources.is_empty() {
            self.span.trim();
        }
        Some(value)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.span.rows.clear();
        self.len = 0;
    }

    /// The lowest round with an entry.
    pub fn first_round(&self) -> Option<Round> {
        self.span.first_round()
    }

    /// The highest round with an entry.
    pub fn last_round(&self) -> Option<Round> {
        self.span.last_round()
    }

    /// The sources with an entry in `round` (`None` if it has none or lies
    /// outside the span).
    pub fn sources_in_round(&self, round: Round) -> Option<&ProcessSet> {
        self.span.row(round).map(|row| &row.sources)
    }

    /// The values of `round`, in source order.
    pub fn values_in_round(&self, round: Round) -> impl Iterator<Item = &V> + '_ {
        self.span.row(round).into_iter().flat_map(|row| row.values.iter().flatten())
    }

    /// The entries of the rounds in `rounds`, in `(round, source)` order.
    /// Only the rows of the span are visited.
    pub fn range(
        &self,
        rounds: impl RangeBounds<Round>,
    ) -> impl Iterator<Item = (VertexId, &V)> + '_ {
        self.span.range(rounds).flat_map(|(round, row)| row.iter(round))
    }

    /// Every entry, in `(round, source)` order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &V)> + '_ {
        self.range(..)
    }

    /// Every key, in `(round, source)` order.
    pub fn keys(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

impl<V: PartialEq> PartialEq for VertexMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for VertexMap<V> {}

impl<V: core::fmt::Debug> core::fmt::Debug for VertexMap<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> Extend<(VertexId, V)> for VertexMap<V> {
    fn extend<I: IntoIterator<Item = (VertexId, V)>>(&mut self, iter: I) {
        for (id, value) in iter {
            self.insert(id, value);
        }
    }
}

impl<V> FromIterator<(VertexId, V)> for VertexMap<V> {
    fn from_iter<I: IntoIterator<Item = (VertexId, V)>>(iter: I) -> Self {
        let mut map = VertexMap::new();
        map.extend(iter);
        map
    }
}

/// A set of [`VertexId`]s: the unit-valued [`VertexMap`], whose rows are
/// just the sets of occupied sources.
///
/// # Examples
///
/// ```
/// use asym_dag::{VertexId, VertexSet};
/// use asym_quorum::ProcessId;
///
/// let id = |round, source| VertexId::new(round, ProcessId::new(source));
/// let mut seen: VertexSet = [id(9, 1), id(7, 4), id(9, 0)].into_iter().collect();
/// assert!(seen.insert(id(8, 2)));
/// assert!(!seen.insert(id(9, 1)));
/// assert_eq!(seen.iter().collect::<Vec<_>>(), [id(7, 4), id(8, 2), id(9, 0), id(9, 1)]);
/// ```
#[derive(Clone, Default)]
pub struct VertexSet {
    span: Span<ProcessSet>,
    len: usize,
}

impl VertexSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        VertexSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `id` is a member.
    pub fn contains(&self, id: VertexId) -> bool {
        self.span.row(id.round).is_some_and(|row| row.contains(id.source))
    }

    /// Adds `id`; `true` if it was not a member.
    pub fn insert(&mut self, id: VertexId) -> bool {
        let fresh = self.span.open(id.round).insert(id.source);
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; `true` if it was a member.
    pub fn remove(&mut self, id: VertexId) -> bool {
        let Some(row) = self.span.row_mut(id.round) else { return false };
        if !row.remove(id.source) {
            return false;
        }
        self.len -= 1;
        if row.is_empty() {
            self.span.trim();
        }
        true
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.span.rows.clear();
        self.len = 0;
    }

    /// The lowest round with a member.
    pub fn first_round(&self) -> Option<Round> {
        self.span.first_round()
    }

    /// The highest round with a member.
    pub fn last_round(&self) -> Option<Round> {
        self.span.last_round()
    }

    /// The member sources of `round` (`None` if it has none or lies outside
    /// the span).
    pub fn sources_in_round(&self, round: Round) -> Option<&ProcessSet> {
        self.span.row(round)
    }

    /// The rows of the rounds in `rounds`, ascending (reverse the iterator
    /// for descending): each round of the span with its member sources,
    /// which may be empty between the lowest and the highest round.
    pub fn rounds(
        &self,
        rounds: impl RangeBounds<Round>,
    ) -> impl DoubleEndedIterator<Item = (Round, &ProcessSet)> + '_ {
        self.span.range(rounds)
    }

    /// The members of the rounds in `rounds`, in `(round, source)` order.
    pub fn range(&self, rounds: impl RangeBounds<Round>) -> impl Iterator<Item = VertexId> + '_ {
        self.rounds(rounds)
            .flat_map(|(round, row)| row.iter().map(move |s| VertexId::new(round, s)))
    }

    /// Every member, in `(round, source)` order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.range(..)
    }
}

impl PartialEq for VertexSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for VertexSet {}

impl core::fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<VertexId> for VertexSet {
    fn extend<I: IntoIterator<Item = VertexId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl FromIterator<VertexId> for VertexSet {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        let mut set = VertexSet::new();
        set.extend(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(round: Round, source: usize) -> VertexId {
        VertexId::new(round, ProcessId::new(source))
    }

    #[test]
    fn rows_span_only_the_rounds_held() {
        let mut set = VertexSet::new();
        set.insert(vid(1_000_000, 3));
        set.insert(vid(1_000_002, 0));
        assert_eq!(set.span.rows.len(), 3, "a window far from round 0 costs its width");
        assert!(set.remove(vid(1_000_000, 3)));
        assert_eq!((set.first_round(), set.span.rows.len()), (Some(1_000_002), 1));
        set.insert(vid(999_999, 1));
        assert_eq!(set.span.rows.len(), 4, "rows open below the span too");
        assert_eq!(set.rounds(..).filter(|(_, row)| row.is_empty()).count(), 2);
        assert!(set.remove(vid(1_000_002, 0)) && set.remove(vid(999_999, 1)));
        assert!(set.is_empty() && set.span.rows.is_empty());
        assert_eq!(set.rounds(..).count(), 0);
    }

    #[test]
    fn map_rows_take_the_widest_source_seen() {
        let mut map = VertexMap::new();
        map.insert(vid(1, 9), 'a');
        map.insert(vid(2, 0), 'b');
        assert_eq!(map.span.row(2).map(|row| row.values.len()), Some(10));
        assert_eq!(map.insert(vid(2, 0), 'c'), Some('b'));
        assert_eq!(map.len(), 2);
        assert_eq!(map.values_in_round(2).collect::<Vec<_>>(), [&'c']);
        *map.get_or_insert_with(vid(1, 9), || 'x') = 'd';
        assert_eq!(map.iter().collect::<Vec<_>>(), [(vid(1, 9), &'d'), (vid(2, 0), &'c')]);
    }

    #[test]
    fn ranges_clamp_to_the_span() {
        let set: VertexSet = [vid(3, 0), vid(5, 1), vid(6, 2)].into_iter().collect();
        let range = |lo: Bound<Round>, hi: Bound<Round>| set.range((lo, hi)).collect::<Vec<_>>();
        assert_eq!(range(Bound::Excluded(3), Bound::Included(5)), [vid(5, 1)]);
        assert_eq!(range(Bound::Unbounded, Bound::Excluded(3)), []);
        assert_eq!(range(Bound::Excluded(Round::MAX), Bound::Unbounded), []);
        assert_eq!(range(Bound::Included(6), Bound::Included(Round::MAX)), [vid(6, 2)]);
        assert_eq!(range(Bound::Included(7), Bound::Included(2)), []);
        let rounds: Vec<Round> = set.rounds(4..).rev().map(|(r, _)| r).collect();
        assert_eq!(rounds, [6, 5, 4]);
    }
}
