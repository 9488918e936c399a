//! Dense sets of processes backed by a dynamic bit set.
//!
//! All quorum-system mathematics in this crate — subset tests, intersections,
//! complements, kernel checks — bottoms out in operations on [`ProcessSet`].
//! The representation is a canonical bit vector (no trailing zero words)
//! whose first [`INLINE`] words live inline, so a set of up to 128
//! processes never allocates. Equality, hashing and ordering are those of
//! the word slice, exactly what a derive on `Vec<u64>` gives.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{BitAnd, BitOr, BitOrAssign, BitXor, Deref, DerefMut, Sub, SubAssign};

use serde::de::{SeqAccess, Visitor};
use serde::ser::SerializeSeq;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::ProcessId;

const BITS: usize = 64;

/// Words a [`ProcessSet`] keeps inline before it spills to the heap.
const INLINE: usize = 2;

/// The bit words of a set, least-significant first: up to [`INLINE`] of
/// them inline, more on the heap. Dereferences to the live words only.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE], u8),
    Heap(Vec<u64>),
}

impl Words {
    /// Sets the number of words, zero-filling new ones; spills to the heap
    /// only when `len` exceeds the inline capacity.
    fn resize(&mut self, len: usize) {
        match self {
            Words::Inline(words, live) if len <= INLINE => {
                words[(*live as usize).min(len)..len].fill(0);
                *live = len as u8;
            }
            Words::Inline(words, live) => {
                let mut heap = Vec::with_capacity(len);
                heap.extend_from_slice(&words[..*live as usize]);
                heap.resize(len, 0);
                *self = Words::Heap(heap);
            }
            Words::Heap(heap) => heap.resize(len, 0),
        }
    }

    /// `len` zero words.
    fn zeroed(len: usize) -> Self {
        let mut words = Words::default();
        words.resize(len);
        words
    }

    /// Drops trailing zero words, restoring the canonical form.
    fn normalize(&mut self) {
        let live = self.iter().rposition(|w| *w != 0).map_or(0, |i| i + 1);
        self.resize(live);
    }
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline([0; INLINE], 0)
    }
}

impl Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(words, live) => &words[..*live as usize],
            Words::Heap(heap) => heap,
        }
    }
}

impl DerefMut for Words {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(words, live) => &mut words[..*live as usize],
            Words::Heap(heap) => heap,
        }
    }
}

/// A set of [`ProcessId`]s, implemented as a dynamic bit set.
///
/// The set is unbounded: inserting `p200` into an empty set grows the
/// backing storage as needed (onto the heap above `p127`). Operations that
/// need to know the system size `n` (such as [`ProcessSet::complement`])
/// take it as an argument.
///
/// # Examples
///
/// ```
/// use asym_quorum::{ProcessId, ProcessSet};
///
/// let a: ProcessSet = [0usize, 1, 2].into_iter().collect();
/// let b: ProcessSet = [2usize, 3].into_iter().collect();
/// assert_eq!((&a & &b).to_string(), "{2}");
/// assert_eq!((&a | &b).len(), 4);
/// assert!(a.contains(ProcessId::new(1)));
/// assert!(!a.is_subset(&b));
/// ```
#[derive(Clone, Default)]
pub struct ProcessSet {
    /// Bit blocks, least-significant block first; canonical: no trailing zeros.
    blocks: Words,
}

impl PartialEq for ProcessSet {
    fn eq(&self, other: &Self) -> bool {
        *self.blocks == *other.blocks
    }
}

impl Eq for ProcessSet {}

impl PartialOrd for ProcessSet {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProcessSet {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (*self.blocks).cmp(&*other.blocks)
    }
}

impl Hash for ProcessSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.blocks.deref().hash(state);
    }
}

impl ProcessSet {
    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        ProcessSet { blocks: Words::default() }
    }

    /// Creates a set containing exactly one process.
    pub fn singleton(id: ProcessId) -> Self {
        let mut s = ProcessSet::new();
        s.insert(id);
        s
    }

    /// Creates the full set `{p_0, …, p_{n-1}}`.
    pub fn full(n: usize) -> Self {
        let mut blocks = Words::zeroed(n.div_ceil(BITS));
        blocks.fill(u64::MAX);
        if !n.is_multiple_of(BITS) {
            blocks[n / BITS] = (1u64 << (n % BITS)) - 1;
        }
        ProcessSet { blocks }
    }

    /// Creates a set from zero-based indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(ids: I) -> Self {
        ids.into_iter().map(ProcessId::new).collect()
    }

    /// Creates a set from the paper's one-based labels (`1..=n`).
    ///
    /// # Panics
    ///
    /// Panics if any label is `0`, since the paper's labels start at 1.
    pub fn from_paper_labels<I: IntoIterator<Item = usize>>(labels: I) -> Self {
        labels
            .into_iter()
            .map(|l| {
                assert!(l >= 1, "paper labels are one-based");
                ProcessId::new(l - 1)
            })
            .collect()
    }

    /// Inserts a process; returns `true` if it was not already present.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let (block, bit) = (id.index() / BITS, id.index() % BITS);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1);
        }
        let mask = 1u64 << bit;
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes a process; returns `true` if it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let (block, bit) = (id.index() / BITS, id.index() % BITS);
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << bit;
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        if present {
            self.normalize();
        }
        present
    }

    /// Returns `true` if the process is a member.
    #[inline]
    pub fn contains(&self, id: ProcessId) -> bool {
        let (block, bit) = (id.index() / BITS, id.index() % BITS);
        self.blocks.get(block).is_some_and(|b| b & (1u64 << bit) != 0)
    }

    /// Returns the number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns the union `self ∪ other`.
    pub fn union(&self, other: &Self) -> Self {
        let (long, short) =
            if self.blocks.len() >= other.blocks.len() { (self, other) } else { (other, self) };
        let mut blocks = long.blocks.clone();
        for (b, s) in blocks.iter_mut().zip(short.blocks.iter()) {
            *b |= s;
        }
        ProcessSet { blocks }
    }

    /// Returns the intersection `self ∩ other`.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut blocks = Words::zeroed(self.blocks.len().min(other.blocks.len()));
        for ((b, x), y) in blocks.iter_mut().zip(self.blocks.iter()).zip(other.blocks.iter()) {
            *b = x & y;
        }
        let mut s = ProcessSet { blocks };
        s.normalize();
        s
    }

    /// Returns the difference `self ∖ other`.
    pub fn difference(&self, other: &Self) -> Self {
        let mut blocks = self.blocks.clone();
        for (b, o) in blocks.iter_mut().zip(other.blocks.iter()) {
            *b &= !o;
        }
        let mut s = ProcessSet { blocks };
        s.normalize();
        s
    }

    /// Returns the symmetric difference `self △ other`.
    pub fn symmetric_difference(&self, other: &Self) -> Self {
        let (long, short) =
            if self.blocks.len() >= other.blocks.len() { (self, other) } else { (other, self) };
        let mut blocks = long.blocks.clone();
        for (b, s) in blocks.iter_mut().zip(short.blocks.iter()) {
            *b ^= s;
        }
        let mut s = ProcessSet { blocks };
        s.normalize();
        s
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len());
        }
        for (b, o) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *b |= o;
        }
    }

    /// In-place difference (removes all members of `other`).
    pub fn subtract(&mut self, other: &Self) {
        for (b, o) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *b &= !o;
        }
        self.normalize();
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        if self.blocks.len() > other.blocks.len() {
            return false;
        }
        self.blocks.iter().zip(other.blocks.iter()).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if `self ⊇ other`.
    #[inline]
    pub fn is_superset(&self, other: &Self) -> bool {
        other.is_subset(self)
    }

    /// Returns `true` if the sets share no member.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.blocks.iter().zip(other.blocks.iter()).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if the sets share at least one member.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        !self.is_disjoint(other)
    }

    /// Returns the complement `{p_0, …, p_{n-1}} ∖ self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` contains a process with index `≥ n`.
    pub fn complement(&self, n: usize) -> Self {
        if let Some(max) = self.max_id() {
            assert!(
                max.index() < n,
                "complement within universe of size {n} of a set containing {max}"
            );
        }
        ProcessSet::full(n).difference(self)
    }

    /// Returns the smallest member, if any.
    pub fn first(&self) -> Option<ProcessId> {
        for (i, b) in self.blocks.iter().enumerate() {
            if *b != 0 {
                return Some(ProcessId::new(i * BITS + b.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Returns the largest member, if any.
    pub fn max_id(&self) -> Option<ProcessId> {
        let (i, b) = self.blocks.iter().enumerate().rev().find(|(_, b)| **b != 0)?;
        Some(ProcessId::new(i * BITS + (BITS - 1 - b.leading_zeros() as usize)))
    }

    /// Returns an iterator over members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, block: 0, bits: self.blocks.first().copied().unwrap_or(0) }
    }

    /// Collects the members into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<ProcessId> {
        self.iter().collect()
    }

    /// Collects the members into a sorted `Vec` of raw indices.
    pub fn to_index_vec(&self) -> Vec<usize> {
        self.iter().map(|p| p.index()).collect()
    }

    fn normalize(&mut self) {
        self.blocks.normalize();
    }
}

/// Counts the processes below `n` in the set that `combine` builds, word by
/// word, from `sets` — `|A ∩ B ∖ C|` and the like, without allocating it.
pub(crate) fn count_members<const K: usize>(
    n: usize,
    sets: [&ProcessSet; K],
    combine: impl Fn([u64; K]) -> u64,
) -> usize {
    (0..n.div_ceil(BITS))
        .map(|b| {
            let word = combine(sets.map(|s| s.blocks.get(b).copied().unwrap_or(0)));
            let below_n = if n - b * BITS >= BITS { u64::MAX } else { (1 << (n % BITS)) - 1 };
            (word & below_n).count_ones() as usize
        })
        .sum()
}

/// Iterator over the members of a [`ProcessSet`] in ascending order.
#[derive(Clone)]
pub struct Iter<'a> {
    set: &'a ProcessSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(ProcessId::new(self.block * BITS + bit));
            }
            self.block += 1;
            self.bits = *self.set.blocks.get(self.block)?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.bits.count_ones() as usize
            + self.set.blocks[(self.block + 1).min(self.set.blocks.len())..]
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        s.extend(iter);
        s
    }
}

impl FromIterator<usize> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        iter.into_iter().map(ProcessId::new).collect()
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl Extend<usize> for ProcessSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        self.extend(iter.into_iter().map(ProcessId::new));
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p.index())?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl BitOr for &ProcessSet {
    type Output = ProcessSet;
    fn bitor(self, rhs: &ProcessSet) -> ProcessSet {
        self.union(rhs)
    }
}

impl BitAnd for &ProcessSet {
    type Output = ProcessSet;
    fn bitand(self, rhs: &ProcessSet) -> ProcessSet {
        self.intersection(rhs)
    }
}

impl Sub for &ProcessSet {
    type Output = ProcessSet;
    fn sub(self, rhs: &ProcessSet) -> ProcessSet {
        self.difference(rhs)
    }
}

impl BitXor for &ProcessSet {
    type Output = ProcessSet;
    fn bitxor(self, rhs: &ProcessSet) -> ProcessSet {
        self.symmetric_difference(rhs)
    }
}

impl BitOrAssign<&ProcessSet> for ProcessSet {
    fn bitor_assign(&mut self, rhs: &ProcessSet) {
        self.union_with(rhs);
    }
}

impl SubAssign<&ProcessSet> for ProcessSet {
    fn sub_assign(&mut self, rhs: &ProcessSet) {
        self.subtract(rhs);
    }
}

impl Serialize for ProcessSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for p in self {
            seq.serialize_element(&(p.index() as u64))?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for ProcessSet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct SetVisitor;

        impl<'de> Visitor<'de> for SetVisitor {
            type Value = ProcessSet;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a sequence of process indices")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<ProcessSet, A::Error> {
                let mut set = ProcessSet::new();
                while let Some(idx) = seq.next_element::<u64>()? {
                    set.insert(ProcessId::new(idx as usize));
                }
                Ok(set)
            }
        }

        deserializer.deserialize_seq(SetVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ProcessSet::from_indices(ids.iter().copied())
    }

    /// The canonical `Vec<u64>` words of `ids`: no trailing zero word.
    fn words(ids: &[usize]) -> Vec<u64> {
        let mut words = vec![0; ids.iter().max().map_or(0, |max| max / BITS + 1)];
        for i in ids {
            words[i / BITS] |= 1 << (i % BITS);
        }
        words
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_set_is_at_most_four_words() {
        assert!(std::mem::size_of::<ProcessSet>() <= 32);
    }

    #[test]
    fn sets_up_to_p127_stay_inline() {
        let s = set(&[0, 63, 64, 127]);
        assert!(matches!(s.blocks, Words::Inline(..)));
        let mut big = set(&[0, 128]);
        assert!(matches!(big.blocks, Words::Heap(_)));
        big.remove(ProcessId::new(128));
        assert_eq!(big, set(&[0]));
        assert_eq!(ProcessSet::full(128).len(), 128);
        assert!(matches!(ProcessSet::full(128).blocks, Words::Inline(..)));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId::new(5)));
        assert!(!s.insert(ProcessId::new(5)));
        assert!(s.contains(ProcessId::new(5)));
        assert!(!s.contains(ProcessId::new(4)));
        assert!(s.remove(ProcessId::new(5)));
        assert!(!s.remove(ProcessId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn removal_renormalizes_for_structural_equality() {
        let mut s = set(&[1, 200]);
        s.remove(ProcessId::new(200));
        assert_eq!(s, set(&[1]));
        assert_eq!(hash_of(&s), hash_of(&set(&[1])));
    }

    #[test]
    fn full_and_complement() {
        let full = ProcessSet::full(70);
        assert_eq!(full.len(), 70);
        assert!(full.contains(ProcessId::new(69)));
        assert!(!full.contains(ProcessId::new(70)));
        let s = set(&[0, 69]);
        let c = s.complement(70);
        assert_eq!(c.len(), 68);
        assert!(!c.contains(ProcessId::new(0)));
        assert!(c.contains(ProcessId::new(1)));
    }

    #[test]
    #[should_panic(expected = "complement within universe")]
    fn complement_panics_outside_universe() {
        set(&[10]).complement(5);
    }

    #[test]
    fn set_algebra_basics() {
        let a = set(&[0, 1, 2, 64]);
        let b = set(&[2, 64, 65]);
        assert_eq!(a.union(&b), set(&[0, 1, 2, 64, 65]));
        assert_eq!(a.intersection(&b), set(&[2, 64]));
        assert_eq!(a.difference(&b), set(&[0, 1]));
        assert_eq!(a.symmetric_difference(&b), set(&[0, 1, 65]));
        assert!(set(&[0, 1]).is_subset(&a));
        assert!(a.is_superset(&set(&[64])));
        assert!(a.intersects(&b));
        assert!(set(&[3]).is_disjoint(&b));
    }

    #[test]
    fn operators_match_methods() {
        let a = set(&[1, 2, 3]);
        let b = set(&[3, 4]);
        assert_eq!(&a | &b, a.union(&b));
        assert_eq!(&a & &b, a.intersection(&b));
        assert_eq!(&a - &b, a.difference(&b));
        assert_eq!(&a ^ &b, a.symmetric_difference(&b));
        let mut c = a.clone();
        c |= &b;
        assert_eq!(c, a.union(&b));
        let mut d = a.clone();
        d -= &b;
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn iter_ascending_and_exact_size() {
        let s = set(&[130, 0, 64, 3]);
        let v: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 3, 64, 130]);
        assert_eq!(s.iter().len(), 4);
        assert_eq!(s.first(), Some(ProcessId::new(0)));
        assert_eq!(s.max_id(), Some(ProcessId::new(130)));
    }

    #[test]
    fn empty_set_edges() {
        let e = ProcessSet::new();
        assert_eq!(e.len(), 0);
        assert!(e.iter().next().is_none());
        assert_eq!(e.first(), None);
        assert_eq!(e.max_id(), None);
        assert!(e.is_subset(&e));
        assert!(e.is_disjoint(&e));
        assert_eq!(e.to_string(), "{}");
        assert_eq!(e.complement(3), ProcessSet::full(3));
    }

    #[test]
    fn paper_labels() {
        let s = ProcessSet::from_paper_labels([1, 2, 30]);
        assert_eq!(s.to_index_vec(), vec![0, 1, 29]);
    }

    #[test]
    fn display_format() {
        assert_eq!(set(&[2, 0, 5]).to_string(), "{0, 2, 5}");
    }

    #[test]
    fn deserialize_from_seq() {
        use serde::de::value::{Error as DeError, SeqDeserializer};
        let de: SeqDeserializer<_, DeError> = SeqDeserializer::new(vec![3u64, 1, 4].into_iter());
        let s = ProcessSet::deserialize(de).unwrap();
        assert_eq!(s, set(&[1, 3, 4]));
    }

    proptest! {
        #[test]
        fn prop_union_contains_both(a in proptest::collection::vec(0usize..200, 0..40),
                                    b in proptest::collection::vec(0usize..200, 0..40)) {
            let sa = ProcessSet::from_indices(a.iter().copied());
            let sb = ProcessSet::from_indices(b.iter().copied());
            let u = sa.union(&sb);
            prop_assert!(sa.is_subset(&u));
            prop_assert!(sb.is_subset(&u));
            for p in &u {
                prop_assert!(sa.contains(p) || sb.contains(p));
            }
        }

        #[test]
        fn prop_intersection_subset_difference_disjoint(
            a in proptest::collection::vec(0usize..200, 0..40),
            b in proptest::collection::vec(0usize..200, 0..40),
        ) {
            let sa = ProcessSet::from_indices(a.iter().copied());
            let sb = ProcessSet::from_indices(b.iter().copied());
            let i = sa.intersection(&sb);
            let d = sa.difference(&sb);
            prop_assert!(i.is_subset(&sa));
            prop_assert!(i.is_subset(&sb));
            prop_assert!(d.is_disjoint(&sb));
            prop_assert_eq!(i.union(&d), sa.clone());
            prop_assert_eq!(i.len() + d.len(), sa.len());
        }

        #[test]
        fn prop_complement_partitions(a in proptest::collection::vec(0usize..100, 0..30)) {
            let sa = ProcessSet::from_indices(a.iter().copied());
            let c = sa.complement(100);
            prop_assert!(sa.is_disjoint(&c));
            prop_assert_eq!(sa.union(&c), ProcessSet::full(100));
        }

        /// The inline representation against the `Vec<u64>` one it
        /// replaced: the same canonical words, so the same hash, order and
        /// equality, across the 64- and 128-member word boundaries.
        #[test]
        fn prop_words_match_the_vec_representation(
            a in proptest::collection::vec(0usize..200, 0..40),
            b in proptest::collection::vec(0usize..200, 0..40),
            extra in proptest::collection::vec(128usize..200, 1..8),
        ) {
            let (sa, sb) = (set(&a), set(&b));
            let (wa, wb) = (words(&a), words(&b));
            prop_assert_eq!(&*sa.blocks, &wa[..]);
            prop_assert_eq!(hash_of(&sa), hash_of(&wa));
            prop_assert_eq!(sa.cmp(&sb), wa.cmp(&wb));
            prop_assert_eq!(sa == sb, wa == wb);
            let union: Vec<usize> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(&*(&sa | &sb).blocks, &words(&union)[..]);
            let common: Vec<usize> = a.iter().copied().filter(|i| b.contains(i)).collect();
            prop_assert_eq!(&*(&sa & &sb).blocks, &words(&common)[..]);
            let only_a: Vec<usize> = a.iter().copied().filter(|i| !b.contains(i)).collect();
            prop_assert_eq!(&*(&sa - &sb).blocks, &words(&only_a)[..]);

            // Grown past 128 members' worth of words and shrunk back: equal
            // to, and hashing like, the set that never grew.
            let small: Vec<usize> = a.iter().copied().filter(|i| *i < 128).collect();
            let mut grown = set(&small);
            grown.extend(extra.iter().copied());
            for i in &extra {
                grown.remove(ProcessId::new(*i));
            }
            prop_assert_eq!(&grown, &set(&small));
            prop_assert_eq!(hash_of(&grown), hash_of(&set(&small)));
            prop_assert_eq!(grown.cmp(&sb), set(&small).cmp(&sb));
        }

        #[test]
        fn prop_iter_sorted_dedup(a in proptest::collection::vec(0usize..300, 0..60)) {
            let s = ProcessSet::from_indices(a.iter().copied());
            let v = s.to_index_vec();
            let mut expected = a.clone();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(v, expected);
        }
    }
}
