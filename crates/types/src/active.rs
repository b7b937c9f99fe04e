//! The members of a component that can act this cycle.
//!
//! A crossbar, a memory partition, the fabric and each chip own many
//! [`Pipe`](crate::Pipe)s, and most of them sit *dormant* most of the time:
//! empty, with a saturated budget, so ticking or popping them does nothing
//! ([`Pipe::is_dormant`](crate::Pipe::is_dormant)). The owner keeps the
//! indices of its other members in an [`ActiveSet`] and visits only those.
//! A push adds its member, a tick that leaves the member dormant removes
//! it, and anything that can wake a member without a push (a rate change,
//! a fault) marks every member. Walks go in ascending index order, the
//! order a loop over every member would take, so arbitration is unchanged.
//! The set is derived state.

/// A set of member indices in `0..capacity`, kept as a bitset: insert and
/// remove are O(1) and [`next_from`](ActiveSet::next_from) finds the next
/// member in ascending order one 64-member word at a time.
///
/// # Example
/// ```
/// use mcgpu_types::ActiveSet;
///
/// let mut set = ActiveSet::empty(100);
/// set.insert(70);
/// set.insert(3);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 70]);
/// set.remove(3);
/// assert_eq!(set.next_from(0), Some(70));
/// set.fill();
/// assert_eq!(set.iter().count(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    words: Vec<u64>,
    capacity: usize,
}

impl ActiveSet {
    /// A set over `0..capacity` with no members.
    pub fn empty(capacity: usize) -> Self {
        ActiveSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// A set over `0..capacity` holding every index.
    pub fn full(capacity: usize) -> Self {
        let mut set = ActiveSet::empty(capacity);
        set.fill();
        set
    }

    /// Add every index in `0..capacity`.
    pub fn fill(&mut self) {
        self.words.fill(u64::MAX);
        if let Some(last) = self.words.last_mut() {
            let tail = self.capacity % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Add `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "member {i} out of range");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Remove `i` (a no-op when it is not a member).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member at or after `from`, read from the live set, so
    /// a walk that inserts or removes members as it goes sees the change.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// Visit every member in ascending order and keep those for which
    /// `keep` returns `true`; the rest are removed. `keep` sees a snapshot
    /// of each 64-member word, so it must not insert members itself.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                if !keep(w * 64 + bit.trailing_zeros() as usize) {
                    *word ^= bit;
                }
            }
        }
    }

    /// The members in ascending order.
    #[inline]
    pub fn iter(&self) -> Members<'_> {
        Members {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// The members of an [`ActiveSet`] in ascending order: see
/// [`ActiveSet::iter`].
#[derive(Debug, Clone)]
pub struct Members<'a> {
    words: &'a [u64],
    word: usize,
    /// The members of `words[word]` not yet returned.
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let i = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bitset agrees with an ordered set under random inserts,
        /// removes, fills and clears, across word boundaries.
        #[test]
        fn matches_an_ordered_set(
            capacity in 1usize..200,
            ops in proptest::collection::vec((0u8..8, 0usize..200), 1..300),
        ) {
            let mut set = ActiveSet::empty(capacity);
            let mut reference = BTreeSet::new();
            for (op, i) in ops {
                let i = i % capacity;
                match op {
                    0..=3 => {
                        set.insert(i);
                        reference.insert(i);
                    }
                    4..=5 => {
                        set.remove(i);
                        reference.remove(&i);
                    }
                    6 => {
                        set.fill();
                        reference = (0..capacity).collect();
                    }
                    _ => {
                        set.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set.is_empty(), reference.is_empty());
                prop_assert_eq!(set.next_from(i), reference.range(i..).next().copied());
            }
        }
    }

    #[test]
    fn full_stops_at_capacity() {
        for capacity in [1, 63, 64, 65, 128, 130] {
            let set = ActiveSet::full(capacity);
            assert_eq!(set.iter().count(), capacity);
            assert_eq!(set.next_from(capacity), None);
        }
    }
}
