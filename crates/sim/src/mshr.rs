//! The miss table both MSHR tiers share: the SM cluster's L1 MSHR file
//! and each LLC slice's pending-fetch table.

use mcgpu_types::LineMap;
use std::collections::hash_map::Entry;

/// Outstanding misses keyed by line index. The entries live in a flat
/// `(line, value)` vector in allocation order, deleted by swap-remove, and
/// an index maps each line to its slot, so lookup, insertion and removal
/// are O(1) however full the table runs. [`entries`](MshrTable::entries)
/// lists them in the vector's order, the order the flat-scan table they
/// replaced kept.
#[derive(Debug, Default)]
pub(crate) struct MshrTable<V> {
    entries: Vec<(u64, V)>,
    slots: LineMap<usize>,
}

impl<V> MshrTable<V> {
    /// An empty table whose entry vector holds `capacity` entries without
    /// reallocating. The index is not pre-sized: it grows with use.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        MshrTable {
            entries: Vec::with_capacity(capacity),
            slots: LineMap::default(),
        }
    }

    /// Whether `line` has an entry.
    pub(crate) fn contains(&self, line: u64) -> bool {
        self.slots.contains_key(&line)
    }

    /// The value of `line`'s entry, if it has one.
    pub(crate) fn get_mut(&mut self, line: u64) -> Option<&mut V> {
        let slot = *self.slots.get(&line)?;
        Some(&mut self.entries[slot].1)
    }

    /// Append an entry for `line`. Returns `false`, leaving the table
    /// unchanged and dropping `value`, when `line` already has one.
    pub(crate) fn insert(&mut self, line: u64, value: V) -> bool {
        match self.slots.entry(line) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push((line, value));
                true
            }
        }
    }

    /// Remove `line`'s entry and return its value. The last entry moves
    /// into the freed slot, as `Vec::swap_remove` moves it.
    pub(crate) fn remove(&mut self, line: u64) -> Option<V> {
        let slot = self.slots.remove(&line)?;
        let (_, value) = self.entries.swap_remove(slot);
        if let Some(&(moved, _)) = self.entries.get(slot) {
            self.slots.insert(moved, slot);
        }
        Some(value)
    }

    /// The entries in table order.
    pub(crate) fn entries(&self) -> &[(u64, V)] {
        &self.entries
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod lockstep;
