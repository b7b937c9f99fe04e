//! Identifiers for the hardware units of a multi-chip GPU.
//!
//! Both identifiers are small copyable newtypes: [`ChipId`] names a chip,
//! and [`ClusterId`] names an SM cluster by its `(chip, index)` pair, so
//! the same code can address "cluster 3 of chip 1" without ambiguity.

use std::fmt;

/// Identifies one GPU chip (a chip/module in the multi-chip package).
///
/// # Example
/// ```
/// use mcgpu_types::ChipId;
/// let c = ChipId(2);
/// assert_eq!(c.index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(pub u8);

impl ChipId {
    /// The chip index as a `usize`, for indexing per-chip arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterate over all chips of a machine with `n` chips.
    pub fn all(n: usize) -> impl Iterator<Item = ChipId> {
        (0..n).map(|i| ChipId(i as u8))
    }
}

impl fmt::Display for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}", self.0)
    }
}

/// Identifies one SM cluster (two SMs sharing a NoC port) within a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId {
    /// The chip this cluster belongs to.
    pub chip: ChipId,
    /// The cluster index within the chip.
    pub index: u16,
}

impl ClusterId {
    /// Create a cluster id from a chip and an intra-chip index.
    #[inline]
    pub fn new(chip: ChipId, index: usize) -> Self {
        ClusterId {
            chip,
            index: index as u16,
        }
    }

    /// Flat index across the whole machine given `clusters_per_chip`.
    #[inline]
    pub fn flat(self, clusters_per_chip: usize) -> usize {
        self.chip.index() * clusters_per_chip + self.index as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:sm{}", self.chip, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_all_enumerates() {
        let chips: Vec<_> = ChipId::all(4).collect();
        assert_eq!(chips, vec![ChipId(0), ChipId(1), ChipId(2), ChipId(3)]);
    }

    #[test]
    fn flat_indices_are_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for chip in ChipId::all(4) {
            for i in 0..16 {
                assert!(seen.insert(ClusterId::new(chip, i).flat(16)));
            }
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(*seen.iter().max().unwrap(), 63);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(ChipId(3).to_string(), "chip3");
        assert_eq!(ClusterId::new(ChipId(1), 7).to_string(), "chip1:sm7");
    }
}
