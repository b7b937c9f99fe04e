//! First-touch page allocation.

use mcgpu_types::{ChipId, LineMap, PageAddr};
use std::collections::hash_map::Entry;

/// Maps pages to home memory partitions using first-touch allocation
/// (Arunkumar et al.): the first chip to access any line of a page becomes
/// the page's home for the rest of the execution.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: u64,
    /// Home chip by page index.
    homes: LineMap<ChipId>,
    pages_per_chip: Vec<u64>,
}

impl PageTable {
    /// Create an empty page table for `page_size`-byte pages.
    ///
    /// # Panics
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        PageTable {
            page_size,
            homes: LineMap::default(),
            pages_per_chip: Vec::new(),
        }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Home chip of `page`, allocating it to `toucher`'s partition if this is
    /// the first access (first-touch policy).
    pub fn home_of(&mut self, page: PageAddr, toucher: ChipId) -> ChipId {
        match self.homes.entry(page.0) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(toucher);
                let idx = toucher.index();
                if self.pages_per_chip.len() <= idx {
                    self.pages_per_chip.resize(idx + 1, 0);
                }
                self.pages_per_chip[idx] += 1;
                toucher
            }
        }
    }

    /// Home chip of `page` if already mapped.
    pub fn lookup(&self, page: PageAddr) -> Option<ChipId> {
        self.homes.get(&page.0).copied()
    }

    /// Number of pages mapped so far.
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    /// Pages homed at each chip (index = chip index).
    pub fn pages_per_chip(&self) -> &[u64] {
        &self.pages_per_chip
    }

    /// Total bytes of memory footprint mapped so far.
    pub fn footprint_bytes(&self) -> u64 {
        self.homes.len() as u64 * self.page_size
    }

    /// Forget all mappings (new application run).
    pub fn clear(&mut self) {
        self.homes.clear();
        self.pages_per_chip.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_sticky() {
        let mut pt = PageTable::new(4096);
        assert_eq!(pt.home_of(PageAddr(1), ChipId(3)), ChipId(3));
        for chip in 0..4u8 {
            assert_eq!(pt.home_of(PageAddr(1), ChipId(chip)), ChipId(3));
        }
        assert_eq!(pt.lookup(PageAddr(1)), Some(ChipId(3)));
        assert_eq!(pt.lookup(PageAddr(2)), None);
    }

    #[test]
    fn counts_and_footprint() {
        let mut pt = PageTable::new(4096);
        pt.home_of(PageAddr(0), ChipId(0));
        pt.home_of(PageAddr(1), ChipId(0));
        pt.home_of(PageAddr(2), ChipId(1));
        assert_eq!(pt.len(), 3);
        assert_eq!(pt.pages_per_chip(), &[2, 1]);
        assert_eq!(pt.footprint_bytes(), 3 * 4096);
        pt.clear();
        assert!(pt.is_empty());
        assert_eq!(pt.footprint_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_page_size() {
        PageTable::new(3000);
    }
}
