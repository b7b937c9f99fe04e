//! First-touch page allocation.

use mcgpu_types::{ChipId, LineMap, PageAddr};

/// Maps pages to home memory partitions using first-touch allocation
/// (Arunkumar et al.): the first chip to access any line of a page becomes
/// the page's home for the rest of the execution.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Home chip by page index.
    homes: LineMap<ChipId>,
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
            homes: LineMap::default(),
        }
    }

    /// Home chip of `page`, allocating it to `toucher`'s partition if this is
    /// the first access (first-touch policy).
    pub fn home_of(&mut self, page: PageAddr, toucher: ChipId) -> ChipId {
        *self.homes.entry(page.0).or_insert(toucher)
    }

    /// Home chip of `page` if already mapped.
    pub fn lookup(&self, page: PageAddr) -> Option<ChipId> {
        self.homes.get(&page.0).copied()
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
    #[should_panic(expected = "power of two")]
    fn rejects_odd_page_size() {
        PageTable::new(3000);
    }
}
