//! Address-space layout of a synthetic workload.
//!
//! The virtual address space of a generated workload is carved into three
//! page-aligned pools mirroring §2.1's sharing taxonomy:
//!
//! * **non-shared** — one contiguous region per chip, only ever accessed by
//!   that chip;
//! * **falsely shared** — pages whose 32 lines are statically divided among
//!   the chips (chip `c` uses slot `c`), so different chips touch different
//!   lines of the same page;
//! * **truly shared** — pages whose lines are accessed by every chip.

use mcgpu_types::{Address, ChipId, LineAddr, MachineConfig, PageAddr};

/// Sharing class of a cache line, by construction of the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingClass {
    /// Accessed by a single chip; no other chip touches its page.
    NonShared,
    /// Accessed by a single chip, but other lines of its page belong to
    /// other chips.
    FalseShared,
    /// Accessed by multiple chips.
    TrueShared,
}

impl SharingClass {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            SharingClass::NonShared => "non-shared",
            SharingClass::FalseShared => "false-shared",
            SharingClass::TrueShared => "true-shared",
        }
    }
}

/// Page-aligned partition of the address space into the three pools.
///
/// Layout (page indices):
/// `[0, non_pages*chips)` non-shared (chip c owns an interleaved share),
/// `[non_end, non_end + false_pages)` falsely shared,
/// `[false_end, false_end + true_pages)` truly shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressLayout {
    chips: usize,
    line_size: u64,
    page_size: u64,
    lines_per_page: u64,
    /// Non-shared pages owned by EACH chip.
    non_pages_per_chip: u64,
    false_pages: u64,
    true_pages: u64,
}

impl AddressLayout {
    /// Build a layout with the given pool sizes in bytes (rounded up to
    /// whole pages; every pool gets at least one page so indices stay
    /// valid).
    pub fn new(cfg: &MachineConfig, non_bytes: u64, false_bytes: u64, true_bytes: u64) -> Self {
        let ps = cfg.page_size;
        let pages = |bytes: u64| bytes.div_ceil(ps).max(1);
        AddressLayout {
            chips: cfg.chips,
            line_size: cfg.line_size,
            page_size: ps,
            lines_per_page: ps / cfg.line_size,
            non_pages_per_chip: pages(non_bytes / cfg.chips as u64),
            false_pages: pages(false_bytes),
            true_pages: pages(true_bytes),
        }
    }

    /// Number of chips this layout was built for.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Total footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        (self.non_pages_per_chip * self.chips as u64 + self.false_pages + self.true_pages)
            * self.page_size
    }

    /// Truly-shared pool size in bytes.
    pub fn true_bytes(&self) -> u64 {
        self.true_pages * self.page_size
    }

    /// Falsely-shared pool size in bytes.
    pub fn false_bytes(&self) -> u64 {
        self.false_pages * self.page_size
    }

    /// Number of truly-shared lines.
    pub fn true_lines(&self) -> u64 {
        self.true_pages * self.lines_per_page
    }

    /// Number of falsely-shared line *slots* available to one chip.
    pub fn false_slots_per_chip(&self) -> u64 {
        self.false_pages * (self.lines_per_page / self.chips as u64).max(1)
    }

    /// Number of non-shared lines owned by one chip.
    pub fn non_lines_per_chip(&self) -> u64 {
        self.non_pages_per_chip * self.lines_per_page
    }

    fn false_base_page(&self) -> u64 {
        self.non_pages_per_chip * self.chips as u64
    }

    fn true_base_page(&self) -> u64 {
        self.false_base_page() + self.false_pages
    }

    /// Byte address of non-shared line number `idx` of `chip` (wraps
    /// around the chip's pool).
    pub fn non_shared_addr(&self, chip: ChipId, idx: u64) -> Address {
        let lines = self.non_lines_per_chip();
        let idx = idx % lines;
        let page = chip.index() as u64 * self.non_pages_per_chip + idx / self.lines_per_page;
        let line_in_page = idx % self.lines_per_page;
        Address::new((page * self.lines_per_page + line_in_page) * self.line_size)
    }

    /// Byte address of falsely-shared slot `idx` of `chip`: page
    /// `idx / slots_per_page`, line `chip * slots_per_page + offset`.
    pub fn false_shared_addr(&self, chip: ChipId, idx: u64) -> Address {
        let slots_per_page = (self.lines_per_page / self.chips as u64).max(1);
        let idx = idx % self.false_slots_per_chip();
        let page = self.false_base_page() + idx / slots_per_page;
        let line_in_page =
            (chip.index() as u64 * slots_per_page + idx % slots_per_page) % self.lines_per_page;
        Address::new((page * self.lines_per_page + line_in_page) * self.line_size)
    }

    /// Byte address of truly-shared line `idx` (same for every chip; wraps).
    pub fn true_shared_addr(&self, idx: u64) -> Address {
        let idx = idx % self.true_lines();
        let page = self.true_base_page() + idx / self.lines_per_page;
        let line_in_page = idx % self.lines_per_page;
        Address::new((page * self.lines_per_page + line_in_page) * self.line_size)
    }

    /// The chip that naturally first-touches `page`: the owner for
    /// non-shared pages, the segment owner for truly-shared pages, and a
    /// round-robin winner for falsely-shared pages (all chips race to touch
    /// those). Used to pre-seed the page table, modelling the host-to-device
    /// placement that precedes kernel 0 — and making page placement
    /// identical across LLC organizations.
    ///
    /// Returns `None` for pages outside the layout's footprint.
    pub fn natural_home(&self, page: PageAddr) -> Option<ChipId> {
        let p = page.index();
        if p < self.false_base_page() {
            Some(ChipId((p / self.non_pages_per_chip) as u8))
        } else if p < self.true_base_page() {
            Some(ChipId(
                ((p - self.false_base_page()) % self.chips as u64) as u8,
            ))
        } else if p < self.true_base_page() + self.true_pages {
            let seg = (self.true_pages / self.chips as u64).max(1);
            let owner = ((p - self.true_base_page()) / seg).min(self.chips as u64 - 1);
            Some(ChipId(owner as u8))
        } else {
            None
        }
    }

    /// Total pages in the layout's footprint.
    pub fn total_pages(&self) -> u64 {
        self.footprint_bytes() / self.page_size
    }

    /// The sharing class of `line`, by construction.
    pub fn classify(&self, line: LineAddr) -> SharingClass {
        let page = line.index() / self.lines_per_page;
        if page < self.false_base_page() {
            SharingClass::NonShared
        } else if page < self.true_base_page() {
            SharingClass::FalseShared
        } else {
            SharingClass::TrueShared
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::experiment_baseline()
    }

    fn layout() -> AddressLayout {
        // 1 MiB non-shared, 256 KiB false, 128 KiB true.
        AddressLayout::new(&cfg(), 1 << 20, 256 << 10, 128 << 10)
    }

    #[test]
    fn pools_do_not_overlap() {
        let l = layout();
        let line = |a: Address| a.line(128);
        // Non-shared addresses of different chips never collide and classify
        // as NonShared.
        let a0 = l.non_shared_addr(ChipId(0), 5);
        let a1 = l.non_shared_addr(ChipId(1), 5);
        assert_ne!(a0, a1);
        assert_eq!(l.classify(line(a0)), SharingClass::NonShared);

        let f = l.false_shared_addr(ChipId(2), 9);
        assert_eq!(l.classify(line(f)), SharingClass::FalseShared);

        let t = l.true_shared_addr(3);
        assert_eq!(l.classify(line(t)), SharingClass::TrueShared);
    }

    #[test]
    fn false_shared_slots_share_pages_but_not_lines() {
        let l = layout();
        let chips: Vec<Address> = (0..4).map(|c| l.false_shared_addr(ChipId(c), 0)).collect();
        let pages: std::collections::HashSet<u64> =
            chips.iter().map(|a| a.page(4096).index()).collect();
        assert_eq!(pages.len(), 1, "slot 0 of all chips is in the same page");
        let lines: std::collections::HashSet<u64> =
            chips.iter().map(|a| a.line(128).index()).collect();
        assert_eq!(lines.len(), 4, "but on distinct lines");
    }

    #[test]
    fn true_shared_is_identical_across_chips() {
        let l = layout();
        // All chips compute the same address for the same index.
        assert_eq!(l.true_shared_addr(17), l.true_shared_addr(17));
    }

    #[test]
    fn indices_wrap() {
        let l = layout();
        let n = l.true_lines();
        assert_eq!(l.true_shared_addr(0), l.true_shared_addr(n));
        let s = l.false_slots_per_chip();
        assert_eq!(
            l.false_shared_addr(ChipId(1), 1),
            l.false_shared_addr(ChipId(1), s + 1)
        );
    }

    #[test]
    fn footprint_accounts_all_pools() {
        let l = layout();
        let expected =
            (l.non_lines_per_chip() * 4 / 32 + l.false_bytes() / 4096 + l.true_bytes() / 4096)
                * 4096;
        assert_eq!(l.footprint_bytes(), expected);
    }

    #[test]
    fn natural_home_matches_pool_structure() {
        let l = layout();
        // Non-shared pages belong to their owner chip.
        let a = l.non_shared_addr(ChipId(2), 0);
        assert_eq!(l.natural_home(a.page(4096)), Some(ChipId(2)));
        // Truly-shared pages belong to their segment owner; segment 0 is
        // chip 0's.
        let t = l.true_shared_addr(0);
        assert_eq!(l.natural_home(t.page(4096)), Some(ChipId(0)));
        // Out-of-footprint pages are unmapped.
        assert_eq!(l.natural_home(PageAddr(1 << 40)), None);
        // Every in-footprint page has a home.
        for p in 0..l.total_pages() {
            assert!(l.natural_home(PageAddr(p)).is_some(), "page {p}");
        }
    }

    #[test]
    fn tiny_pools_get_one_page() {
        let l = AddressLayout::new(&cfg(), 0, 0, 0);
        assert!(l.true_lines() > 0);
        assert!(l.false_slots_per_chip() > 0);
        assert!(l.non_lines_per_chip() > 0);
    }
}
