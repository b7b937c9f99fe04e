//! Byte, cache-line and page address arithmetic.
//!
//! The simulator works on 64-bit byte addresses. Cache lines are 128 B in the
//! baseline (Table 3) and pages 4 KiB; both are configurable, so the
//! conversion methods take the relevant size as an argument and the newtypes
//! simply distinguish the three granularities statically.

use std::fmt;

/// A 64-bit byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u64);

/// A cache-line address: the byte address divided by the line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// A page address: the byte address divided by the page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(pub u64);

/// Identifies one sector within a cache line (sectored caches, Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SectorId(pub u8);

impl Address {
    /// Wrap a raw byte address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// The raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache line containing this address.
    ///
    /// # Panics
    /// Panics if `line_size` is not a power of two.
    #[inline]
    pub fn line(self, line_size: u64) -> LineAddr {
        debug_assert!(line_size.is_power_of_two());
        LineAddr(self.0 / line_size)
    }

    /// The page containing this address.
    ///
    /// # Panics
    /// Panics if `page_size` is not a power of two.
    #[inline]
    pub fn page(self, page_size: u64) -> PageAddr {
        debug_assert!(page_size.is_power_of_two());
        PageAddr(self.0 / page_size)
    }

    /// The byte offset within the containing line.
    #[inline]
    pub fn line_offset(self, line_size: u64) -> u64 {
        self.0 & (line_size - 1)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl LineAddr {
    /// The line index (byte address / line size).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The first byte address of this line.
    #[inline]
    pub fn base(self, line_size: u64) -> Address {
        Address(self.0 * line_size)
    }

    /// The page containing this line.
    #[inline]
    pub fn page(self, line_size: u64, page_size: u64) -> PageAddr {
        debug_assert!(page_size >= line_size);
        PageAddr(self.0 / (page_size / line_size))
    }

    /// The sector of this line that `addr` falls in, with `sectors` sectors
    /// per line.
    #[inline]
    pub fn sector_of(addr: Address, line_size: u64, sectors: u32) -> SectorId {
        let off = addr.line_offset(line_size);
        let sector_size = line_size / sectors as u64;
        SectorId((off / sector_size) as u8)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl PageAddr {
    /// The page index (byte address / page size).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: u64 = 128;
    const PAGE: u64 = 4096;

    #[test]
    fn line_and_page_round_trip() {
        let a = Address::new(5 * PAGE + 3 * LINE + 17);
        assert_eq!(a.page(PAGE).index(), 5);
        assert_eq!(a.line(LINE).index(), (5 * PAGE + 3 * LINE) / LINE);
        assert_eq!(a.line(LINE).page(LINE, PAGE), a.page(PAGE));
        assert_eq!(a.line(LINE).base(LINE).raw(), 5 * PAGE + 3 * LINE);
        assert_eq!(a.line_offset(LINE), 17);
    }

    #[test]
    fn sectors() {
        // 128 B line, 4 sectors of 32 B each.
        let base = Address::new(1000 * LINE);
        assert_eq!(LineAddr::sector_of(base, LINE, 4), SectorId(0));
        assert_eq!(
            LineAddr::sector_of(Address::new(base.raw() + 32), LINE, 4),
            SectorId(1)
        );
        assert_eq!(
            LineAddr::sector_of(Address::new(base.raw() + 127), LINE, 4),
            SectorId(3)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Address::new(0xff).to_string(), "0xff");
        assert_eq!(LineAddr(0x10).to_string(), "L0x10");
        assert_eq!(PageAddr(0x2).to_string(), "P0x2");
    }
}
