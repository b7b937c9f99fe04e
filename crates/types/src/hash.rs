//! The hasher for tables keyed by line, granule or page indices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by line, granule or page index, hashed with
/// [`LineHasher`].
///
/// # Example
/// ```
/// use mcgpu_types::LineMap;
///
/// let mut homes: LineMap<u8> = LineMap::default();
/// assert_eq!(homes.insert(0x1_0040 / 128, 3), None);
/// assert_eq!(homes.insert(0x1_0040 / 128, 1), Some(3));
/// ```
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// A multiplicative hasher for line indices: one 64 × 64 → 128-bit
/// multiply by an odd constant, folded to 64 bits, so both the low bits
/// (bucket) and the top bits (tag) of the hash depend on every key bit. A
/// plain multiply would leave the low bits a function of the key's low
/// bits alone, so lines that differ only above them (strided streams,
/// page-aligned regions) would share a bucket.
///
/// The keys come from the simulated address stream, which only the trace
/// generator produces, not from outside input, so the tables need no
/// defence against crafted collisions (the standard library's SipHash
/// default exists for that). `write_u64` and `finish` are `#[inline]` so
/// that tables in other crates fold the hash into their lookups: the
/// workspace builds without link-time optimization.
#[derive(Debug, Default, Clone)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
