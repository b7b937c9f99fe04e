//! Lockstep test: `SetAssocCache::repeat_misses(k)` against `k` lookups
//! that miss the tag array.
//!
//! Two caches receive the same random prefix of fills, lookups and
//! invalidations. Then one makes `k` lookups of lines that were never
//! filled and the other calls `repeat_misses(k)`. Their statistics and
//! occupancy must agree at once, and the same random suffix of fills and
//! lookups must then evict the same LRU victims from both. Each case ends
//! by draining both caches with fills of fresh lines, which evicts every
//! resident line in LRU order: the victims must agree one by one, so the
//! LRU clock moved exactly as the lookups moved it. Conventional and
//! sectored geometries are both covered.

use mcgpu_cache::{CacheConfig, DataHome, SetAssocCache};
use mcgpu_types::{LineAddr, SectorId};
use proptest::prelude::*;

/// One step: `(operation, line, sector, write)`. Lines below 64 are the
/// working set; the missing lookups use lines from 1,000 up.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u8, bool)>> {
    proptest::collection::vec((0u8..8, 0u64..64, 0u8..4, any::<bool>()), 0..200)
}

/// Apply `ops` to `c`, returning every fill's victim.
fn apply(c: &mut SetAssocCache, ops: &[(u8, u64, u8, bool)]) -> Vec<Option<mcgpu_cache::Eviction>> {
    let mut victims = Vec::new();
    for &(op, line, sector, write) in ops {
        let (line, sector) = (LineAddr(line), Some(SectorId(sector)));
        match op {
            0..=3 => {
                let home = if write {
                    DataHome::Remote
                } else {
                    DataHome::Local
                };
                victims.push(c.fill(line, sector, home, write));
            }
            4..=6 => {
                c.lookup(line, sector, write);
            }
            _ => {
                c.invalidate(line);
            }
        }
    }
    victims
}

/// Fill fresh lines until every line resident before has been evicted,
/// returning every victim in eviction order.
fn drain(c: &mut SetAssocCache) -> Vec<Option<mcgpu_cache::Eviction>> {
    let fresh = 4 * c.config().capacity_lines() as u64;
    (0..fresh)
        .map(|i| {
            c.fill(
                LineAddr(10_000 + i),
                Some(SectorId(0)),
                DataHome::Local,
                false,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn repeat_misses_equals_missing_lookups(
        sectored in any::<bool>(),
        prefix in ops(),
        k in 0u64..300,
        suffix in ops(),
    ) {
        // 4 sets x 4 ways: a 64-line working set keeps every set evicting.
        let mut geometry = CacheConfig::l1(4 * 4 * 128, 4, 128);
        if sectored {
            geometry = geometry.with_sectors(4);
        }
        let mut looked_up = SetAssocCache::new(geometry.clone());
        let mut repeated = SetAssocCache::new(geometry);
        apply(&mut looked_up, &prefix);
        apply(&mut repeated, &prefix);

        for i in 0..k {
            let missing = LineAddr(1_000 + i % 7);
            prop_assert_eq!(
                looked_up.lookup(missing, Some(SectorId((i % 4) as u8)), false),
                mcgpu_cache::LookupOutcome::Miss
            );
        }
        repeated.repeat_misses(k);
        prop_assert_eq!(looked_up.stats(), repeated.stats());
        prop_assert_eq!(looked_up.occupancy_by_home(), repeated.occupancy_by_home());

        prop_assert_eq!(apply(&mut looked_up, &suffix), apply(&mut repeated, &suffix), "victims");
        prop_assert_eq!(looked_up.stats(), repeated.stats());
        prop_assert_eq!(looked_up.occupancy_by_home(), repeated.occupancy_by_home());

        prop_assert_eq!(drain(&mut looked_up), drain(&mut repeated), "drain victims");
        prop_assert_eq!(looked_up.stats(), repeated.stats());
    }
}
