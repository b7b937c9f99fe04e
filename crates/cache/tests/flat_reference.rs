//! Exactness of the flat-array `SetAssocCache` against the per-set layout
//! it replaced.
//!
//! `VecCache` below is a test-only copy of the cache as it was before its
//! ways moved into flat arrays: one `Vec` of `Way` structs per set. Random
//! operation sequences, on random geometries (sectored or not, hashed or
//! modulo set indexing, 1–8 sets, 1–16 ways), drive both caches in
//! lockstep. Lines come from a domain about three times the capacity, so
//! most fills evict and partition changes strand lines outside their
//! pool. After every step each return value (outcomes, evictions, the
//! dirty-line vectors in order), the statistics, the occupancy and the
//! partition must agree; at the end every line of the domain must probe
//! the same, whole and sector by sector.

use mcgpu_cache::{CacheConfig, CacheStats, DataHome, Eviction, LookupOutcome, SetAssocCache};
use mcgpu_types::{LineAddr, SectorId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    home: DataHome,
    sectors: u8,
    stamp: u64,
}

impl Way {
    fn empty() -> Self {
        Way {
            tag: 0,
            valid: false,
            dirty: false,
            home: DataHome::Local,
            sectors: 0,
            stamp: 0,
        }
    }
}

/// The cache before the flat arrays, kept as the reference.
#[derive(Debug)]
struct VecCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
    local_ways: Option<usize>,
    stats: CacheStats,
    valid: (usize, usize),
}

impl VecCache {
    fn new(cfg: CacheConfig) -> Self {
        VecCache {
            sets: vec![vec![Way::empty(); cfg.assoc]; cfg.num_sets()],
            clock: 0,
            local_ways: None,
            stats: CacheStats::default(),
            valid: (0, 0),
            cfg,
        }
    }

    fn valid_count(&mut self, home: DataHome) -> &mut usize {
        match home {
            DataHome::Local => &mut self.valid.0,
            DataHome::Remote => &mut self.valid.1,
        }
    }

    fn set_partition(&mut self, local_ways: usize) {
        assert!(local_ways <= self.cfg.assoc);
        self.local_ways = Some(local_ways);
    }

    fn clear_partition(&mut self) {
        self.local_ways = None;
    }

    fn partition(&self) -> Option<(usize, usize)> {
        self.local_ways.map(|l| (l, self.cfg.assoc - l))
    }

    fn set_index(&self, line: LineAddr) -> usize {
        let mut x = line.index();
        if self.cfg.hashed_sets {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
        }
        (x % self.sets.len() as u64) as usize
    }

    fn sector_mask(&self, sector: Option<SectorId>) -> u8 {
        match (self.cfg.sectors, sector) {
            (Some(_), Some(s)) => 1u8 << s.0,
            _ => u8::MAX,
        }
    }

    fn lookup(&mut self, line: LineAddr, sector: Option<SectorId>, write: bool) -> LookupOutcome {
        self.clock += 1;
        let mask = self.sector_mask(sector);
        let set = self.set_index(line);
        self.stats.accesses += 1;
        for way in &mut self.sets[set] {
            if way.valid && way.tag == line.index() {
                way.stamp = self.clock;
                if way.sectors & mask != 0 {
                    if write {
                        way.dirty = true;
                    }
                    self.stats.hits += 1;
                    return LookupOutcome::Hit;
                }
                self.stats.sector_misses += 1;
                return LookupOutcome::SectorMiss;
            }
        }
        self.stats.misses += 1;
        LookupOutcome::Miss
    }

    fn probe(&self, line: LineAddr, sector: Option<SectorId>) -> bool {
        let mask = self.sector_mask(sector);
        let set = self.set_index(line);
        self.sets[set]
            .iter()
            .any(|w| w.valid && w.tag == line.index() && w.sectors & mask != 0)
    }

    fn fill(
        &mut self,
        line: LineAddr,
        sector: Option<SectorId>,
        home: DataHome,
        write: bool,
    ) -> Option<Eviction> {
        self.clock += 1;
        let mask = self.sector_mask(sector);
        let set = self.set_index(line);
        self.stats.fills += 1;
        if let Some(way) = self.sets[set]
            .iter_mut()
            .find(|w| w.valid && w.tag == line.index())
        {
            way.sectors |= mask;
            way.stamp = self.clock;
            if write {
                way.dirty = true;
            }
            return None;
        }
        let pool = match self.local_ways {
            None => 0..self.cfg.assoc,
            Some(l) => match home {
                DataHome::Local => 0..l,
                DataHome::Remote => l..self.cfg.assoc,
            },
        };
        if pool.is_empty() {
            self.stats.fill_rejections += 1;
            return None;
        }
        let ways = &mut self.sets[set];
        let victim_idx = pool
            .clone()
            .find(|&i| !ways[i].valid)
            .unwrap_or_else(|| pool.min_by_key(|&i| ways[i].stamp).expect("non-empty pool"));
        let victim = &mut ways[victim_idx];
        let evicted = if victim.valid {
            self.stats.evictions += 1;
            Some(Eviction {
                line: LineAddr(victim.tag),
                dirty: victim.dirty,
                home: victim.home,
            })
        } else {
            None
        };
        *victim = Way {
            tag: line.index(),
            valid: true,
            dirty: write,
            home,
            sectors: mask,
            stamp: self.clock,
        };
        if let Some(ev) = evicted {
            *self.valid_count(ev.home) -= 1;
        }
        *self.valid_count(home) += 1;
        evicted
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_index(line);
        let way = self.sets[set]
            .iter_mut()
            .find(|w| w.valid && w.tag == line.index())?;
        way.valid = false;
        let (dirty, home) = (way.dirty, way.home);
        *self.valid_count(home) -= 1;
        Some(dirty)
    }

    fn flush_all(&mut self) -> Vec<LineAddr> {
        let mut dirty = Vec::new();
        for set in &mut self.sets {
            for way in set {
                if way.valid {
                    if way.dirty {
                        dirty.push(LineAddr(way.tag));
                    }
                    way.valid = false;
                    way.dirty = false;
                    way.sectors = 0;
                }
            }
        }
        self.valid = (0, 0);
        dirty
    }

    fn writeback_all_dirty(&mut self) -> Vec<LineAddr> {
        let mut dirty = Vec::new();
        for set in &mut self.sets {
            for way in set {
                if way.valid && way.dirty {
                    dirty.push(LineAddr(way.tag));
                    way.dirty = false;
                }
            }
        }
        dirty
    }

    fn flush_home(&mut self, home: DataHome) -> Vec<LineAddr> {
        let mut dirty = Vec::new();
        for set in &mut self.sets {
            for way in set {
                if way.valid && way.home == home {
                    if way.dirty {
                        dirty.push(LineAddr(way.tag));
                    }
                    way.valid = false;
                    way.dirty = false;
                    way.sectors = 0;
                }
            }
        }
        *self.valid_count(home) = 0;
        dirty
    }

    fn len(&self) -> usize {
        self.valid.0 + self.valid.1
    }
}

/// One step of a lockstep run. Lines are drawn as a fraction of the
/// domain and sectors modulo the sector count, so one op strategy serves
/// every geometry.
#[derive(Debug, Clone)]
enum Op {
    Lookup(u16, Option<u8>, bool),
    Probe(u16, Option<u8>),
    /// Line, sector, remote home, write.
    Fill(u16, Option<u8>, bool, bool),
    Invalidate(u16),
    FlushAll,
    FlushHome(bool),
    WritebackAllDirty,
    /// Local ways, clamped to the associativity (so `usize::MAX` is a
    /// fully local cache).
    SetPartition(usize),
    ClearPartition,
}

fn sector() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![Just(None), (0u8..8).prop_map(Some)]
}

fn op() -> impl Strategy<Value = Op> {
    let lookup =
        || (any::<u16>(), sector(), any::<bool>()).prop_map(|(l, s, w)| Op::Lookup(l, s, w));
    let fill = || {
        (any::<u16>(), sector(), any::<bool>(), any::<bool>())
            .prop_map(|(l, s, r, w)| Op::Fill(l, s, r, w))
    };
    // Lookups and fills are listed three times each, so they make up most
    // of a sequence and the sets fill up between flushes.
    prop_oneof![
        lookup(),
        lookup(),
        lookup(),
        fill(),
        fill(),
        fill(),
        (any::<u16>(), sector()).prop_map(|(l, s)| Op::Probe(l, s)),
        any::<u16>().prop_map(Op::Invalidate),
        Just(Op::FlushAll),
        any::<bool>().prop_map(Op::FlushHome),
        Just(Op::WritebackAllDirty),
        prop_oneof![Just(0), Just(usize::MAX), 0usize..=16].prop_map(Op::SetPartition),
        Just(Op::ClearPartition),
    ]
}

/// A random geometry: 1–8 sets (not only powers of two), 1–16 ways,
/// conventional or 1–8 sectors per line, hashed or modulo set indexing.
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (
        1u64..=8,
        1usize..=16,
        prop_oneof![Just(None), (1u32..=8).prop_map(Some)],
        any::<bool>(),
    )
        .prop_map(|(sets, assoc, sectors, hashed)| {
            let bytes = sets * assoc as u64 * 128;
            let cfg = if hashed {
                CacheConfig::llc_slice(bytes, assoc, 128)
            } else {
                CacheConfig::l1(bytes, assoc, 128)
            };
            match sectors {
                Some(n) => cfg.with_sectors(n),
                None => cfg,
            }
        })
}

fn home(remote: bool) -> DataHome {
    if remote {
        DataHome::Remote
    } else {
        DataHome::Local
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat cache and the per-set reference agree on every return
    /// value, statistic and occupancy count, step by step, and on the
    /// residency of every line at the end.
    #[test]
    fn flat_cache_matches_the_per_set_cache(
        cfg in geometry(),
        ops in proptest::collection::vec(op(), 1..300),
    ) {
        let domain = 3 * cfg.capacity_lines() as u64;
        let sectors = cfg.sectors.unwrap_or(8) as u8;
        let assoc = cfg.assoc;
        let line = |l: u16| LineAddr(u64::from(l) % domain);
        let sector = |s: Option<u8>| s.map(|s| SectorId(s % sectors));
        let mut flat = SetAssocCache::new(cfg.clone());
        let mut reference = VecCache::new(cfg.clone());
        for op in &ops {
            match *op {
                Op::Lookup(l, s, w) => prop_assert_eq!(
                    flat.lookup(line(l), sector(s), w),
                    reference.lookup(line(l), sector(s), w),
                    "{:?}", op
                ),
                Op::Probe(l, s) => prop_assert_eq!(
                    flat.probe(line(l), sector(s)),
                    reference.probe(line(l), sector(s)),
                    "{:?}", op
                ),
                Op::Fill(l, s, r, w) => prop_assert_eq!(
                    flat.fill(line(l), sector(s), home(r), w),
                    reference.fill(line(l), sector(s), home(r), w),
                    "{:?}", op
                ),
                Op::Invalidate(l) => prop_assert_eq!(
                    flat.invalidate(line(l)),
                    reference.invalidate(line(l)),
                    "{:?}", op
                ),
                Op::FlushAll => {
                    prop_assert_eq!(flat.flush_all(), reference.flush_all(), "{:?}", op)
                }
                Op::FlushHome(r) => prop_assert_eq!(
                    flat.flush_home(home(r)),
                    reference.flush_home(home(r)),
                    "{:?}", op
                ),
                Op::WritebackAllDirty => prop_assert_eq!(
                    flat.writeback_all_dirty(),
                    reference.writeback_all_dirty(),
                    "{:?}", op
                ),
                Op::SetPartition(ways) => {
                    flat.set_partition(ways.min(assoc));
                    reference.set_partition(ways.min(assoc));
                }
                Op::ClearPartition => {
                    flat.clear_partition();
                    reference.clear_partition();
                }
            }
            prop_assert_eq!(flat.stats(), &reference.stats, "after {:?}", op);
            prop_assert_eq!(flat.occupancy_by_home(), reference.valid, "after {:?}", op);
            prop_assert_eq!(flat.len(), reference.len());
            prop_assert_eq!(flat.is_empty(), reference.len() == 0);
            prop_assert_eq!(flat.partition(), reference.partition());
        }
        for l in 0..domain {
            for s in std::iter::once(None).chain((0..sectors).map(|s| Some(SectorId(s)))) {
                prop_assert_eq!(
                    flat.probe(LineAddr(l), s),
                    reference.probe(LineAddr(l), s),
                    "line {} sector {:?}", l, s
                );
            }
        }
        // A final flush compares the dirty lines still resident, in order.
        prop_assert_eq!(flat.flush_all(), reference.flush_all());
    }
}
