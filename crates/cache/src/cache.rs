//! The generic set-associative cache.

use crate::stats::CacheStats;
use mcgpu_types::{LineAddr, SectorId};

/// Whether a resident line's data belongs to the local memory partition or a
/// remote one. Doubles as the pool selector under way partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataHome {
    /// Data homed in this chip's memory partition.
    Local,
    /// Data homed in another chip's memory partition.
    Remote,
}

/// Which ways of a set a fill may allocate into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WayPool {
    /// All ways (no partitioning — memory-side or SM-side LLC).
    All,
    /// Only the local-data ways of a partitioned cache.
    Local,
    /// Only the remote-data ways of a partitioned cache.
    Remote,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Tag present (and, if sectored, the sector valid).
    Hit,
    /// Tag present but the requested sector invalid (sectored caches only).
    /// Costs a sector fetch, not a whole-line fetch.
    SectorMiss,
    /// Tag absent.
    Miss,
}

/// A victim evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether the line was dirty (needs a writeback).
    pub dirty: bool,
    /// Where the evicted line's data was homed.
    pub home: DataHome,
}

/// Static geometry of a cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set.
    pub assoc: usize,
    /// Line size in bytes.
    pub line_size: u64,
    /// Sectors per line; `None` for a conventional cache.
    pub sectors: Option<u32>,
    /// Mix the line address before set indexing (used by LLC slices, which
    /// see PAE-hashed traffic; L1s use plain modulo indexing).
    pub hashed_sets: bool,
}

impl CacheConfig {
    /// Geometry of an L1 data cache (modulo indexing, conventional lines).
    pub fn l1(capacity_bytes: u64, assoc: usize, line_size: u64) -> Self {
        CacheConfig {
            capacity_bytes,
            assoc,
            line_size,
            sectors: None,
            hashed_sets: false,
        }
    }

    /// Geometry of an LLC slice (hashed set indexing).
    pub fn llc_slice(capacity_bytes: u64, assoc: usize, line_size: u64) -> Self {
        CacheConfig {
            capacity_bytes,
            assoc,
            line_size,
            sectors: None,
            hashed_sets: true,
        }
    }

    /// Enable sectored lines with `sectors` sectors per line.
    pub fn with_sectors(mut self, sectors: u32) -> Self {
        assert!(
            (1..=8).contains(&sectors),
            "sector valid bits are stored in a u8"
        );
        self.sectors = Some(sectors);
        self
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the capacity does not hold a whole number of sets.
    pub fn num_sets(&self) -> usize {
        let set_bytes = self.assoc as u64 * self.line_size;
        assert!(
            self.capacity_bytes.is_multiple_of(set_bytes) && self.capacity_bytes > 0,
            "capacity must be a multiple of assoc * line_size"
        );
        (self.capacity_bytes / set_bytes) as usize
    }

    /// Total lines the cache can hold.
    pub fn capacity_lines(&self) -> usize {
        (self.capacity_bytes / self.line_size) as usize
    }
}

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    home: DataHome,
    /// Per-sector valid bits; all-ones for conventional caches.
    sectors: u8,
    /// LRU timestamp (higher = more recent).
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

/// A set-associative, write-back, true-LRU cache with optional sectoring and
/// way partitioning. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
    /// Number of ways reserved for local data when partitioned; `None` means
    /// unpartitioned.
    local_ways: Option<usize>,
    stats: CacheStats,
    /// Valid lines by data home `(local, remote)`, kept in step with the
    /// ways so [`occupancy_by_home`](SetAssocCache::occupancy_by_home) is
    /// O(1). Derived state.
    valid: (usize, usize),
}

impl SetAssocCache {
    /// Create an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        SetAssocCache {
            sets: vec![vec![Way::empty(); cfg.assoc]; num_sets],
            clock: 0,
            local_ways: None,
            stats: CacheStats::default(),
            valid: (0, 0),
            cfg,
        }
    }

    /// The valid-line counter for data homed `home`.
    fn valid_count(&mut self, home: DataHome) -> &mut usize {
        match home {
            DataHome::Local => &mut self.valid.0,
            DataHome::Remote => &mut self.valid.1,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Partition each set's ways into `local_ways` for local data and the
    /// rest for remote data. Existing contents stay resident (and can still
    /// hit) until evicted. Pass the full associativity to dedicate everything
    /// to local data.
    ///
    /// # Panics
    /// Panics if `local_ways > assoc`.
    pub fn set_partition(&mut self, local_ways: usize) {
        assert!(local_ways <= self.cfg.assoc);
        self.local_ways = Some(local_ways);
    }

    /// Remove way partitioning.
    pub fn clear_partition(&mut self) {
        self.local_ways = None;
    }

    /// Current way split `(local, remote)` if partitioned.
    pub fn partition(&self) -> Option<(usize, usize)> {
        self.local_ways.map(|l| (l, self.cfg.assoc - l))
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        let mut x = line.index();
        if self.cfg.hashed_sets {
            // splitmix64-style finalizer: decorrelates strided traffic.
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
        }
        (x % self.sets.len() as u64) as usize
    }

    #[inline]
    fn sector_mask(&self, sector: Option<SectorId>) -> u8 {
        match (self.cfg.sectors, sector) {
            (Some(_), Some(s)) => 1u8 << s.0,
            // Conventional cache, or a whole-line operation: all sectors.
            _ => u8::MAX,
        }
    }

    /// Look up `line` (and `sector` if sectored), updating LRU and stats.
    /// `write` marks the line dirty on a hit.
    pub fn lookup(
        &mut self,
        line: LineAddr,
        sector: Option<SectorId>,
        write: bool,
    ) -> LookupOutcome {
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

    /// Check residency without touching LRU or stats.
    pub fn probe(&self, line: LineAddr, sector: Option<SectorId>) -> bool {
        let mask = self.sector_mask(sector);
        let set = self.set_index(line);
        self.sets[set]
            .iter()
            .any(|w| w.valid && w.tag == line.index() && w.sectors & mask != 0)
    }

    /// Install `line` (or just `sector` of it), evicting an LRU victim from
    /// the pool implied by `home` (or anywhere when unpartitioned).
    ///
    /// If the line is already resident, only the sector valid bits are
    /// updated (no eviction). Returns the victim if a valid line was evicted.
    pub fn fill(
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

        // Already resident (sector fill into an existing line)?
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
            // A zero-way pool (fully dedicated cache): cannot allocate.
            self.stats.fill_rejections += 1;
            return None;
        }

        // Prefer an invalid way, else evict the LRU way of the pool.
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

    /// Invalidate a single line if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_index(line);
        let way = self.sets[set]
            .iter_mut()
            .find(|w| w.valid && w.tag == line.index())?;
        way.valid = false;
        let (dirty, home) = (way.dirty, way.home);
        *self.valid_count(home) -= 1;
        Some(dirty)
    }

    /// Flush + invalidate the whole cache (software coherence at a kernel
    /// boundary, or an LLC reconfiguration). Returns the dirty lines that
    /// need writing back.
    pub fn flush_all(&mut self) -> Vec<LineAddr> {
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

    /// Write back every dirty line, marking it clean but **keeping it
    /// resident** (SAC's memory-side → SM-side reconfiguration: home-slice
    /// contents stay valid under the new routing, only dirtiness must be
    /// pushed to memory before replicas can appear elsewhere).
    pub fn writeback_all_dirty(&mut self) -> Vec<LineAddr> {
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

    /// Flush + invalidate only the lines whose data is homed `home`
    /// (software coherence for the static/dynamic organizations, which must
    /// drop their remote pool at kernel boundaries). Returns the dirty
    /// lines that need writing back.
    pub fn flush_home(&mut self, home: DataHome) -> Vec<LineAddr> {
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

    /// Number of valid lines currently resident.
    pub fn len(&self) -> usize {
        self.valid.0 + self.valid.1
    }

    /// Whether the cache holds no valid lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of resident lines by data home `(local, remote)` — Fig. 9.
    /// O(1): read from counters maintained on every fill, eviction,
    /// invalidation and flush.
    pub fn occupancy_by_home(&self) -> (usize, usize) {
        self.valid
    }

    /// Count the valid lines by data home with a full scan of the ways.
    #[cfg(test)]
    fn recount_valid(&self) -> (usize, usize) {
        let mut counts = (0, 0);
        for way in self.sets.iter().flatten().filter(|w| w.valid) {
            match way.home {
                DataHome::Local => counts.0 += 1,
                DataHome::Remote => counts.1 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 128 B lines = 1 KiB.
        SetAssocCache::new(CacheConfig::l1(1024, 2, 128))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(LineAddr(5), None, false), LookupOutcome::Miss);
        assert!(c.fill(LineAddr(5), None, DataHome::Local, false).is_none());
        assert_eq!(c.lookup(LineAddr(5), None, false), LookupOutcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets, modulo indexing).
        c.fill(LineAddr(0), None, DataHome::Local, false);
        c.fill(LineAddr(4), None, DataHome::Local, false);
        // Touch 0 so 4 becomes LRU.
        assert_eq!(c.lookup(LineAddr(0), None, false), LookupOutcome::Hit);
        let ev = c.fill(LineAddr(8), None, DataHome::Local, false).unwrap();
        assert_eq!(ev.line, LineAddr(4));
        assert!(!ev.dirty);
        assert!(c.probe(LineAddr(0), None));
        assert!(!c.probe(LineAddr(4), None));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(LineAddr(0), None, DataHome::Remote, true);
        c.fill(LineAddr(4), None, DataHome::Local, false);
        let ev = c.fill(LineAddr(8), None, DataHome::Local, false).unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.dirty);
        assert_eq!(ev.home, DataHome::Remote);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.fill(LineAddr(3), None, DataHome::Local, false);
        assert_eq!(c.lookup(LineAddr(3), None, true), LookupOutcome::Hit);
        let dirty = c.flush_all();
        assert_eq!(dirty, vec![LineAddr(3)]);
        assert!(c.is_empty());
    }

    #[test]
    fn partitioned_fills_stay_in_pool() {
        // 1 set x 4 ways.
        let mut c = SetAssocCache::new(CacheConfig::l1(512, 4, 128));
        c.set_partition(2); // ways 0-1 local, 2-3 remote
        c.fill(LineAddr(1), None, DataHome::Local, false);
        c.fill(LineAddr(2), None, DataHome::Local, false);
        c.fill(LineAddr(3), None, DataHome::Remote, false);
        c.fill(LineAddr(4), None, DataHome::Remote, false);
        assert_eq!(c.len(), 4);
        // A third local fill must evict a *local* line, not a remote one.
        let ev = c.fill(LineAddr(5), None, DataHome::Local, false).unwrap();
        assert_eq!(ev.home, DataHome::Local);
        assert!(c.probe(LineAddr(3), None));
        assert!(c.probe(LineAddr(4), None));
        assert_eq!(c.occupancy_by_home(), (2, 2));
    }

    #[test]
    fn zero_way_pool_rejects_fill() {
        let mut c = SetAssocCache::new(CacheConfig::l1(512, 4, 128));
        c.set_partition(4); // no remote ways at all
        assert!(c.fill(LineAddr(9), None, DataHome::Remote, false).is_none());
        assert!(!c.probe(LineAddr(9), None));
        assert_eq!(c.stats().fill_rejections, 1);
        // Local fills still work.
        c.fill(LineAddr(9), None, DataHome::Local, false);
        assert!(c.probe(LineAddr(9), None));
    }

    #[test]
    fn sectored_hits_per_sector() {
        let cfg = CacheConfig::l1(1024, 2, 128).with_sectors(4);
        let mut c = SetAssocCache::new(cfg);
        c.fill(LineAddr(5), Some(SectorId(1)), DataHome::Local, false);
        assert_eq!(
            c.lookup(LineAddr(5), Some(SectorId(1)), false),
            LookupOutcome::Hit
        );
        assert_eq!(
            c.lookup(LineAddr(5), Some(SectorId(2)), false),
            LookupOutcome::SectorMiss
        );
        // Sector fill does not evict the line.
        assert!(c
            .fill(LineAddr(5), Some(SectorId(2)), DataHome::Local, false)
            .is_none());
        assert_eq!(
            c.lookup(LineAddr(5), Some(SectorId(2)), false),
            LookupOutcome::Hit
        );
    }

    #[test]
    fn writeback_all_dirty_keeps_lines_resident() {
        let mut c = SetAssocCache::new(CacheConfig::l1(512, 4, 128));
        c.fill(LineAddr(1), None, DataHome::Local, true);
        c.fill(LineAddr(2), None, DataHome::Local, false);
        let dirty = c.writeback_all_dirty();
        assert_eq!(dirty, vec![LineAddr(1)]);
        assert!(c.probe(LineAddr(1), None));
        assert!(c.probe(LineAddr(2), None));
        // Second call finds nothing dirty.
        assert!(c.writeback_all_dirty().is_empty());
        // And a full flush now reports no dirty lines either.
        assert!(c.flush_all().is_empty());
    }

    #[test]
    fn flush_home_is_selective() {
        let mut c = SetAssocCache::new(CacheConfig::l1(512, 4, 128));
        c.fill(LineAddr(1), None, DataHome::Local, true);
        c.fill(LineAddr(2), None, DataHome::Remote, true);
        c.fill(LineAddr(3), None, DataHome::Remote, false);
        let dirty = c.flush_home(DataHome::Remote);
        assert_eq!(dirty, vec![LineAddr(2)]);
        assert!(c.probe(LineAddr(1), None), "local lines survive");
        assert!(!c.probe(LineAddr(2), None));
        assert!(!c.probe(LineAddr(3), None));
        assert_eq!(c.occupancy_by_home(), (1, 0));
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = small();
        c.fill(LineAddr(6), None, DataHome::Local, true);
        assert_eq!(c.invalidate(LineAddr(6)), Some(true));
        assert_eq!(c.invalidate(LineAddr(6)), None);
        assert!(!c.probe(LineAddr(6), None));
    }

    #[test]
    fn hashed_sets_spread_strided_traffic() {
        // Strided lines that would all land in set 0 with modulo indexing.
        let cfg = CacheConfig::llc_slice(64 * 128, 1, 128); // 64 sets x 1 way
        let mut c = SetAssocCache::new(cfg);
        let mut evictions = 0;
        for i in 0..64u64 {
            if c.fill(LineAddr(i * 64), None, DataHome::Local, false)
                .is_some()
            {
                evictions += 1;
            }
        }
        // With modulo indexing all 64 fills would collide (63 evictions);
        // hashing should spread them widely.
        assert!(evictions < 32, "evictions = {evictions}");
    }

    /// One mutation of the occupancy-counter proptest.
    #[derive(Debug, Clone)]
    enum Op {
        Lookup(u64, u8, bool),
        Fill(u64, u8, bool, bool),
        Invalidate(u64),
        FlushAll,
        FlushHome(bool),
        WritebackAllDirty,
        SetPartition(Option<usize>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..48, 0u8..4, any::<bool>()).prop_map(|(l, s, w)| Op::Lookup(l, s, w)),
            (0u64..48, 0u8..4, any::<bool>(), any::<bool>())
                .prop_map(|(l, s, remote, w)| Op::Fill(l, s, remote, w)),
            (0u64..48, 0u8..4, any::<bool>(), any::<bool>())
                .prop_map(|(l, s, remote, w)| Op::Fill(l, s, remote, w)),
            (0u64..48).prop_map(Op::Invalidate),
            Just(Op::FlushAll),
            any::<bool>().prop_map(Op::FlushHome),
            Just(Op::WritebackAllDirty),
            prop_oneof![Just(None), (0usize..=4).prop_map(Some)].prop_map(Op::SetPartition),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The O(1) occupancy counters equal a full scan of the ways after
        /// every operation, on conventional and sectored caches, through
        /// sector fills into resident lines and zero-way-pool rejections.
        #[test]
        fn occupancy_counters_equal_a_recount(
            sectored in any::<bool>(),
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            // 4 sets x 4 ways: 48 lines keep every set under pressure.
            let mut geometry = CacheConfig::l1(4 * 4 * 128, 4, 128);
            if sectored {
                geometry = geometry.with_sectors(4);
            }
            let mut c = SetAssocCache::new(geometry);
            let home = |remote: bool| if remote { DataHome::Remote } else { DataHome::Local };
            for op in &ops {
                match *op {
                    Op::Lookup(l, s, w) => {
                        c.lookup(LineAddr(l), Some(SectorId(s)), w);
                    }
                    Op::Fill(l, s, remote, w) => {
                        c.fill(LineAddr(l), Some(SectorId(s)), home(remote), w);
                    }
                    Op::Invalidate(l) => {
                        c.invalidate(LineAddr(l));
                    }
                    Op::FlushAll => {
                        c.flush_all();
                    }
                    Op::FlushHome(remote) => {
                        c.flush_home(home(remote));
                    }
                    Op::WritebackAllDirty => {
                        c.writeback_all_dirty();
                    }
                    Op::SetPartition(Some(ways)) => c.set_partition(ways),
                    Op::SetPartition(None) => c.clear_partition(),
                }
                prop_assert_eq!(c.occupancy_by_home(), c.recount_valid(), "after {:?}", op);
                prop_assert_eq!(c.len(), c.recount_valid().0 + c.recount_valid().1);
            }
        }
    }
}
