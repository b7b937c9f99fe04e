//! SM-cluster frontend: trace-driven request generation behind a private
//! write-through L1 with MSHRs.
//!
//! Each access is looked up in the L1 once. A read that misses while the
//! MSHR file is full holds its miss and retries only the allocation, the
//! way GPGPU-Sim reports an access that finds no free MSHR as a
//! reservation failure rather than as another miss.

use crate::mshr::MshrTable;
use mcgpu_cache::{CacheConfig, DataHome, LookupOutcome, SetAssocCache};
use mcgpu_types::{AccessKind, ClusterId, LineAddr, MachineConfig, MemAccess, SectorId};
use std::sync::Arc;

/// The cluster's MSHR file: read misses in flight, each with its count of
/// merged accesses. It holds at most `mshrs_per_cluster` entries (256 at
/// experiment scale, where a dense trace keeps it nearly full), so it is
/// an [`MshrTable`]: merge, allocate and retire are O(1). The entry
/// vector is preallocated to the limit and never reallocates on the
/// per-cycle path.
#[derive(Debug)]
pub(crate) struct MshrFile {
    table: MshrTable<u32>,
}

impl MshrFile {
    pub(crate) fn with_capacity(limit: usize) -> Self {
        MshrFile {
            table: MshrTable::with_capacity(limit),
        }
    }

    /// Merge another access onto an outstanding miss. Returns `false` when
    /// no fetch for `line` is in flight.
    pub(crate) fn merge(&mut self, line: u64) -> bool {
        if let Some(merged) = self.table.get_mut(line) {
            *merged += 1;
            true
        } else {
            false
        }
    }

    /// Allocate a new entry for `line` with one merged access.
    ///
    /// # Panics
    /// Panics when a miss for `line` is already outstanding: a second
    /// fetch of the same line would leave an entry no response retires.
    pub(crate) fn allocate(&mut self, line: u64) {
        assert!(
            self.table.insert(line, 1),
            "MSHR for line {line:#x} allocated twice"
        );
    }

    /// Retire the entry for `line`, returning its merged count (1 when the
    /// fill had no registered miss, e.g. an L1 refill after a flush).
    pub(crate) fn retire(&mut self, line: u64) -> u32 {
        self.table.remove(line).unwrap_or(1)
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The entries in table order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[(u64, u32)] {
        self.table.entries()
    }
}

/// One SM cluster (two SMs sharing a NoC port): issues the accesses of its
/// trace stream, filters them through the private L1, merges outstanding
/// misses in MSHRs, and paces itself with a compute gap.
#[derive(Debug)]
pub struct Cluster {
    id: ClusterId,
    l1: SetAssocCache,
    line_size: u64,
    sectors: Option<u32>,
    trace: Arc<[MemAccess]>,
    cursor: usize,
    gap_remaining: u32,
    compute_gap: u32,
    mshr_limit: usize,
    /// Read misses in flight: line index → number of merged accesses.
    mshrs: MshrFile,
    /// An access that missed the L1 but whose request could not be injected
    /// (backpressure); retried before the trace advances.
    deferred: Option<MemAccess>,
    /// The read at the cursor missed the L1 (tag or sector) and found the
    /// MSHR file full with no entry to merge onto. The cluster keeps that
    /// outcome, as `deferred` keeps a back-pressured access: later calls
    /// retry only the MSHR allocation, so each access is looked up once.
    held_miss: bool,
    reads_done: u64,
}

impl Cluster {
    /// Create a cluster with the machine's L1 geometry.
    pub fn new(cfg: &MachineConfig, id: ClusterId) -> Self {
        let mut l1cfg = CacheConfig::l1(cfg.l1_bytes_per_cluster, cfg.l1_assoc, cfg.line_size);
        if cfg.sectored {
            l1cfg = l1cfg.with_sectors(cfg.sectors_per_line);
        }
        Cluster {
            id,
            l1: SetAssocCache::new(l1cfg),
            line_size: cfg.line_size,
            sectors: cfg.sectored.then_some(cfg.sectors_per_line),
            trace: Arc::from(Vec::new()),
            cursor: 0,
            gap_remaining: 0,
            compute_gap: 0,
            mshr_limit: cfg.mshrs_per_cluster,
            mshrs: MshrFile::with_capacity(cfg.mshrs_per_cluster),
            deferred: None,
            held_miss: false,
            reads_done: 0,
        }
    }

    /// This cluster's identifier.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Load a kernel's access stream and compute gap; resets the cursor but
    /// keeps L1 contents (software coherence invalidates explicitly via
    /// [`flush_l1`](Cluster::flush_l1)). The stream is shared, not copied:
    /// the simulator hands each cluster an `Arc` clone of the workload's
    /// trace.
    pub fn load_kernel(&mut self, trace: impl Into<Arc<[MemAccess]>>, compute_gap: u32) {
        self.trace = trace.into();
        self.cursor = 0;
        self.gap_remaining = 0;
        self.compute_gap = compute_gap;
        self.deferred = None;
        self.held_miss = false;
    }

    /// The sector of `access` if the machine uses sectored caches.
    pub fn sector_of(&self, access: &MemAccess) -> Option<SectorId> {
        self.sectors
            .map(|s| LineAddr::sector_of(access.addr, self.line_size, s))
    }

    /// Attempt to issue the next memory instruction. Returns the L1 miss
    /// produced this cycle, tagged with whether it needs a new request
    /// (`true`) or merged into an outstanding MSHR (`false` — observable
    /// but nothing to send). Returns `None` when the cluster is idle this
    /// cycle (compute gap, L1 hit consumed the instruction, MSHRs
    /// exhausted, or trace finished).
    ///
    /// A read that misses while the MSHR file is full is held, not looked
    /// up again: later calls retry only the allocation.
    ///
    /// The caller must either successfully inject a request for a
    /// needs-request access or give it back via [`defer`](Cluster::defer).
    pub fn issue(&mut self) -> Option<(MemAccess, bool)> {
        // Retry a back-pressured access first: its L1 work is already done.
        if let Some(acc) = self.deferred.take() {
            return Some((acc, true));
        }
        if self.gap_remaining > 0 {
            self.gap_remaining -= 1;
            return None;
        }
        let acc = *self.trace.get(self.cursor)?;
        let line = acc.addr.line(self.line_size);
        let sector = self.sector_of(&acc);
        match acc.kind {
            AccessKind::Read => {
                if !self.held_miss {
                    if self.l1.lookup(line, sector, false) == LookupOutcome::Hit {
                        self.cursor += 1;
                        self.reads_done += 1;
                        self.gap_remaining = self.compute_gap;
                        // Zero-gap clusters may hit repeatedly; issue at
                        // most one instruction per `issue` call to model
                        // the issue width.
                        return None;
                    }
                    if self.mshrs.merge(line.index()) {
                        // Merged into the outstanding miss.
                        self.cursor += 1;
                        self.gap_remaining = self.compute_gap;
                        return Some((acc, false));
                    }
                }
                if self.mshrs.len() >= self.mshr_limit {
                    // Stall: no MSHR free. Hold the miss until a response
                    // frees an entry.
                    self.held_miss = true;
                    return None;
                }
                // Only lines with an MSHR entry are filled, so a held
                // miss's line cannot have become resident while it waited.
                debug_assert!(
                    !(self.held_miss && self.l1.probe(line, sector)),
                    "held miss on line {:#x} became resident",
                    line.index()
                );
                self.held_miss = false;
                self.mshrs.allocate(line.index());
                self.cursor += 1;
                self.gap_remaining = self.compute_gap;
                Some((acc, true))
            }
            AccessKind::Write => {
                // Write-through, no write-allocate: update the line in
                // place if present (kept clean; the LLC owns dirtiness)
                // and always send the write onward.
                let _ = self.l1.lookup(line, sector, false);
                self.cursor += 1;
                self.gap_remaining = self.compute_gap;
                Some((acc, true))
            }
        }
    }

    /// Give back an access whose request could not be injected this cycle.
    pub fn defer(&mut self, acc: MemAccess) {
        debug_assert!(self.deferred.is_none());
        self.deferred = Some(acc);
    }

    /// A read response for `access` arrived: fill the L1 and complete all
    /// merged accesses. A held miss stays held: the freed entry lets its
    /// next retry allocate without a new lookup. Returns the number of
    /// accesses completed.
    pub fn complete_read(&mut self, access: &MemAccess) -> u32 {
        let line = access.addr.line(self.line_size);
        let sector = self.sector_of(access);
        self.l1.fill(line, sector, DataHome::Local, false);
        let merged = self.mshrs.retire(line.index());
        self.reads_done += merged as u64;
        merged
    }

    /// Outstanding read misses (MSHRs in use).
    pub fn outstanding(&self) -> usize {
        self.mshrs.len()
    }

    /// Instructions of the current kernel consumed so far (trace cursor).
    pub fn progress(&self) -> usize {
        self.cursor
    }

    /// Instructions in the current kernel's stream.
    pub fn stream_len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the cluster has issued everything and all misses returned.
    pub fn done(&self) -> bool {
        self.cursor >= self.trace.len() && self.mshrs.is_empty() && self.deferred.is_none()
    }

    /// Reads completed (including L1 hits and merged misses).
    pub fn reads_done(&self) -> u64 {
        self.reads_done
    }

    /// Remaining compute-gap cycles before the next instruction can issue.
    pub fn gap_remaining(&self) -> u32 {
        self.gap_remaining
    }

    /// Whether a back-pressured access is waiting to be retried.
    pub fn has_deferred(&self) -> bool {
        self.deferred.is_some()
    }

    /// Whether the cluster is parked: it holds a miss and its MSHR file is
    /// full, so every [`issue`](Cluster::issue) call returns `None` and
    /// changes nothing until a response frees an entry.
    pub(crate) fn parked(&self) -> bool {
        self.held_miss && self.mshrs.len() >= self.mshr_limit
    }

    /// Account for `k` [`issue`](Cluster::issue) calls that each return
    /// `None` without issuing: the compute gap counts down `k` times. The
    /// caller guarantees `k` never runs past the call at which the cluster
    /// would issue (a consumed stream's gap simply drains to zero and stays
    /// there, as it does when every call is made). A parked cluster's gap
    /// is already zero.
    pub(crate) fn replay_idle(&mut self, k: u64) {
        self.gap_remaining = self
            .gap_remaining
            .saturating_sub(u32::try_from(k).unwrap_or(u32::MAX));
    }

    /// Software coherence: invalidate the L1 (write-through, so nothing to
    /// write back).
    pub fn flush_l1(&mut self) {
        let dirty = self.l1.flush_all();
        debug_assert!(dirty.is_empty(), "write-through L1 is never dirty");
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> &mcgpu_cache::CacheStats {
        self.l1.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::{Address, ChipId};

    fn cfg() -> MachineConfig {
        MachineConfig::experiment_baseline()
    }

    fn cluster() -> Cluster {
        Cluster::new(&cfg(), ClusterId::new(ChipId(0), 0))
    }

    fn read(line: u64) -> MemAccess {
        MemAccess::read(Address::new(line * 128))
    }

    fn write(line: u64) -> MemAccess {
        MemAccess::write(Address::new(line * 128))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cluster();
        c.load_kernel(vec![read(1), read(1)], 0);
        let (acc, needs) = c.issue().expect("first read misses");
        assert!(needs);
        assert_eq!(acc.addr.raw(), 128);
        assert_eq!(c.outstanding(), 1);
        // The second read merges into the MSHR instead of re-requesting.
        let (_, needs) = c.issue().expect("merged miss is still reported");
        assert!(!needs);
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.complete_read(&acc), 2);
        assert!(c.done());
        assert_eq!(c.reads_done(), 2);
        // A later kernel re-reading the line hits in L1.
        c.load_kernel(vec![read(1)], 0);
        assert!(c.issue().is_none());
        assert!(c.done());
        assert_eq!(c.reads_done(), 3);
    }

    #[test]
    fn mshr_limit_stalls() {
        let mut cfg = cfg();
        cfg.mshrs_per_cluster = 2;
        let mut c = Cluster::new(&cfg, ClusterId::new(ChipId(0), 0));
        c.load_kernel(vec![read(1), read(2), read(3)], 0);
        assert!(c.issue().is_some());
        assert!(c.issue().is_some());
        assert!(c.issue().is_none(), "MSHRs full");
        assert!(c.parked());
        // Retries of the held miss never look the L1 up again.
        assert!(c.issue().is_none());
        assert_eq!(c.l1_stats().accesses, 3);
        assert!(!c.done());
        c.complete_read(&read(1));
        assert!(!c.parked(), "a response frees an entry");
        assert!(c.issue().is_some(), "freed MSHR allows the third miss");
        assert_eq!(c.l1_stats().accesses, 3, "one lookup per access");
    }

    #[test]
    fn writes_always_go_out() {
        let mut c = cluster();
        c.load_kernel(vec![write(5), write(5)], 0);
        assert_eq!(c.issue().unwrap().0.kind, AccessKind::Write);
        assert_eq!(c.issue().unwrap().0.kind, AccessKind::Write);
        assert!(c.done(), "writes hold no MSHRs");
    }

    #[test]
    fn compute_gap_paces_issue() {
        let mut c = cluster();
        c.load_kernel(vec![write(1), write(2)], 2);
        assert!(c.issue().is_some()); // cycle 0: first write
        assert!(c.issue().is_none()); // gap
        assert!(c.issue().is_none()); // gap
        assert!(c.issue().is_some()); // second write
    }

    #[test]
    fn deferred_access_is_retried_first() {
        let mut c = cluster();
        c.load_kernel(vec![read(1), read(2)], 0);
        let (a, _) = c.issue().unwrap();
        c.defer(a);
        let (again, needs) = c.issue().unwrap();
        assert_eq!(a, again);
        assert!(needs);
        assert!(!c.done());
    }

    #[test]
    fn flush_l1_forces_refetch() {
        let mut c = cluster();
        c.load_kernel(vec![read(9)], 0);
        let (a, _) = c.issue().unwrap();
        c.complete_read(&a);
        c.flush_l1();
        c.load_kernel(vec![read(9)], 0);
        assert!(c.issue().is_some(), "post-flush read must miss");
    }
}
