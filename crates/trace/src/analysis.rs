//! Trace analyses: Table 4's sharing character, Fig. 11's working-set
//! curve, and fast mode's per-kernel locality profile.

use crate::generate::Workload;
use crate::layout::{AddressLayout, SharingClass};
use mcgpu_types::{AccessKind, ChipId, KernelProfile, LineMap, MachineConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Sharing-classified working-set sizes in MB (at machine scale).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SharingBreakdown {
    /// Distinct truly-shared megabytes.
    pub true_mb: f64,
    /// Distinct falsely-shared megabytes.
    pub false_mb: f64,
    /// Distinct non-shared megabytes.
    pub non_mb: f64,
}

impl SharingBreakdown {
    /// Total megabytes across all classes.
    pub fn total_mb(&self) -> f64 {
        self.true_mb + self.false_mb + self.non_mb
    }

    /// Scale to paper-equivalent megabytes (undo the machine's capacity
    /// scaling) for side-by-side comparison with the published figures.
    pub fn to_paper_scale(&self, cfg: &MachineConfig) -> SharingBreakdown {
        let s = cfg.scale.capacity as f64;
        SharingBreakdown {
            true_mb: self.true_mb * s,
            false_mb: self.false_mb * s,
            non_mb: self.non_mb * s,
        }
    }
}

/// A regenerated row of Table 4, measured from the trace itself (not from
/// the layout): a line is truly shared iff ≥ 2 chips accessed it, falsely
/// shared iff one chip accessed it but its page was accessed by ≥ 2 chips.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: String,
    /// CTA count (from the profile; CTAs are a scheduling concept the
    /// generator folds into per-chip stream segments).
    pub ctas: u32,
    /// Measured footprint in paper-equivalent MB.
    pub footprint_mb: f64,
    /// Measured truly-shared MB (paper equivalent).
    pub true_shared_mb: f64,
    /// Measured falsely-shared MB (paper equivalent).
    pub false_shared_mb: f64,
}

/// Keys per chunk of a [`FootprintTable`].
const CHUNK: usize = 512;

/// Touches a [`FootprintTable`] must expect per chunk of its footprint
/// before it allocates chunks. Allocating and zeroing a 4 KiB chunk takes
/// about 180 ns, a touch of a small [`LineMap`] about 35 ns (2-vCPU Xeon
/// VM). At eight touches per chunk, even touches spread over every chunk
/// cost at most 23 ns each in chunks; a short trace over a large
/// footprint, which touches most of its chunks once or twice, is cheaper
/// in the map.
const MIN_TOUCHES_PER_CHUNK: u64 = 8;

/// A value per line, granule or page index, for the analyses' per-access
/// lookups. When the caller expects enough touches, every index a layout
/// lays out (below its footprint, counted from zero) lives in flat chunks
/// of [`CHUNK`] values, each allocated zeroed on the first touch of an
/// index in it, so an access costs an indexed load and a table sized to
/// the footprint is paid only for the parts a trace touches. Indices
/// beyond the layout, which only hand-built workloads have, and every
/// index of a table that expects fewer than [`MIN_TOUCHES_PER_CHUNK`] per
/// chunk, live in a [`LineMap`]. An untouched index reads as
/// `V::default()`, so every user keeps the default for "untouched".
struct FootprintTable<V> {
    /// Indices below `limit` live in `chunks`.
    limit: u64,
    chunks: Vec<Option<Box<[V; CHUNK]>>>,
    beyond: LineMap<V>,
}

impl<V: Copy + Default + PartialEq> FootprintTable<V> {
    /// An empty table over `layout`'s footprint in indices of
    /// `1 << shift` bytes, for a caller that expects about `touches`
    /// lookups.
    fn new(layout: &AddressLayout, shift: u32, touches: u64) -> Self {
        let keys = layout.footprint_bytes() >> shift;
        let chunks = keys.div_ceil(CHUNK as u64);
        let limit = if touches >= chunks * MIN_TOUCHES_PER_CHUNK {
            keys
        } else {
            0
        };
        FootprintTable {
            limit,
            chunks: vec![None; limit.div_ceil(CHUNK as u64) as usize],
            beyond: LineMap::default(),
        }
    }

    /// The value of `key`, allocating its chunk (or map entry) if needed.
    #[inline]
    fn get_mut(&mut self, key: u64) -> &mut V {
        if key < self.limit {
            let chunk = self.chunks[(key / CHUNK as u64) as usize]
                .get_or_insert_with(|| Box::new([V::default(); CHUNK]));
            &mut chunk[key as usize % CHUNK]
        } else {
            self.beyond.entry(key).or_default()
        }
    }

    /// The value of `key`.
    fn get(&self, key: u64) -> V {
        if key < self.limit {
            self.chunks[(key / CHUNK as u64) as usize]
                .as_ref()
                .map_or_else(V::default, |chunk| chunk[key as usize % CHUNK])
        } else {
            self.beyond.get(&key).copied().unwrap_or_default()
        }
    }

    /// Every touched key with its value, in no particular order.
    fn touched(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        let in_layout = self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .flat_map(move |chunk| (c as u64 * CHUNK as u64..).zip(chunk.iter().copied()))
        });
        in_layout
            .chain(self.beyond.iter().map(|(&key, &v)| (key, v)))
            .filter(|(_, v)| *v != V::default())
    }
}

/// Measure the sharing character of a workload from its accesses (Table 4).
/// Sharers are tracked as one bit per chip, which covers the 64 chips
/// [`MachineConfig::validate`] allows.
///
/// # Panics
/// Panics if the line or page size is not a power of two, which `validate`
/// rules out.
pub fn characterize(cfg: &MachineConfig, wl: &Workload) -> Table4Row {
    assert!(
        cfg.line_size.is_power_of_two() && cfg.page_size.is_power_of_two(),
        "line and page sizes must be powers of two (validate the config)"
    );
    let line_shift = cfg.line_size.trailing_zeros();
    let page_shift = cfg.page_size.trailing_zeros();
    let touches = wl.total_accesses() as u64;
    let mut line_sharers = FootprintTable::<u64>::new(&wl.layout, line_shift, touches);
    let mut page_sharers = FootprintTable::<u64>::new(&wl.layout, page_shift, touches);
    let clusters_per_chip = cfg.clusters_per_chip;
    for k in &wl.kernels {
        for (flat, stream) in k.per_cluster.iter().enumerate() {
            let chip = 1u64 << (flat / clusters_per_chip);
            for a in stream.iter() {
                let addr = a.addr.raw();
                *line_sharers.get_mut(addr >> line_shift) |= chip;
                *page_sharers.get_mut(addr >> page_shift) |= chip;
            }
        }
    }
    let mut true_lines = 0u64;
    let mut false_lines = 0u64;
    for (line, mask) in line_sharers.touched() {
        if mask.count_ones() >= 2 {
            true_lines += 1;
        } else if page_sharers
            .get((line << line_shift) >> page_shift)
            .count_ones()
            >= 2
        {
            false_lines += 1;
        }
    }
    let scale = cfg.scale.capacity as f64;
    let mb = |lines: u64| lines as f64 * cfg.line_size as f64 * scale / (1u64 << 20) as f64;
    Table4Row {
        name: wl.name.clone(),
        ctas: wl.profile.ctas,
        footprint_mb: page_sharers.touched().count() as f64 * cfg.page_size as f64 * scale
            / (1u64 << 20) as f64,
        true_shared_mb: mb(true_lines),
        false_shared_mb: mb(false_lines),
    }
}

/// Fig. 11: for each window length (in accesses), the mean per-window
/// working set, broken down by sharing class.
///
/// The paper's x-axis is cycles; the harness converts using the measured
/// issue rate (accesses/cycle) of the simulated run.
///
/// # Panics
/// Panics if the line size is not a power of two, which
/// [`MachineConfig::validate`] rules out.
pub fn working_set_curve(
    cfg: &MachineConfig,
    wl: &Workload,
    windows: &[usize],
) -> Vec<(usize, SharingBreakdown)> {
    assert!(
        cfg.line_size.is_power_of_two(),
        "the line size must be a power of two (validate the config)"
    );
    let line_shift = cfg.line_size.trailing_zeros();
    let stream: Vec<u64> = wl
        .merged_stream()
        .map(|(_, a)| a.addr.raw() >> line_shift)
        .collect();
    let line_mb = cfg.line_size as f64 / (1u64 << 20) as f64;
    // Each line's last window, counting windows from 1 across every
    // length, so no window clears the table.
    let touches = (stream.len() * windows.len()) as u64;
    let mut last_window = FootprintTable::<u64>::new(&wl.layout, line_shift, touches);
    let mut window = 0u64;

    windows
        .iter()
        .map(|&w| {
            let w = w.max(1);
            let mut sums = SharingBreakdown::default();
            let mut num_windows = 0usize;
            for chunk in stream.chunks(w) {
                window += 1;
                let mut counts = [0u64; 3];
                for &line in chunk {
                    let seen = last_window.get_mut(line);
                    if *seen != window {
                        *seen = window;
                        let class = wl.layout.classify(mcgpu_types::LineAddr(line));
                        let idx = match class {
                            SharingClass::TrueShared => 0,
                            SharingClass::FalseShared => 1,
                            SharingClass::NonShared => 2,
                        };
                        counts[idx] += 1;
                    }
                }
                sums.true_mb += counts[0] as f64 * line_mb;
                sums.false_mb += counts[1] as f64 * line_mb;
                sums.non_mb += counts[2] as f64 * line_mb;
                num_windows += 1;
            }
            if num_windows > 0 {
                sums.true_mb /= num_windows as f64;
                sums.false_mb /= num_windows as f64;
                sums.non_mb /= num_windows as f64;
            }
            (w, sums)
        })
        .collect()
}

/// The part of a machine that [`profile_workload`] reads: chip and
/// cluster counts, the L1's sets and ways, and the granule and page sizes
/// as shifts. It is the key of a workload's memoized profile
/// ([`Workload::kernel_profiles`]): two machines with equal geometries
/// give equal profiles, because the pass reads nothing else of the
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalityGeometry {
    chips: usize,
    clusters_per_chip: usize,
    l1_sets: usize,
    l1_ways: usize,
    /// log2 of the reuse granule: a line, or a sector on sectored machines
    /// (touching a new sector of a resident line is a sector miss in the
    /// cycle engine, so it must not look like reuse here).
    granule_shift: u32,
    page_shift: u32,
}

impl LocalityGeometry {
    /// The geometry of `cfg`, with the L1 set count and associativity of
    /// the cycle engine's cluster caches.
    ///
    /// # Panics
    /// Panics if the granule or page size is not a power of two, which
    /// [`MachineConfig::validate`] rules out.
    pub fn of(cfg: &MachineConfig) -> Self {
        let granule = if cfg.sectored {
            cfg.line_size / u64::from(cfg.sectors_per_line)
        } else {
            cfg.line_size
        };
        // `MachineConfig::validate` makes line and page sizes powers of
        // two, and sectors divide the line, so granule and page indices are
        // shifts.
        assert!(
            granule.is_power_of_two() && cfg.page_size.is_power_of_two(),
            "granule and page sizes must be powers of two (validate the config)"
        );
        let lines = (cfg.l1_bytes_per_cluster / cfg.line_size).max(1) as usize;
        let ways = cfg.l1_assoc.clamp(1, lines);
        LocalityGeometry {
            chips: cfg.chips,
            clusters_per_chip: cfg.clusters_per_chip,
            l1_sets: (lines / ways).max(1),
            l1_ways: ways,
            granule_shift: granule.trailing_zeros(),
            page_shift: cfg.page_size.trailing_zeros(),
        }
    }
}

/// A minimal write-through, no-write-allocate set-associative L1 filter
/// mirroring the cycle engine's cluster cache geometry: reads fill on
/// miss, writes touch the line (refreshing recency) but never allocate.
struct L1Filter {
    /// `sets × ways` tags, set by set; within a set, the first `fill[set]`
    /// slots hold the resident lines, least recently used first.
    tags: Vec<u64>,
    fill: Vec<usize>,
    ways: usize,
    sets: u64,
}

impl L1Filter {
    fn new(geometry: &LocalityGeometry) -> Self {
        L1Filter {
            tags: vec![0; geometry.l1_sets * geometry.l1_ways],
            fill: vec![0; geometry.l1_sets],
            ways: geometry.l1_ways,
            sets: geometry.l1_sets as u64,
        }
    }

    /// Look up `line`; on a read miss, fill it. Returns whether it hit.
    fn access(&mut self, line: u64, kind: AccessKind) -> bool {
        // A mask where the set count allows it (every machine geometry):
        // the same set as the remainder, without a division.
        let set = if self.sets.is_power_of_two() {
            line & (self.sets - 1)
        } else {
            line % self.sets
        } as usize;
        let fill = &mut self.fill[set];
        let tags = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        let resident = &mut tags[..*fill];
        if let Some(pos) = resident.iter().position(|&l| l == line) {
            resident[pos..].rotate_left(1);
            return true;
        }
        if kind == AccessKind::Read {
            if *fill == self.ways {
                tags.rotate_left(1);
                tags[self.ways - 1] = line;
            } else {
                tags[*fill] = line;
                *fill += 1;
            }
        }
        false
    }
}

/// Per granule, the first and the last kernel that touched it, each plus
/// one, so `(0, 0)` is untouched; and the number of granules touched.
struct KernelSpans {
    spans: FootprintTable<(u32, u32)>,
    touched: u64,
}

impl KernelSpans {
    fn new(layout: &AddressLayout, granule_shift: u32, touches: u64) -> Self {
        KernelSpans {
            spans: FootprintTable::new(layout, granule_shift, touches),
            touched: 0,
        }
    }

    /// Record that kernel `now` touches `granule`. Returns whether an
    /// earlier kernel touched it, and whether this is its first touch in
    /// `now`.
    #[inline]
    fn touch(&mut self, granule: u64, now: u32) -> (bool, bool) {
        let stamp = now + 1;
        let (first, last) = self.spans.get_mut(granule);
        if *last == 0 {
            (*first, *last) = (stamp, stamp);
            self.touched += 1;
            return (false, true);
        }
        let first_this_kernel = *last != stamp;
        *last = stamp;
        (*first < stamp, first_this_kernel)
    }
}

/// Extract one locality profile per kernel launch: fast mode's input.
/// L1 contents persist across kernels, matching the cycle engine's private
/// caches. Reuse is tracked per granule ([`LocalityGeometry`]).
///
/// This is the uncached pass; sweeps read the workload's memo through
/// [`Workload::kernel_profiles`], which runs it once per workload. Both run
/// the same [`ProfileTasks`]: this function runs every task in order on the
/// calling thread, the memo lets every caller that finds its fill under
/// way claim tasks.
pub fn profile_workload(geometry: &LocalityGeometry, wl: &Workload) -> Vec<KernelProfile> {
    let tasks = ProfileTasks::new(geometry, wl);
    tasks.work(wl);
    tasks.assemble(wl)
}

/// The profile pass split into per-chip tasks in two phases.
///
/// *Phase 1* has one task per requesting chip. It runs the chip's cluster
/// L1 filters across every kernel and counts what is indexed by requester:
/// L1 accesses and hits, reads, writes, issue cycles, local and remote
/// accesses, through the chip's local span table and remote stamps. It
/// also lays the chip's post-L1 granules out in one buffer, kernel by
/// kernel and home by home within a kernel.
///
/// *Phase 2* has one task per home chip. It replays every requester's
/// granules for that home, kernel by kernel, through the home's span
/// table.
///
/// An access costs one L1 set probe and, if it reaches the LLC, two
/// buffer writes and two table lookups: one in phase 1 (the requester's
/// local span table or remote stamps), one in phase 2 (the home's span
/// table). Every table is a `FootprintTable`. A span table keeps, per
/// granule, the first and last kernel that touched it, so "touched in an
/// earlier kernel" is `first < now`, "first touch this kernel" is
/// `last != now`, and the cumulative footprint is the count of first
/// touches. A remote stamp is the last kernel that touched the granule,
/// so a kernel's distinct remote granules need no set cleared per
/// kernel.
///
/// Each task runs once, in a `OnceLock` that a caller claims through a
/// per-phase counter (as the memo's callers do) or waits on through the
/// task's own initializer, so a task whose claimer panicked is run again
/// by the next caller that needs it. A phase-2 task reads every phase-1
/// part, and [`ProfileTasks::assemble`] reads every part, so each waits
/// for (or runs) what it reads.
///
/// Which caller runs which task, and in what order, cannot change the
/// result: every per-chip count is a sum, a maximum or a distinct count
/// within one kernel, and a phase-2 task replays a kernel's granules only
/// after every earlier kernel's, so "touched in an earlier kernel" sees
/// the same span table whatever order the requesters' granules come in.
#[derive(Debug)]
pub struct ProfileTasks {
    geometry: LocalityGeometry,
    kernels: u32,
    /// Each page's natural home; pages beyond the layout have none and are
    /// homed on the requester.
    homes: Vec<ChipId>,
    next_requester: AtomicUsize,
    requesters: Vec<OnceLock<RequesterPart>>,
    next_home: AtomicUsize,
    homed: Vec<OnceLock<Vec<HomeCounts>>>,
}

/// Phase-1 counts of one requesting chip in one kernel.
#[derive(Debug, Clone, Copy, Default)]
struct RequesterCounts {
    issue_cycles: u64,
    l1_accesses: u64,
    l1_hits: u64,
    reads: u64,
    writes: u64,
    local_accesses: u64,
    remote_accesses: u64,
    distinct_local: u64,
    distinct_remote: u64,
    prior_local: u64,
    cum_distinct_local: u64,
}

/// What a phase-1 task produces: its counts per kernel, and its post-L1
/// granules ordered by (kernel, home chip).
#[derive(Debug)]
struct RequesterPart {
    kernels: Vec<RequesterCounts>,
    /// The granules, kernel by kernel and home by home within a kernel,
    /// each (kernel, home) run in stream order.
    granules: Vec<u64>,
    /// Where the run of (`kernel`, `home`) starts in `granules`, at
    /// `kernel * chips + home`, then the buffer's length.
    starts: Vec<usize>,
    chips: usize,
}

impl RequesterPart {
    /// The granules of `kernel` homed on `home`.
    fn granules(&self, kernel: usize, home: usize) -> &[u64] {
        let run = kernel * self.chips + home;
        &self.granules[self.starts[run]..self.starts[run + 1]]
    }
}

/// Phase-2 counts of one home chip in one kernel.
#[derive(Debug, Clone, Copy, Default)]
struct HomeCounts {
    homed_accesses: u64,
    distinct_homed: u64,
    prior_homed: u64,
    cum_distinct_homed: u64,
}

impl ProfileTasks {
    /// The unrun tasks of `wl`'s pass under `geometry`.
    pub fn new(geometry: &LocalityGeometry, wl: &Workload) -> Self {
        let homes = wl.layout.natural_homes();
        ProfileTasks {
            geometry: *geometry,
            kernels: u32::try_from(wl.kernels.len()).expect("fewer than 2^32 kernels"),
            homes,
            next_requester: AtomicUsize::new(0),
            requesters: (0..geometry.chips).map(|_| OnceLock::new()).collect(),
            next_home: AtomicUsize::new(0),
            homed: (0..geometry.chips).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Claim and run phase 1's unclaimed tasks, then phase 2's. A task
    /// another caller holds is left to it; [`ProfileTasks::assemble`] waits
    /// for it. Callers of one `ProfileTasks` must pass the same workload.
    pub(crate) fn work(&self, wl: &Workload) {
        for chip in claims(&self.next_requester, self.geometry.chips) {
            self.requester(wl, chip);
        }
        for chip in claims(&self.next_home, self.geometry.chips) {
            self.home(wl, chip);
        }
    }

    /// Run phase-1 task `chip`, unless it has run; wait if another caller
    /// is running it.
    pub fn run_requester_task(&self, wl: &Workload, chip: usize) {
        self.requester(wl, chip);
    }

    /// Run phase-2 task `chip`, unless it has run; wait if another caller
    /// is running it. Runs or waits for the phase-1 tasks it reads.
    pub fn run_home_task(&self, wl: &Workload, chip: usize) {
        self.home(wl, chip);
    }

    /// The profile, one entry per kernel, from every task's part (running
    /// or waiting for any task that has not finished).
    pub fn assemble(&self, wl: &Workload) -> Vec<KernelProfile> {
        let chips = self.geometry.chips;
        let homed: Vec<&[HomeCounts]> = (0..chips).map(|h| self.home(wl, h)).collect();
        let requesters: Vec<&RequesterPart> = (0..chips).map(|r| self.requester(wl, r)).collect();
        (0..self.kernels as usize)
            .map(|k| {
                let by_requester = |count: fn(&RequesterCounts) -> u64| {
                    requesters.iter().map(move |part| count(&part.kernels[k]))
                };
                let by_home = |count: fn(&HomeCounts) -> u64| -> Vec<u64> {
                    homed.iter().map(|part| count(&part[k])).collect()
                };
                KernelProfile {
                    issue_cycles: by_requester(|c| c.issue_cycles).max().unwrap_or(0),
                    l1_accesses: by_requester(|c| c.l1_accesses).sum(),
                    l1_hits: by_requester(|c| c.l1_hits).sum(),
                    reads: by_requester(|c| c.reads).sum(),
                    writes: by_requester(|c| c.writes).sum(),
                    local_accesses: by_requester(|c| c.local_accesses).collect(),
                    remote_accesses: by_requester(|c| c.remote_accesses).collect(),
                    distinct_local: by_requester(|c| c.distinct_local).collect(),
                    distinct_remote: by_requester(|c| c.distinct_remote).collect(),
                    homed_accesses: by_home(|c| c.homed_accesses),
                    distinct_homed: by_home(|c| c.distinct_homed),
                    prior_homed: by_home(|c| c.prior_homed),
                    prior_local: by_requester(|c| c.prior_local).collect(),
                    cum_distinct_homed: by_home(|c| c.cum_distinct_homed),
                    cum_distinct_local: by_requester(|c| c.cum_distinct_local).collect(),
                }
            })
            .collect()
    }

    fn requester(&self, wl: &Workload, chip: usize) -> &RequesterPart {
        self.requesters[chip].get_or_init(|| self.requester_task(wl, chip))
    }

    fn home(&self, wl: &Workload, chip: usize) -> &[HomeCounts] {
        self.homed[chip].get_or_init(|| self.home_task(wl, chip))
    }

    /// Phase 1 for requesting chip `chip`.
    fn requester_task(&self, wl: &Workload, chip: usize) -> RequesterPart {
        let g = &self.geometry;
        let first_cluster = chip * g.clusters_per_chip;
        let mut l1s: Vec<L1Filter> = (0..g.clusters_per_chip).map(|_| L1Filter::new(g)).collect();
        // Post-L1 footprint of the chip's locally homed granules across
        // kernels, and the last kernel (plus one) that reached each remote
        // granule.
        let touches = wl
            .kernels
            .iter()
            .flat_map(|k| {
                k.per_cluster
                    .iter()
                    .skip(first_cluster)
                    .take(g.clusters_per_chip)
            })
            .map(|stream| stream.len() as u64)
            .sum();
        let mut local = KernelSpans::new(&wl.layout, g.granule_shift, touches);
        let mut remote = FootprintTable::<u32>::new(&wl.layout, g.granule_shift, touches);
        // This kernel's post-L1 (home, granule) pairs in stream order, and
        // how many each home has.
        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut per_home = vec![0usize; g.chips];
        let mut granules = Vec::new();
        let mut starts = Vec::with_capacity(wl.kernels.len() * g.chips + 1);
        let mut kernels = Vec::with_capacity(wl.kernels.len());
        for (now, kernel) in (0..self.kernels).zip(&wl.kernels) {
            let mut c = RequesterCounts::default();
            let slots = 1 + u64::from(kernel.behavior.compute_gap);
            let streams = kernel.per_cluster.iter().skip(first_cluster);
            for (l1, stream) in l1s.iter_mut().zip(streams) {
                c.issue_cycles = c.issue_cycles.max(stream.len() as u64 * slots);
                for acc in stream.iter() {
                    let granule = acc.addr.raw() >> g.granule_shift;
                    c.l1_accesses += 1;
                    let hit = l1.access(granule, acc.kind);
                    if hit {
                        c.l1_hits += 1;
                    }
                    // Post-L1 traffic: read misses and every write (the L1
                    // is write-through).
                    let reaches_llc = acc.kind == AccessKind::Write || !hit;
                    if !reaches_llc {
                        continue;
                    }
                    let page = acc.addr.raw() >> g.page_shift;
                    let home = if page < self.homes.len() as u64 {
                        self.homes[page as usize].index()
                    } else {
                        chip
                    };
                    if acc.kind == AccessKind::Write {
                        c.writes += 1;
                    } else {
                        c.reads += 1;
                    }
                    pending.push((home, granule));
                    per_home[home] += 1;
                    if home == chip {
                        c.local_accesses += 1;
                        let (prior, first_this_kernel) = local.touch(granule, now);
                        c.prior_local += u64::from(prior);
                        c.distinct_local += u64::from(first_this_kernel);
                    } else {
                        c.remote_accesses += 1;
                        let last = remote.get_mut(granule);
                        c.distinct_remote += u64::from(*last != now + 1);
                        *last = now + 1;
                    }
                }
            }
            c.cum_distinct_local = local.touched;
            kernels.push(c);
            // Lay the kernel's granules out home by home: `per_home`
            // becomes each home's write cursor.
            let mut at = granules.len();
            for n in &mut per_home {
                starts.push(at);
                (*n, at) = (at, at + *n);
            }
            granules.resize(at, 0);
            for &(home, granule) in &pending {
                granules[per_home[home]] = granule;
                per_home[home] += 1;
            }
            pending.clear();
            per_home.fill(0);
        }
        starts.push(granules.len());
        RequesterPart {
            kernels,
            granules,
            starts,
            chips: g.chips,
        }
    }

    /// Phase 2 for home chip `chip`.
    fn home_task(&self, wl: &Workload, chip: usize) -> Vec<HomeCounts> {
        let parts: Vec<&RequesterPart> = (0..self.geometry.chips)
            .map(|r| self.requester(wl, r))
            .collect();
        // Post-L1 footprint of the granules homed on `chip`, across kernels.
        let touches = parts
            .iter()
            .flat_map(|part| (0..self.kernels as usize).map(move |k| part.granules(k, chip)))
            .map(|granules| granules.len() as u64)
            .sum();
        let mut homed = KernelSpans::new(&wl.layout, self.geometry.granule_shift, touches);
        (0..self.kernels)
            .map(|now| {
                let mut c = HomeCounts::default();
                for part in &parts {
                    for &granule in part.granules(now as usize, chip) {
                        c.homed_accesses += 1;
                        let (prior, first_this_kernel) = homed.touch(granule, now);
                        c.prior_homed += u64::from(prior);
                        c.distinct_homed += u64::from(first_this_kernel);
                    }
                }
                c.cum_distinct_homed = homed.touched;
                c
            })
            .collect()
    }
}

/// The indices `0..n` not yet claimed from `next`, each claimed as it is
/// yielded. The counter publishes no data (a task's part is published by
/// its `OnceLock`), so `Relaxed` suffices.
fn claims(next: &AtomicUsize, n: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::from_fn(move || Some(next.fetch_add(1, Ordering::Relaxed)))
        .take_while(move |&i| i < n)
}

/// A workload's memoized profile ([`Workload::kernel_profiles`]): the
/// first geometry's profile once published, and until then the
/// [`ProfileTasks`] of its fill, which every caller under that geometry
/// joins. Cloning yields an empty memo.
#[derive(Debug, Default)]
pub(crate) struct ProfileMemo {
    published: OnceLock<(LocalityGeometry, Vec<KernelProfile>)>,
    /// The fill under way; `None` before the first call and once the
    /// profile is published.
    fill: Mutex<Option<Arc<ProfileTasks>>>,
}

impl Clone for ProfileMemo {
    fn clone(&self) -> Self {
        ProfileMemo::default()
    }
}

impl ProfileMemo {
    /// The memoized profile if it is `geometry`'s, filling the memo first
    /// if it is empty; `None` if the memo holds, or is being filled with,
    /// another geometry's profile.
    pub(crate) fn get_or_fill(
        &self,
        geometry: &LocalityGeometry,
        wl: &Workload,
    ) -> Option<&[KernelProfile]> {
        let (memo_geometry, profiles) = match self.published.get() {
            Some(published) => published,
            None => self.fill(geometry, wl)?,
        };
        (memo_geometry == geometry).then_some(profiles.as_slice())
    }

    /// Join (or start) the fill, then publish it unless another caller
    /// has. `None` if the fill under way is another geometry's.
    fn fill(
        &self,
        geometry: &LocalityGeometry,
        wl: &Workload,
    ) -> Option<&(LocalityGeometry, Vec<KernelProfile>)> {
        let tasks = {
            let mut fill = self.lock_fill();
            if let Some(published) = self.published.get() {
                return Some(published);
            }
            Arc::clone(fill.get_or_insert_with(|| Arc::new(ProfileTasks::new(geometry, wl))))
        };
        if tasks.geometry != *geometry {
            return None;
        }
        tasks.work(wl);
        let mut fill = self.lock_fill();
        Some(self.published.get_or_init(|| {
            let profiles = tasks.assemble(wl);
            // Under the lock, drop the fill state before publishing: a
            // caller that finds the profile published finds no fill
            // state. The other callers' handles go as they return.
            *fill = None;
            (*geometry, profiles)
        }))
    }

    /// Whether the memo holds a fill's task state.
    pub(crate) fn holds_fill(&self) -> bool {
        self.lock_fill().is_some()
    }

    /// The fill slot. A panic under the lock leaves the slot consistent
    /// (it is written only by whole assignments), so poisoning is ignored.
    fn lock_fill(&self) -> MutexGuard<'_, Option<Arc<ProfileTasks>>> {
        self.fill.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, TraceParams};
    use crate::profiles;
    use std::collections::{BTreeSet, HashMap};

    fn cfg() -> MachineConfig {
        MachineConfig::experiment_baseline()
    }

    #[test]
    fn characterize_matches_table4_shape() {
        let c = cfg();
        let params = TraceParams {
            total_accesses: 150_000,
            ..TraceParams::quick()
        };
        // SRAD: large truly-shared pool streamed in full.
        let srad = characterize(
            &c,
            &generate(&c, &profiles::by_name("SRAD").unwrap(), &params),
        );
        // BS: no truly-shared data at all.
        let bs = characterize(
            &c,
            &generate(&c, &profiles::by_name("BS").unwrap(), &params),
        );
        assert!(
            srad.true_shared_mb > 10.0,
            "SRAD true-shared {:.1} MB",
            srad.true_shared_mb
        );
        assert!(
            bs.true_shared_mb < 2.0,
            "BS true-shared {}",
            bs.true_shared_mb
        );
        assert!(
            bs.false_shared_mb > 5.0,
            "BS false-shared {}",
            bs.false_shared_mb
        );
    }

    #[test]
    fn characterize_counts_sharers_beyond_eight_chips() {
        let mut c = cfg();
        c.chips = 16;
        let params = TraceParams {
            total_accesses: 40_000,
            ..TraceParams::quick()
        };
        let wl = generate(&c, &profiles::by_name("SRAD").unwrap(), &params);
        // Recount with explicit sets of chips.
        let lines_per_page = c.page_size / c.line_size;
        let mut line_chips: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        let mut page_chips: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        for k in &wl.kernels {
            for (flat, stream) in k.per_cluster.iter().enumerate() {
                let chip = flat / c.clusters_per_chip;
                for a in stream.iter() {
                    let line = a.addr.line(c.line_size).index();
                    line_chips.entry(line).or_default().insert(chip);
                    page_chips
                        .entry(line / lines_per_page)
                        .or_default()
                        .insert(chip);
                }
            }
        }
        assert!(line_chips
            .values()
            .any(|chips| chips.len() >= 2 && chips.iter().any(|&chip| chip >= 8)));
        let true_lines = line_chips.values().filter(|chips| chips.len() >= 2).count();
        let false_lines = line_chips
            .iter()
            .filter(|(line, chips)| {
                chips.len() < 2 && page_chips[&(*line / lines_per_page)].len() >= 2
            })
            .count();
        let mb = |lines: usize| {
            lines as f64 * c.line_size as f64 * c.scale.capacity as f64 / (1u64 << 20) as f64
        };
        let row = characterize(&c, &wl);
        assert_eq!(row.true_shared_mb, mb(true_lines));
        assert_eq!(row.false_shared_mb, mb(false_lines));
    }

    #[test]
    fn working_set_grows_with_window() {
        let c = cfg();
        let wl = generate(
            &c,
            &profiles::by_name("CFD").unwrap(),
            &TraceParams::quick(),
        );
        let curve = working_set_curve(&c, &wl, &[500, 5_000, 20_000]);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].1.total_mb() < curve[1].1.total_mb());
        assert!(curve[1].1.total_mb() <= curve[2].1.total_mb() + 1e-9);
    }

    #[test]
    fn sp_has_smaller_true_window_than_mp() {
        let c = cfg();
        let params = TraceParams {
            total_accesses: 120_000,
            ..TraceParams::quick()
        };
        let rn = generate(&c, &profiles::by_name("RN").unwrap(), &params);
        let srad = generate(&c, &profiles::by_name("SRAD").unwrap(), &params);
        let w = 10_000;
        let rn_ws = &working_set_curve(&c, &rn, &[w])[0].1;
        let srad_ws = &working_set_curve(&c, &srad, &[w])[0].1;
        assert!(
            srad_ws.true_mb > 2.0 * rn_ws.true_mb,
            "SRAD window true WS {:.3} MB vs RN {:.3} MB",
            srad_ws.true_mb,
            rn_ws.true_mb
        );
    }

    #[test]
    fn profiles_partition_the_post_l1_stream() {
        let c = cfg();
        let params = TraceParams {
            total_accesses: 12_000,
            ..TraceParams::quick()
        };
        let wl = generate(&c, &profiles::by_name("SN").unwrap(), &params);
        let profs = profile_workload(&LocalityGeometry::of(&c), &wl);
        assert_eq!(profs.len(), wl.kernels.len());
        let l1_total: u64 = profs.iter().map(|p| p.l1_accesses).sum();
        assert_eq!(l1_total, wl.total_accesses() as u64);
        for p in &profs {
            let by_requester: u64 =
                p.local_accesses.iter().sum::<u64>() + p.remote_accesses.iter().sum::<u64>();
            let by_home: u64 = p.homed_accesses.iter().sum();
            assert_eq!(by_requester, by_home);
            assert_eq!(by_requester, p.reads + p.writes);
            assert!(p.l1_hits + p.reads + p.writes >= p.l1_accesses);
        }
    }

    #[test]
    fn paper_scale_multiplies_by_capacity() {
        let c = cfg();
        let b = SharingBreakdown {
            true_mb: 1.0,
            false_mb: 2.0,
            non_mb: 3.0,
        };
        let p = b.to_paper_scale(&c);
        assert_eq!(p.true_mb, c.scale.capacity as f64);
        assert_eq!(p.total_mb(), 6.0 * c.scale.capacity as f64);
    }
}
