//! Trace analyses: Table 4's sharing character, Fig. 11's working-set
//! curve, and fast mode's per-kernel locality profile.

use crate::generate::Workload;
use crate::layout::SharingClass;
use mcgpu_types::{AccessKind, KernelProfile, LineMap, LineSet, MachineConfig, PageAddr};
use std::collections::hash_map::Entry;

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

/// Measure the sharing character of a workload from its accesses (Table 4).
/// Sharers are tracked as one bit per chip, which covers the 64 chips
/// [`MachineConfig::validate`] allows.
pub fn characterize(cfg: &MachineConfig, wl: &Workload) -> Table4Row {
    let lines_per_page = cfg.page_size / cfg.line_size;
    let mut line_sharers: LineMap<u64> = LineMap::default();
    let mut page_sharers: LineMap<u64> = LineMap::default();
    let clusters_per_chip = cfg.clusters_per_chip;
    for k in &wl.kernels {
        for (flat, stream) in k.per_cluster.iter().enumerate() {
            let chip = 1u64 << (flat / clusters_per_chip);
            for a in stream.iter() {
                let line = a.addr.line(cfg.line_size).index();
                *line_sharers.entry(line).or_default() |= chip;
                *page_sharers.entry(line / lines_per_page).or_default() |= chip;
            }
        }
    }
    let mut true_lines = 0u64;
    let mut false_lines = 0u64;
    for (&line, &mask) in &line_sharers {
        if mask.count_ones() >= 2 {
            true_lines += 1;
        } else if page_sharers[&(line / lines_per_page)].count_ones() >= 2 {
            false_lines += 1;
        }
    }
    let scale = cfg.scale.capacity as f64;
    let mb = |lines: u64| lines as f64 * cfg.line_size as f64 * scale / (1u64 << 20) as f64;
    Table4Row {
        name: wl.name.clone(),
        ctas: wl.profile.ctas,
        footprint_mb: page_sharers.len() as f64 * cfg.page_size as f64 * scale
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
pub fn working_set_curve(
    cfg: &MachineConfig,
    wl: &Workload,
    windows: &[usize],
) -> Vec<(usize, SharingBreakdown)> {
    let stream: Vec<u64> = wl
        .merged_stream()
        .map(|(_, a)| a.addr.line(cfg.line_size).index())
        .collect();
    let line_mb = cfg.line_size as f64 / (1u64 << 20) as f64;
    let mut seen = LineSet::default();

    windows
        .iter()
        .map(|&w| {
            let w = w.max(1);
            let mut sums = SharingBreakdown::default();
            let mut num_windows = 0usize;
            for chunk in stream.chunks(w) {
                seen.clear();
                let mut counts = [0u64; 3];
                for &line in chunk {
                    if seen.insert(line) {
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
        let set = (line % self.sets) as usize;
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

/// Granule → (first, last) kernel index that touched it.
type KernelSpans = LineMap<(u32, u32)>;

/// Record that kernel `now` touches `granule`. Returns whether an earlier
/// kernel touched it, and whether this is its first touch in `now`.
fn touch(spans: &mut KernelSpans, granule: u64, now: u32) -> (bool, bool) {
    match spans.entry(granule) {
        Entry::Vacant(e) => {
            e.insert((now, now));
            (false, true)
        }
        Entry::Occupied(mut e) => {
            let (first, last) = e.get_mut();
            let first_this_kernel = *last != now;
            *last = now;
            (*first < now, first_this_kernel)
        }
    }
}

/// Extract one locality profile per kernel launch: fast mode's input.
/// L1 contents persist across kernels, matching the cycle engine's private
/// caches. Reuse is tracked per granule ([`LocalityGeometry`]).
///
/// This is the uncached pass; sweeps read the workload's memo through
/// [`Workload::kernel_profiles`], which runs it once per workload.
///
/// Each access costs one L1 set probe and, if it reaches the LLC, two hash
/// operations: one in its home chip's span map, one in the requester's
/// local span map or remote set. A span map keeps, per granule, the first
/// and last kernel that touched it, so "touched in an earlier kernel" is
/// `first < now`, "first touch this kernel" is `last != now`, and the
/// cumulative footprint is the map's length.
pub fn profile_workload(geometry: &LocalityGeometry, wl: &Workload) -> Vec<KernelProfile> {
    let chips = geometry.chips;
    // Each page's natural home; pages beyond the layout have none and are
    // homed on the requester.
    let homes: Vec<u8> = (0..wl.layout.total_pages())
        .map(|p| {
            wl.layout
                .natural_home(PageAddr(p))
                .expect("every page of the layout has a natural home")
                .0
        })
        .collect();
    let mut l1s: Vec<L1Filter> = (0..chips * geometry.clusters_per_chip)
        .map(|_| L1Filter::new(geometry))
        .collect();
    // Post-L1 footprints across kernels, per home chip and per requester's
    // locally-homed granules, and this kernel's remote granules per
    // requester.
    let mut homed: Vec<KernelSpans> = vec![KernelSpans::default(); chips];
    let mut local: Vec<KernelSpans> = vec![KernelSpans::default(); chips];
    let mut seen_remote: Vec<LineSet> = vec![LineSet::default(); chips];
    let mut out = Vec::with_capacity(wl.kernels.len());
    for (now, kernel) in wl.kernels.iter().enumerate() {
        let now = u32::try_from(now).expect("fewer than 2^32 kernels");
        let mut p = KernelProfile {
            local_accesses: vec![0; chips],
            remote_accesses: vec![0; chips],
            distinct_local: vec![0; chips],
            distinct_remote: vec![0; chips],
            homed_accesses: vec![0; chips],
            distinct_homed: vec![0; chips],
            prior_homed: vec![0; chips],
            prior_local: vec![0; chips],
            cum_distinct_homed: vec![0; chips],
            cum_distinct_local: vec![0; chips],
            ..KernelProfile::default()
        };
        seen_remote.iter_mut().for_each(LineSet::clear);
        let slots = 1 + u64::from(kernel.behavior.compute_gap);
        for (flat, stream) in kernel.per_cluster.iter().enumerate() {
            let requester = flat / geometry.clusters_per_chip;
            p.issue_cycles = p.issue_cycles.max(stream.len() as u64 * slots);
            let l1 = &mut l1s[flat];
            for acc in stream.iter() {
                let g = acc.addr.raw() >> geometry.granule_shift;
                p.l1_accesses += 1;
                let hit = l1.access(g, acc.kind);
                if hit {
                    p.l1_hits += 1;
                }
                // Post-L1 traffic: read misses and every write (the L1 is
                // write-through).
                let reaches_llc = acc.kind == AccessKind::Write || !hit;
                if !reaches_llc {
                    continue;
                }
                let page = acc.addr.raw() >> geometry.page_shift;
                let home = if page < homes.len() as u64 {
                    usize::from(homes[page as usize])
                } else {
                    requester
                };
                if acc.kind == AccessKind::Write {
                    p.writes += 1;
                } else {
                    p.reads += 1;
                }
                p.homed_accesses[home] += 1;
                let (prior, first_this_kernel) = touch(&mut homed[home], g, now);
                p.prior_homed[home] += u64::from(prior);
                p.distinct_homed[home] += u64::from(first_this_kernel);
                if home == requester {
                    p.local_accesses[requester] += 1;
                    let (prior, first_this_kernel) = touch(&mut local[requester], g, now);
                    p.prior_local[requester] += u64::from(prior);
                    p.distinct_local[requester] += u64::from(first_this_kernel);
                } else {
                    p.remote_accesses[requester] += 1;
                    if seen_remote[requester].insert(g) {
                        p.distinct_remote[requester] += 1;
                    }
                }
            }
        }
        for c in 0..chips {
            p.cum_distinct_homed[c] = homed[c].len() as u64;
            p.cum_distinct_local[c] = local[c].len() as u64;
        }
        out.push(p);
    }
    out
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
