//! Fast-mode cell evaluation (tier two of the two-tier engine).
//!
//! `run_fast` evaluates a (machine × workload × organization) cell without
//! cycle simulation: it filters each cluster's trace through a private L1
//! model once, aggregates per-kernel locality profiles
//! ([`sac::KernelProfile`]), and hands them to the analytic estimator in
//! [`sac::estimate`]. The result is packaged as a [`RunStats`] so the
//! sweep, journal, figure and figcheck machinery run unchanged in either
//! mode.
//!
//! The profile extraction does not depend on the organization, but
//! `run_fast` extracts it again on every call, so sweeping five
//! organizations over one trace profiles that trace five times. It is
//! fully deterministic, so fast-mode cells replay byte-identically from a
//! journal exactly like cycle-mode cells.
//!
//! # What the fabricated `RunStats` means
//!
//! Estimated fields: `cycles`, `reads`/`writes`, the `l1` and `llc` hit
//! counters, `responses_by_origin` (split by the estimated hit rate and
//! local fraction), `llc_local_fraction`, `llc_occupancy`, `ring_bytes`,
//! `dram_reads`/`dram_writes`, per-kernel cycles and the SAC decision
//! history. Fields fast mode deliberately does **not** model are zero:
//! `overhead_cycles` (reconfiguration drains), `max_in_flight` (MSHR
//! pressure), and the LLC `evictions`/`fill_rejections` micro-counters.
//! Accuracy against the cycle engine is measured by the `crossval` binary
//! and pinned in `expectations/crossval.json` (see `EXPERIMENTS.md`).

use mcgpu_cache::CacheStats;
use mcgpu_sim::stats::{KernelStats, RunStats};
use mcgpu_trace::Workload;
use mcgpu_types::{AccessKind, LineMap, LineSet, LlcOrgKind, MachineConfig, PageAddr};
use sac::{estimate_cell, KernelProfile, SacConfig};
use std::collections::hash_map::Entry;

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
    fn new(cfg: &MachineConfig) -> Self {
        let lines = (cfg.l1_bytes_per_cluster / cfg.line_size).max(1) as usize;
        let ways = cfg.l1_assoc.clamp(1, lines);
        let sets = (lines / ways).max(1);
        L1Filter {
            tags: vec![0; sets * ways],
            fill: vec![0; sets],
            ways,
            sets: sets as u64,
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

/// Extract one locality profile per kernel launch. L1 contents persist
/// across kernels, matching the cycle engine's private caches. Reuse is
/// tracked at granule granularity — a line, or a sector on sectored
/// machines (touching a new sector of a resident line is a sector miss in
/// the cycle engine, so it must not look like reuse here).
///
/// Each access costs one L1 set probe and, if it reaches the LLC, two hash
/// operations: one in its home chip's span map, one in the requester's
/// local span map or remote set. A span map keeps, per granule, the first
/// and last kernel that touched it, so "touched in an earlier kernel" is
/// `first < now`, "first touch this kernel" is `last != now`, and the
/// cumulative footprint is the map's length.
pub fn profile_workload(cfg: &MachineConfig, wl: &Workload) -> Vec<KernelProfile> {
    let chips = cfg.chips;
    let granule = if cfg.sectored {
        cfg.line_size / u64::from(cfg.sectors_per_line)
    } else {
        cfg.line_size
    };
    // `MachineConfig::validate` makes line and page sizes powers of two,
    // and sectors divide the line, so granule and page indices are shifts.
    assert!(
        granule.is_power_of_two() && cfg.page_size.is_power_of_two(),
        "granule and page sizes must be powers of two (validate the config)"
    );
    let granule_shift = granule.trailing_zeros();
    let page_shift = cfg.page_size.trailing_zeros();
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
    let mut l1s: Vec<L1Filter> = (0..chips * cfg.clusters_per_chip)
        .map(|_| L1Filter::new(cfg))
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
            let requester = flat / cfg.clusters_per_chip;
            p.issue_cycles = p.issue_cycles.max(stream.len() as u64 * slots);
            let l1 = &mut l1s[flat];
            for acc in stream.iter() {
                let g = acc.addr.raw() >> granule_shift;
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
                let page = acc.addr.raw() >> page_shift;
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

/// Evaluate one cell analytically, fabricating a [`RunStats`] from the
/// estimator's predictions. Deterministic: same inputs, same bytes.
pub fn run_fast(cfg: &MachineConfig, wl: &Workload, org: LlcOrgKind) -> RunStats {
    let profiles = profile_workload(cfg, wl);
    let est = estimate_cell(cfg, &SacConfig::for_machine(cfg), org, &profiles);

    // The L1 is write-through, so every trace-level write reaches the LLC:
    // the post-L1 write count *is* the completed write count, and trace
    // reads are everything else.
    let writes: u64 = profiles.iter().map(|p| p.writes).sum();
    let reads: u64 = profiles.iter().map(|p| p.l1_accesses).sum::<u64>() - writes;
    let l1_accesses: u64 = profiles.iter().map(|p| p.l1_accesses).sum();
    let l1_hits: u64 = profiles.iter().map(|p| p.l1_hits).sum();
    let llc_misses = est.llc_accesses - est.llc_hits;

    // Split read responses by the estimated hit rate and locality: LLC
    // hits come from a slice, misses from a memory partition, each side
    // divided local/remote by the mean local fraction.
    let read_frac = if est.llc_accesses == 0 {
        0.0
    } else {
        let post_l1_reads: u64 = profiles.iter().map(|p| p.reads).sum();
        post_l1_reads as f64 / est.llc_accesses as f64
    };
    let lf = est.llc_local_fraction;
    let hit_reads = est.llc_hits as f64 * read_frac;
    let miss_reads = llc_misses as f64 * read_frac;
    let responses_by_origin = [
        (hit_reads * lf).round() as u64,
        (hit_reads * (1.0 - lf)).round() as u64,
        (miss_reads * lf).round() as u64,
        (miss_reads * (1.0 - lf)).round() as u64,
    ];

    // Occupancy proxy: the largest kernel footprint against total LLC
    // capacity.
    let cap_lines = (cfg.llc_bytes_per_chip / cfg.line_size) * cfg.chips as u64;
    let footprint = profiles
        .iter()
        .map(KernelProfile::distinct_lines)
        .max()
        .unwrap_or(0);
    let llc_occupancy = if cap_lines == 0 {
        0.0
    } else {
        (footprint as f64 / cap_lines as f64).min(1.0)
    };

    RunStats {
        organization: org,
        cycles: est.cycles,
        reads,
        writes,
        l1: CacheStats {
            accesses: l1_accesses,
            hits: l1_hits,
            misses: l1_accesses - l1_hits,
            fills: l1_accesses - l1_hits,
            ..CacheStats::default()
        },
        llc: CacheStats {
            accesses: est.llc_accesses,
            hits: est.llc_hits,
            misses: llc_misses,
            fills: llc_misses,
            ..CacheStats::default()
        },
        responses_by_origin,
        llc_local_fraction: est.llc_local_fraction,
        llc_occupancy,
        ring_bytes: est.fabric_bytes,
        dram_reads: est.dram_reads,
        dram_writes: est.dram_writes,
        overhead_cycles: 0,
        max_in_flight: 0,
        kernels: est
            .kernels
            .iter()
            .enumerate()
            .map(|(index, k)| KernelStats {
                index,
                cycles: k.cycles,
                accesses: k.accesses,
                sac_mode: k.mode,
            })
            .collect(),
        sac_history: est.sac_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_trace::{generate, profiles, TraceParams};

    fn quick_workload(bench: &str) -> (MachineConfig, Workload) {
        let cfg = MachineConfig::experiment_baseline();
        let p = profiles::by_name(bench).unwrap();
        let params = TraceParams {
            total_accesses: 12_000,
            ..TraceParams::quick()
        };
        let wl = generate(&cfg, &p, &params);
        (cfg, wl)
    }

    #[test]
    fn profiles_partition_the_post_l1_stream() {
        let (cfg, wl) = quick_workload("SN");
        let profs = profile_workload(&cfg, &wl);
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
    fn fast_stats_are_deterministic_and_plausible() {
        let (cfg, wl) = quick_workload("CFD");
        for org in mcgpu_types::LlcOrgKind::ALL {
            let a = run_fast(&cfg, &wl, org);
            let b = run_fast(&cfg, &wl, org);
            assert_eq!(a.to_canonical_json(), b.to_canonical_json(), "{org:?}");
            assert_eq!(a.organization, org);
            assert!(a.cycles > 0);
            assert_eq!(a.reads + a.writes, wl.total_accesses() as u64);
            assert!(a.llc.hits <= a.llc.accesses);
            assert_eq!(a.kernels.len(), wl.kernels.len());
        }
    }

    #[test]
    fn sac_fast_mode_records_decisions() {
        let (cfg, wl) = quick_workload("SN");
        let s = run_fast(&cfg, &wl, LlcOrgKind::Sac);
        assert_eq!(s.sac_history.len(), wl.kernels.len());
        for (k, r) in s.kernels.iter().zip(&s.sac_history) {
            assert_eq!(k.sac_mode, Some(r.mode));
        }
        // The fabricated stats round-trip through canonical JSON like real
        // ones (the journal replay path depends on this).
        let json = s.to_canonical_json();
        let back = RunStats::from_canonical_json(&json).unwrap();
        assert_eq!(back, s);
    }
}
