//! Fast-mode cell evaluation (tier two of the two-tier engine).
//!
//! `run_fast` evaluates a (machine × workload × organization) cell without
//! cycle simulation: it takes the workload's per-kernel locality profiles
//! ([`sac::KernelProfile`], extracted by
//! [`mcgpu_trace::analysis::profile_workload`]) and hands them to the
//! analytic estimator in [`sac::estimate`]. The result is packaged as a
//! [`RunStats`] so the sweep, journal, figure and figcheck machinery run
//! unchanged in either mode.
//!
//! The profile does not depend on the organization, so `run_fast` reads
//! it from the workload's memo ([`Workload::kernel_profiles`]): sweeping
//! five organizations over one trace profiles that trace once, and cells
//! of one trace that run at the same time share that pass's per-chip
//! tasks. Everything is deterministic, so fast-mode cells replay
//! byte-identically from a journal exactly like cycle-mode cells.
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
use mcgpu_trace::{analysis, LocalityGeometry, Workload};
use mcgpu_types::{LlcOrgKind, MachineConfig};
use sac::{estimate_cell, KernelProfile, SacConfig};

/// Profile `wl` under `cfg`'s L1 geometry with the uncached pass
/// ([`analysis::profile_workload`]): every call runs the pass, and the
/// workload's memo is neither read nor filled. [`run_fast`] reads the
/// memo instead.
pub fn profile_workload(cfg: &MachineConfig, wl: &Workload) -> Vec<KernelProfile> {
    analysis::profile_workload(&LocalityGeometry::of(cfg), wl)
}

/// Evaluate one cell analytically, fabricating a [`RunStats`] from the
/// estimator's predictions. Deterministic: same inputs, same bytes.
pub fn run_fast(cfg: &MachineConfig, wl: &Workload, org: LlcOrgKind) -> RunStats {
    let profiles = wl.kernel_profiles(cfg);
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
    fn fast_stats_are_deterministic_and_plausible() {
        let (cfg, wl) = quick_workload("CFD");
        for org in mcgpu_types::LlcOrgKind::ALL {
            let a = run_fast(&cfg, &wl, org);
            // A clone starts with an empty memo, so `b` profiles afresh.
            let b = run_fast(&cfg, &wl.clone(), org);
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
