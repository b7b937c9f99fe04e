//! The analytic fast-mode estimator (tier two of the two-tier engine).
//!
//! Fast mode predicts a cell's headline metrics — LLC hit rate, inter-chip
//! fabric bytes, DRAM traffic and a bandwidth-bounded cycle count — from a
//! per-kernel locality profile, without running the cycle engine at all.
//! The profile (one [`KernelProfile`] per kernel launch) is extracted from
//! the trace once by the bench harness; this module is the pure arithmetic
//! that turns it into a [`FastCellEstimate`] for each LLC organization.
//!
//! The hit model keys on **cross-kernel reuse**: the cycle engine drains
//! all traffic at kernel boundaries, so a re-access to a granule resident
//! since an earlier kernel hits, while short-distance reuse *within* a
//! kernel is largely absorbed by MSHR merging (a merged request is a miss,
//! not a hit, in the stats). A kernel making `p` re-accesses to granules
//! already resident from prior kernels, against a cumulative footprint of
//! `d` granules in a cache of `c`, scores
//!
//! ```text
//! hits(p, d, c) ≈ p · min(1, c / d)
//! ```
//!
//! What counts as "resident from prior kernels" follows each
//! organization's boundary action (`crates/sim/src/org/`): memory-side
//! home data always survives; SM-side replicas are flushed wholesale at
//! every boundary under software coherence (nothing survives) and only
//! locally-homed lines survive the hardware-coherence replica drop; the
//! tiered organizations keep their local pool and lose the remote pool.
//! The SAC estimate runs the real [`EabModel::decide`] threshold per
//! kernel on inputs assembled from the same profile, so fast mode
//! exercises the paper's decision logic and fabricates a [`KernelRecord`]
//! history just like the cycle engine.
//!
//! Fast mode is an *estimator*: its error against the cycle engine is
//! measured by the `crossval` binary and pinned as expectation bands. It
//! deliberately does not model contention transients, MSHR pressure,
//! reconfiguration drains, or fault injection.

use crate::controller::{KernelRecord, SacConfig};
use crate::counters::lsu;
use crate::eab::{ArchBandwidth, EabInputs, EabModel};
use crate::LlcMode;
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig};

/// Locality profile of one kernel launch, extracted from the trace after
/// an L1 filter. All access counts are post-L1 (what the LLC layer sees);
/// vectors are indexed by chip. "Granule" is a cache line, or a sector on
/// sectored machines (a re-access to an untouched sector of a resident
/// line is a sector miss, not a hit).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelProfile {
    /// Issue-bound cycle floor: the longest cluster stream's slots,
    /// `len · (1 + compute_gap)`.
    pub issue_cycles: u64,
    /// L1-level accesses machine-wide (pre-filter).
    pub l1_accesses: u64,
    /// L1 hits machine-wide.
    pub l1_hits: u64,
    /// Post-L1 reads machine-wide.
    pub reads: u64,
    /// Post-L1 writes machine-wide.
    pub writes: u64,
    /// Per requesting chip: post-L1 accesses to lines homed on that chip.
    pub local_accesses: Vec<u64>,
    /// Per requesting chip: post-L1 accesses to lines homed elsewhere.
    pub remote_accesses: Vec<u64>,
    /// Per requesting chip: distinct locally-homed granules it touched.
    pub distinct_local: Vec<u64>,
    /// Per requesting chip: distinct remotely-homed granules it touched.
    pub distinct_remote: Vec<u64>,
    /// Per home chip: post-L1 accesses homed on that chip (from any chip).
    pub homed_accesses: Vec<u64>,
    /// Per home chip: distinct granules homed on that chip that were
    /// touched.
    pub distinct_homed: Vec<u64>,
    /// Per home chip: accesses this kernel to granules that chip's slices
    /// already saw in an *earlier* kernel (cross-kernel reuse home slices
    /// can serve).
    pub prior_homed: Vec<u64>,
    /// Per requesting chip: accesses to locally-homed granules the chip
    /// itself touched in an earlier kernel (the reuse that survives a
    /// boundary replica drop).
    pub prior_local: Vec<u64>,
    /// Per home chip: cumulative distinct granules homed there, through
    /// the end of this kernel (residency pressure for the capacity term).
    pub cum_distinct_homed: Vec<u64>,
    /// Per requesting chip: cumulative distinct locally-homed granules it
    /// touched, through the end of this kernel.
    pub cum_distinct_local: Vec<u64>,
}

impl KernelProfile {
    /// Total post-L1 accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of post-L1 accesses homed on the requesting chip.
    pub fn r_local(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 1.0;
        }
        self.local_accesses.iter().sum::<u64>() as f64 / total as f64
    }

    /// Total distinct lines touched (each line is homed on exactly one
    /// chip, so the per-home counts partition the set).
    pub fn distinct_lines(&self) -> u64 {
        self.distinct_homed.iter().sum()
    }
}

/// One kernel's fast-mode prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastKernelEstimate {
    /// Predicted kernel duration in cycles.
    pub cycles: u64,
    /// L1-level accesses attributed to the kernel.
    pub accesses: u64,
    /// The LLC mode the kernel ran under (SAC only).
    pub mode: Option<LlcMode>,
}

/// A whole cell's fast-mode prediction, aggregated over its kernels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FastCellEstimate {
    /// Predicted total cycles.
    pub cycles: u64,
    /// Post-L1 LLC accesses.
    pub llc_accesses: u64,
    /// Predicted LLC hits.
    pub llc_hits: u64,
    /// Predicted mean fraction of LLC accesses served by a local slice.
    pub llc_local_fraction: f64,
    /// Predicted bytes crossing the inter-chip fabric.
    pub fabric_bytes: u64,
    /// Predicted DRAM line reads (fills).
    pub dram_reads: u64,
    /// Predicted DRAM line writebacks.
    pub dram_writes: u64,
    /// Per-kernel estimates, in launch order.
    pub kernels: Vec<FastKernelEstimate>,
    /// Fabricated SAC decision history (empty for other organizations).
    pub sac_history: Vec<KernelRecord>,
}

/// `hits(p, d, c) = p · min(1, c / d)` — cross-kernel re-accesses scaled
/// by how much of the cumulative footprint is actually still resident.
fn retained(prior: u64, cum_distinct: u64, capacity: f64) -> f64 {
    if prior == 0 || cum_distinct == 0 {
        return 0.0;
    }
    prior as f64 * (capacity / cum_distinct as f64).min(1.0)
}

/// Per-kernel hit prediction under the memory-side organization: home
/// data is authoritative and survives every kernel boundary (software
/// boundaries do nothing; the hardware replica drop only touches remote
/// replicas, which memory-side slices never hold).
fn hits_memory_side(k: &KernelProfile, cap: f64) -> f64 {
    k.prior_homed
        .iter()
        .zip(&k.cum_distinct_homed)
        .map(|(&p, &d)| retained(p, d, cap))
        .sum()
}

/// Per-kernel hit prediction under the SM-side organization. Within a
/// kernel, replica reuse is MSHR-shadowed (merged requests are misses);
/// across kernels, survival depends on coherence: software flushes the
/// whole replicated LLC at every boundary, hardware drops only
/// remotely-homed replicas, so locally-homed lines keep serving.
fn hits_sm_side(k: &KernelProfile, cap: f64, coherence: CoherenceKind) -> f64 {
    match coherence {
        CoherenceKind::Software => 0.0,
        CoherenceKind::Hardware => k
            .prior_local
            .iter()
            .zip(&k.cum_distinct_local)
            .map(|(&p, &d)| retained(p, d, cap))
            .sum(),
    }
}

/// Per-kernel hit prediction for a way-partitioned slice: the local pool
/// (`local_frac` of the ways) is home data and persists like memory-side;
/// the remote pool is replicas that every boundary action discards, so
/// its cross-kernel contribution is nil.
fn hits_split(k: &KernelProfile, cap: f64, local_frac: f64) -> f64 {
    hits_memory_side(k, cap * local_frac)
}

/// The EAB inputs fast mode assembles for one kernel: measured locality
/// plus the capacity model's own hit predictions, with the real LSU
/// statistic computed over the per-chip load vectors.
fn eab_inputs(k: &KernelProfile, cap: f64, coherence: CoherenceKind) -> EabInputs {
    let total = k.accesses().max(1) as f64;
    let by_requester: Vec<u64> = k
        .local_accesses
        .iter()
        .zip(&k.remote_accesses)
        .map(|(&l, &r)| l + r)
        .collect();
    EabInputs {
        r_local: k.r_local(),
        llc_hit_memory_side: hits_memory_side(k, cap) / total,
        llc_hit_sm_side: hits_sm_side(k, cap, coherence) / total,
        lsu_memory_side: lsu(&k.homed_accesses),
        lsu_sm_side: lsu(&by_requester),
    }
    .clamped()
}

/// Which hit model and EAB side a kernel uses under `org` (SAC resolves
/// per kernel via [`EabModel::decide`]).
fn kernel_hits_and_eab(
    org: LlcOrgKind,
    k: &KernelProfile,
    cap: f64,
    coherence: CoherenceKind,
    model: &EabModel,
    inputs: &EabInputs,
    theta: f64,
) -> (f64, f64, Option<LlcMode>) {
    match org {
        LlcOrgKind::MemorySide => (
            hits_memory_side(k, cap),
            model.eab_memory_side(inputs),
            None,
        ),
        LlcOrgKind::SmSide => (
            hits_sm_side(k, cap, coherence),
            model.eab_sm_side(inputs),
            None,
        ),
        LlcOrgKind::StaticHalf => {
            // Half the ways local, half remote; bandwidth between the two
            // structural envelopes.
            let eab = 0.5 * (model.eab_memory_side(inputs) + model.eab_sm_side(inputs));
            (hits_split(k, cap, 0.5), eab, None)
        }
        LlcOrgKind::Dynamic => {
            // The way-split controller adapts per epoch: credit it with the
            // best of a coarse split sweep and the better EAB envelope.
            let hits = [0.25, 0.5, 0.75]
                .iter()
                .map(|&s| hits_split(k, cap, s))
                .fold(0.0f64, f64::max);
            let eab = model.eab_memory_side(inputs).max(model.eab_sm_side(inputs));
            (hits, eab, None)
        }
        LlcOrgKind::Sac => {
            // Run the paper's θ-threshold decision on the assembled inputs.
            let mode = model.decide(inputs, theta);
            let (hits, eab) = match mode {
                LlcMode::MemorySide => (hits_memory_side(k, cap), model.eab_memory_side(inputs)),
                LlcMode::SmSide => (hits_sm_side(k, cap, coherence), model.eab_sm_side(inputs)),
            };
            (hits, eab, Some(mode))
        }
    }
}

/// Predict one cell — a (machine, organization, kernel sequence) triple —
/// without cycle simulation. `sac_cfg` supplies θ and the profiling-window
/// length used to stamp the fabricated decision records.
pub fn estimate_cell(
    cfg: &MachineConfig,
    sac_cfg: &SacConfig,
    org: LlcOrgKind,
    kernels: &[KernelProfile],
) -> FastCellEstimate {
    let model = EabModel::new(ArchBandwidth::from_config(cfg));
    let cap_lines = (cfg.llc_bytes_per_chip / cfg.line_size) as f64;
    let line = cfg.line_size as f64;
    // Fabric wire costs mirror `packet.rs`: a read moves a 16 B request and
    // a `16 + line` B response; a write moves a `16 + 32` B request and a
    // 16 B acknowledgement.
    let read_wire = 16.0 + 16.0 + line;
    let write_wire = 48.0 + 16.0;

    let mut out = FastCellEstimate::default();
    let mut local_weight = 0.0f64;
    let mut cell_writes = 0u64;
    for k in kernels {
        let total = k.accesses();
        let inputs = eab_inputs(k, cap_lines, cfg.coherence);
        let (hits_f, eab, mode) = kernel_hits_and_eab(
            org,
            k,
            cap_lines,
            cfg.coherence,
            &model,
            &inputs,
            sac_cfg.theta,
        );
        let hits_f = hits_f.min(total as f64);
        let write_frac = if total == 0 {
            0.0
        } else {
            k.writes as f64 / total as f64
        };

        // Bandwidth-bound duration: post-L1 demand bytes through the EAB.
        let demand_bytes = total as f64 * line;
        let bw_cycles = if eab > 0.0 {
            (demand_bytes / eab).ceil() as u64
        } else {
            0
        };
        let cycles = k.issue_cycles.max(bw_cycles);

        // Fabric traffic. Under memory-side routing every remote access
        // crosses. Under SM-side routing (and the tiered organizations'
        // remote pools) a remote granule crosses roughly once per kernel:
        // the first access fetches it, and same-kernel repeats are served
        // by the local replica or merged into the in-flight miss — either
        // way they stay on-chip.
        let remote = k.remote_accesses.iter().sum::<u64>() as f64;
        let remote_repeats: f64 = k
            .remote_accesses
            .iter()
            .zip(&k.distinct_remote)
            .map(|(&n, &d)| n.saturating_sub(d) as f64)
            .sum();
        let replicates = !matches!(
            (org, mode),
            (LlcOrgKind::MemorySide, _) | (LlcOrgKind::Sac, Some(LlcMode::MemorySide))
        );
        let remote_crossings = if replicates {
            remote - remote_repeats
        } else {
            remote
        };
        let flushes_each_kernel = cfg.coherence == CoherenceKind::Software
            && matches!(
                (org, mode),
                (LlcOrgKind::SmSide, _) | (LlcOrgKind::Sac, Some(LlcMode::SmSide))
            );
        let mut fabric =
            remote_crossings * (read_wire * (1.0 - write_frac) + write_wire * write_frac);
        // A full boundary flush writes replicated remote dirty granules
        // back to their homes across the fabric, a full line each
        // (`FabricPayload::Writeback`). The tiered organizations' partial
        // flushes move too little to model (measured < 3% of cell traffic).
        if flushes_each_kernel {
            let distinct_remote: u64 = k.distinct_remote.iter().sum();
            fabric += distinct_remote as f64 * write_frac * (16.0 + line);
        }

        // DRAM fills: every read miss fetches from memory.
        let misses = total as f64 - hits_f;
        let dram_reads = misses * (1.0 - write_frac);

        // DRAM writebacks: an organization that flushes its replicated
        // contents at every boundary (SM-side caching under software
        // coherence) writes each kernel's dirty granules back each kernel.
        // Persisting organizations keep dirty lines resident; those write
        // back once per granule over the whole cell (accounted after the
        // loop from the cumulative footprint).
        let dram_writes = if flushes_each_kernel {
            (k.distinct_lines() as f64 * write_frac).min(k.writes as f64)
        } else {
            0.0
        };
        cell_writes += k.writes;

        out.cycles += cycles;
        out.llc_accesses += total;
        out.llc_hits += hits_f.round() as u64;
        out.fabric_bytes += fabric.round() as u64;
        out.dram_reads += dram_reads.round() as u64;
        out.dram_writes += dram_writes.round() as u64;
        local_weight += inputs.r_local * total as f64;
        out.kernels.push(FastKernelEstimate {
            cycles,
            accesses: k.l1_accesses,
            mode,
        });
        if org == LlcOrgKind::Sac {
            let start_cycle = out.cycles - cycles;
            let decision_cycle = start_cycle + sac_cfg.profile_window.min(cycles);
            out.sac_history.push(KernelRecord {
                start_cycle,
                decision_cycle,
                inputs,
                eab_memory_side: model.eab_memory_side(&inputs),
                eab_sm_side: model.eab_sm_side(&inputs),
                mode: mode.unwrap_or(LlcMode::MemorySide),
                requests_observed: total,
                fallback: total < sac_cfg.min_samples,
            });
        }
    }
    // Writebacks of persisting contents: each dirty granule of the cell's
    // cumulative footprint goes back to DRAM once (on eviction or at the
    // end), scaled by the cell's write mix.
    let cell_flushes = cfg.coherence == CoherenceKind::Software
        && (org == LlcOrgKind::SmSide
            || (org == LlcOrgKind::Sac
                && out.sac_history.iter().all(|r| r.mode == LlcMode::SmSide)));
    if !cell_flushes && out.llc_accesses > 0 {
        let footprint: u64 = kernels
            .last()
            .map(|k| k.cum_distinct_homed.iter().sum())
            .unwrap_or(0);
        // Profiles count sector granules on sectored machines; dirty lines
        // write back whole, so collapse the footprint to line granularity.
        let footprint = if cfg.sectored {
            footprint / u64::from(cfg.sectors_per_line)
        } else {
            footprint
        };
        let write_frac = cell_writes as f64 / out.llc_accesses as f64;
        out.dram_writes += (footprint as f64 * write_frac).round() as u64;
    }
    out.llc_hits = out.llc_hits.min(out.llc_accesses);
    out.llc_local_fraction = if out.llc_accesses == 0 {
        1.0
    } else {
        local_weight / out.llc_accesses as f64
    };
    out
}

/// Cell-level hit rate of an estimate.
pub fn hit_rate(e: &FastCellEstimate) -> f64 {
    if e.llc_accesses == 0 {
        0.0
    } else {
        e.llc_hits as f64 / e.llc_accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-chip kernel; `prior` of its accesses re-touch granules
    /// from earlier kernels.
    fn one_chip_kernel(reads: u64, distinct: u64, prior: u64) -> KernelProfile {
        KernelProfile {
            issue_cycles: reads,
            l1_accesses: reads * 2,
            l1_hits: reads,
            reads,
            writes: 0,
            local_accesses: vec![reads, 0, 0, 0],
            remote_accesses: vec![0; 4],
            distinct_local: vec![distinct, 0, 0, 0],
            distinct_remote: vec![0; 4],
            homed_accesses: vec![reads, 0, 0, 0],
            distinct_homed: vec![distinct, 0, 0, 0],
            prior_homed: vec![prior, 0, 0, 0],
            prior_local: vec![prior, 0, 0, 0],
            cum_distinct_homed: vec![distinct + prior, 0, 0, 0],
            cum_distinct_local: vec![distinct + prior, 0, 0, 0],
        }
    }

    #[test]
    fn retained_hit_model_limits() {
        // Footprint fits: every cross-kernel re-access hits.
        assert_eq!(retained(100, 50, 200.0), 100.0);
        // Footprint double the capacity: half of them do.
        assert_eq!(retained(100, 400, 200.0), 50.0);
        // No prior reuse, no hits.
        assert_eq!(retained(0, 500, 200.0), 0.0);
        assert_eq!(retained(10, 0, 200.0), 0.0);
    }

    #[test]
    fn cross_kernel_reuse_hits_only_when_contents_survive() {
        let mut cfg = MachineConfig::experiment_baseline();
        let sac_cfg = SacConfig::for_machine(&cfg);
        // Kernel 1 is all first touches; kernel 2 re-touches them.
        let k = vec![
            one_chip_kernel(1_000, 1_000, 0),
            one_chip_kernel(1_000, 0, 1_000),
        ];
        let mem = estimate_cell(&cfg, &sac_cfg, LlcOrgKind::MemorySide, &k);
        assert_eq!(mem.llc_hits, 1_000, "home data persists across kernels");
        // SM-side replicas are flushed wholesale at software boundaries.
        let sm_sw = estimate_cell(&cfg, &sac_cfg, LlcOrgKind::SmSide, &k);
        assert_eq!(sm_sw.llc_hits, 0);
        // Under hardware coherence only remote replicas drop; these
        // granules are locally homed, so they keep serving.
        cfg.coherence = mcgpu_types::CoherenceKind::Hardware;
        let sm_hw = estimate_cell(&cfg, &sac_cfg, LlcOrgKind::SmSide, &k);
        assert_eq!(sm_hw.llc_hits, 1_000);
    }

    #[test]
    fn remote_repeats_cross_the_fabric_once_per_kernel_under_replication() {
        let cfg = MachineConfig::experiment_baseline();
        let sac_cfg = SacConfig::for_machine(&cfg);
        // One chip hammers a small remote working set.
        let k = vec![KernelProfile {
            issue_cycles: 1_000,
            l1_accesses: 20_000,
            l1_hits: 10_000,
            reads: 10_000,
            writes: 0,
            local_accesses: vec![1_000, 0, 0, 0],
            remote_accesses: vec![9_000, 0, 0, 0],
            distinct_local: vec![100, 0, 0, 0],
            distinct_remote: vec![300, 0, 0, 0],
            homed_accesses: vec![1_000, 3_000, 3_000, 3_000],
            distinct_homed: vec![100, 100, 100, 100],
            prior_homed: vec![0; 4],
            prior_local: vec![0; 4],
            cum_distinct_homed: vec![100, 100, 100, 100],
            cum_distinct_local: vec![100, 0, 0, 0],
        }];
        let sm = estimate_cell(&cfg, &sac_cfg, LlcOrgKind::SmSide, &k);
        let mem = estimate_cell(&cfg, &sac_cfg, LlcOrgKind::MemorySide, &k);
        // Memory-side sends all 9000 remote accesses across; replication
        // fetches each of the 300 distinct granules once.
        assert!(sm.fabric_bytes < mem.fabric_bytes / 10);
    }

    #[test]
    fn estimates_are_internally_consistent() {
        let cfg = MachineConfig::experiment_baseline();
        let sac_cfg = SacConfig::for_machine(&cfg);
        let k = vec![
            one_chip_kernel(5_000, 250, 0),
            one_chip_kernel(3_000, 0, 3_000),
        ];
        for org in LlcOrgKind::ALL {
            let e = estimate_cell(&cfg, &sac_cfg, org, &k);
            assert!(e.llc_hits <= e.llc_accesses, "{org:?}");
            assert_eq!(e.llc_accesses, 8_000);
            assert_eq!(e.kernels.len(), 2);
            assert!(e.cycles >= 8_000, "{org:?}: at least the issue bound");
            assert!((0.0..=1.0).contains(&hit_rate(&e)));
            assert!((0.0..=1.0).contains(&e.llc_local_fraction));
        }
        // SAC records one decision per kernel regardless of mode.
        let sac = estimate_cell(&cfg, &sac_cfg, LlcOrgKind::Sac, &k);
        assert_eq!(sac.sac_history.len(), 2);
    }
}
