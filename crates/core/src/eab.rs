//! The Effective Available Bandwidth (EAB) analytical model (§3.3).
//!
//! The EAB is "the bandwidth the system can provide given the workload's
//! access pattern". For each LLC organization it is the sum of the
//! bandwidth available to local and to remote requests:
//!
//! ```text
//! EAB_total = EAB_local + EAB_remote
//! EAB_{l|r} = min(B_SM_LLC, B_LLC_hit + min(B_LLC_miss, B_LLC_mem, B_mem))
//! ```
//!
//! with the constituent bandwidths per Table 1: the memory-side
//! configuration bounds local traffic by the intra-chip NoC and remote
//! traffic by the inter-chip links, whereas the SM-side configuration shares
//! the intra-chip NoC between both and bounds remote *misses* by the
//! inter-chip links. LLC hit/miss bandwidths scale with the LLC Slice
//! Uniformity (LSU) and the configuration-specific hit rate.

use crate::LlcMode;

/// Architecture-dependent model inputs (Table 2, top): per-chip raw
/// bandwidths in GB/s (== bytes/cycle at 1 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchBandwidth {
    /// Intra-chip NoC bandwidth (`B_intra`).
    pub b_intra: f64,
    /// Inter-chip link bandwidth available to one chip (`B_inter`).
    pub b_inter: f64,
    /// Raw aggregate LLC slice bandwidth (`B_LLC`).
    pub b_llc: f64,
    /// Raw memory partition bandwidth (`B_mem`).
    pub b_mem: f64,
}

impl ArchBandwidth {
    /// Extract the per-chip bandwidths from a machine configuration.
    pub fn from_config(cfg: &mcgpu_types::MachineConfig) -> Self {
        ArchBandwidth {
            b_intra: cfg.intra_gbs_per_chip(),
            b_inter: cfg.inter_gbs_per_chip(),
            b_llc: cfg.llc_gbs_per_chip(),
            b_mem: cfg.mem_gbs_per_chip(),
        }
    }
}

/// Workload- and configuration-dependent model inputs (Table 2, bottom),
/// collected during the profiling window (§3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EabInputs {
    /// Fraction of requests whose data is homed on the requesting chip
    /// (`R_local`); `R_remote = 1 - R_local`.
    pub r_local: f64,
    /// LLC hit rate under the memory-side configuration (measured).
    pub llc_hit_memory_side: f64,
    /// LLC hit rate under the SM-side configuration (predicted by the CRD).
    pub llc_hit_sm_side: f64,
    /// LLC slice uniformity under the memory-side configuration.
    pub lsu_memory_side: f64,
    /// LLC slice uniformity under the SM-side configuration.
    pub lsu_sm_side: f64,
}

impl EabInputs {
    /// `R_remote`.
    pub fn r_remote(&self) -> f64 {
        1.0 - self.r_local
    }

    /// Clamp every field into its valid range (defensive: counter noise can
    /// push ratios slightly outside [0, 1]).
    pub fn clamped(mut self) -> Self {
        self.r_local = self.r_local.clamp(0.0, 1.0);
        self.llc_hit_memory_side = self.llc_hit_memory_side.clamp(0.0, 1.0);
        self.llc_hit_sm_side = self.llc_hit_sm_side.clamp(0.0, 1.0);
        self.lsu_memory_side = self.lsu_memory_side.clamp(0.0, 1.0);
        self.lsu_sm_side = self.lsu_sm_side.clamp(0.0, 1.0);
        self
    }
}

/// The EAB model: computes and compares effective available bandwidth under
/// both LLC organizations. See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EabModel {
    arch: ArchBandwidth,
}

impl EabModel {
    /// Create the model for the given architecture bandwidths.
    pub fn new(arch: ArchBandwidth) -> Self {
        EabModel { arch }
    }

    /// The architecture bandwidths the model was built with.
    pub fn arch(&self) -> &ArchBandwidth {
        &self.arch
    }

    /// One side (local or remote) of the EAB equation:
    /// `min(B_SM_LLC, B_LLC_hit + min(B_LLC_miss, B_LLC_mem, B_mem))`.
    fn side(b_sm_llc: f64, b_llc_hit: f64, b_llc_miss: f64, b_llc_mem: f64, b_mem: f64) -> f64 {
        b_sm_llc.min(b_llc_hit + b_llc_miss.min(b_llc_mem).min(b_mem))
    }

    /// EAB of the memory-side configuration (Table 1, left half).
    pub fn eab_memory_side(&self, inputs: &EabInputs) -> f64 {
        let i = inputs.clamped();
        let a = &self.arch;
        let hit_bw = a.b_llc * i.lsu_memory_side * i.llc_hit_memory_side;
        let miss_bw = a.b_llc * i.lsu_memory_side * (1.0 - i.llc_hit_memory_side);
        // Local requests: bounded by the intra-chip NoC; LLC misses access
        // the directly attached local memory (B_LLC_mem unconstrained).
        let local = Self::side(
            a.b_intra,
            hit_bw * i.r_local,
            miss_bw * i.r_local,
            f64::INFINITY,
            a.b_mem * i.r_local,
        );
        // Remote requests: bounded by the inter-chip links end to end.
        let remote = Self::side(
            a.b_inter,
            hit_bw * i.r_remote(),
            miss_bw * i.r_remote(),
            f64::INFINITY,
            a.b_mem * i.r_remote(),
        );
        local + remote
    }

    /// EAB of the SM-side configuration (Table 1, right half).
    pub fn eab_sm_side(&self, inputs: &EabInputs) -> f64 {
        let i = inputs.clamped();
        let a = &self.arch;
        let hit_bw = a.b_llc * i.lsu_sm_side * i.llc_hit_sm_side;
        let miss_bw = a.b_llc * i.lsu_sm_side * (1.0 - i.llc_hit_sm_side);
        // Local requests: share the intra-chip NoC with remote requests;
        // misses go to the directly attached local memory.
        let local = Self::side(
            a.b_intra * i.r_local,
            hit_bw * i.r_local,
            miss_bw * i.r_local,
            f64::INFINITY,
            a.b_mem * i.r_local,
        );
        // Remote requests: also served by the *local* LLC (replication), but
        // their misses must reach a remote memory partition over the
        // inter-chip links (B_LLC_mem = B_inter).
        let remote = Self::side(
            a.b_intra * i.r_remote(),
            hit_bw * i.r_remote(),
            miss_bw * i.r_remote(),
            a.b_inter,
            a.b_mem * i.r_remote(),
        );
        local + remote
    }

    /// EAB for a given mode.
    pub fn eab(&self, mode: LlcMode, inputs: &EabInputs) -> f64 {
        match mode {
            LlcMode::MemorySide => self.eab_memory_side(inputs),
            LlcMode::SmSide => self.eab_sm_side(inputs),
        }
    }

    /// The runtime decision (§3.5): adopt the SM-side organization iff its
    /// EAB exceeds the memory-side EAB by more than the threshold `theta`
    /// (paper: θ = 5%), which absorbs the coherence overhead the model does
    /// not capture.
    pub fn decide(&self, inputs: &EabInputs, theta: f64) -> LlcMode {
        let mem = self.eab_memory_side(inputs);
        let sm = self.eab_sm_side(inputs);
        if sm > mem * (1.0 + theta) {
            LlcMode::SmSide
        } else {
            LlcMode::MemorySide
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchBandwidth {
        // Paper baseline per chip: 4 TB/s intra, 192 GB/s inter, 4 TB/s LLC,
        // 437.5 GB/s DRAM.
        ArchBandwidth {
            b_intra: 4096.0,
            b_inter: 192.0,
            b_llc: 4000.0,
            b_mem: 437.5,
        }
    }

    fn inputs() -> EabInputs {
        EabInputs {
            r_local: 0.5,
            llc_hit_memory_side: 0.6,
            llc_hit_sm_side: 0.5,
            lsu_memory_side: 0.8,
            lsu_sm_side: 0.9,
        }
    }

    #[test]
    fn eab_never_exceeds_structural_bounds() {
        let m = EabModel::new(arch());
        let i = inputs();
        // Memory-side remote side is capped by B_inter; local by B_intra.
        assert!(m.eab_memory_side(&i) <= arch().b_intra + arch().b_inter + 1e-9);
        // SM-side total is capped by B_intra (both sides share it).
        assert!(m.eab_sm_side(&i) <= arch().b_intra + 1e-9);
    }

    #[test]
    fn remote_heavy_sharing_prefers_sm_side() {
        let m = EabModel::new(arch());
        // Mostly remote data that replication would serve locally at high
        // hit rate: the memory-side remote path is strangled by B_inter.
        let i = EabInputs {
            r_local: 0.3,
            llc_hit_memory_side: 0.6,
            llc_hit_sm_side: 0.6,
            lsu_memory_side: 0.6,
            lsu_sm_side: 0.95,
        };
        assert_eq!(m.decide(&i, 0.05), LlcMode::SmSide);
        assert!(m.eab_sm_side(&i) > 2.0 * m.eab_memory_side(&i));
    }

    #[test]
    fn thrashing_replication_prefers_memory_side() {
        let m = EabModel::new(arch());
        // Replication would destroy the hit rate (huge truly-shared set):
        // SM-side remote misses are then bounded by B_inter *and* pay DRAM.
        let i = EabInputs {
            r_local: 0.4,
            llc_hit_memory_side: 0.7,
            llc_hit_sm_side: 0.1,
            lsu_memory_side: 0.85,
            lsu_sm_side: 0.9,
        };
        assert_eq!(m.decide(&i, 0.05), LlcMode::MemorySide);
    }

    #[test]
    fn all_local_traffic_is_indifferent() {
        let m = EabModel::new(arch());
        // No sharing at all: both organizations behave identically, so theta
        // keeps the memory-side organization (no coherence cost).
        let i = EabInputs {
            r_local: 1.0,
            llc_hit_memory_side: 0.5,
            llc_hit_sm_side: 0.5,
            lsu_memory_side: 0.9,
            lsu_sm_side: 0.9,
        };
        let (mem, sm) = (m.eab_memory_side(&i), m.eab_sm_side(&i));
        assert!((mem - sm).abs() < 1e-9);
        assert_eq!(m.decide(&i, 0.05), LlcMode::MemorySide);
    }

    #[test]
    fn eab_is_monotone_in_hit_rate() {
        let m = EabModel::new(arch());
        let mut prev = 0.0;
        for hit in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let i = EabInputs {
                llc_hit_sm_side: hit,
                ..inputs()
            };
            let e = m.eab_sm_side(&i);
            assert!(e + 1e-9 >= prev, "hit={hit}: {e} < {prev}");
            prev = e;
        }
    }

    #[test]
    fn theta_biases_towards_memory_side() {
        let m = EabModel::new(arch());
        // SM-side marginally better: a large theta must keep memory-side.
        let i = EabInputs {
            r_local: 0.8,
            llc_hit_memory_side: 0.55,
            llc_hit_sm_side: 0.58,
            lsu_memory_side: 0.9,
            lsu_sm_side: 0.92,
        };
        let sm = m.eab_sm_side(&i);
        let mem = m.eab_memory_side(&i);
        assert!(sm > mem && sm < mem * 1.5);
        assert_eq!(m.decide(&i, 10.0), LlcMode::MemorySide);
    }

    #[test]
    fn arch_bandwidth_tracks_topology() {
        use mcgpu_types::{MachineConfig, TopologyKind};
        let mut cfg = MachineConfig::paper_baseline();
        // Ring baseline: every chip has degree 2, and 2 links cross any
        // balanced cut.
        assert!((ArchBandwidth::from_config(&cfg).b_inter - 192.0).abs() < 1e-9);
        assert!((cfg.bisection_gbs() - 2.0 * cfg.interchip_pair_gbs).abs() < 1e-9);
        // All-to-all at 8 chips: B_inter grows with degree, and 4 x 4
        // links cross the cut.
        cfg.topology = TopologyKind::FullyConnected;
        cfg.chips = 8;
        let full = ArchBandwidth::from_config(&cfg);
        assert!((full.b_inter - 7.0 * cfg.interchip_pair_gbs).abs() < 1e-9);
        assert!((cfg.bisection_gbs() - 16.0 * cfg.interchip_pair_gbs).abs() < 1e-9);
    }

    #[test]
    fn clamping_handles_noise() {
        let i = EabInputs {
            r_local: 1.2,
            llc_hit_memory_side: -0.1,
            llc_hit_sm_side: 1.7,
            lsu_memory_side: 2.0,
            lsu_sm_side: -1.0,
        }
        .clamped();
        assert_eq!(i.r_local, 1.0);
        assert_eq!(i.llc_hit_memory_side, 0.0);
        assert_eq!(i.llc_hit_sm_side, 1.0);
        assert_eq!(i.lsu_memory_side, 1.0);
        assert_eq!(i.lsu_sm_side, 0.0);
        // And the model never returns NaN on noisy input.
        let m = EabModel::new(arch());
        assert!(m.eab_memory_side(&i).is_finite());
        assert!(m.eab_sm_side(&i).is_finite());
    }
}
