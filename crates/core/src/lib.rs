//! Sharing-Aware Caching (SAC) — the contribution of Zhang et al., ISCA 2023.
//!
//! SAC reconfigures a multi-chip GPU's LLC between a **memory-side** and an
//! **SM-side** organization on a per-kernel basis, choosing whichever the
//! lightweight **Effective Available Bandwidth (EAB)** analytical model
//! (§3.3) predicts to provide more bandwidth *ahead of* the LLC. The pieces,
//! mapped to the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.3 EAB model, Tables 1–2 | [`eab`] |
//! | §3.4 Chip Request Directory (Fig. 7) | [`crd`] |
//! | §3.4 LSU / request counters | [`counters`] |
//! | §3.2/§3.5 runtime: profile → decide(θ) → reconfigure | [`controller`] |
//! | §3.6 hardware overhead (620/812 B per chip) | [`overhead`] |
//!
//! # Example: the EAB decision
//!
//! ```
//! use sac::eab::{ArchBandwidth, EabInputs, EabModel};
//!
//! let arch = ArchBandwidth {
//!     b_intra: 4096.0,
//!     b_inter: 192.0,
//!     b_llc: 4000.0,
//!     b_mem: 437.5,
//! };
//! let model = EabModel::new(arch);
//! // Lots of remote traffic that would hit locally if replicated:
//! let inputs = EabInputs {
//!     r_local: 0.4,
//!     llc_hit_memory_side: 0.6,
//!     llc_hit_sm_side: 0.55,
//!     lsu_memory_side: 0.5,
//!     lsu_sm_side: 0.95,
//! };
//! let eab_sm = model.eab_sm_side(&inputs);
//! let eab_mem = model.eab_memory_side(&inputs);
//! assert!(eab_sm > eab_mem);
//! assert_eq!(model.decide(&inputs, 0.05), sac::LlcMode::SmSide);
//! ```

pub mod controller;
pub mod counters;
pub mod crd;
pub mod eab;
pub mod estimate;
pub mod overhead;

pub use controller::{SacConfig, SacController, SacState};
pub use counters::{lsu, ProfileCollector};
pub use crd::Crd;
pub use eab::{ArchBandwidth, EabInputs, EabModel};
pub use estimate::{estimate_cell, FastCellEstimate, FastKernelEstimate, KernelProfile};
pub use overhead::HardwareOverhead;

/// The two LLC modes SAC switches between (the reconfigurable subset of
/// `mcgpu_types::LlcOrgKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcMode {
    /// Slices cache the local memory partition's data for all chips.
    MemorySide,
    /// Slices cache whatever the local SMs access.
    SmSide,
}

impl LlcMode {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            LlcMode::MemorySide => "memory-side",
            LlcMode::SmSide => "SM-side",
        }
    }

    /// Inverse of [`LlcMode::label`], for reading serialized run records.
    pub fn from_label(label: &str) -> Option<LlcMode> {
        match label {
            "memory-side" => Some(LlcMode::MemorySide),
            "SM-side" => Some(LlcMode::SmSide),
            _ => None,
        }
    }
}

impl std::fmt::Display for LlcMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
