//! Cycle-level multi-chip GPU memory-system simulator.
//!
//! This crate ties the substrates together into the machine of Table 3 and
//! §2 — four GPU chips, each with SM clusters (private write-through L1s),
//! a request and a response crossbar NoC, LLC slices, and a memory
//! partition; chips are connected by an inter-chip ring — and implements
//! all five LLC organizations the paper evaluates (§5):
//!
//! * **memory-side** (baseline): slices cache the local partition's data for
//!   all chips; remote requests cross the ring in both directions;
//! * **SM-side**: slices cache whatever the local SMs access; only misses to
//!   remote data cross the ring (second-NoC datapath, Fig. 6);
//! * **static** (L1.5, Arunkumar et al.): half the ways cache local data,
//!   half cache remote data;
//! * **dynamic** (Milic et al.): the way split adapts at run time to balance
//!   local-memory versus inter-chip bandwidth;
//! * **SAC**: per-kernel reconfiguration between memory-side and SM-side
//!   driven by the EAB model (the [`sac`] crate).
//!
//! The simulator holds its organization as one [`LlcOrg`] value, whose
//! methods match on the variant at every decision that varies by
//! organization (routing, fills, way split, kernel-boundary action).
//!
//! # Example
//!
//! ```
//! use mcgpu_sim::{SimBuilder, Simulator};
//! use mcgpu_trace::{generate, profiles, TraceParams};
//! use mcgpu_types::{LlcOrgKind, MachineConfig};
//!
//! let cfg = MachineConfig::experiment_baseline();
//! let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &TraceParams::quick());
//! let stats = SimBuilder::new(cfg)
//!     .organization(LlcOrgKind::Sac)
//!     .build()
//!     .expect("valid machine configuration")
//!     .run(&wl)
//!     .unwrap();
//! assert!(stats.cycles > 0);
//! ```

pub mod chip;
pub mod cluster;
pub mod dynamic;
pub mod engine;
mod mshr;
pub mod obs;
pub mod org;
pub mod packet;
pub mod stats;

pub use engine::{
    ChipConservation, ChipSnapshot, ConservationReport, DeadlockSnapshot, SimBuilder, SimError,
    Simulator,
};
pub use obs::{EpochSample, LatencyHistogram, MachineSnapshot, ObsReport, Observer, HIST_BUCKETS};
pub use org::{BoundaryAction, LlcOrg, RouteMode};
pub use stats::{KernelStats, RunStats};
