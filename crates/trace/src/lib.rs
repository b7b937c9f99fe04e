//! Synthetic GPU workload generation reproducing the SAC paper's benchmark
//! sharing characteristics.
//!
//! The paper evaluates 16 CUDA benchmarks (Table 4) whose binaries and
//! inputs we cannot run. What decides whether a workload prefers a
//! memory-side or an SM-side LLC, however, is *only* its inter-chip sharing
//! structure (§2.3, §5.3):
//!
//! * how many bytes are **truly shared** (same line accessed by several
//!   chips), **falsely shared** (different lines of one page accessed by
//!   different chips) and **non-shared**,
//! * how large the *active* truly-shared working set is per time window
//!   (Fig. 11) relative to LLC capacity, and
//! * the access intensity (bandwidth demand) and write fraction.
//!
//! This crate generates per-SM-cluster access streams with exactly those
//! properties, parameterized per benchmark from Table 4 ([`profiles`]), and
//! provides the analyses that regenerate Table 4 and Fig. 11 from the
//! generated traces, plus the per-kernel locality profile fast mode prices
//! ([`analysis`]), which a [`Workload`] memoizes.
//!
//! # Example
//!
//! ```
//! use mcgpu_trace::{profiles, TraceParams, generate};
//! use mcgpu_types::MachineConfig;
//!
//! let cfg = MachineConfig::experiment_baseline();
//! let bfs = profiles::by_name("BFS").unwrap();
//! let wl = generate(&cfg, &bfs, &TraceParams::quick());
//! assert!(!wl.kernels.is_empty());
//! ```

pub mod analysis;
pub mod generate;
pub mod layout;
pub mod profiles;

pub use analysis::{
    characterize, working_set_curve, LocalityGeometry, SharingBreakdown, Table4Row,
};
pub use generate::{generate, KernelTrace, TraceParams, Workload};
pub use layout::{AddressLayout, SharingClass};
pub use profiles::{BenchmarkProfile, KernelBehavior, Preference};
