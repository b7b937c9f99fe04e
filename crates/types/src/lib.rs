//! Common vocabulary types for the multi-chip GPU simulator.
//!
//! This crate defines the identifiers, address arithmetic, packet formats and
//! machine configuration shared by every other crate in the workspace. It has
//! no dependencies and models the baseline system of Table 3 of the SAC paper
//! (Zhang et al., ISCA 2023): a 4-chip GPU in which every chip hosts SM
//! clusters, LLC slices and memory channels, connected by an intra-chip
//! crossbar NoC and an inter-chip ring.
//!
//! # Example
//!
//! ```
//! use mcgpu_types::{MachineConfig, Address};
//!
//! let cfg = MachineConfig::paper_baseline();
//! assert_eq!(cfg.chips, 4);
//! assert_eq!(cfg.total_llc_bytes(), 16 << 20);
//!
//! let a = Address::new(0x1_0040);
//! assert_eq!(a.line(cfg.line_size).index(), 0x1_0040 / 128);
//! ```

pub mod active;
pub mod addr;
pub mod budget;
pub mod config;
pub mod error;
pub mod expect;
pub mod fault;
pub mod fsio;
pub mod hash;
pub mod ids;
pub mod json;
pub mod locality;
pub mod mode;
pub mod obs;
pub mod packet;
pub mod pipe;

pub use active::ActiveSet;
pub use addr::{Address, LineAddr, PageAddr, SectorId};
pub use budget::BandwidthBudget;
pub use config::{
    CoherenceKind, LlcOrgKind, MachineConfig, MemoryInterface, PolicyCtx, ScaleFactor, TopologyKind,
};
pub use error::{ConfigError, JournalError, ParseError};
pub use expect::{
    Check, CrossvalField, Expectation, ExpectationSet, Finding, Metric, Report, Severity, Verdict,
    EXPECT_SCHEMA, REPORT_SCHEMA,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use hash::{LineHasher, LineMap};
pub use ids::{ChipId, ClusterId};
pub use locality::KernelProfile;
pub use mode::EngineMode;
pub use obs::{ObsConfig, ObsLevel};
pub use packet::{AccessKind, MemAccess, Request, RequestId, Response, ResponseOrigin};
pub use pipe::{earliest_event, Pipe};
