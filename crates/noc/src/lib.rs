//! Interconnect substrates: intra-chip crossbar NoC, inter-chip fabric,
//! and a first-order physical (area/power) model.
//!
//! The baseline machine (§2) uses a concentrated hierarchical crossbar per
//! chip — logically a 38×22 crossbar connecting 32 SM clusters plus 6
//! inter-chip links on the input side to 16 LLC slices plus 6 inter-chip
//! links on the output side — and an inter-chip ring of 3 NVLink-class links
//! per adjacent pair. Requests and responses travel on **separate
//! networks** (§3.1), so the simulator instantiates two [`Crossbar`]s and
//! two [`FabricNetwork`]s per direction. The inter-chip fabric routes over
//! one concrete [`Topology`] built from the configured
//! [`TopologyKind`](mcgpu_types::TopologyKind) (`ring`, `full` or
//! `mesh2d`); the paper's 4-chip ring is the default, and its routing
//! reproduces the original hard-wired ring exactly.
//!
//! # Example
//!
//! ```
//! use mcgpu_noc::Crossbar;
//!
//! // 2 output ports, 64 B/cycle each, 128 B/cycle bisection, 5-cycle hop.
//! let mut xbar: Crossbar<&str> = Crossbar::new(2, 64.0, 128.0, 5, 8);
//! xbar.try_push(0, "pkt", 16).unwrap();
//! for now in 0..=5 {
//!     xbar.tick(now);
//!     if let Some(p) = xbar.pop_ready(0, now) {
//!         assert_eq!(p, "pkt");
//!     }
//! }
//! ```

pub mod crossbar;
pub mod fabric;
pub mod physical;
pub mod topology;

pub use crossbar::Crossbar;
pub use fabric::{FabricNetwork, SendError};
pub use physical::{NocPhysical, PhysicalEstimate};
pub use topology::Topology;
