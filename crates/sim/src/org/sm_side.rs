//! The two-NoC SM-side organization (Fig. 3b, Fig. 6).

use super::{BoundaryAction, LlcOrgPolicy, RouteMode};
use crate::packet::FillAction;
use mcgpu_types::{CoherenceKind, LlcOrgKind};

/// SM-side policy: each chip's slices cache whatever its own SMs access, so
/// requests stay local, remote misses bypass to the home memory, and remote
/// responses replicate into the local slice on the way back.
#[derive(Debug, Default)]
pub struct SmSidePolicy;

impl SmSidePolicy {
    /// Create the SM-side policy (stateless).
    pub fn new() -> Self {
        SmSidePolicy
    }
}

impl LlcOrgPolicy for SmSidePolicy {
    fn kind(&self) -> LlcOrgKind {
        LlcOrgKind::SmSide
    }

    fn route_mode(&self) -> RouteMode {
        RouteMode::SmSide
    }

    fn remote_fill_action(&self) -> FillAction {
        FillAction::FillLocalSlice
    }

    fn boundary_action(&self, coherence: CoherenceKind) -> BoundaryAction {
        match coherence {
            // Replicated (possibly stale-able) contents must be written back
            // and invalidated when software manages coherence (§2.1).
            CoherenceKind::Software => BoundaryAction::FlushAllDirty,
            CoherenceKind::Hardware => BoundaryAction::DropRemoteReplicas,
        }
    }

    fn next_policy_event(&self, _now: u64) -> u64 {
        // Stateless: `on_cycle` is the default no-op, so the policy never
        // needs a wake-up of its own.
        u64::MAX
    }
}
