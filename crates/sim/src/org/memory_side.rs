//! The memory-side baseline organization (Fig. 3a).

use super::{BoundaryAction, LlcOrgPolicy, RouteMode};
use crate::packet::FillAction;
use mcgpu_types::{CoherenceKind, LlcOrgKind};

/// Baseline policy: every slice caches its local partition's data on behalf
/// of all chips, so requests always travel to the home chip and responses
/// never replicate.
#[derive(Debug, Default)]
pub struct MemorySidePolicy;

impl MemorySidePolicy {
    /// Create the baseline policy (stateless).
    pub fn new() -> Self {
        MemorySidePolicy
    }
}

impl LlcOrgPolicy for MemorySidePolicy {
    fn kind(&self) -> LlcOrgKind {
        LlcOrgKind::MemorySide
    }

    fn route_mode(&self) -> RouteMode {
        RouteMode::MemorySide
    }

    fn remote_fill_action(&self) -> FillAction {
        FillAction::None
    }

    fn boundary_action(&self, coherence: CoherenceKind) -> BoundaryAction {
        match coherence {
            // Memory-side contents are home data: always valid next kernel.
            CoherenceKind::Software => BoundaryAction::None,
            CoherenceKind::Hardware => BoundaryAction::DropRemoteReplicas,
        }
    }

    fn next_policy_event(&self, _now: u64) -> u64 {
        // Stateless: `on_cycle` is the default no-op, so the policy never
        // needs a wake-up of its own.
        u64::MAX
    }
}
