//! The SAC organization (§3): per-kernel reconfiguration between
//! memory-side and SM-side driven by the EAB model.

use super::{BoundaryAction, EpochActions, EpochCtx, LlcOrgPolicy, Pause, RouteMode};
use crate::packet::FillAction;
use ::sac::eab::{ArchBandwidth, EabModel};
use ::sac::{LlcMode, SacConfig, SacController};
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig};

/// SAC policy: wraps the [`SacController`] state machine (profile →
/// decide(θ) → drain/flush/reconfigure → revert, §3.2/§3.6) as
/// policy-internal state. Routing and fill decisions follow the
/// controller's current [`LlcMode`]; the drain and flush pauses of a
/// mid-kernel switch are requested through [`EpochActions`].
#[derive(Debug)]
pub struct SacPolicy {
    ctl: SacController,
}

impl SacPolicy {
    /// Create the SAC policy for `cfg`, with the controller parameters in
    /// `sac_cfg` (profiling window, θ).
    pub fn new(cfg: &MachineConfig, sac_cfg: SacConfig) -> Self {
        let ctx = cfg.policy_ctx();
        SacPolicy {
            ctl: SacController::new(
                sac_cfg,
                EabModel::new(ArchBandwidth::from_config(cfg)),
                ctx.chips,
                ctx.total_slices,
                ctx.llc_sets_per_chip,
                ctx.sectored,
            ),
        }
    }
}

impl LlcOrgPolicy for SacPolicy {
    fn kind(&self) -> LlcOrgKind {
        LlcOrgKind::Sac
    }

    fn route_mode(&self) -> RouteMode {
        match self.ctl.mode() {
            LlcMode::MemorySide => RouteMode::MemorySide,
            LlcMode::SmSide => RouteMode::SmSide,
        }
    }

    fn remote_fill_action(&self) -> FillAction {
        // Replicate only in SM-side mode (remote responses can only exist
        // in SM-side mode for SAC when they come from remote memory).
        match self.ctl.mode() {
            LlcMode::SmSide => FillAction::FillLocalSlice,
            LlcMode::MemorySide => FillAction::None,
        }
    }

    fn boundary_action(&self, coherence: CoherenceKind) -> BoundaryAction {
        match coherence {
            // §3.6: SM-side contents flush like the SM-side organization's;
            // in memory-side mode there is nothing to write back.
            CoherenceKind::Software => match self.ctl.mode() {
                LlcMode::SmSide => BoundaryAction::FlushAllDirty,
                LlcMode::MemorySide => BoundaryAction::None,
            },
            CoherenceKind::Hardware => BoundaryAction::DropRemoteReplicas,
        }
    }

    fn begin_kernel(&mut self, now: u64, _ring_bytes: u64, _mem_bytes: u64) {
        self.ctl.begin_kernel(now);
    }

    fn end_kernel(&mut self) {
        // Revert to memory-side; the engine's boundary drain runs next
        // either way, so the "needs drain" return is not consulted.
        self.ctl.end_kernel();
    }

    fn boundary_drained(&mut self, now: u64) {
        self.ctl.drain_complete(now);
    }

    fn on_cycle(&mut self, ctx: &EpochCtx<'_>, pause: Pause) -> EpochActions {
        let mut actions = EpochActions::default();
        match pause {
            Pause::Running => {
                if let Some(record) = self.ctl.tick(ctx.now) {
                    if record.mode == LlcMode::SmSide {
                        actions.set_pause = Some(Pause::SacDrain);
                    }
                }
                // Graceful degradation: feed the divergence monitor the
                // machine's completed-work count; it requests a drain when
                // a running SM-side decision stops holding up.
                if self.ctl.observe_progress(ctx.now, ctx.work_done) {
                    actions.set_pause = Some(Pause::SacDrain);
                }
            }
            Pause::SacDrain => {
                if (ctx.quiescent)() {
                    if self.ctl.drain_complete(ctx.now) {
                        // §3.6: write back and invalidate *dirty* lines;
                        // clean home-slice contents remain valid under
                        // SM-side routing (same slice hash).
                        actions.writeback_dirty = true;
                        actions.set_pause = Some(Pause::SacFlush);
                    } else {
                        actions.set_pause = Some(Pause::Running);
                    }
                }
                actions.overhead_cycle = true;
            }
            Pause::SacFlush => {
                if (ctx.quiescent)() {
                    self.ctl.flush_complete();
                    actions.set_pause = Some(Pause::Running);
                }
                actions.overhead_cycle = true;
            }
        }
        actions
    }

    fn next_policy_event(&self, now: u64) -> u64 {
        self.ctl.next_event(now)
    }

    fn controller_state_label(&self) -> Option<&'static str> {
        Some(self.ctl.state_label())
    }

    fn sac(&self) -> Option<&SacController> {
        Some(&self.ctl)
    }

    fn sac_mut(&mut self) -> Option<&mut SacController> {
        Some(&mut self.ctl)
    }
}
