//! The five LLC organizations as one value.
//!
//! SAC's core observation is that one machine can behave as five different
//! LLC organizations (§3). [`LlcOrg`] is the organization a simulator
//! runs, together with its runtime controller (the Dynamic way-split
//! controller, the SAC reconfiguration state machine). Every decision that
//! varies by organization — request route mode, remote-response fill
//! action, way-partition split, kernel-boundary coherence action — is a
//! method that matches on the variant, and the fill and boundary decisions
//! follow from the route mode.

#![deny(missing_docs)]

use crate::dynamic::DynamicCtl;
use crate::packet::FillAction;
use ::sac::controller::KernelRecord;
use ::sac::eab::{ArchBandwidth, EabModel};
use ::sac::{LlcMode, SacConfig, SacController};
use mcgpu_types::{CoherenceKind, ConfigError, LlcOrgKind, MachineConfig};

/// How requests are routed right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// All requests go to the home chip's slices.
    MemorySide,
    /// All requests go to the local chip's slices.
    SmSide,
    /// Local-homed requests go to the home slice; remote-homed requests
    /// probe the local slice's remote pool first (static/dynamic).
    Tiered,
}

impl RouteMode {
    /// Short label used in the decision-table test and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            RouteMode::MemorySide => "memory-side",
            RouteMode::SmSide => "sm-side",
            RouteMode::Tiered => "tiered",
        }
    }
}

/// What the LLC must do to its contents at a kernel boundary (§2.1, §4,
/// §5.6). The engine sequences the resulting writeback/invalidation
/// traffic; the organization only chooses the action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Keep all contents (memory-side caches only home data, which the next
    /// kernel may reuse).
    None,
    /// Write back and invalidate every dirty line (software coherence over
    /// SM-side contents).
    FlushAllDirty,
    /// Write back and invalidate dirty *remote-pool* lines only (software
    /// coherence over the tiered organizations' remote ways).
    FlushRemoteDirty,
    /// Drop remote replicas without bulk writeback traffic — the hardware
    /// directory kept them coherent during the kernel (§5.6).
    DropRemoteReplicas,
}

impl BoundaryAction {
    /// Short label used in the decision-table test.
    pub fn label(self) -> &'static str {
        match self {
            BoundaryAction::None => "none",
            BoundaryAction::FlushAllDirty => "flush-all-dirty",
            BoundaryAction::FlushRemoteDirty => "flush-remote-dirty",
            BoundaryAction::DropRemoteReplicas => "drop-remote-replicas",
        }
    }
}

/// Why the engine is not issuing new instructions. Only SAC enters the
/// drain/flush states (its §3.6 reconfiguration sequence); every other
/// organization runs permanently in [`Pause::Running`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pause {
    /// Normal execution.
    Running,
    /// SAC waits for in-flight requests to drain (§3.6 step 1).
    SacDrain,
    /// SAC writes back dirty LLC lines before switching (§3.6 step 2).
    SacFlush,
}

impl Pause {
    /// Diagnostic label (used by deadlock snapshots).
    pub fn label(self) -> &'static str {
        match self {
            Pause::Running => "running",
            Pause::SacDrain => "sac-drain",
            Pause::SacFlush => "sac-flush",
        }
    }
}

/// Cycles between two re-balancings of the Dynamic LLC's way split.
const DYNAMIC_EPOCH_CYCLES: u64 = 8192;

/// The simulated LLC organization and its runtime controller state.
///
/// `route_mode` and `remote_fill_action` sit on the per-request path.
#[derive(Debug)]
pub enum LlcOrg {
    /// Baseline (Fig. 3a): every slice caches its local partition's data
    /// on behalf of all chips, so requests always travel to the home chip
    /// and responses never replicate.
    MemorySide,
    /// Two-NoC SM-side (Fig. 3b, Fig. 6): each chip's slices cache whatever
    /// its own SMs access, so requests stay local, remote misses bypass to
    /// the home memory, and remote responses replicate into the local slice
    /// on the way back.
    SmSide,
    /// The static L1.5 of Arunkumar et al.: `local_ways` of every set cache
    /// home data memory-side, the rest cache remote data SM-side, fixed for
    /// the whole run. Remote-pool misses travel on to the home slice.
    StaticHalf {
        /// Ways reserved for local data (half the associativity).
        local_ways: usize,
    },
    /// The Dynamic LLC of Milic et al. (MICRO 2017): the structure of
    /// `StaticHalf` with the way split re-balanced every epoch by the
    /// [`DynamicCtl`] bandwidth heuristic.
    Dynamic(DynamicCtl),
    /// SAC (§3): the [`SacController`] state machine (profile → decide(θ)
    /// → drain/flush/reconfigure → revert, §3.2/§3.6) chooses memory-side
    /// or SM-side per kernel.
    Sac(Box<SacController>),
}

impl LlcOrg {
    /// The organization `kind` on the machine described by `cfg`, with the
    /// SAC controller parameters in `sac_cfg` (profiling window, θ; read
    /// only by SAC). The Dynamic split is re-evaluated every 8,192 cycles.
    ///
    /// # Errors
    /// [`ConfigError`] when the organization cannot run on this machine:
    /// the way-partitioned organizations need at least 2 LLC ways, one for
    /// each pool.
    pub fn new(
        kind: LlcOrgKind,
        cfg: &MachineConfig,
        sac_cfg: SacConfig,
    ) -> Result<Self, ConfigError> {
        let ctx = cfg.policy_ctx();
        if matches!(kind, LlcOrgKind::StaticHalf | LlcOrgKind::Dynamic) && ctx.llc_assoc < 2 {
            return Err(ConfigError::new(
                "way-partitioned organizations need an LLC with at least 2 ways",
            ));
        }
        Ok(match kind {
            LlcOrgKind::MemorySide => LlcOrg::MemorySide,
            LlcOrgKind::SmSide => LlcOrg::SmSide,
            LlcOrgKind::StaticHalf => LlcOrg::StaticHalf {
                local_ways: ctx.llc_assoc / 2,
            },
            LlcOrgKind::Dynamic => {
                LlcOrg::Dynamic(DynamicCtl::new(ctx.llc_assoc, DYNAMIC_EPOCH_CYCLES))
            }
            LlcOrgKind::Sac => LlcOrg::Sac(Box::new(SacController::new(
                sac_cfg,
                EabModel::new(ArchBandwidth::from_config(cfg)),
                ctx.chips,
                ctx.total_slices,
                ctx.llc_sets_per_chip,
                ctx.sectored,
            ))),
        })
    }

    /// Which organization this is.
    pub fn kind(&self) -> LlcOrgKind {
        match self {
            LlcOrg::MemorySide => LlcOrgKind::MemorySide,
            LlcOrg::SmSide => LlcOrgKind::SmSide,
            LlcOrg::StaticHalf { .. } => LlcOrgKind::StaticHalf,
            LlcOrg::Dynamic(_) => LlcOrgKind::Dynamic,
            LlcOrg::Sac(_) => LlcOrgKind::Sac,
        }
    }

    /// How requests are routed right now. SAC follows its controller's
    /// current mode, which changes over a run.
    pub fn route_mode(&self) -> RouteMode {
        match self {
            LlcOrg::MemorySide => RouteMode::MemorySide,
            LlcOrg::SmSide => RouteMode::SmSide,
            LlcOrg::StaticHalf { .. } | LlcOrg::Dynamic(_) => RouteMode::Tiered,
            LlcOrg::Sac(sac) => match sac.mode() {
                LlcMode::MemorySide => RouteMode::MemorySide,
                LlcMode::SmSide => RouteMode::SmSide,
            },
        }
    }

    /// What a response returning to the requesting chip from a remote
    /// origin must do on arrival: memory-side routing replicates nothing;
    /// SM-side routing replicates into the local slice, and tiered routing
    /// into its remote pool.
    pub fn remote_fill_action(&self) -> FillAction {
        match self.route_mode() {
            RouteMode::MemorySide => FillAction::None,
            RouteMode::SmSide | RouteMode::Tiered => FillAction::FillLocalSlice,
        }
    }

    /// Ways reserved for local data, for the way-partitioned organizations
    /// (`None` = unpartitioned).
    pub fn way_split(&self) -> Option<usize> {
        match self {
            LlcOrg::StaticHalf { local_ways } => Some(*local_ways),
            LlcOrg::Dynamic(ctl) => Some(ctl.local_ways()),
            LlcOrg::MemorySide | LlcOrg::SmSide | LlcOrg::Sac(_) => None,
        }
    }

    /// The LLC action required at a kernel boundary under `coherence`.
    /// Hardware coherence kept every replica coherent during the kernel,
    /// so it only drops them. Under software coherence, memory-side
    /// contents are home data and stay valid; SM-side routing flushes every
    /// dirty line (§2.1), and tiered routing only its remote pool.
    pub fn boundary_action(&self, coherence: CoherenceKind) -> BoundaryAction {
        match (coherence, self.route_mode()) {
            (CoherenceKind::Hardware, _) => BoundaryAction::DropRemoteReplicas,
            (CoherenceKind::Software, RouteMode::MemorySide) => BoundaryAction::None,
            (CoherenceKind::Software, RouteMode::SmSide) => BoundaryAction::FlushAllDirty,
            (CoherenceKind::Software, RouteMode::Tiered) => BoundaryAction::FlushRemoteDirty,
        }
    }

    /// A kernel is about to start at cycle `now`. `ring_bytes`/`mem_bytes`
    /// are the cumulative machine counters the Dynamic controller measures
    /// its epochs from; SAC enters its profiling window.
    pub fn begin_kernel(&mut self, now: u64, ring_bytes: u64, mem_bytes: u64) {
        match self {
            LlcOrg::Dynamic(ctl) => ctl.new_kernel(now, ring_bytes, mem_bytes),
            LlcOrg::Sac(sac) => sac.begin_kernel(now),
            LlcOrg::MemorySide | LlcOrg::SmSide | LlcOrg::StaticHalf { .. } => {}
        }
    }

    /// The next absolute cycle (strictly after `now`) at which the
    /// organization's controller can change state, assuming no datapath
    /// event until then (so every input it observes stays as it is now).
    /// `u64::MAX` means "not before the next datapath event". The engine's
    /// next-event scan clamps its clock jump to this cycle, so the answer
    /// may be early but never late.
    pub fn next_event(&self, now: u64) -> u64 {
        match self {
            LlcOrg::MemorySide | LlcOrg::SmSide | LlcOrg::StaticHalf { .. } => u64::MAX,
            // `maybe_adjust` is a pure no-op until the next epoch boundary.
            LlcOrg::Dynamic(ctl) => ctl.next_epoch(),
            LlcOrg::Sac(sac) => sac.next_event(now),
        }
    }

    /// The SAC controller, when this is the SAC organization.
    pub fn sac(&self) -> Option<&SacController> {
        match self {
            LlcOrg::Sac(sac) => Some(sac),
            _ => None,
        }
    }

    /// SAC's per-kernel decision records (empty for the other
    /// organizations).
    pub fn sac_history(&self) -> &[KernelRecord] {
        self.sac().map_or(&[], SacController::history)
    }

    /// Mutable access to the SAC controller (profiling observation, kernel
    /// boundaries, the fault-driven architectural-bandwidth refresh).
    pub fn sac_mut(&mut self) -> Option<&mut SacController> {
        match self {
            LlcOrg::Sac(sac) => Some(sac),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ::sac::SacState;
    use mcgpu_types::{ChipId, LineAddr};

    #[test]
    fn way_partitioned_organizations_reject_single_way_llcs() {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.llc_assoc = 1;
        let sac_cfg = SacConfig::for_machine(&cfg);
        for kind in [LlcOrgKind::StaticHalf, LlcOrgKind::Dynamic] {
            assert!(LlcOrg::new(kind, &cfg, sac_cfg).is_err());
        }
        assert!(LlcOrg::new(LlcOrgKind::MemorySide, &cfg, sac_cfg).is_ok());
    }

    /// Route, fill, both boundary actions and way split.
    type Decisions = (
        RouteMode,
        FillAction,
        BoundaryAction,
        BoundaryAction,
        Option<usize>,
    );

    fn decisions(org: &LlcOrg) -> Decisions {
        (
            org.route_mode(),
            org.remote_fill_action(),
            org.boundary_action(CoherenceKind::Software),
            org.boundary_action(CoherenceKind::Hardware),
            org.way_split(),
        )
    }

    /// SAC decides like SM-side only while its controller runs SM-side,
    /// and like memory-side while it drains, flushes and reverts.
    #[test]
    fn sac_decides_like_the_side_it_runs() {
        let cfg = MachineConfig::paper_baseline();
        let sac_cfg = SacConfig {
            min_samples: 0, // a small hand-built sample
            ..SacConfig::for_machine(&cfg)
        };
        let build = |kind| LlcOrg::new(kind, &cfg, sac_cfg).expect("baseline builds");
        let memory_side = decisions(&build(LlcOrgKind::MemorySide));
        let sm_side = decisions(&build(LlcOrgKind::SmSide));
        let mut org = build(LlcOrgKind::Sac);
        let sac = org.sac_mut().expect("SAC has a controller");
        sac.begin_kernel(100);
        // A remote-heavy, tiny hot set: the EAB model prefers SM-side.
        for i in 0..400u64 {
            let requester = ChipId((i % 4) as u8);
            let home = ChipId(((i + 1) % 4) as u8);
            sac.collector_mut().observe_request(
                requester,
                home,
                LineAddr(i % 16),
                None,
                home.index() * 16,
                requester.index() * 16 + (i % 16) as usize,
            );
            sac.collector_mut().observe_memside_llc(i % 2 == 0);
        }
        let window = sac.config().profile_window;
        let record = sac.tick(100 + window).expect("window closed");
        assert_eq!(record.mode, LlcMode::SmSide);
        assert_eq!(decisions(&org), memory_side, "draining");

        let sac = org.sac_mut().unwrap();
        assert!(sac.drain_complete(200 + window), "SM-side needs a flush");
        assert_eq!(sac.state(), SacState::Flushing);
        assert_eq!(decisions(&org), memory_side, "flushing");

        org.sac_mut().unwrap().flush_complete();
        assert_eq!(decisions(&org), sm_side, "running SM-side");

        let sac = org.sac_mut().unwrap();
        sac.end_kernel();
        assert_eq!(
            sac.state(),
            SacState::Draining {
                to: LlcMode::MemorySide
            },
            "SM-side reverts at kernel end"
        );
        assert_eq!(decisions(&org), sm_side, "still SM-side until drained");
        assert!(!org.sac_mut().unwrap().drain_complete(9000));
        assert_eq!(decisions(&org), memory_side, "reverted");
    }
}
