//! The LLC-organization policy layer.
//!
//! SAC's core observation is that one machine can behave as five different
//! LLC organizations (§3). This module makes that behavioral axis a
//! first-class, independently testable layer: every decision that varies by
//! organization — request route mode, remote-response fill action,
//! way-partition split, kernel-boundary coherence action, and the per-cycle
//! controller hooks — lives behind [`LlcOrgPolicy`], one implementation per
//! organization, one file per implementation.
//!
//! The engine consults the policy at its decision points and applies the
//! returned actions; it never matches on [`LlcOrgKind`] itself. Adding a
//! sixth organization means adding one policy file here and one
//! [`OrgDescriptor`] row to [`REGISTRY`] — no engine or bench-binary edits
//! (see `DESIGN.md`, "How to add a sixth LLC organization").

#![deny(missing_docs)]

mod dynamic;
mod memory_side;
mod sac;
mod sm_side;
mod static_half;

pub use dynamic::DynamicPolicy;
pub use memory_side::MemorySidePolicy;
pub use sac::SacPolicy;
pub use sm_side::SmSidePolicy;
pub use static_half::StaticHalfPolicy;

use crate::packet::FillAction;
use ::sac::{SacConfig, SacController};
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
/// traffic; the policy only chooses the action.
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

/// Why the engine is not issuing new instructions. Only the SAC policy
/// requests the drain/flush states (its §3.6 reconfiguration sequence);
/// every other organization runs permanently in [`Pause::Running`].
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

/// Read-only machine signals a policy may consult from its per-cycle hook
/// ([`LlcOrgPolicy::on_cycle`]).
///
/// The quiescence and work-done signals are behind closures so the engine
/// only pays for computing them when a policy actually gates on them (the
/// SAC drain sequence); the cheap cumulative counters are passed by value.
pub struct EpochCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// Cumulative bytes sent on the inter-chip ring.
    pub ring_bytes: u64,
    /// Cumulative bytes served by the DRAM partitions.
    pub mem_bytes: u64,
    /// Whether the machine is fully quiescent (no in-flight requests, empty
    /// ring, all chip queues drained). Lazy: evaluated only by policies that
    /// gate on drain completion.
    pub quiescent: &'a dyn Fn() -> bool,
    /// Completed work count (reads + writes machine-wide). Lazy: evaluated
    /// only by policies that monitor forward progress.
    pub work_done: &'a dyn Fn() -> u64,
}

impl std::fmt::Debug for EpochCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCtx")
            .field("now", &self.now)
            .field("ring_bytes", &self.ring_bytes)
            .field("mem_bytes", &self.mem_bytes)
            .finish_non_exhaustive()
    }
}

/// What the engine must apply after a policy's per-cycle hook. Actions are
/// applied in field order: dirty writeback, pause transition, overhead
/// accounting, repartition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochActions {
    /// Write back every dirty LLC line while keeping contents resident
    /// (SAC's memory-side → SM-side flush step).
    pub writeback_dirty: bool,
    /// Transition the engine's pause state.
    pub set_pause: Option<Pause>,
    /// Count this cycle as reconfiguration overhead.
    pub overhead_cycle: bool,
    /// Repartition every LLC slice to this many local ways (the Dynamic
    /// organization's epoch adjustment).
    pub set_local_ways: Option<usize>,
}

/// One LLC organization's behavioral policy: every decision the engine's
/// former `match self.org` arms encoded, plus the organization's internal
/// controller state (the Dynamic way-split controller, the SAC
/// reconfiguration state machine).
///
/// Implementations must be cheap to query: `route_mode` and
/// `remote_fill_action` sit on the per-request hot path.
pub trait LlcOrgPolicy: std::fmt::Debug + Send {
    /// Which organization this policy implements.
    fn kind(&self) -> LlcOrgKind;

    /// How requests are routed right now (may change over a run for
    /// reconfigurable organizations).
    fn route_mode(&self) -> RouteMode;

    /// What a response returning to the requesting chip from a remote
    /// origin must do on arrival (replicate into the local slice or not).
    fn remote_fill_action(&self) -> FillAction;

    /// Ways reserved for local data, for way-partitioned organizations
    /// (`None` = unpartitioned).
    fn way_split(&self) -> Option<usize> {
        None
    }

    /// The LLC action required at a kernel boundary under `coherence`.
    fn boundary_action(&self, coherence: CoherenceKind) -> BoundaryAction;

    /// A kernel is about to start. `ring_bytes`/`mem_bytes` are the
    /// cumulative machine counters policies use as epoch baselines.
    fn begin_kernel(&mut self, _now: u64, _ring_bytes: u64, _mem_bytes: u64) {}

    /// The kernel's instruction streams have completed; the boundary
    /// sequence is starting (SAC reverts to memory-side here, §3.6).
    fn end_kernel(&mut self) {}

    /// The kernel-boundary drain finished at cycle `now`: all writebacks
    /// and invalidations have left the machine.
    fn boundary_drained(&mut self, _now: u64) {}

    /// Per-cycle controller hook, called once per tick after the datapath
    /// phases. The default is a no-op for organizations without runtime
    /// controllers.
    fn on_cycle(&mut self, _ctx: &EpochCtx<'_>, _pause: Pause) -> EpochActions {
        EpochActions::default()
    }

    /// The next absolute cycle (strictly after `now`) at which this
    /// policy's [`on_cycle`](LlcOrgPolicy::on_cycle) hook can mutate state
    /// or return a non-default action, assuming no datapath event until
    /// then (so every input the hook observes stays as it is now).
    /// `u64::MAX` means "not before the next datapath event". The engine's
    /// next-event scan clamps its clock jump to this cycle, so a policy may
    /// be conservative (report an earlier cycle) but must never report a
    /// later one — the conservative default of `now + 1` disables skipping
    /// entirely for policies that do not override it.
    fn next_policy_event(&self, now: u64) -> u64 {
        now + 1
    }

    /// Diagnostic label of the policy's internal controller state, for
    /// organizations that have one (`None` otherwise). The observability
    /// timeline records it each epoch.
    fn controller_state_label(&self) -> Option<&'static str> {
        None
    }

    /// The SAC controller, when this policy is the SAC organization — the
    /// engine's profiling taps and statistics reporting read it directly.
    fn sac(&self) -> Option<&SacController> {
        None
    }

    /// Mutable access to the SAC controller (profiling observation, fault
    /// driven architectural-bandwidth refresh).
    fn sac_mut(&mut self) -> Option<&mut SacController> {
        None
    }
}

/// One organization's registry entry: how the CLI names it and what it is.
#[derive(Debug, Clone, Copy)]
pub struct OrgDescriptor {
    /// The organization.
    pub kind: LlcOrgKind,
    /// Canonical CLI token (`--org <token>`).
    pub token: &'static str,
    /// One-line description for `--list-orgs`.
    pub summary: &'static str,
}

/// All registered organizations, in the paper's presentation order. Bench
/// binaries parse `--org` against this table, so a new organization needs
/// only a policy file and a row here.
pub const REGISTRY: [OrgDescriptor; 5] = [
    OrgDescriptor {
        kind: LlcOrgKind::MemorySide,
        token: "mem",
        summary: "baseline: slices cache the local partition's data for all chips",
    },
    OrgDescriptor {
        kind: LlcOrgKind::SmSide,
        token: "sm",
        summary: "two-NoC SM-side: slices cache whatever the local SMs access",
    },
    OrgDescriptor {
        kind: LlcOrgKind::StaticHalf,
        token: "static",
        summary: "L1.5 static split: half the ways local, half remote",
    },
    OrgDescriptor {
        kind: LlcOrgKind::Dynamic,
        token: "dynamic",
        summary: "dynamic way split adapting to local-memory vs inter-chip pressure",
    },
    OrgDescriptor {
        kind: LlcOrgKind::Sac,
        token: "sac",
        summary: "SAC: per-kernel memory-side/SM-side choice driven by the EAB model",
    },
];

/// Resolve a CLI token (or an organization's display label) to its
/// organization. Tokens are the canonical spelling; labels are accepted so
/// journal files and `--org SAC` keep working.
pub fn org_by_token(token: &str) -> Option<LlcOrgKind> {
    REGISTRY
        .iter()
        .find(|d| d.token == token || d.kind.label() == token)
        .map(|d| d.kind)
}

/// Build the policy implementing `kind` on the machine described by `cfg`.
///
/// # Errors
/// [`ConfigError`] when the organization cannot run on this machine (the
/// way-partitioned organizations need at least 2 LLC ways).
pub fn build_policy(
    kind: LlcOrgKind,
    cfg: &MachineConfig,
    sac_cfg: SacConfig,
) -> Result<Box<dyn LlcOrgPolicy>, ConfigError> {
    let ctx = cfg.policy_ctx();
    Ok(match kind {
        LlcOrgKind::MemorySide => Box::new(MemorySidePolicy::new()),
        LlcOrgKind::SmSide => Box::new(SmSidePolicy::new()),
        LlcOrgKind::StaticHalf => Box::new(StaticHalfPolicy::new(&ctx)?),
        LlcOrgKind::Dynamic => Box::new(DynamicPolicy::new(&ctx)?),
        LlcOrgKind::Sac => Box::new(SacPolicy::new(cfg, sac_cfg)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_organization_once() {
        assert_eq!(REGISTRY.len(), LlcOrgKind::ALL.len());
        for kind in LlcOrgKind::ALL {
            assert_eq!(REGISTRY.iter().filter(|d| d.kind == kind).count(), 1);
        }
    }

    #[test]
    fn tokens_and_labels_both_resolve() {
        assert_eq!(org_by_token("mem"), Some(LlcOrgKind::MemorySide));
        assert_eq!(org_by_token("memory-side"), Some(LlcOrgKind::MemorySide));
        assert_eq!(org_by_token("sac"), Some(LlcOrgKind::Sac));
        assert_eq!(org_by_token("SAC"), Some(LlcOrgKind::Sac));
        assert_eq!(org_by_token("bogus"), None);
    }

    #[test]
    fn way_partitioned_policies_reject_single_way_llcs() {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.llc_assoc = 1;
        let sac_cfg = SacConfig::for_machine(&cfg);
        for kind in [LlcOrgKind::StaticHalf, LlcOrgKind::Dynamic] {
            assert!(build_policy(kind, &cfg, sac_cfg).is_err());
        }
        assert!(build_policy(LlcOrgKind::MemorySide, &cfg, sac_cfg).is_ok());
    }
}
