//! The cycle-stepped simulation engine.
//!
//! This module holds the builder ([`SimBuilder`]), the top-level machine
//! state ([`Simulator`]) and the run loop; the mechanics are decomposed
//! into focused submodules:
//!
//! * `tick` — the per-cycle datapath pipeline (issue, crossbars, slices,
//!   memory, ring, controller hooks);
//! * `coherence` — the hardware-coherence sharer directory and write
//!   invalidation;
//! * `boundary` — kernel-boundary flush/writeback/drain sequencing;
//! * `diagnostics` — the forward-progress watchdog, deadlock snapshots and
//!   the request-conservation audit;
//! * `faults` — scheduled hardware-fault application and the degraded-EAB
//!   refresh;
//! * `skip` — next-event skipping: the run loop jumps the clock over
//!   every cycle in which nothing can move;
//! * `schedule` — active-set stepping on the issue side: the clusters an
//!   issue phase visits, and running values for the per-cycle sums.
//!
//! Everything that varies *by LLC organization* — routing, fills, way
//! splits, boundary actions — is a method of the simulator's [`LlcOrg`],
//! which matches on its variant. The engine applies those decisions, and
//! once per cycle runs the organization's controller against the machine:
//! the Dynamic way split, and SAC's §3.6 drain/flush sequence.

#![deny(missing_docs)]

mod boundary;
mod coherence;
mod diagnostics;
mod faults;
mod schedule;
mod skip;
mod tick;
#[cfg(test)]
mod two_tier_diff;

pub use diagnostics::{
    ChipConservation, ChipSnapshot, ConservationReport, DeadlockSnapshot, SimError,
};

use crate::chip::Chip;
use crate::obs::{ChipSample, MachineSnapshot, ObsReport, Observer};
use crate::org::{LlcOrg, Pause};
use crate::packet::{FabricPayload, RspEnvelope};
use crate::stats::{KernelStats, RunStats};
use coherence::SharerDirectory;
use mcgpu_mem::{DramRequest, PageTable};
use mcgpu_noc::FabricNetwork;
use mcgpu_trace::Workload;
use mcgpu_types::{ChipId, ConfigError, FaultPlan, LlcOrgKind, MachineConfig, ObsConfig};
use sac::SacConfig;
use schedule::ClusterSchedule;

/// Builder for a [`Simulator`].
///
/// # Example
/// See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct SimBuilder {
    cfg: MachineConfig,
    org: LlcOrgKind,
    sac_cfg: SacConfig,
    max_cycles: u64,
    fault_plan: FaultPlan,
    audit_period: u64,
    obs: ObsConfig,
}

/// Request-conservation audit cadence in debug builds. Release builds
/// default the audit off (`0`); callers opt in via
/// [`SimBuilder::conservation_audit`].
const AUDIT_PERIOD_DEFAULT: u64 = 4096;

impl SimBuilder {
    /// Start from a machine configuration. The forward-progress watchdog
    /// window is the configuration's `watchdog_cycles` (generous against
    /// every legitimate stall in the model, the longest being a full SAC
    /// drain of a saturated machine, yet far shorter than the cycle
    /// budget).
    pub fn new(cfg: MachineConfig) -> Self {
        let sac_cfg = SacConfig::for_machine(&cfg);
        SimBuilder {
            cfg,
            org: LlcOrgKind::MemorySide,
            sac_cfg,
            max_cycles: 50_000_000,
            fault_plan: FaultPlan::none(),
            audit_period: if cfg!(debug_assertions) {
                AUDIT_PERIOD_DEFAULT
            } else {
                0
            },
            obs: ObsConfig::off(),
        }
    }

    /// Select the LLC organization to simulate.
    pub fn organization(mut self, org: LlcOrgKind) -> Self {
        self.org = org;
        self
    }

    /// Override the SAC parameters (profiling window, θ).
    pub fn sac_config(mut self, sac_cfg: SacConfig) -> Self {
        self.sac_cfg = sac_cfg;
        self
    }

    /// Override the livelock cycle budget.
    pub fn max_cycles(mut self, max: u64) -> Self {
        self.max_cycles = max;
        self
    }

    /// Inject the given fault schedule during the run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Run the request-conservation audit every `period` cycles (`0`
    /// disables it). Defaults to every 4096 cycles in debug builds and off
    /// in release builds. The audit is read-only, so enabling it never
    /// changes simulation results — only whether corruption is detected.
    pub fn conservation_audit(mut self, period: u64) -> Self {
        self.audit_period = period;
        self
    }

    /// Select how much observability data the run records (histograms,
    /// epoch timeline, event trace). Defaults to [`mcgpu_types::ObsLevel::Off`].
    /// The observability layer is strictly read-only: any level produces
    /// byte-identical [`RunStats`] to an unobserved run. Retrieve the
    /// recorded data with [`Simulator::take_obs_report`] after the run.
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Build the simulator.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when the machine configuration fails
    /// validation, the fault plan does not fit the machine, or the selected
    /// organization cannot run on it (e.g. a way-partitioned organization
    /// on a direct-mapped LLC).
    pub fn build(self) -> Result<Simulator, ConfigError> {
        self.cfg.validate()?;
        self.fault_plan.validate(&self.cfg)?;
        self.obs.validate()?;
        let org = LlcOrg::new(self.org, &self.cfg, self.sac_cfg)?;
        Ok(Simulator::new(self, org))
    }
}

/// The multi-chip GPU simulator. Construct with [`SimBuilder`].
#[derive(Debug)]
pub struct Simulator {
    cfg: MachineConfig,
    /// The LLC organization: every routing/fill/partition/boundary
    /// decision, plus its runtime controller state.
    org: LlcOrg,
    chips: Vec<Chip>,
    fabric: FabricNetwork<FabricPayload>,
    page_table: PageTable,
    cycle: u64,
    max_cycles: u64,
    next_id: u64,
    in_flight: u64,
    max_in_flight: u64,
    pause: Pause,

    /// Chip-granularity sharer directory for hardware coherence.
    directory: SharerDirectory,

    // --- resilience ---
    /// Scheduled hardware degradation, applied as the clock passes each
    /// event's cycle.
    fault_plan: FaultPlan,
    /// Forward-progress watchdog window (`u64::MAX` = disabled).
    watchdog_window: u64,
    /// Progress signature at the last cycle that made progress.
    watchdog_sig: u64,
    /// Last cycle at which the progress signature changed.
    watchdog_cycle: u64,
    /// Remaining bandwidth fraction per inter-chip link pair (`0.0` =
    /// failed), for the degraded-EAB feed to SAC.
    link_factor: Vec<f64>,
    /// Remaining DRAM bandwidth fraction per chip (throttle only; channel
    /// failures are read off the partitions directly).
    dram_factor: Vec<f64>,
    /// Request-conservation audit cadence in cycles (`0` = disabled).
    audit_period: u64,

    // --- next-event skipping and active sets ---
    /// Which clusters the issue phase visits, and the running per-cluster
    /// sums (derived state).
    sched: ClusterSchedule,
    /// The reference the crate's differential tests compare the engine
    /// against: step every cycle instead of skipping to the next event,
    /// make every cluster due in every issue phase and every datapath
    /// member active in every tick, so each tick visits everything. Never
    /// set outside those tests.
    reference: bool,
    /// Number of clock jumps performed (diagnostic only; never part of
    /// stats or observability reports).
    skip_jumps: u64,
    /// Total cycles elided by clock jumps (diagnostic only).
    skipped_cycles: u64,

    // --- observability ---
    /// Read-only run observer (`None` when observability is off, which is
    /// the default; every hook below is then a single branch). Boxed so the
    /// hot `Simulator` layout does not carry the recorder buffers inline.
    obs: Option<Box<Observer>>,

    // --- accumulators ---
    writes_done: u64,
    responses_by_origin: [u64; 4],
    overhead_cycles: u64,
    occ_samples: u64,
    occ_local: f64,
    occ_fill: f64,
    kernels: Vec<KernelStats>,

    // --- per-cycle scratch buffers (reused, never reallocated in steady
    // state) ---
    /// Fabric arrivals being dispatched this cycle.
    fabric_scratch: Vec<FabricPayload>,
    /// DRAM completions being processed this cycle.
    dram_scratch: Vec<DramRequest>,
    /// Responses being delivered to clusters this cycle.
    rsp_scratch: Vec<RspEnvelope>,
}

impl Simulator {
    fn new(b: SimBuilder, org: LlcOrg) -> Self {
        let SimBuilder {
            cfg,
            org: _,
            sac_cfg: _,
            max_cycles,
            fault_plan,
            audit_period,
            obs,
        } = b;
        let obs = obs
            .level
            .enabled()
            .then(|| Box::new(Observer::new(obs, cfg.chips)));
        let chips: Vec<Chip> = ChipId::all(cfg.chips).map(|c| Chip::new(&cfg, c)).collect();
        let fabric = FabricNetwork::new(&cfg, 32);
        let sched = ClusterSchedule::new(&chips);

        let mut sim = Simulator {
            page_table: PageTable::new(cfg.page_size),
            chips,
            fabric,
            cycle: 0,
            max_cycles,
            next_id: 0,
            in_flight: 0,
            max_in_flight: 0,
            pause: Pause::Running,
            org,
            directory: SharerDirectory::default(),
            fault_plan,
            watchdog_window: cfg.watchdog_cycles,
            watchdog_sig: 0,
            watchdog_cycle: 0,
            link_factor: vec![1.0; cfg.num_links()],
            dram_factor: vec![1.0; cfg.chips],
            audit_period,
            sched,
            reference: false,
            skip_jumps: 0,
            skipped_cycles: 0,
            obs,
            writes_done: 0,
            responses_by_origin: [0; 4],
            overhead_cycles: 0,
            occ_samples: 0,
            occ_local: 0.0,
            occ_fill: 0.0,
            kernels: Vec::new(),
            fabric_scratch: Vec::new(),
            dram_scratch: Vec::new(),
            rsp_scratch: Vec::new(),
            cfg,
        };
        sim.apply_partitioning();
        sim
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of times the engine jumped its clock over cycles in which
    /// nothing could move. Diagnostic only: skip accounting never appears
    /// in [`RunStats`] or observability reports, which are byte-identical
    /// to stepping every cycle.
    pub fn skip_jumps(&self) -> u64 {
        self.skip_jumps
    }

    /// Total cycles elided by clock jumps. Diagnostic only, like
    /// [`Simulator::skip_jumps`].
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Apply (or clear) the organization's way split on every LLC slice.
    fn apply_partitioning(&mut self) {
        let split = self.org.way_split();
        for chip in &mut self.chips {
            for slice in &mut chip.slices {
                match split {
                    Some(ways) => slice.cache.set_partition(ways),
                    None => slice.cache.clear_partition(),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Main loop.
    // ------------------------------------------------------------------

    /// Run a complete workload, returning its statistics. For the
    /// run's time-varying view (Fig. 12), enable the epoch timeline with
    /// [`SimBuilder::observability`] and read it from
    /// [`Simulator::take_obs_report`] afterwards.
    ///
    /// # Errors
    /// [`SimError::CycleLimit`] if the run exceeds the cycle budget.
    pub fn run(&mut self, wl: &Workload) -> Result<RunStats, SimError> {
        self.run_kernels(wl)?;
        Ok(self.collect_stats())
    }

    fn run_kernels(&mut self, wl: &Workload) -> Result<(), SimError> {
        // Pre-seed page placement from the workload layout (host-to-device
        // transfers touch the data before kernel 0). This keeps placement
        // identical across LLC organizations; pages outside the layout (none
        // in generated workloads) still fall back to first-touch.
        for p in 0..wl.layout.total_pages() {
            let page = mcgpu_types::PageAddr(p);
            if let Some(home) = wl.layout.natural_home(page) {
                self.page_table.home_of(page, home);
            }
        }
        for (ki, kernel) in wl.kernels.iter().enumerate() {
            // Load the kernel's streams.
            let gap = kernel.behavior.compute_gap;
            for (flat, chip) in self.chips.iter_mut().enumerate() {
                for (ci, cluster) in chip.clusters.iter_mut().enumerate() {
                    let idx = flat * self.cfg.clusters_per_chip + ci;
                    cluster.load_kernel(kernel.per_cluster[idx].clone(), gap);
                }
            }
            self.sched.rebuild(&self.chips);
            let kernel_start_cycle = self.cycle;
            let work_before = self.sched.reads() + self.writes_done;

            let (now, ring_bytes, mem_bytes) =
                (self.cycle, self.fabric.bytes_sent(), self.mem_bytes_total());
            self.org.begin_kernel(now, ring_bytes, mem_bytes);

            // Execute until the kernel completes.
            while !self.kernel_done() {
                if !self.reference {
                    self.skip_to_next_event();
                }
                self.tick(true);
                self.check_progress()?;
                if self.cycle >= self.max_cycles {
                    return Err(SimError::CycleLimit {
                        limit: self.max_cycles,
                    });
                }
            }

            // Kernel-boundary coherence + SAC revert (§3.6).
            let boundary_start = self.cycle;
            self.kernel_boundary()?;
            self.overhead_cycles += self.cycle - boundary_start;

            let sac_mode = self
                .org
                .sac_history()
                .iter()
                .rev()
                .find(|r| r.start_cycle >= kernel_start_cycle)
                .map(|r| r.mode);
            let accesses = self.sched.reads() + self.writes_done - work_before;
            self.kernels.push(KernelStats {
                index: ki,
                cycles: self.cycle - kernel_start_cycle,
                accesses,
                sac_mode,
            });
            let end = self.cycle;
            if let Some(o) = self.obs.as_deref_mut() {
                o.note_kernel(ki, kernel_start_cycle, end, accesses);
            }
        }
        Ok(())
    }

    fn kernel_done(&self) -> bool {
        self.in_flight == 0 && self.pause == Pause::Running && self.sched.unfinished() == 0
    }

    fn machine_quiescent(&self) -> bool {
        self.in_flight == 0 && self.fabric.is_empty() && self.chips.iter().all(Chip::is_quiescent)
    }

    fn mem_bytes_total(&self) -> u64 {
        self.chips
            .iter()
            .map(|c| {
                c.memory.served_reads() * self.cfg.line_size
                    + c.memory.served_writes() * mcgpu_types::packet::WRITE_PAYLOAD_BYTES
            })
            .sum()
    }

    /// Capture the machine's cumulative counters and instantaneous state
    /// for the observability timeline. Read-only; called on the epoch grid
    /// and once at run end.
    fn machine_snapshot(&self) -> MachineSnapshot {
        let mut l1 = mcgpu_cache::CacheStats::default();
        let mut llc = mcgpu_cache::CacheStats::default();
        for chip in &self.chips {
            l1.merge(&chip.l1_stats());
            llc.merge(&chip.llc_stats());
        }
        let sac = self.org.sac();
        let (crd_occupied, crd_capacity) = sac
            .map(|s| s.collector().crd_occupancy())
            .unwrap_or_default();
        let chips = self
            .chips
            .iter()
            .enumerate()
            .map(|(c, chip)| {
                let cl = chip.llc_stats();
                ChipSample {
                    dram_served: chip.memory.accepted_bytes(),
                    queue: (chip.memory.pending_requests()
                        + chip
                            .slices
                            .iter()
                            .map(|s| s.service.len() + s.pending.waiting())
                            .sum::<usize>()) as u64,
                    llc_accesses: cl.accesses,
                    llc_hits: cl.hits,
                    ring_sent_bytes: self.fabric.bytes_sent_from(ChipId(c as u8)),
                }
            })
            .collect();
        MachineSnapshot {
            cycle: self.cycle,
            reads: self.sched.reads(),
            writes: self.writes_done,
            in_flight: self.in_flight,
            active_clusters: self.sched.unfinished() as u64,
            ring_bytes: self.fabric.bytes_sent(),
            ring_delivered: self.fabric.delivered(),
            noc_bytes: self
                .chips
                .iter()
                .map(|c| c.xbar_req.injected_bytes() + c.xbar_rsp.injected_bytes())
                .sum(),
            noc_rejected: self
                .chips
                .iter()
                .map(|c| c.xbar_req.rejected() + c.xbar_rsp.rejected())
                .sum(),
            dram_bytes: self.chips.iter().map(|c| c.memory.accepted_bytes()).sum(),
            dram_reads: self.chips.iter().map(|c| c.memory.served_reads()).sum(),
            dram_writes: self.chips.iter().map(|c| c.memory.served_writes()).sum(),
            dram_queue: self
                .chips
                .iter()
                .map(|c| c.memory.pending_requests() as u64)
                .sum(),
            slice_queue: self
                .chips
                .iter()
                .flat_map(|c| c.slices.iter())
                .map(|s| (s.service.len() + s.pending.waiting()) as u64)
                .sum(),
            llc_accesses: llc.accesses,
            llc_hits: llc.hits,
            l1_accesses: l1.accesses,
            l1_hits: l1.hits,
            route_mode: self.org.route_mode().label(),
            pause: self.pause.label(),
            controller: sac.map_or("-", |s| s.state_label()),
            sac_decisions: self.org.sac_history().len() as u64,
            sac_window_requests: sac.map(|s| s.collector().total_requests()).unwrap_or(0),
            crd_occupied,
            crd_capacity,
            chips,
        }
    }

    /// Consume the run's observability data (histograms, timeline, trace)
    /// into an [`ObsReport`]. Returns `None` when observability was off, or
    /// when the report was already taken. Call after [`Simulator::run`].
    pub fn take_obs_report(&mut self) -> Option<ObsReport> {
        self.obs.as_ref()?;
        let snap = self.machine_snapshot();
        let org = self.org.kind().label();
        self.obs
            .take()
            .map(|o| o.finalize(org, self.cycle, &snap, self.org.sac_history()))
    }

    /// Take `times` LLC occupancy samples (Fig. 9) of the current cache
    /// contents: one per tick on the sampling grid, or the samples of the
    /// grid points a clock jump skipped, during which the caches were
    /// frozen. Each sample adds the same ratios, one addition at a time,
    /// so a replayed jump is bit-identical to stepping through it.
    fn sample_occupancy(&mut self, times: u64) {
        if times == 0 {
            return;
        }
        let mut local = 0usize;
        let mut remote = 0usize;
        let mut cap = 0usize;
        for chip in &self.chips {
            let (l, r, c) = chip.llc_occupancy();
            local += l;
            remote += r;
            cap += c;
        }
        let valid = local + remote;
        if valid > 0 {
            let local_frac = local as f64 / valid as f64;
            let fill_frac = valid as f64 / cap.max(1) as f64;
            for _ in 0..times {
                self.occ_local += local_frac;
                self.occ_fill += fill_frac;
            }
            self.occ_samples += times;
        }
    }

    fn collect_stats(&self) -> RunStats {
        let mut l1 = mcgpu_cache::CacheStats::default();
        let mut llc = mcgpu_cache::CacheStats::default();
        for chip in &self.chips {
            l1.merge(&chip.l1_stats());
            llc.merge(&chip.llc_stats());
        }
        RunStats {
            organization: self.org.kind(),
            cycles: self.cycle,
            reads: self.sched.reads(),
            writes: self.writes_done,
            l1,
            llc,
            responses_by_origin: self.responses_by_origin,
            llc_local_fraction: if self.occ_samples > 0 {
                self.occ_local / self.occ_samples as f64
            } else {
                1.0
            },
            llc_occupancy: if self.occ_samples > 0 {
                self.occ_fill / self.occ_samples as f64
            } else {
                0.0
            },
            ring_bytes: self.fabric.bytes_sent(),
            dram_reads: self.chips.iter().map(|c| c.memory.served_reads()).sum(),
            dram_writes: self.chips.iter().map(|c| c.memory.served_writes()).sum(),
            overhead_cycles: self.overhead_cycles,
            max_in_flight: self.max_in_flight,
            kernels: self.kernels.clone(),
            sac_history: self.org.sac_history().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_trace::{generate, profiles, TraceParams};
    use mcgpu_types::CoherenceKind;

    fn cfg() -> MachineConfig {
        MachineConfig::experiment_baseline()
    }

    fn run(org: LlcOrgKind, bench: &str) -> RunStats {
        let c = cfg();
        let wl = generate(
            &c,
            &profiles::by_name(bench).unwrap(),
            &TraceParams::quick(),
        );
        SimBuilder::new(c)
            .organization(org)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .unwrap()
    }

    #[test]
    fn zero_cache_capacities_are_rejected_at_build_time() {
        for zero in [
            |c: &mut MachineConfig| c.l1_bytes_per_cluster = 0,
            |c: &mut MachineConfig| c.llc_bytes_per_chip = 0,
        ] {
            let mut c = cfg();
            zero(&mut c);
            let err = SimBuilder::new(c)
                .build()
                .expect_err("an empty cache must be rejected");
            assert!(err.to_string().contains("capacities"), "{err}");
        }
    }

    #[test]
    fn all_organizations_complete_the_same_work() {
        let c = cfg();
        let wl = generate(&c, &profiles::by_name("SN").unwrap(), &TraceParams::quick());
        let mut totals = Vec::new();
        for org in LlcOrgKind::ALL {
            let stats = SimBuilder::new(c.clone())
                .organization(org)
                .build()
                .expect("valid machine configuration")
                .run(&wl)
                .unwrap();
            assert!(stats.cycles > 0, "{org}");
            totals.push((org, stats.reads + stats.writes));
        }
        let first = totals[0].1;
        for (org, t) in totals {
            assert_eq!(t, first, "work mismatch for {org}");
        }
    }

    #[test]
    fn responses_match_reads_minus_l1_hits_and_merges() {
        let s = run(LlcOrgKind::MemorySide, "SN");
        let delivered: u64 = s.responses_by_origin.iter().sum();
        // Every delivered response completes >= 1 read; reads completed also
        // include L1 hits, so delivered <= reads.
        assert!(delivered > 0);
        assert!(
            delivered <= s.reads,
            "delivered {delivered} > reads {}",
            s.reads
        );
    }

    #[test]
    fn memory_side_caches_only_local_data() {
        let s = run(LlcOrgKind::MemorySide, "CFD");
        assert!(
            s.llc_local_fraction > 0.999,
            "memory-side local fraction {}",
            s.llc_local_fraction
        );
    }

    #[test]
    fn sm_side_caches_remote_data_for_sharing_workloads() {
        let s = run(LlcOrgKind::SmSide, "CFD");
        assert!(
            s.llc_local_fraction < 0.9,
            "SM-side should hold remote data, local fraction {}",
            s.llc_local_fraction
        );
    }

    #[test]
    fn sac_records_a_decision_per_kernel() {
        let s = run(LlcOrgKind::Sac, "SN");
        assert_eq!(
            s.sac_history.len(),
            profiles::by_name("SN").unwrap().total_kernels()
        );
        assert!(s.kernels.iter().all(|k| k.sac_mode.is_some()));
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let c = cfg();
        let wl = generate(&c, &profiles::by_name("SN").unwrap(), &TraceParams::quick());
        let err = SimBuilder::new(c)
            .organization(LlcOrgKind::MemorySide)
            .max_cycles(100)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 100 });
    }

    #[test]
    fn conservation_audit_passes_on_every_organization() {
        let c = cfg();
        let wl = generate(
            &c,
            &profiles::by_name("CFD").unwrap(),
            &TraceParams::quick(),
        );
        for org in LlcOrgKind::ALL {
            let stats = SimBuilder::new(c.clone())
                .organization(org)
                .conservation_audit(512)
                .build()
                .expect("valid machine configuration")
                .run(&wl)
                .unwrap_or_else(|e| panic!("{org}: {e}"));
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn conservation_audit_detects_a_lost_request() {
        let mut sim = SimBuilder::new(cfg())
            .build()
            .expect("valid machine configuration");
        // An idle machine with a nonzero in-flight count is exactly the
        // "request lost" corruption the audit exists to catch.
        sim.in_flight = 3;
        let err = sim.audit_conservation().unwrap_err();
        match err {
            SimError::InvariantViolation { report, .. } => {
                assert_eq!(report.in_flight, 3);
                assert_eq!(report.accounted, 0);
            }
            other => panic!("expected InvariantViolation, got {other}"),
        }
    }

    #[test]
    fn watchdog_window_defaults_from_config() {
        let mut c = cfg();
        c.watchdog_cycles = 1234;
        let sim = SimBuilder::new(c)
            .build()
            .expect("valid machine configuration");
        assert_eq!(sim.watchdog_window, 1234);
    }

    #[test]
    fn hardware_coherence_runs_clean() {
        let mut c = cfg();
        c.coherence = CoherenceKind::Hardware;
        let wl = generate(&c, &profiles::by_name("RN").unwrap(), &TraceParams::quick());
        let s = SimBuilder::new(c)
            .organization(LlcOrgKind::SmSide)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .unwrap();
        assert!(s.cycles > 0);
    }

    #[test]
    fn sectored_machine_runs_clean() {
        let mut c = cfg();
        c.sectored = true;
        let wl = generate(&c, &profiles::by_name("SN").unwrap(), &TraceParams::quick());
        for org in [LlcOrgKind::MemorySide, LlcOrgKind::Sac] {
            let s = SimBuilder::new(c.clone())
                .organization(org)
                .build()
                .expect("valid machine configuration")
                .run(&wl)
                .unwrap();
            assert!(s.cycles > 0);
        }
    }

    #[test]
    fn two_chip_machine_runs_clean() {
        let mut c = cfg();
        c.chips = 2;
        let wl = generate(&c, &profiles::by_name("SN").unwrap(), &TraceParams::quick());
        let s = SimBuilder::new(c)
            .organization(LlcOrgKind::Sac)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .unwrap();
        assert!(s.cycles > 0);
    }
}
