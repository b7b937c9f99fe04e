//! The SAC runtime controller (§3.2, §3.5).
//!
//! Per kernel invocation:
//!
//! 1. start in the **memory-side** configuration and profile for a short
//!    window (2K cycles in the paper) while the counters and CRDs collect
//!    the EAB inputs;
//! 2. evaluate the EAB model; if `EAB_sm > (1 + θ) · EAB_mem` (θ = 5%),
//!    reconfigure to SM-side: wait for in-flight requests to drain, write
//!    back and invalidate dirty LLC lines, switch the NoC routing policy;
//! 3. at kernel termination, revert to memory-side (drain + switch).
//!
//! The controller is a pure state machine: the simulator drives it with
//! `tick`, feeds its [`ProfileCollector`], and signals
//! [`drain_complete`](SacController::drain_complete) /
//! [`flush_complete`](SacController::flush_complete) when the machine
//! reaches the corresponding quiescent points.

use crate::counters::ProfileCollector;
use crate::eab::{ArchBandwidth, EabInputs, EabModel};
use crate::LlcMode;

/// SAC tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SacConfig {
    /// Profiling window length in cycles (paper: 2000).
    pub profile_window: u64,
    /// Decision threshold θ (paper: 0.05).
    pub theta: f64,
    /// Minimum L1-miss observations required before deciding; the window is
    /// extended in half-window steps (up to 8× the window) until reached.
    /// This guards against deciding from an empty sample when the machine
    /// is drained or saturated during the nominal window.
    pub min_samples: u64,
    /// Length in cycles of each post-decision progress-monitoring window
    /// (graceful degradation, §resilience). `0` disables monitoring.
    pub monitor_window: u64,
    /// A monitoring window counts as *slow* when its work rate falls below
    /// this fraction of the rate measured right after the decision. Two
    /// consecutive slow windows trigger a re-profile.
    pub divergence_threshold: f64,
    /// Maximum number of divergence-triggered re-decisions per kernel;
    /// prevents oscillation when the machine keeps degrading.
    pub max_redecisions: u32,
}

impl Default for SacConfig {
    fn default() -> Self {
        SacConfig {
            profile_window: 2000,
            theta: 0.05,
            min_samples: 1000,
            monitor_window: 16_384,
            divergence_threshold: 0.5,
            max_redecisions: 2,
        }
    }
}

impl SacConfig {
    /// Window sized for a scaled machine: access latencies (in cycles) do
    /// not scale with the machine, so the cold-start transient covers a
    /// larger share of a scaled machine's profiling window; we widen the
    /// window by the capacity/topology ratio to compensate.
    pub fn for_machine(cfg: &mcgpu_types::MachineConfig) -> Self {
        let stretch = (cfg.scale.capacity / cfg.scale.topology).max(1) as u64;
        SacConfig {
            profile_window: 1000 * stretch.max(2),
            ..SacConfig::default()
        }
    }
}

/// Controller state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SacState {
    /// No kernel is running.
    Idle,
    /// Memory-side profiling until the given cycle. The first half of the
    /// window warms the caches; the counters are reset at the midpoint so
    /// the measured rates reflect warm behaviour rather than cold misses.
    Profiling {
        /// Cycle at which the window ends.
        until: u64,
    },
    /// Waiting for in-flight requests to drain before switching to `to`.
    Draining {
        /// Target mode after the drain.
        to: LlcMode,
    },
    /// Writing back + invalidating dirty LLC lines before running SM-side.
    Flushing,
    /// Steady-state execution.
    Running {
        /// The active LLC mode.
        mode: LlcMode,
    },
}

/// Record of one kernel's profiling and decision (drives Fig. 12 and the
/// decision-quality analyses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRecord {
    /// Cycle the kernel began.
    pub start_cycle: u64,
    /// Cycle the decision was made (end of the profiling window).
    pub decision_cycle: u64,
    /// The collected EAB inputs.
    pub inputs: EabInputs,
    /// Predicted EAB of the memory-side configuration.
    pub eab_memory_side: f64,
    /// Predicted EAB of the SM-side configuration.
    pub eab_sm_side: f64,
    /// The chosen mode.
    pub mode: LlcMode,
    /// L1-miss requests observed during the measured half of the window.
    pub requests_observed: u64,
    /// `true` when the decision was a forced memory-side fallback because
    /// the extended profiling window still held too few samples to trust
    /// the EAB model.
    pub fallback: bool,
}

/// The per-kernel SAC reconfiguration state machine. See the
/// [module docs](self) for the protocol.
#[derive(Debug, Clone)]
pub struct SacController {
    config: SacConfig,
    model: EabModel,
    state: SacState,
    collector: ProfileCollector,
    kernel_start: u64,
    /// Anchor of the *current* profiling attempt (equals `kernel_start`
    /// for the first profile, the re-profile start for later ones); bounds
    /// the window-extension logic.
    profile_anchor: u64,
    warmup_reset_done: bool,
    history: Vec<KernelRecord>,
    /// Progress monitor: start of the current monitoring window as
    /// `(cycle, work)`, if one is open.
    monitor_start: Option<(u64, u64)>,
    /// Work rate measured in the first window after the decision.
    baseline_rate: Option<f64>,
    /// Consecutive windows below the divergence threshold.
    slow_windows: u32,
    /// Divergence-triggered re-decisions taken for the current kernel.
    redecisions: u32,
    /// Re-enter profiling (rather than idle running) once the revert drain
    /// out of SM-side completes.
    reprofile_after_drain: bool,
}

impl SacController {
    /// Create a controller for a machine with `chips` chips,
    /// `total_slices` LLC slices and per-chip LLCs of `llc_sets_per_chip`
    /// sets; `sectored` selects the sectored CRD layout.
    pub fn new(
        config: SacConfig,
        model: EabModel,
        chips: usize,
        total_slices: usize,
        llc_sets_per_chip: usize,
        sectored: bool,
    ) -> Self {
        SacController {
            config,
            model,
            state: SacState::Idle,
            collector: ProfileCollector::new(chips, total_slices, llc_sets_per_chip, sectored),
            kernel_start: 0,
            profile_anchor: 0,
            warmup_reset_done: false,
            history: Vec::new(),
            monitor_start: None,
            baseline_rate: None,
            slow_windows: 0,
            redecisions: 0,
            reprofile_after_drain: false,
        }
    }

    /// Replace the EAB model's architectural bandwidths. The simulator
    /// calls this when injected faults change the machine's effective
    /// bandwidth, so later decisions reason about the degraded machine
    /// rather than the nominal one.
    pub fn update_arch(&mut self, arch: ArchBandwidth) {
        self.model = EabModel::new(arch);
    }

    /// The controller's configuration.
    pub fn config(&self) -> &SacConfig {
        &self.config
    }

    /// Current state.
    pub fn state(&self) -> SacState {
        self.state
    }

    /// The routing mode the LLC must use *right now*. Profiling, draining
    /// towards SM-side and flushing all still run memory-side; only
    /// `Running { SmSide }` (or draining back out of it) routes SM-side.
    pub fn mode(&self) -> LlcMode {
        match self.state {
            SacState::Running { mode } => mode,
            SacState::Draining {
                to: LlcMode::MemorySide,
            } => LlcMode::SmSide,
            _ => LlcMode::MemorySide,
        }
    }

    /// Whether the profiling counters should be fed this cycle.
    pub fn is_profiling(&self) -> bool {
        matches!(self.state, SacState::Profiling { .. })
    }

    /// The next absolute cycle (strictly after `now`) at which
    /// [`tick`](SacController::tick) or
    /// [`observe_progress`](SacController::observe_progress) can mutate
    /// controller state, assuming no datapath event until then (no
    /// request issues, moves or retires, so the profiling counters and the
    /// completed-work count stay as they are). `u64::MAX` means "not before
    /// the next datapath event". Conservative by design: any uncertainty
    /// collapses to `now + 1`, which disables the engine's next-event skip
    /// for that cycle rather than risking a divergence from stepping every
    /// cycle.
    pub fn next_event(&self, now: u64) -> u64 {
        let clamp = |c: u64| if c > now { c } else { now + 1 };
        // `tick` acts only in the profiling state: at the midpoint warm-up
        // reset (the first cycle with `now + window/2 >= until`) and at the
        // window close (`now >= until`, deciding or extending).
        let tick_event = match self.state {
            SacState::Idle | SacState::Running { .. } => u64::MAX,
            SacState::Profiling { until } => {
                let midpoint = until.saturating_sub(self.config.profile_window / 2);
                if self.warmup_reset_done {
                    clamp(until)
                } else {
                    clamp(midpoint.min(until))
                }
            }
            // Drain/flush transitions gate on quiescence and count
            // overhead every cycle — never skip across them.
            SacState::Draining { .. } | SacState::Flushing => now + 1,
        };
        // `observe_progress` mutates `monitor_start` whenever it is armed
        // (or needs arming/clearing); its decision point is one monitor
        // window after the armed start cycle.
        let monitor_event = if self.config.monitor_window == 0 {
            u64::MAX
        } else if let SacState::Running { .. } = self.state {
            match self.monitor_start {
                None => now + 1,
                Some((start, _)) => clamp(start + self.config.monitor_window),
            }
        } else if self.monitor_start.is_some() {
            now + 1
        } else {
            u64::MAX
        };
        tick_event.min(monitor_event)
    }

    /// Mutable access to the profiling counters (the simulator feeds them).
    pub fn collector_mut(&mut self) -> &mut ProfileCollector {
        &mut self.collector
    }

    /// Read-only access to the profiling counters (observability taps).
    pub fn collector(&self) -> &ProfileCollector {
        &self.collector
    }

    /// Diagnostic label of the current state.
    pub fn state_label(&self) -> &'static str {
        match self.state {
            SacState::Idle => "idle",
            SacState::Profiling { .. } => "profiling",
            SacState::Draining {
                to: LlcMode::SmSide,
            } => "draining-to-sm-side",
            SacState::Draining {
                to: LlcMode::MemorySide,
            } => "draining-to-memory-side",
            SacState::Flushing => "flushing",
            SacState::Running {
                mode: LlcMode::MemorySide,
            } => "running-memory-side",
            SacState::Running {
                mode: LlcMode::SmSide,
            } => "running-sm-side",
        }
    }

    /// Start a new kernel at cycle `now`: reset the counters and enter the
    /// profiling window in the memory-side configuration.
    pub fn begin_kernel(&mut self, now: u64) {
        self.collector.reset();
        self.kernel_start = now;
        self.profile_anchor = now;
        self.warmup_reset_done = false;
        self.monitor_start = None;
        self.baseline_rate = None;
        self.slow_windows = 0;
        self.redecisions = 0;
        self.reprofile_after_drain = false;
        self.state = SacState::Profiling {
            until: now + self.config.profile_window,
        };
    }

    /// Discard the running decision and profile again from `now` — the
    /// graceful-degradation path taken when observed progress diverges from
    /// the profiled expectation. Requires the machine to already be routing
    /// memory-side (profiling is defined in that configuration).
    fn enter_reprofile(&mut self, now: u64) {
        self.collector.reset();
        self.profile_anchor = now;
        self.warmup_reset_done = false;
        self.monitor_start = None;
        self.baseline_rate = None;
        self.slow_windows = 0;
        self.state = SacState::Profiling {
            until: now + self.config.profile_window,
        };
    }

    /// Feed the progress monitor: `work` is a monotonic count of completed
    /// requests. Returns `true` when the controller needs the simulator to
    /// drain in-flight requests (divergence detected while running
    /// SM-side); the simulator must then pause issue and signal
    /// [`drain_complete`](SacController::drain_complete) at quiescence.
    ///
    /// While running memory-side, a detected divergence re-enters profiling
    /// directly (no reconfiguration needed) and `false` is returned.
    pub fn observe_progress(&mut self, now: u64, work: u64) -> bool {
        if self.config.monitor_window == 0 {
            return false;
        }
        let SacState::Running { mode } = self.state else {
            self.monitor_start = None;
            return false;
        };
        let Some((start_cycle, start_work)) = self.monitor_start else {
            self.monitor_start = Some((now, work));
            return false;
        };
        if now - start_cycle < self.config.monitor_window {
            return false;
        }
        let rate = work.saturating_sub(start_work) as f64 / (now - start_cycle) as f64;
        self.monitor_start = Some((now, work));
        let Some(base) = self.baseline_rate else {
            self.baseline_rate = Some(rate);
            return false;
        };
        if rate >= self.config.divergence_threshold * base {
            self.slow_windows = 0;
            if rate > base {
                // The machine got faster than the post-decision baseline
                // (e.g. warm caches): raise the bar so later degradation is
                // still detected.
                self.baseline_rate = Some(rate);
            }
            return false;
        }
        self.slow_windows += 1;
        if self.slow_windows < 2 || self.redecisions >= self.config.max_redecisions {
            return false;
        }
        self.redecisions += 1;
        self.slow_windows = 0;
        match mode {
            LlcMode::MemorySide => {
                self.enter_reprofile(now);
                false
            }
            LlcMode::SmSide => {
                // Must revert to memory-side before profiling: drain, then
                // re-enter profiling from drain_complete.
                self.reprofile_after_drain = true;
                self.state = SacState::Draining {
                    to: LlcMode::MemorySide,
                };
                true
            }
        }
    }

    /// Advance to cycle `now`. When the profiling window closes, the EAB
    /// decision is made and recorded; returns the new record at that
    /// instant.
    pub fn tick(&mut self, now: u64) -> Option<KernelRecord> {
        let SacState::Profiling { until } = self.state else {
            return None;
        };
        if now >= until
            && self.collector.total_requests() < self.config.min_samples
            && now < self.profile_anchor + 8 * self.config.profile_window
        {
            // Not enough observations yet (drained or saturated machine):
            // extend the window rather than deciding on noise.
            self.state = SacState::Profiling {
                until: until + self.config.profile_window / 2,
            };
            return None;
        }
        let SacState::Profiling { until } = self.state else {
            unreachable!()
        };
        if now < until {
            // Midpoint warm-up reset: discard the cold-start counters so the
            // EAB inputs measure warm hit rates.
            if !self.warmup_reset_done && now + self.config.profile_window / 2 >= until {
                self.collector.reset_counters_only();
                self.warmup_reset_done = true;
            }
            return None;
        }
        let inputs = self.collector.inputs();
        let eab_mem = self.model.eab_memory_side(&inputs);
        let eab_sm = self.model.eab_sm_side(&inputs);
        // Even the extended window can close with too few observations (a
        // machine wedged by faults, or a kernel with almost no L1 misses).
        // The EAB inputs are then noise: fall back to memory-side, the
        // configuration every other state is reached from, instead of
        // trusting the model.
        let fallback = self.collector.total_requests() < self.config.min_samples;
        let mode = if fallback {
            LlcMode::MemorySide
        } else {
            self.model.decide(&inputs, self.config.theta)
        };
        let record = KernelRecord {
            start_cycle: self.kernel_start,
            decision_cycle: now,
            inputs,
            eab_memory_side: eab_mem,
            eab_sm_side: eab_sm,
            mode,
            requests_observed: self.collector.total_requests(),
            fallback,
        };
        self.history.push(record);
        self.state = match mode {
            // Staying memory-side needs no reconfiguration at all.
            LlcMode::MemorySide => SacState::Running {
                mode: LlcMode::MemorySide,
            },
            LlcMode::SmSide => SacState::Draining {
                to: LlcMode::SmSide,
            },
        };
        Some(record)
    }

    /// The simulator signals at cycle `now` that all in-flight requests
    /// have completed. Returns `true` when an LLC flush must happen next
    /// (switching *into* SM-side); reverting to memory-side completes
    /// immediately — into steady running, or back into profiling when the
    /// drain was triggered by the divergence monitor.
    pub fn drain_complete(&mut self, now: u64) -> bool {
        match self.state {
            SacState::Draining {
                to: LlcMode::SmSide,
            } => {
                self.state = SacState::Flushing;
                true
            }
            SacState::Draining {
                to: LlcMode::MemorySide,
            } => {
                if self.reprofile_after_drain {
                    self.reprofile_after_drain = false;
                    self.enter_reprofile(now);
                } else {
                    self.state = SacState::Running {
                        mode: LlcMode::MemorySide,
                    };
                }
                false
            }
            _ => false,
        }
    }

    /// The simulator signals that the LLC writeback/invalidate finished:
    /// the routing switches to SM-side.
    pub fn flush_complete(&mut self) {
        if self.state == SacState::Flushing {
            self.state = SacState::Running {
                mode: LlcMode::SmSide,
            };
        }
    }

    /// The running kernel terminated. If the LLC was SM-side, a drain back
    /// to memory-side begins (§3.6); otherwise the controller goes idle.
    /// The kernel boundary drains the machine either way, then signals
    /// [`drain_complete`](SacController::drain_complete).
    pub fn end_kernel(&mut self) {
        let needs_revert = matches!(
            self.state,
            SacState::Running {
                mode: LlcMode::SmSide
            } | SacState::Flushing
                | SacState::Draining {
                    to: LlcMode::SmSide
                }
        );
        if needs_revert {
            self.state = SacState::Draining {
                to: LlcMode::MemorySide,
            };
        } else {
            self.state = SacState::Idle;
        }
        // The kernel is over: any pending divergence reaction dies with it.
        self.reprofile_after_drain = false;
        self.monitor_start = None;
        self.baseline_rate = None;
        self.slow_windows = 0;
    }

    /// Per-kernel decision history.
    pub fn history(&self) -> &[KernelRecord] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eab::ArchBandwidth;
    use mcgpu_types::{ChipId, LineAddr};

    fn controller() -> SacController {
        let model = EabModel::new(ArchBandwidth {
            b_intra: 4096.0,
            b_inter: 192.0,
            b_llc: 4000.0,
            b_mem: 437.5,
        });
        let config = SacConfig {
            min_samples: 0, // tests feed small hand-built samples
            ..SacConfig::default()
        };
        SacController::new(config, model, 4, 64, 128, false)
    }

    /// Feed the collector a remote-heavy, high-reuse pattern that the EAB
    /// model should judge SM-side-favourable.
    fn feed_sm_side_friendly(c: &mut SacController) {
        for i in 0..400u64 {
            let requester = ChipId((i % 4) as u8);
            let home = ChipId(((i + 1) % 4) as u8); // always remote
            c.collector_mut().observe_request(
                requester,
                home,
                LineAddr(i % 16), // tiny hot set: CRD predicts high hit rate
                None,
                home.index() * 16,
                requester.index() * 16 + (i % 16) as usize,
            );
            c.collector_mut().observe_memside_llc(i % 2 == 0);
        }
    }

    #[test]
    fn full_sm_side_lifecycle() {
        let mut c = controller();
        c.begin_kernel(100);
        assert!(c.is_profiling());
        assert_eq!(c.mode(), LlcMode::MemorySide);
        feed_sm_side_friendly(&mut c);
        assert!(c.tick(500).is_none(), "window still open");
        let rec = c.tick(2100).expect("window closed");
        assert_eq!(rec.mode, LlcMode::SmSide);
        assert_eq!(
            c.state(),
            SacState::Draining {
                to: LlcMode::SmSide
            }
        );
        // Still memory-side while draining + flushing.
        assert_eq!(c.mode(), LlcMode::MemorySide);
        assert!(c.drain_complete(2200), "switching to SM-side needs a flush");
        assert_eq!(c.state(), SacState::Flushing);
        c.flush_complete();
        assert_eq!(c.mode(), LlcMode::SmSide);
        // Kernel ends: revert drain back to memory-side.
        c.end_kernel();
        assert_eq!(
            c.state(),
            SacState::Draining {
                to: LlcMode::MemorySide
            }
        );
        assert_eq!(c.mode(), LlcMode::SmSide, "still SM-side until drained");
        assert!(!c.drain_complete(9000));
        assert_eq!(c.mode(), LlcMode::MemorySide);
    }

    #[test]
    fn memory_side_decision_needs_no_reconfiguration() {
        let mut c = controller();
        c.begin_kernel(0);
        // Mostly local traffic: memory-side and SM-side are equivalent, θ
        // keeps memory-side.
        for i in 0..100u64 {
            c.collector_mut().observe_request(
                ChipId(0),
                ChipId(0),
                LineAddr(i),
                None,
                (i % 64) as usize,
                (i % 64) as usize,
            );
            c.collector_mut().observe_memside_llc(true);
        }
        let rec = c.tick(2000).expect("decision");
        assert_eq!(rec.mode, LlcMode::MemorySide);
        assert_eq!(
            c.state(),
            SacState::Running {
                mode: LlcMode::MemorySide
            }
        );
        c.end_kernel();
        assert_eq!(c.state(), SacState::Idle, "no revert needed");
    }

    #[test]
    fn decision_fires_exactly_once() {
        let mut c = controller();
        c.begin_kernel(0);
        feed_sm_side_friendly(&mut c);
        assert!(c.tick(2000).is_some());
        assert!(c.tick(2001).is_none());
        assert_eq!(c.history().len(), 1);
    }

    #[test]
    fn kernel_shorter_than_window() {
        let mut c = controller();
        c.begin_kernel(0);
        // Kernel ends mid-profiling: no decision recorded, state resets.
        c.end_kernel();
        assert_eq!(c.state(), SacState::Idle);
        assert!(c.history().is_empty());
        c.begin_kernel(5000);
        assert!(c.is_profiling());
    }

    #[test]
    fn history_accumulates_per_kernel() {
        let mut c = controller();
        for k in 0..3 {
            c.begin_kernel(k * 10_000);
            feed_sm_side_friendly(&mut c);
            c.tick(k * 10_000 + 2000).expect("decision");
            c.end_kernel();
            c.drain_complete(k * 10_000 + 3000);
        }
        assert_eq!(c.history().len(), 3);
        assert!(c.history().iter().all(|r| r.mode == LlcMode::SmSide));
    }

    /// Drive the monitor through windows at the given per-window work
    /// rates, starting at `start`; returns `(cycle after the last window,
    /// whether any observation requested a drain)`.
    fn feed_windows(c: &mut SacController, start: u64, rates: &[u64]) -> (u64, bool) {
        let w = c.config().monitor_window;
        let mut now = start;
        let mut work = 0;
        let mut drain = c.observe_progress(now, work); // opens the first window
        for &r in rates {
            now += w;
            work += r * w;
            drain |= c.observe_progress(now, work);
        }
        (now, drain)
    }

    #[test]
    fn sustained_divergence_reenters_profiling_from_memory_side() {
        let mut c = controller();
        c.begin_kernel(0);
        // Local traffic: decision is memory-side.
        for i in 0..100u64 {
            c.collector_mut().observe_request(
                ChipId(0),
                ChipId(0),
                LineAddr(i),
                None,
                (i % 64) as usize,
                (i % 64) as usize,
            );
            c.collector_mut().observe_memside_llc(true);
        }
        c.tick(2000).expect("decision");
        // Baseline window at 10 work/cycle, then a sustained collapse to 1.
        let (now, drain) = feed_windows(&mut c, 2000, &[10, 10, 1, 1]);
        assert!(!drain, "memory-side re-profile needs no drain");
        assert_eq!(
            c.state(),
            SacState::Profiling {
                until: now + c.config().profile_window
            }
        );
        assert_eq!(
            c.history().len(),
            1,
            "no new decision until the window closes"
        );
    }

    #[test]
    fn divergence_while_sm_side_requests_drain_then_reprofiles() {
        let mut c = controller();
        c.begin_kernel(0);
        feed_sm_side_friendly(&mut c);
        c.tick(2000).expect("decision");
        c.drain_complete(2100);
        c.flush_complete();
        assert_eq!(c.mode(), LlcMode::SmSide);
        let (now, drain) = feed_windows(&mut c, 2200, &[10, 10, 1, 1]);
        assert!(drain, "leaving SM-side requires a drain");
        assert_eq!(
            c.state(),
            SacState::Draining {
                to: LlcMode::MemorySide
            }
        );
        assert_eq!(c.mode(), LlcMode::SmSide, "still SM-side until drained");
        assert!(!c.drain_complete(now + 500), "revert needs no flush");
        assert!(c.is_profiling(), "drain completion re-enters profiling");
        assert_eq!(c.mode(), LlcMode::MemorySide);
    }

    #[test]
    fn transient_slowdowns_do_not_trigger_reprofiling() {
        let mut c = controller();
        c.begin_kernel(0);
        feed_sm_side_friendly(&mut c);
        c.tick(2000).expect("decision");
        c.drain_complete(2100);
        c.flush_complete();
        // Single slow windows separated by recoveries: never two in a row.
        let (_, drain) = feed_windows(&mut c, 2200, &[10, 1, 10, 1, 10, 1, 10]);
        assert!(!drain);
        assert_eq!(
            c.state(),
            SacState::Running {
                mode: LlcMode::SmSide
            }
        );
    }

    #[test]
    fn redecisions_are_bounded_per_kernel() {
        let mut c = controller();
        c.begin_kernel(0);
        for i in 0..100u64 {
            c.collector_mut().observe_request(
                ChipId(0),
                ChipId(0),
                LineAddr(i),
                None,
                (i % 64) as usize,
                (i % 64) as usize,
            );
            c.collector_mut().observe_memside_llc(true);
        }
        let max = c.config().max_redecisions;
        let mut now = c.tick(2000).expect("decision").decision_cycle;
        for round in 0..max + 2 {
            let (end, _) = feed_windows(&mut c, now, &[10, 10, 1, 1]);
            now = end;
            if round < max {
                assert!(c.is_profiling(), "redecision {round} should re-profile");
                // Close the re-profile window with the same local pattern.
                for i in 0..100u64 {
                    c.collector_mut().observe_request(
                        ChipId(0),
                        ChipId(0),
                        LineAddr(i),
                        None,
                        (i % 64) as usize,
                        (i % 64) as usize,
                    );
                    c.collector_mut().observe_memside_llc(true);
                }
                now += c.config().profile_window;
                c.tick(now).expect("redecision");
            } else {
                assert!(
                    matches!(c.state(), SacState::Running { .. }),
                    "round {round}: redecision budget exhausted, keep running"
                );
            }
        }
        assert_eq!(c.history().len(), (max + 1) as usize);
    }

    #[test]
    fn insufficient_samples_fall_back_to_memory_side() {
        let model = EabModel::new(ArchBandwidth {
            b_intra: 4096.0,
            b_inter: 192.0,
            b_llc: 4000.0,
            b_mem: 437.5,
        });
        let config = SacConfig {
            min_samples: 1000,
            ..SacConfig::default()
        };
        let mut c = SacController::new(config, model, 4, 64, 128, false);
        c.begin_kernel(0);
        // A strongly SM-side-friendly but tiny sample: far below
        // min_samples even at the 8x-extended window.
        for i in 0..10u64 {
            let requester = ChipId((i % 4) as u8);
            let home = ChipId(((i + 1) % 4) as u8);
            c.collector_mut().observe_request(
                requester,
                home,
                LineAddr(i % 4),
                None,
                home.index() * 16,
                requester.index() * 16,
            );
            c.collector_mut().observe_memside_llc(true);
        }
        assert!(c.tick(2000).is_none(), "window extends, no decision yet");
        let rec = c
            .tick(8 * c.config().profile_window)
            .expect("extension cap forces a decision");
        assert!(rec.fallback);
        assert_eq!(rec.mode, LlcMode::MemorySide);
        assert_eq!(
            c.state(),
            SacState::Running {
                mode: LlcMode::MemorySide
            }
        );
    }

    #[test]
    fn update_arch_changes_later_decisions() {
        let mut c = controller();
        c.begin_kernel(0);
        feed_sm_side_friendly(&mut c);
        assert_eq!(c.tick(2000).expect("decision").mode, LlcMode::SmSide);
        c.end_kernel();
        c.drain_complete(2500);
        // The SM-side EAB is bounded by the intra-chip NoC end to end
        // (Table 1): collapse it and the same profile must now decide
        // memory-side, proving later decisions use the updated model.
        c.update_arch(ArchBandwidth {
            b_intra: 8.0,
            b_inter: 192.0,
            b_llc: 4000.0,
            b_mem: 437.5,
        });
        c.begin_kernel(10_000);
        feed_sm_side_friendly(&mut c);
        assert_eq!(
            c.tick(12_000).expect("decision").mode,
            LlcMode::MemorySide,
            "a degraded machine flips the decision"
        );
    }

    #[test]
    fn degraded_links_strengthen_sm_side_preference() {
        // Fault-model sanity: memory-side remote traffic is capped by
        // B_inter outright, while SM-side replication only pays B_inter on
        // misses — so a degraded link widens the SM-side margin.
        let base = ArchBandwidth {
            b_intra: 4096.0,
            b_inter: 192.0,
            b_llc: 4000.0,
            b_mem: 437.5,
        };
        let degraded = ArchBandwidth {
            b_inter: 192.0 * 0.1,
            ..base
        };
        let i = EabInputs {
            r_local: 0.3,
            llc_hit_memory_side: 0.6,
            llc_hit_sm_side: 0.6,
            lsu_memory_side: 0.6,
            lsu_sm_side: 0.95,
        };
        let margin = |m: &EabModel| m.eab_sm_side(&i) / m.eab_memory_side(&i);
        let healthy = margin(&EabModel::new(base));
        let broken = margin(&EabModel::new(degraded));
        assert!(broken > healthy, "degradation widens the SM-side margin");
    }
}
