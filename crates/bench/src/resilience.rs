//! Fault-injection scenarios shared by the `resilience_report` binary and
//! the resilience integration tests.
//!
//! Each [`Scenario`] is a named [`FaultPlan`] plus the cycle its first
//! fault lands; [`run_scenario`] executes one (workload, organization,
//! scenario) triple and reduces it to an [`Outcome`] — the post-fault
//! throughput figure of merit, or the abort reason. Scenario runs are pure
//! functions of their inputs, so they fan out over [`crate::sweep`]
//! unchanged.

use crate::sweep;
use mcgpu_sim::SimBuilder;
use mcgpu_trace::Workload;
use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
use mcgpu_types::{ChipId, LlcOrgKind, MachineConfig, ObsConfig};

/// Cycle at which mid-run scenarios inject their first fault: early enough
/// that most of the run executes degraded (the fastest benchmarks finish
/// in under 10k cycles), late enough that SAC has completed its first
/// 2k-cycle profiling window and decided on healthy hardware first.
pub const FAULT_CYCLE: u64 = 3_000;

/// One named fault schedule.
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: &'static str,
    /// Scenarios whose dominant fault is inter-chip link degradation; the
    /// report's summary verdict checks SAC against the baselines on these.
    pub link_degradation: bool,
    /// Cycle the first fault lands (0 for from-boot scenarios).
    pub fault_cycle: u64,
    /// The fault schedule.
    pub events: Vec<FaultEvent>,
}

fn at(cycle: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent { cycle, kind }
}

/// The standard scenario set for `cfg`.
pub fn scenarios(cfg: &MachineConfig) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "healthy",
            link_degradation: false,
            fault_cycle: 0,
            events: vec![],
        },
        Scenario {
            name: "link 0-1 at 25% bw",
            link_degradation: true,
            fault_cycle: FAULT_CYCLE,
            events: vec![at(
                FAULT_CYCLE,
                FaultKind::LinkDegrade {
                    a: ChipId(0),
                    b: ChipId(1),
                    factor: 0.25,
                },
            )],
        },
        Scenario {
            name: "links 0-1, 2-3 at 5% bw",
            link_degradation: true,
            fault_cycle: FAULT_CYCLE,
            events: vec![
                at(
                    FAULT_CYCLE,
                    FaultKind::LinkDegrade {
                        a: ChipId(0),
                        b: ChipId(1),
                        factor: 0.05,
                    },
                ),
                at(
                    FAULT_CYCLE,
                    FaultKind::LinkDegrade {
                        a: ChipId(2),
                        b: ChipId(3),
                        factor: 0.05,
                    },
                ),
            ],
        },
        Scenario {
            name: "link 1-2 failed",
            link_degradation: false,
            fault_cycle: FAULT_CYCLE,
            events: vec![at(
                FAULT_CYCLE,
                FaultKind::LinkFail {
                    a: ChipId(1),
                    b: ChipId(2),
                },
            )],
        },
        Scenario {
            name: "dram: chip1 -1ch, chip2 at 50%",
            link_degradation: false,
            fault_cycle: FAULT_CYCLE,
            events: vec![
                at(
                    FAULT_CYCLE,
                    FaultKind::DramFail {
                        chip: ChipId(1),
                        channel: 0,
                    },
                ),
                at(
                    FAULT_CYCLE,
                    FaultKind::DramThrottle {
                        chip: ChipId(2),
                        factor: 0.5,
                    },
                ),
            ],
        },
        Scenario {
            name: "chip0 LLC fused off",
            link_degradation: false,
            fault_cycle: 0,
            events: (0..cfg.slices_per_chip)
                .map(|s| {
                    at(
                        0,
                        FaultKind::LlcSliceDisable {
                            chip: ChipId(0),
                            slice: s,
                        },
                    )
                })
                .collect(),
        },
    ]
}

/// One run's outcome: post-fault throughput in accesses per kilocycle, or
/// the error string for runs the watchdog (or cycle budget) aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The run completed.
    Done {
        /// Accesses retired per kilocycle after the first fault hit.
        post_tput: f64,
        /// Whether all of the fault-free baseline's work was retired.
        conserved: bool,
    },
    /// The run aborted (watchdog, cycle budget, or it finished before the
    /// fault landed).
    Failed(String),
}

/// Run `wl` under `org` with the scenario's fault plan and reduce the run
/// to its [`Outcome`]. `expected_work` is the fault-free run's retired
/// access count, used for the conservation check.
pub fn run_scenario(
    cfg: &MachineConfig,
    wl: &Workload,
    org: LlcOrgKind,
    sc: &Scenario,
    expected_work: u64,
) -> Outcome {
    let mut sim = SimBuilder::new(cfg.clone())
        .organization(org)
        .fault_plan(FaultPlan::new(sc.events.clone()))
        .observability(ObsConfig::metrics().with_epoch_window(500))
        .build()
        .expect("valid machine configuration");
    match sim.run(wl) {
        Ok(stats) if stats.cycles <= sc.fault_cycle => {
            Outcome::Failed("finished before the fault hit".to_string())
        }
        Ok(stats) => {
            // Work retired by the fault cycle: the epochs that end there.
            let done_at_fault: u64 = sim
                .take_obs_report()
                .expect("observability is enabled")
                .timeline
                .iter()
                .filter(|e| e.end_cycle <= sc.fault_cycle)
                .map(|e| e.reads + e.writes)
                .sum();
            let work = stats.reads + stats.writes;
            let post_cycles = stats.cycles - sc.fault_cycle;
            Outcome::Done {
                post_tput: (work.saturating_sub(done_at_fault)) as f64 * 1000.0
                    / post_cycles as f64,
                conserved: work == expected_work,
            }
        }
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Fan one workload's full (scenario × organization) grid out over the
/// sweep pool: for each scenario, the outcomes of every organization in
/// [`LlcOrgKind::ALL`] order.
pub fn run_grid(cfg: &MachineConfig, wl: &Workload, expected_work: u64) -> Vec<Vec<Outcome>> {
    let scenarios = scenarios(cfg);
    let jobs: Vec<(usize, LlcOrgKind)> = (0..scenarios.len())
        .flat_map(|si| LlcOrgKind::ALL.iter().map(move |&org| (si, org)))
        .collect();
    let outcomes = sweep::map(jobs, |(si, org)| {
        run_scenario(cfg, wl, org, &scenarios[si], expected_work)
    });
    outcomes
        .chunks(LlcOrgKind::ALL.len())
        .map(<[Outcome]>::to_vec)
        .collect()
}
