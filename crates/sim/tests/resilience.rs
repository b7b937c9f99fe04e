//! Fault-injection and watchdog integration tests: runs under injected
//! hardware degradation must either complete with all work conserved or
//! terminate promptly with a typed, diagnosable error — never spin to the
//! 50M-cycle budget.

use mcgpu_sim::{SimBuilder, SimError};
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
use mcgpu_types::{ChipId, LlcOrgKind, MachineConfig};

fn params(n: usize) -> TraceParams {
    TraceParams {
        total_accesses: n,
        ..TraceParams::quick()
    }
}

fn link(cycle: u64, a: u8, b: u8) -> FaultEvent {
    FaultEvent {
        cycle,
        kind: FaultKind::LinkFail {
            a: ChipId(a),
            b: ChipId(b),
        },
    }
}

/// Baseline work for a workload: every organization completes the same
/// read+write count, so a fault-free run defines the conservation target.
fn fault_free_work(cfg: &MachineConfig, wl: &mcgpu_trace::Workload) -> u64 {
    let stats = SimBuilder::new(cfg.clone())
        .build()
        .expect("valid machine configuration")
        .run(wl)
        .expect("fault-free run completes");
    stats.reads + stats.writes
}

#[test]
fn wedged_machine_deadlocks_with_snapshot_far_before_max_cycles() {
    // Fail two opposite links of the 4-chip ring: chips {1,2} and {3,0}
    // are partitioned, remote requests can never be delivered, and no
    // reroute exists. The watchdog must abort with a diagnostic snapshot
    // long before the 50M-cycle budget.
    let mut cfg = MachineConfig::experiment_baseline();
    let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &params(40_000));
    let window = 25_000;
    cfg.watchdog_cycles = window;
    let err = SimBuilder::new(cfg)
        .organization(LlcOrgKind::MemorySide)
        .fault_plan(FaultPlan::new(vec![link(2_000, 0, 1), link(2_000, 2, 3)]))
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect_err("a partitioned ring must deadlock");
    let SimError::Deadlock {
        cycle,
        window: w,
        snapshot,
    } = err
    else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(w, window);
    assert!(
        cycle < 1_000_000,
        "watchdog fired at {cycle}, far later than expected"
    );
    assert!(snapshot.in_flight > 0, "stuck work must be visible");
    assert!(
        snapshot.chips.iter().any(|c| c.total() > 0),
        "the snapshot must locate the stuck work: {snapshot}"
    );
    // The human-readable form names the window and some queue.
    let msg = SimError::Deadlock {
        cycle,
        window: w,
        snapshot,
    }
    .to_string();
    assert!(msg.contains("no forward progress"), "{msg}");
    assert!(msg.contains("chip0"), "{msg}");
}

#[test]
fn single_link_failure_reroutes_and_conserves_all_work() {
    // One failed link leaves the ring connected (the long way around):
    // every access must still complete, just slower.
    let cfg = MachineConfig::experiment_baseline();
    let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &params(40_000));
    let expected = fault_free_work(&cfg, &wl);
    let stats = SimBuilder::new(cfg)
        .organization(LlcOrgKind::MemorySide)
        .fault_plan(FaultPlan::new(vec![link(3_000, 1, 2)]))
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("a singly-broken ring still completes");
    assert_eq!(stats.reads + stats.writes, expected);
}

#[test]
fn link_degradation_conserves_work_and_costs_cycles() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &params(40_000));
    let healthy = SimBuilder::new(cfg.clone())
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("run");
    let degraded = SimBuilder::new(cfg)
        .fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: 1_000,
            kind: FaultKind::LinkDegrade {
                a: ChipId(0),
                b: ChipId(1),
                factor: 0.1,
            },
        }]))
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("degraded run completes");
    assert_eq!(
        degraded.reads + degraded.writes,
        healthy.reads + healthy.writes
    );
    assert!(
        degraded.cycles > healthy.cycles,
        "losing 90% of a link's bandwidth must cost cycles \
         ({} vs {})",
        degraded.cycles,
        healthy.cycles
    );
}

#[test]
fn dram_faults_conserve_work() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &params(40_000));
    let expected = fault_free_work(&cfg, &wl);
    let stats = SimBuilder::new(cfg)
        .fault_plan(FaultPlan::new(vec![
            FaultEvent {
                cycle: 2_000,
                kind: FaultKind::DramFail {
                    chip: ChipId(1),
                    channel: 0,
                },
            },
            FaultEvent {
                cycle: 4_000,
                kind: FaultKind::DramThrottle {
                    chip: ChipId(2),
                    factor: 0.5,
                },
            },
        ]))
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("DRAM-degraded run completes");
    assert_eq!(stats.reads + stats.writes, expected);
}

#[test]
fn disabled_slice_conserves_work_and_loses_hits() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &params(40_000));
    let healthy = SimBuilder::new(cfg.clone())
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("run");
    // Disable every slice of chip 0 immediately: all its LLC traffic
    // misses through to DRAM from the very first access.
    let events = (0..cfg.slices_per_chip)
        .map(|s| FaultEvent {
            cycle: 0,
            kind: FaultKind::LlcSliceDisable {
                chip: ChipId(0),
                slice: s,
            },
        })
        .collect();
    let broken = SimBuilder::new(cfg)
        .fault_plan(FaultPlan::new(events))
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("slice-disabled run completes");
    assert_eq!(broken.reads + broken.writes, healthy.reads + healthy.writes);
    assert!(
        broken.llc.hits < healthy.llc.hits,
        "a chip-wide LLC loss must cost hits ({} vs {})",
        broken.llc.hits,
        healthy.llc.hits
    );
}

#[test]
fn fault_plan_is_validated_at_build_time() {
    let cfg = MachineConfig::experiment_baseline();
    let bad = FaultPlan::new(vec![FaultEvent {
        cycle: 0,
        kind: FaultKind::LinkFail {
            a: ChipId(0),
            b: ChipId(2), // not adjacent on a 4-chip ring
        },
    }]);
    let err = SimBuilder::new(cfg)
        .fault_plan(bad)
        .build()
        .expect_err("non-adjacent link fault must be rejected");
    assert!(err.to_string().contains("fabric-adjacent"), "{err}");
}

#[test]
fn sac_survives_link_degradation() {
    // SAC under a severe mid-run link degradation: the run must complete
    // with all work conserved (graceful degradation may re-profile, but
    // must never wedge or lose requests).
    let cfg = MachineConfig::experiment_baseline();
    let wl = generate(&cfg, &profiles::by_name("BS").unwrap(), &params(40_000));
    let expected = {
        let stats = SimBuilder::new(cfg.clone())
            .organization(LlcOrgKind::Sac)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .expect("fault-free SAC run");
        stats.reads + stats.writes
    };
    let stats = SimBuilder::new(cfg)
        .organization(LlcOrgKind::Sac)
        .fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: 5_000,
            kind: FaultKind::LinkDegrade {
                a: ChipId(2),
                b: ChipId(3),
                factor: 0.05,
            },
        }]))
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .expect("SAC completes under degradation");
    assert_eq!(stats.reads + stats.writes, expected);
}
