//! Property test: packet conservation under arbitrary fault plans.
//!
//! For any valid schedule of link failures/degradations, DRAM channel
//! faults and LLC slice disables, a run either completes with *exactly*
//! the fault-free work count (every injected request retires exactly once)
//! or terminates with a typed error (`Deadlock` when faults partition the
//! machine, `CycleLimit` as the outer budget) — it never silently drops or
//! duplicates work, and never wedges forever. The property is checked at
//! 4 and 8 chips on both the ring and the 2-D mesh, with link faults drawn
//! only from each topology's real edge list.

use std::sync::OnceLock;

use mcgpu_sim::{SimBuilder, SimError};
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
use mcgpu_types::{ChipId, LlcOrgKind, MachineConfig, TopologyKind};
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::{boxed, BoxedStrategy};

/// The machines under test: chip count × topology.
const MACHINES: [(usize, TopologyKind); 4] = [
    (4, TopologyKind::Ring),
    (8, TopologyKind::Ring),
    (4, TopologyKind::Mesh2D),
    (8, TopologyKind::Mesh2D),
];

fn machine_config(m: usize) -> MachineConfig {
    let (chips, topology) = MACHINES[m];
    let mut cfg = MachineConfig::experiment_baseline();
    cfg.chips = chips;
    cfg.topology = topology;
    cfg.validate().expect("machine matrix entries are valid");
    cfg
}

fn workload(m: usize) -> &'static (MachineConfig, Workload, u64) {
    static WL: [OnceLock<(MachineConfig, Workload, u64)>; MACHINES.len()] =
        [const { OnceLock::new() }; MACHINES.len()];
    WL[m].get_or_init(|| {
        let cfg = machine_config(m);
        let params = TraceParams {
            total_accesses: 12_000,
            ..TraceParams::quick()
        };
        let wl = generate(&cfg, &profiles::by_name("SN").unwrap(), &params);
        let stats = SimBuilder::new(cfg.clone())
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .expect("fault-free run completes");
        let work = stats.reads + stats.writes;
        (cfg, wl, work)
    })
}

/// Any single fault event that is valid for machine `m` — link faults hit
/// only edges that exist in its topology.
fn fault_event(m: usize) -> BoxedStrategy<FaultEvent> {
    let cfg = machine_config(m);
    let chips = cfg.chips;
    let links = cfg.link_pairs();
    let n_links = links.len();
    let links_degrade = links.clone();
    let cycle = 0u64..40_000u64;
    boxed(prop_oneof![
        (cycle.clone(), 0usize..n_links, 0.05f64..0.95f64).prop_map(move |(cy, l, factor)| {
            let (a, b) = links_degrade[l];
            FaultEvent {
                cycle: cy,
                kind: FaultKind::LinkDegrade { a, b, factor },
            }
        }),
        (cycle.clone(), 0usize..n_links).prop_map(move |(cy, l)| {
            let (a, b) = links[l];
            FaultEvent {
                cycle: cy,
                kind: FaultKind::LinkFail { a, b },
            }
        }),
        (cycle.clone(), 0usize..chips, 0.05f64..0.95f64).prop_map(|(cy, c, factor)| FaultEvent {
            cycle: cy,
            kind: FaultKind::DramThrottle {
                chip: ChipId(c as u8),
                factor,
            },
        }),
        (cycle.clone(), 0usize..chips, 0usize..cfg.channels_per_chip).prop_map(
            |(cy, c, channel)| FaultEvent {
                cycle: cy,
                kind: FaultKind::DramFail {
                    chip: ChipId(c as u8),
                    channel,
                },
            }
        ),
        (cycle, 0usize..chips, 0usize..cfg.slices_per_chip).prop_map(|(cy, c, slice)| {
            FaultEvent {
                cycle: cy,
                kind: FaultKind::LlcSliceDisable {
                    chip: ChipId(c as u8),
                    slice,
                },
            }
        }),
    ])
}

/// A machine index paired with a fault plan valid for that machine.
fn machine_and_plan() -> impl Strategy<Value = (usize, Vec<FaultEvent>)> {
    (0usize..MACHINES.len()).prop_flat_map(|m| (Just(m), collection::vec(fault_event(m), 0..6)))
}

fn run_under_plan(org: LlcOrgKind, m: usize, events: Vec<FaultEvent>) {
    let (cfg, wl, expected) = workload(m);
    let plan = FaultPlan::new(events);
    plan.validate(cfg)
        .expect("strategy only builds valid plans");
    let result = SimBuilder::new(cfg.clone())
        .organization(org)
        .fault_plan(plan)
        .watchdog_window(60_000)
        .max_cycles(5_000_000)
        .build()
        .expect("valid machine configuration")
        .run(wl);
    match result {
        Ok(stats) => assert_eq!(
            stats.reads + stats.writes,
            *expected,
            "completed run must retire every request exactly once"
        ),
        // A plan that partitions the fabric legitimately wedges the
        // machine; the contract is a *typed, prompt* abort, not completion.
        Err(SimError::Deadlock { snapshot, .. }) => {
            assert!(
                snapshot.in_flight > 0 || snapshot.chips.iter().any(|c| c.total() > 0),
                "a deadlock report must locate stuck work"
            );
        }
        Err(SimError::CycleLimit { .. }) => {}
        Err(SimError::Config(e)) => panic!("validated plan rejected at run time: {e}"),
        // The conservation audit must hold under fault injection and no
        // checkpoint is written — either is a real failure here.
        Err(e @ (SimError::InvariantViolation { .. } | SimError::Checkpoint { .. })) => {
            panic!("unexpected abort: {e}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn memory_side_conserves_packets_under_any_fault_plan(
        machine_and_plan in machine_and_plan(),
    ) {
        let (m, events) = machine_and_plan;
        run_under_plan(LlcOrgKind::MemorySide, m, events);
    }

    #[test]
    fn sac_conserves_packets_under_any_fault_plan(
        machine_and_plan in machine_and_plan(),
    ) {
        let (m, events) = machine_and_plan;
        run_under_plan(LlcOrgKind::Sac, m, events);
    }
}
