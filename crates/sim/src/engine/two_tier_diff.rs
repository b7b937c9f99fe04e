//! Differential proof of next-event skipping against the stepping
//! reference.
//!
//! Skipping is the engine's only run path, so its contract is checked
//! here, inside the crate, against a private reference that steps every
//! cycle (the `stepping` field). Across organizations, coherence schemes,
//! topologies, chip counts, fault plans and compute gaps from dense to
//! long enough to open latency windows with requests in flight, both
//! engines must publish the same bytes: canonical `RunStats` JSON, the
//! trace-level observability report with an epoch window off the
//! 256-cycle occupancy grid, its trace, and `Simulator::checkpoint` at a
//! mid-run cut — and a run resumed from that cut must still match the
//! uninterrupted reference.
//!
//! There is deliberately **no** `UPDATE_GOLDEN` path here: if the
//! skipping engine drifts from the stepping reference, the skipping engine
//! is wrong, and no snapshot regeneration can make it right.

use super::{SimBuilder, SimError, Simulator};
use crate::stats::RunStats;
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
use mcgpu_types::{ChipId, CoherenceKind, LlcOrgKind, MachineConfig, ObsConfig, TopologyKind};
use proptest::prelude::*;

/// Compute gaps the differential samples: dense traffic, short gaps, and
/// gaps long enough to open latency windows with requests in flight and
/// fully quiescent stretches.
const GAPS: [u32; 4] = [0, 40, 400, 2_000];

/// Observability epoch window, off the 256-cycle occupancy grid so the
/// two sampling grids interleave.
const OBS_WINDOW: u64 = 777;

/// `bench` with every kernel's compute gap set to `gap`, at `accesses`.
fn workload(cfg: &MachineConfig, bench: &str, gap: u32, accesses: usize) -> Workload {
    let mut profile = profiles::by_name(bench).expect("known benchmark");
    for k in &mut profile.kernels {
        k.compute_gap = gap;
    }
    let params = TraceParams {
        total_accesses: accesses,
        ..TraceParams::quick()
    };
    generate(cfg, &profile, &params)
}

/// Fewer accesses at long gaps keep every case near the same cycle count.
fn accesses_for(gap: u32) -> usize {
    if gap >= 400 {
        2_000
    } else {
        6_000
    }
}

/// A traced simulator on the skipping engine or the stepping reference.
fn build(
    cfg: &MachineConfig,
    org: LlcOrgKind,
    plan: &FaultPlan,
    stepping: bool,
    max_cycles: Option<u64>,
) -> Simulator {
    let mut b = SimBuilder::new(cfg.clone())
        .organization(org)
        .fault_plan(plan.clone())
        .observability(ObsConfig::trace().with_epoch_window(OBS_WINDOW));
    if let Some(max) = max_cycles {
        b = b.max_cycles(max);
    }
    let mut sim = b.build().expect("valid machine configuration");
    sim.stepping = stepping;
    sim
}

/// Everything a finished run publishes, as bytes, and its length.
#[derive(Debug)]
struct Published {
    cycles: u64,
    stats: String,
    obs: String,
    trace: String,
}

fn publish(sim: &mut Simulator, stats: &RunStats) -> Published {
    let report = sim.take_obs_report().expect("observability is on");
    Published {
        cycles: stats.cycles,
        stats: stats.to_canonical_json(),
        obs: report.to_canonical_json(),
        trace: report.trace_json.expect("trace level records a trace"),
    }
}

/// Panic with the first differing byte and its surroundings.
fn assert_same_bytes(what: &str, reference: &[u8], skipping: &[u8]) {
    if reference == skipping {
        return;
    }
    let at = reference
        .iter()
        .zip(skipping)
        .position(|(a, b)| a != b)
        .unwrap_or(reference.len().min(skipping.len()));
    let window = |b: &[u8]| {
        String::from_utf8_lossy(&b[at.saturating_sub(60)..(at + 60).min(b.len())]).into_owned()
    };
    panic!(
        "{what} differs at byte {at} (lengths {} vs {}):\n  stepping: {}\n  skipping: {}",
        reference.len(),
        skipping.len(),
        window(reference),
        window(skipping)
    );
}

fn assert_same(reference: &Published, skipping: &Published) {
    assert_same_bytes(
        "RunStats JSON",
        reference.stats.as_bytes(),
        skipping.stats.as_bytes(),
    );
    assert_same_bytes(
        "obs report",
        reference.obs.as_bytes(),
        skipping.obs.as_bytes(),
    );
    assert_same_bytes(
        "trace",
        reference.trace.as_bytes(),
        skipping.trace.as_bytes(),
    );
}

/// Run to completion and publish.
fn run_to_end(mut sim: Simulator, wl: &Workload) -> (Published, Simulator) {
    let stats = sim.run(wl).expect("run completes");
    (publish(&mut sim, &stats), sim)
}

/// A degrading (never partitioning) plan the scan must step around: one
/// link loses half its lanes, then one DRAM channel dies.
fn degrading_plan(at: u64) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            cycle: at,
            kind: FaultKind::LinkDegrade {
                a: ChipId(0),
                b: ChipId(1),
                factor: 0.5,
            },
        },
        FaultEvent {
            cycle: at * 2,
            kind: FaultKind::DramFail {
                chip: ChipId(1),
                channel: 0,
            },
        },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core differential property: for a random cell — organization ×
    /// coherence × topology × chip count × fault plan × benchmark ×
    /// compute gap — the skipping engine publishes the stepping
    /// reference's bytes.
    #[test]
    fn skipping_matches_stepping_across_the_config_space(
        org_idx in 0usize..LlcOrgKind::ALL.len(),
        bench_idx in 0usize..16,
        hw_coherence in any::<bool>(),
        topo_idx in 0usize..TopologyKind::ALL.len(),
        chips_pick in 0usize..3,
        with_faults in any::<bool>(),
        gap_idx in 0usize..GAPS.len(),
    ) {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.coherence = if hw_coherence {
            CoherenceKind::Hardware
        } else {
            CoherenceKind::Software
        };
        cfg.topology = TopologyKind::ALL[topo_idx];
        cfg.chips = [2, 4, 8][chips_pick];
        // The vendored proptest has no prop_assume: silently pass on the
        // few invalid corners (e.g. a mesh that needs a square chip grid).
        if cfg.validate().is_err() {
            return;
        }
        let plan = if with_faults {
            degrading_plan(1_500)
        } else {
            FaultPlan::none()
        };
        if plan.validate(&cfg).is_err() {
            return;
        }
        let org = LlcOrgKind::ALL[org_idx];
        let gap = GAPS[gap_idx];
        let wl = workload(&cfg, profiles::all_profiles()[bench_idx].name, gap, accesses_for(gap));

        let (stepped, _) = run_to_end(build(&cfg, org, &plan, true, None), &wl);
        let (skipped, sim) = run_to_end(build(&cfg, org, &plan, false, None), &wl);
        assert_same(&stepped, &skipped);
        if gap >= 400 {
            prop_assert!(sim.skipped_cycles() > 0, "a {gap}-cycle gap left nothing to skip");
        }
    }

    /// Mid-run interruption composes with skipping: cut both engines at
    /// the same cycle and their checkpoint bytes agree; restore the
    /// skipping engine's snapshot into a fresh simulator and finish, and
    /// it still publishes the uninterrupted reference's bytes.
    #[test]
    fn checkpoints_match_at_the_cut_and_resume_identically(
        org_idx in 0usize..LlcOrgKind::ALL.len(),
        bench_idx in 0usize..16,
        gap_idx in 0usize..GAPS.len(),
        cut_frac in 0.02f64..0.98,
        with_faults in any::<bool>(),
    ) {
        let cfg = MachineConfig::experiment_baseline();
        let org = LlcOrgKind::ALL[org_idx];
        let gap = GAPS[gap_idx];
        let wl = workload(&cfg, profiles::all_profiles()[bench_idx].name, gap, accesses_for(gap));
        let plan = if with_faults {
            degrading_plan(1_500)
        } else {
            FaultPlan::none()
        };
        let (reference, _) = run_to_end(build(&cfg, org, &plan, true, None), &wl);
        let cut = 1 + (reference.cycles as f64 * cut_frac) as u64;

        // The budget is checked in the kernel loop only, so a cut inside
        // the last kernel-boundary drain lets both engines finish.
        let mut stops = Vec::new();
        for stepping in [true, false] {
            let mut sim = build(&cfg, org, &plan, stepping, Some(cut));
            let finished = match sim.run(&wl) {
                Ok(_) => true,
                Err(SimError::CycleLimit { .. }) => false,
                Err(e) => panic!("unexpected abort at cut {cut}: {e}"),
            };
            stops.push((finished, sim.cycle(), sim.checkpoint(&wl)));
        }
        prop_assert_eq!(
            (stops[0].0, stops[0].1),
            (stops[1].0, stops[1].1),
            "the engines stopped differently at cut {}", cut
        );
        assert_same_bytes("checkpoint at the cut", &stops[0].2, &stops[1].2);
        if !stops[1].0 {
            let mut resumed = build(&cfg, org, &plan, false, None);
            resumed.restore(&stops[1].2, &wl).expect("snapshot restores");
            let (resumed, _) = run_to_end(resumed, &wl);
            assert_same(&reference, &resumed);
        }
    }
}

/// Vacuity guard: on SN with every kernel at a 2000-cycle gap the
/// skipping engine must elide at least 90% of the cycles — skipping only
/// fully quiescent cycles reaches about 63%, so a return to that gate
/// fails here — and still match the reference.
#[test]
fn sparse_phases_skip_most_cycles_and_match() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "SN", 2_000, 2_000);
    let plan = FaultPlan::none();
    let (stepped, _) = run_to_end(build(&cfg, LlcOrgKind::Sac, &plan, true, None), &wl);
    let (skipped, sim) = run_to_end(build(&cfg, LlcOrgKind::Sac, &plan, false, None), &wl);
    assert_same(&stepped, &skipped);
    let fraction = sim.skipped_cycles() as f64 / stepped.cycles as f64;
    assert!(
        fraction >= 0.9,
        "skipped only {:.1}% of the cycles in {} jumps",
        100.0 * fraction,
        sim.skip_jumps()
    );
}

/// Watchdog regression: a genuinely wedged machine (two opposite ring
/// links failed, partitioning the fabric) reports `SimError::Deadlock` at
/// exactly the stepping reference's cycle — the scan folds the watchdog
/// deadline in, so it may never jump past it.
#[test]
fn deadlock_fires_at_the_stepped_cycle() {
    let cfg = MachineConfig::experiment_baseline();
    let params = TraceParams {
        total_accesses: 20_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &profiles::by_name("SN").expect("profile"), &params);
    let partition = FaultPlan::new(vec![
        FaultEvent {
            cycle: 2_000,
            kind: FaultKind::LinkFail {
                a: ChipId(0),
                b: ChipId(1),
            },
        },
        FaultEvent {
            cycle: 2_000,
            kind: FaultKind::LinkFail {
                a: ChipId(2),
                b: ChipId(3),
            },
        },
    ]);
    let window = 25_000;
    let run = |stepping: bool| {
        let mut sim = SimBuilder::new(cfg.clone())
            .organization(LlcOrgKind::MemorySide)
            .fault_plan(partition.clone())
            .watchdog_window(window)
            .build()
            .expect("valid machine configuration");
        sim.stepping = stepping;
        match sim.run(&wl).expect_err("a partitioned ring must deadlock") {
            SimError::Deadlock {
                cycle, window: w, ..
            } => {
                assert_eq!(w, window);
                cycle
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    };
    assert_eq!(
        run(true),
        run(false),
        "skipping moved the watchdog deadlock cycle"
    );
}
