//! Differential proof of next-event skipping and active-set stepping
//! against the visit-everything reference.
//!
//! Skipping and active sets are the engine's only run path, so their
//! contract is checked here, inside the crate, against a private
//! reference (the `reference` field) that steps every cycle and forces
//! every active set full: every cluster is due in every issue phase and
//! every crossbar port, slice pipe, DRAM channel, bypass and egress pipe
//! and fabric link is visited in every tick. Across organizations,
//! coherence schemes, topologies, chip counts, fault plans and compute
//! gaps from dense to long enough to open latency windows with requests
//! in flight, both engines must publish the same bytes: canonical
//! `RunStats` JSON, the trace-level observability report with an epoch
//! window off the 256-cycle occupancy grid, and its trace. Built with the
//! same cycle budget (`max_cycles`), both must stop at the same cycle,
//! finished or not, and publish the same bytes there: the skip scan may
//! never jump past the budget. Dedicated cases fill the MSHR files so
//! clusters park and make the CTA wave-lead bound freeze clusters.
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

/// A traced simulator on the skipping engine or the visit-everything
/// reference.
fn build(
    cfg: &MachineConfig,
    org: LlcOrgKind,
    plan: &FaultPlan,
    reference: bool,
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
    sim.reference = reference;
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
        "{what} differs at byte {at} (lengths {} vs {}):\n  reference: {}\n  engine:    {}",
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

    /// A cycle budget composes with skipping: cut both engines at the
    /// same budget and they stop at the same cycle with the same bytes.
    #[test]
    fn budget_cuts_stop_both_engines_at_the_same_cycle(
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
        cut_agrees(&cfg, org, &plan, &wl, cut);
    }

    /// Dense traffic into small MSHR files: clusters park on a full file
    /// (and, on sectored caches, stall on sector misses, which do not
    /// park) for most of the run, and both engines still publish the same
    /// bytes.
    #[test]
    fn full_mshr_files_park_clusters_and_match(
        org_idx in 0usize..LlcOrgKind::ALL.len(),
        bench_idx in 0usize..16,
        mshrs_pick in 0usize..3,
        sectored in any::<bool>(),
        gap in 0u32..2,
    ) {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.mshrs_per_cluster = [2, 4, 8][mshrs_pick];
        cfg.sectored = sectored;
        let org = LlcOrgKind::ALL[org_idx];
        let wl = workload(&cfg, profiles::all_profiles()[bench_idx].name, gap, 6_000);
        let plan = FaultPlan::none();
        let (reference, _) = run_to_end(build(&cfg, org, &plan, true, None), &wl);
        let (engine, sim) = run_to_end(build(&cfg, org, &plan, false, None), &wl);
        assert_same(&reference, &engine);
        prop_assert!(sim.sched.parks > 0, "no cluster ever parked");
    }

    /// The CTA wave-lead bound binds: a quarter of the clusters run a
    /// stream of L1 hits on one line while the rest miss into small MSHR
    /// files, so the hit streams race a wave ahead and freeze until the
    /// slowest cluster catches up. Both engines publish the same bytes,
    /// and a cut anywhere in the run stops both at the same cycle.
    #[test]
    fn wave_lead_bound_freezes_clusters_and_matches(
        org_idx in 0usize..LlcOrgKind::ALL.len(),
        bench_idx in 0usize..16,
        gap in 0u32..2,
        cut_frac in 0.02f64..0.98,
    ) {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.mshrs_per_cluster = 4;
        let org = LlcOrgKind::ALL[org_idx];
        let wl = racing_workload(&cfg, profiles::all_profiles()[bench_idx].name, gap);
        let plan = FaultPlan::none();
        let (reference, _) = run_to_end(build(&cfg, org, &plan, true, None), &wl);
        let (engine, sim) = run_to_end(build(&cfg, org, &plan, false, None), &wl);
        assert_same(&reference, &engine);
        prop_assert!(sim.sched.freezes > 0, "the wave-lead bound never bound");
        let cut = 1 + (reference.cycles as f64 * cut_frac) as u64;
        cut_agrees(&cfg, org, &plan, &wl, cut);
    }
}

/// Run the reference and the engine with the cycle budget `cut`: both
/// must stop at the same cycle with the same finished flag, and publish
/// the same bytes there.
fn cut_agrees(cfg: &MachineConfig, org: LlcOrgKind, plan: &FaultPlan, wl: &Workload, cut: u64) {
    // The budget is checked in the kernel loop only, so a cut inside the
    // last kernel-boundary drain lets both engines finish.
    let stop = |is_reference: bool| {
        let mut sim = build(cfg, org, plan, is_reference, Some(cut));
        let finished = match sim.run(wl) {
            Ok(_) => true,
            Err(SimError::CycleLimit { .. }) => false,
            Err(e) => panic!("unexpected abort at cut {cut}: {e}"),
        };
        let stats = sim.collect_stats();
        (finished, sim.cycle, publish(&mut sim, &stats))
    };
    let (reference_finished, reference_cycle, reference) = stop(true);
    let (engine_finished, engine_cycle, engine) = stop(false);
    assert_eq!(
        (reference_finished, reference_cycle),
        (engine_finished, engine_cycle),
        "the engines stopped differently at cut {cut}"
    );
    assert_same(&reference, &engine);
}

/// `bench` at compute gap `gap` with every fourth cluster's stream in
/// every kernel replaced by 1,500 reads of one line of its own stream:
/// after the first miss those merge or hit in the L1, one per issue
/// phase, so the cluster outruns the others by more than one CTA wave.
fn racing_workload(cfg: &MachineConfig, bench: &str, gap: u32) -> Workload {
    let mut wl = workload(cfg, bench, gap, 6_000);
    for kernel in &mut wl.kernels {
        for stream in kernel.per_cluster.iter_mut().step_by(4) {
            if let Some(&first) = stream.first() {
                let hot = mcgpu_types::MemAccess::read(first.addr);
                *stream = std::iter::repeat_n(hot, 1_500).collect();
            }
        }
    }
    wl
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
    let mut cfg = MachineConfig::experiment_baseline();
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
    cfg.watchdog_cycles = window;
    let run = |stepping: bool| {
        let mut sim = SimBuilder::new(cfg.clone())
            .organization(LlcOrgKind::MemorySide)
            .fault_plan(partition.clone())
            .build()
            .expect("valid machine configuration");
        sim.reference = stepping;
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
