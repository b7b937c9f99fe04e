//! Resilience report: how each LLC organization rides out injected
//! hardware faults — inter-chip link degradation/failure, DRAM channel
//! faults, and LLC slice loss.
//!
//! For every (benchmark, fault scenario, organization) triple the report
//! runs the workload with the scenario's `FaultPlan`, checks that all work
//! is conserved, and measures *post-fault throughput* (accesses retired
//! per kilocycle after the first fault hits) — the figure of merit for
//! graceful degradation. SAC's divergence monitor may re-profile and
//! re-decide after a fault; the baselines keep their fixed policy.
//!
//! The scenario set and per-run outcome logic live in
//! `sac_bench::resilience`, shared with the integration tests; the
//! (scenario × organization) grid fans out over the sweep pool.
//!
//! `cargo run --release -p sac-bench --bin resilience_report`
//! (pass `--quick` for a reduced-volume smoke run).

use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::LlcOrgKind;
use sac_bench::resilience::{run_grid, scenarios, Outcome};
use sac_bench::{collect_outcomes, exit_on_quarantine, sweep, Attempt, SimCell};
use std::sync::Arc;

const SUBSET: [&str; 4] = ["SN", "BS", "SRAD", "GEMM"];

fn short(org: LlcOrgKind) -> &'static str {
    match org {
        LlcOrgKind::MemorySide => "MemSide",
        LlcOrgKind::SmSide => "SmSide",
        LlcOrgKind::StaticHalf => "Static",
        LlcOrgKind::Dynamic => "Dynamic",
        LlcOrgKind::Sac => "SAC",
    }
}

fn main() {
    let cfg = sac_bench::experiment_config();
    // Volume is deliberately smaller than the figure harnesses: the report
    // measures fault *response*, and at this working-set size a severe link
    // fault flips which LLC side is best mid-run — exactly the situation
    // SAC's divergence monitor exists for.
    let params = TraceParams {
        // The fastest benchmarks retire ~6.5 accesses/cycle: stay well
        // above FAULT_CYCLE * 6.5 so every run is still going at the fault.
        total_accesses: if sac_bench::quick_mode() {
            25_000
        } else {
            40_000
        },
        ..TraceParams::quick()
    };
    let scenarios = scenarios(&cfg);

    println!("resilience report: post-fault throughput (accesses/kcycle)");
    println!(
        "machine: {} chips, {} benchmarks, {} accesses each\n",
        cfg.chips,
        SUBSET.len(),
        params.total_accesses
    );

    // Workloads and their fault-free baselines fan out per benchmark; the
    // (scenario x organization) grid of each benchmark then fans out via
    // `run_grid`.
    let outcomes = sweep::map_isolated(SUBSET.to_vec(), |name, n| {
        let profile = profiles::by_name(name).expect("profile");
        let wl = generate(&cfg, &profile, &params);
        let stats = SimCell::new(&cfg, &wl, LlcOrgKind::MemorySide).attempt(Attempt::cycle(n))?;
        Ok((Arc::new(wl), stats.reads + stats.writes))
    });
    let baselines: Vec<(Arc<Workload>, u64)> =
        exit_on_quarantine(collect_outcomes(outcomes, |i| {
            format!("{}/baseline", SUBSET[i])
        }));

    let mut sac_beats_baselines_somewhere = false;
    for (name, (wl, expected)) in SUBSET.iter().zip(&baselines) {
        println!("== {name} ==");
        println!(
            "{:32} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "scenario",
            short(LlcOrgKind::MemorySide),
            short(LlcOrgKind::SmSide),
            short(LlcOrgKind::StaticHalf),
            short(LlcOrgKind::Dynamic),
            short(LlcOrgKind::Sac),
        );
        let grid = run_grid(&cfg, wl, *expected);
        for (sc, outcomes) in scenarios.iter().zip(&grid) {
            let cells: Vec<String> = outcomes
                .iter()
                .map(|o| match o {
                    Outcome::Done {
                        post_tput,
                        conserved: true,
                        ..
                    } => format!("{post_tput:.1}"),
                    Outcome::Done {
                        conserved: false, ..
                    } => "LOST!".to_string(),
                    Outcome::Failed(_) => "ERR".to_string(),
                })
                .collect();
            println!(
                "{:32} {:>10} {:>10} {:>10} {:>10} {:>10}",
                sc.name, cells[0], cells[1], cells[2], cells[3], cells[4]
            );
            for (org, o) in LlcOrgKind::ALL.iter().zip(outcomes) {
                if let Outcome::Failed(e) = o {
                    println!("    {}: {e}", short(*org));
                }
                if let Outcome::Done {
                    conserved: false, ..
                } = o
                {
                    println!("    {}: work not conserved", short(*org));
                }
            }

            if sc.link_degradation {
                let tput = |i: usize| match &outcomes[i] {
                    Outcome::Done {
                        post_tput,
                        conserved: true,
                        ..
                    } => Some(*post_tput),
                    _ => None,
                };
                // ALL order: MemorySide, SmSide, StaticHalf, Dynamic, Sac.
                if let (Some(st), Some(dy), Some(sac)) = (tput(2), tput(3), tput(4)) {
                    let verdict = sac >= st && sac >= dy;
                    sac_beats_baselines_somewhere |= verdict;
                    println!(
                        "    post-fault: SAC {} Static ({:.1}) and Dynamic ({:.1}) -> {}",
                        if verdict { ">=" } else { "<" },
                        st,
                        dy,
                        if verdict {
                            "SAC sustains"
                        } else {
                            "SAC trails"
                        }
                    );
                }
            }
        }
        println!();
    }

    println!(
        "summary: SAC >= Static and Dynamic after a link-degradation fault: {}",
        if sac_beats_baselines_somewhere {
            "yes"
        } else {
            "NO"
        }
    );
}
