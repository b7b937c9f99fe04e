//! Regenerates Fig. 12: BFS's time-varying behaviour — per-kernel
//! performance of SM-side and SAC relative to memory-side, showing that SAC
//! selects the memory-side organization for K1 and the SM-side organization
//! for K2 on a per-kernel basis.
//!
//! `--timeline` instead prints SAC's epoch timeline from one observed run —
//! throughput, ring traffic, LLC hit rate, routing mode, pause state and
//! CRD occupancy per 10k-cycle epoch — the raw material of the figure's
//! time-varying plot. `--obs-window N` changes the epoch width.
//!
//! `--json PATH` additionally writes the figure's structured data as a
//! canonical `mcgpu-figdata-v1` document (not in `--timeline` mode).

use mcgpu_types::{LlcOrgKind, ObsConfig};
use sac_bench::figdata::{emit, Fig12Data};
use sac_bench::{
    arg_value, exit_on_quarantine, experiment_config, run_benchmark, run_one_observed,
    trace_params, SweepOptions,
};

fn print_timeline(cfg: &mcgpu_types::MachineConfig, p: &mcgpu_trace::BenchmarkProfile) {
    let mut obs = ObsConfig::metrics();
    if let Some(w) = arg_value("--obs-window") {
        obs = obs.with_epoch_window(w);
    }
    let wl = mcgpu_trace::generate(cfg, p, &trace_params());
    let (_, report) = run_one_observed(cfg, &wl, LlcOrgKind::Sac, obs);
    let r = report.expect("observability was enabled");
    println!(
        "BFS under SAC: epoch timeline ({} cycles per epoch)",
        r.epoch_window
    );
    println!(
        "{:>6} {:>10} {:>8} {:>9} {:>8} {:>12} {:>10} {:>8}",
        "epoch", "end cycle", "acc/cyc", "ring B/c", "LLC hit", "route", "pause", "CRD occ"
    );
    for s in &r.timeline {
        let cyc = s.cycles().max(1) as f64;
        println!(
            "{:>6} {:>10} {:>8.3} {:>9.1} {:>8.3} {:>12} {:>10} {:>8.3}",
            s.epoch,
            s.end_cycle,
            (s.reads + s.writes) as f64 / cyc,
            s.ring_bytes as f64 / cyc,
            s.llc_hit_rate(),
            s.route_mode,
            s.pause,
            s.crd_occupied as f64 / s.crd_capacity.max(1) as f64
        );
    }
    println!("\n(route flips memory-side → sm-side exactly where SAC decides per kernel;");
    println!(" the pause column shows the drain/flush reconfiguration windows.)");
}

fn main() {
    let cfg = experiment_config();
    let p = mcgpu_trace::profiles::by_name("BFS").expect("BFS profile");
    if std::env::args().any(|a| a == "--timeline") {
        print_timeline(&cfg, &p);
        return;
    }
    let rows = exit_on_quarantine(run_benchmark(
        &cfg,
        &p,
        &trace_params(),
        &[LlcOrgKind::MemorySide, LlcOrgKind::SmSide, LlcOrgKind::Sac],
        &SweepOptions::from_args(),
    ));
    emit(&Fig12Data::compute(&rows));
}
