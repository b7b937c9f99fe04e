//! BFS time-varying behaviour (the paper's Fig. 12): watch the epoch
//! timeline's throughput as SAC alternates between memory-side (K1) and
//! SM-side (K2) kernels.
//!
//! ```text
//! cargo run --release --example bfs_phases
//! ```

use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{LlcOrgKind, MachineConfig, ObsConfig};

fn main() {
    let cfg = MachineConfig::experiment_baseline();
    let profile = profiles::by_name("BFS").expect("profile");
    let wl = generate(&cfg, &profile, &TraceParams::standard());

    let mut sim = SimBuilder::new(cfg)
        .organization(LlcOrgKind::Sac)
        .observability(ObsConfig::metrics()) // 10k-cycle epochs
        .build()
        .expect("valid machine configuration");
    let stats = sim.run(&wl).expect("run");

    println!("{:>9} {:>12} {:>8}", "cycle", "accesses/cyc", "active");
    let report = sim.take_obs_report().expect("observability is enabled");
    for e in &report.timeline {
        println!(
            "{:>9} {:>12.2} {:>8}",
            e.end_cycle,
            (e.reads + e.writes) as f64 / e.cycles().max(1) as f64,
            e.active_clusters
        );
    }

    println!("\nSAC per-kernel decisions (K1 = frontier sweep, K2 = hot frontier):");
    for (i, r) in stats.sac_history.iter().enumerate() {
        println!(
            "  kernel {i} ({}): {}",
            if i % 2 == 0 { "K1" } else { "K2" },
            r.mode
        );
    }
}
