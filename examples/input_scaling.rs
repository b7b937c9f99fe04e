//! Input-set sensitivity for one benchmark (the paper's Fig. 13): scaling
//! the input grows the shared working set past the LLC, flipping the
//! preferred organization — and SAC follows.
//!
//! ```text
//! cargo run --release --example input_scaling [BENCH]
//! ```

use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{LlcOrgKind, MachineConfig};

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "RN".into());
    let Some(profile) = profiles::by_name(&bench) else {
        eprintln!("unknown benchmark {bench}");
        std::process::exit(2);
    };
    let cfg = MachineConfig::experiment_baseline();
    println!("{bench}: speedup over memory-side per input scale\n");
    println!(
        "{:>8} {:>10} {:>8} {:>8} | SAC modes",
        "input", "true MB", "SM-side", "SAC"
    );
    for scale in [8.0, 4.0, 2.0, 1.0, 0.5, 0.25] {
        let params = TraceParams::standard().with_input_scale(scale);
        let wl = generate(&cfg, &profile, &params);
        let run = |org| {
            SimBuilder::new(cfg.clone())
                .organization(org)
                .build()
                .expect("valid machine configuration")
                .run(&wl)
                .expect("run")
        };
        let mem = run(LlcOrgKind::MemorySide);
        let sm = run(LlcOrgKind::SmSide);
        let sac = run(LlcOrgKind::Sac);
        println!(
            "{:>7}x {:>10.2} {:>8.2} {:>8.2} | [{}]",
            scale,
            wl.layout.true_bytes() as f64 / (1 << 20) as f64,
            sm.speedup_over(&mem),
            sac.speedup_over(&mem),
            sac.sac_modes()
        );
    }
}
