//! Ablation: the EAB decision threshold θ (the paper fixes θ = 5% and omits
//! the sensitivity analysis for space). Sweeps θ and reports SAC's speedup
//! and decisions on a mixed subset.
//!
//! `--journal PATH` / `--resume PATH` are the standard journaled-sweep
//! flags. There is no `--mode`: the analytic fast mode ignores the SAC
//! parameters this ablation varies.

use sac::SacConfig;
use sac_bench::{exit_on_quarantine, reject_unknown_flags, run_sac_ablation, SweepOptions};

const SUBSET: [&str; 4] = ["SN", "CFD", "SRAD", "GEMM"];
const THETAS: [f64; 5] = [0.0, 0.05, 0.2, 0.5, 2.0];

fn main() {
    reject_unknown_flags(&["--quick", "--jobs", "--journal", "--resume"]);
    let cfg = sac_bench::experiment_config();
    let base = SacConfig::for_machine(&cfg);
    let variants: Vec<(String, SacConfig)> = THETAS
        .iter()
        .map(|&theta| (format!("theta={theta}"), SacConfig { theta, ..base }))
        .collect();
    let rows = exit_on_quarantine(run_sac_ablation(
        &cfg,
        &sac_bench::trace_params(),
        &SUBSET,
        &variants,
        &SweepOptions::from_args(),
    ));

    println!("{:6} {:>6} | {:>8} | modes", "bench", "theta", "speedup");
    for (name, (mem, runs)) in SUBSET.iter().zip(&rows) {
        for (theta, s) in THETAS.iter().zip(runs) {
            println!(
                "{:6} {:>6.2} | {:>8.2} | [{}]",
                name,
                theta,
                s.speedup_over(mem),
                s.sac_modes()
            );
        }
        println!();
    }
    println!("(a huge theta forces memory-side everywhere; theta=0 removes the");
    println!(" coherence-cost guard band. The paper's 5% is a balanced default.)");
}
