//! Ablation: the profiling window length (§3.2; the paper uses 2K cycles at
//! full scale and found longer/periodic profiling unnecessary). On the
//! scaled machine the transient covers more of the window, so the default
//! is stretched (see `SacConfig::for_machine`).
//!
//! `--journal PATH` / `--resume PATH` are the standard journaled-sweep
//! flags. There is no `--mode`: the analytic fast mode ignores the SAC
//! parameters this ablation varies.

use sac::SacConfig;
use sac_bench::{exit_on_quarantine, reject_unknown_flags, run_sac_ablation, SweepOptions};

const SUBSET: [&str; 4] = ["SN", "RN", "SRAD", "LUD"];
const WINDOWS: [u64; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];

fn main() {
    reject_unknown_flags(&["--quick", "--jobs", "--journal", "--resume"]);
    let cfg = sac_bench::experiment_config();
    let base = SacConfig::for_machine(&cfg);
    let variants: Vec<(String, SacConfig)> = WINDOWS
        .iter()
        .map(|&profile_window| {
            let sac = SacConfig {
                profile_window,
                ..base
            };
            (format!("window={profile_window}"), sac)
        })
        .collect();
    let rows = exit_on_quarantine(run_sac_ablation(
        &cfg,
        &sac_bench::trace_params(),
        &SUBSET,
        &variants,
        &SweepOptions::from_args(),
    ));

    println!(
        "{:6} {:>8} | {:>8} {:>10} | modes",
        "bench", "window", "speedup", "ovh cycles"
    );
    for (name, (mem, runs)) in SUBSET.iter().zip(&rows) {
        for (window, s) in WINDOWS.iter().zip(runs) {
            println!(
                "{:6} {:>8} | {:>8.2} {:>10} | [{}]",
                name,
                window,
                s.speedup_over(mem),
                s.overhead_cycles,
                s.sac_modes()
            );
        }
        println!();
    }
}
