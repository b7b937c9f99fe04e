//! Journaled sweep over the golden-stats suite, for the CI kill/resume
//! job and for manual crash-recovery drills.
//!
//! ```text
//! golden_sweep (--journal PATH | --resume PATH) [--out DIR]
//!              [--stall-ms N] [--jobs N]
//! ```
//!
//! Runs the 8 golden cases (shared with `tests/golden.rs`) as isolated,
//! journaled sweep cells through the same runner as the figure sweeps
//! (`sac_bench::golden::run_sweep`), on the cycle engine that produced
//! the snapshots, and writes each case's canonical stats JSON to
//! `DIR/<name>.json` (default `results/golden_sweep/`). `--stall-ms N`
//! sleeps N ms before each cell attempt that runs, so a test harness can
//! reliably SIGKILL the process mid-sweep; the stall only delays
//! execution and cannot change any result. After a kill, re-running with
//! `--resume` on the same journal replays the finished cells byte-
//! identically and executes only the rest (an interrupted cell re-runs
//! from cycle 0), so the final output directory diffs clean against
//! `tests/golden/`.

use mcgpu_types::EngineMode;
use sac_bench::golden::{run_sweep, suite};
use sac_bench::{arg_value, exit_on_quarantine, sweep, SweepOptions};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let opts = SweepOptions {
        mode: EngineMode::Cycle,
        ..SweepOptions::from_args()
    };
    let Some(journal) = opts.resume.clone().or_else(|| opts.journal.clone()) else {
        eprintln!("usage: golden_sweep (--journal PATH | --resume PATH) [--out DIR]");
        std::process::exit(2);
    };
    let out_dir = arg_value("--out").unwrap_or_else(|| PathBuf::from("results/golden_sweep"));
    let stall = Duration::from_millis(arg_value("--stall-ms").unwrap_or(0));
    let cases = suite();
    eprintln!(
        "golden sweep: {} cells on {} thread(s), journal {}",
        cases.len(),
        sweep::jobs(),
        journal.display()
    );

    let stats = exit_on_quarantine(run_sweep(&cases, &opts, stall));
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for (c, json) in cases.iter().zip(&stats) {
        std::fs::write(out_dir.join(format!("{}.json", c.name)), json).expect("write stats file");
    }
    eprintln!("all {} cells written to {}", stats.len(), out_dir.display());
}
