//! Journaled sweep over the golden-stats suite, for the CI kill/resume
//! job and for manual crash-recovery drills.
//!
//! ```text
//! golden_sweep (--journal PATH | --resume PATH) [--out DIR]
//!              [--stall-ms N] [--jobs N]
//!              [--state-dir DIR] [--checkpoint-interval N]
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
//! identically and executes only the rest, so the final output directory
//! diffs clean against `tests/golden/`.
//!
//! With `--state-dir DIR`, every running cell additionally snapshots its
//! full simulator state to `DIR` every `--checkpoint-interval` cycles
//! (default 65536), so a SIGKILLed sweep resumes interrupted cells
//! *mid-cycle* from their latest snapshot instead of from cycle 0 —
//! still byte-identical to an uninterrupted run.
//!
//! `--ckpt-cut N` (requires `--state-dir`) is the deterministic crash
//! drill: every cell is interrupted at cycle N and snapshotted, leaving
//! exactly the on-disk state a SIGKILL between two periodic checkpoints
//! would — nothing journaled, one snapshot per interrupted cell — and the
//! process exits 3. A subsequent `--resume` run must continue every cell
//! mid-cycle and reproduce the golden snapshots byte for byte.

use mcgpu_types::EngineMode;
use sac_bench::golden::{run_sweep, suite};
use sac_bench::{arg_value, exit_on_quarantine, state, sweep, SweepOptions};
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

    if let Some(cut) = arg_value::<u64>("--ckpt-cut") {
        let Some((dir, interval)) = opts.ckpt() else {
            eprintln!("--ckpt-cut requires --state-dir DIR");
            std::process::exit(2);
        };
        std::fs::create_dir_all(dir).expect("create checkpoint state directory");
        let mut interrupted = 0usize;
        for c in &cases {
            let snap = state::cell_snapshot_path(dir, c.name, c.config_hash());
            match c.interrupt_at(&snap, interval, cut) {
                Ok(true) => {
                    eprintln!("  interrupted {} at cycle {cut}", c.name);
                    interrupted += 1;
                }
                Ok(false) => eprintln!("  {} finished before cycle {cut}; no snapshot", c.name),
                Err(e) => {
                    eprintln!("  FAILED interrupting {}: {e}", c.name);
                    std::process::exit(1);
                }
            }
        }
        eprintln!(
            "crash drill: {interrupted} cell(s) snapshotted mid-cycle; resume with --resume {}",
            journal.display()
        );
        std::process::exit(3);
    }

    let stats = exit_on_quarantine(run_sweep(&cases, &opts, stall));
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for (c, json) in cases.iter().zip(&stats) {
        std::fs::write(out_dir.join(format!("{}.json", c.name)), json).expect("write stats file");
    }
    eprintln!("all {} cells written to {}", stats.len(), out_dir.display());
}
