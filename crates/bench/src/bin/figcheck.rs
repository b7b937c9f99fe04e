//! The suite figures and their regression gate: runs the full benchmark
//! suite under every LLC organization once, prints Figs. 1, 8, 9, 10 and
//! 11 from that sweep, scores the paper's expectation set against the
//! same figure data, prints a scorecard, and exits nonzero iff a `shape`
//! expectation fails (or cannot be evaluated).
//!
//! Flags:
//! - `--json PATH` — write the five figures' canonical `mcgpu-figdata-v1`
//!   document (figure `suite`, one `figures` entry per figure).
//! - `--expectations PATH` — expectation set to score (default
//!   `expectations/sac_isca23.json`).
//! - `--report PATH` — also write the canonical `mcgpu-figcheck-v1`
//!   report (byte-deterministic for a given machine config and volume).
//! - `--quick` — reduced trace volume (what CI runs).
//! - `--journal PATH` / `--resume PATH` — the standard journaled-sweep
//!   flags; a killed run resumes without re-simulating finished cells.

use mcgpu_trace::profiles;
use mcgpu_types::LlcOrgKind;
use sac_bench::figcheck::{self, SuiteFigures};
use sac_bench::figdata::emit;
use sac_bench::{
    exit_on_quarantine, experiment_config, quick_mode, run_profiles, trace_params, SweepOptions,
};

fn main() {
    sac_bench::reject_unknown_flags(
        &[sac_bench::FIGURE_FLAGS, &["--expectations", "--report"]].concat(),
    );
    let set = figcheck::load_expectations("expectations/sac_isca23.json");
    let cfg = experiment_config();
    let rows = exit_on_quarantine(run_profiles(
        &cfg,
        &profiles::all_profiles(),
        &trace_params(),
        &LlcOrgKind::ALL,
        &SweepOptions::from_args(),
    ));
    let figures = SuiteFigures::compute(&cfg, &rows);
    emit(&figures);
    let volume = if quick_mode() { "quick" } else { "standard" };
    figcheck::gate(&set, &figures.metrics(), volume);
}
