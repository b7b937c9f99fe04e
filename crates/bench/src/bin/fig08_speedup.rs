//! Regenerates Fig. 8: per-benchmark speedup of each LLC organization
//! relative to the memory-side baseline, with SP/MP/overall harmonic means.
//!
//! `--json PATH` additionally writes the figure's structured data as a
//! canonical `mcgpu-figdata-v1` document.

use mcgpu_types::LlcOrgKind;
use sac_bench::figdata::{emit, Fig08Data};
use sac_bench::{exit_on_quarantine, experiment_config, run_suite, trace_params, SweepOptions};

fn main() {
    sac_bench::reject_unknown_flags(sac_bench::FIGURE_FLAGS);
    let cfg = experiment_config();
    let rows = exit_on_quarantine(run_suite(
        &cfg,
        &trace_params(),
        &LlcOrgKind::ALL,
        &SweepOptions::from_args(),
    ));
    emit(&Fig08Data::compute(&rows));
}
