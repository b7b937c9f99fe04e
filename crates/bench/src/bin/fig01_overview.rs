//! Regenerates Fig. 1: performance, LLC miss rate and effective LLC
//! bandwidth per LLC organization, grouped into SM-side-preferred (SP) and
//! memory-side-preferred (MP) benchmarks.
//!
//! `--json PATH` additionally writes the figure's structured data as a
//! canonical `mcgpu-figdata-v1` document.

use mcgpu_types::LlcOrgKind;
use sac_bench::figdata::{emit, Fig01Data};
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
    emit(&Fig01Data::compute(&rows));
}
