//! Regenerates Fig. 11: per-time-window working-set size under the SM-side
//! organization, broken into truly-shared / falsely-shared / non-shared
//! data, for windows from 1K to 100K cycles.
//!
//! `--json PATH` additionally writes the figure's structured data as a
//! canonical `mcgpu-figdata-v1` document.

use mcgpu_types::LlcOrgKind;
use sac_bench::figdata::{emit, Fig11Data};
use sac_bench::{exit_on_quarantine, experiment_config, run_suite, trace_params, SweepOptions};

fn main() {
    sac_bench::reject_unknown_flags(sac_bench::FIGURE_FLAGS);
    let cfg = experiment_config();
    // The SM-side runs fan out over the sweep pool; the working-set
    // analysis then fans out per benchmark, reusing each run's workload
    // rather than regenerating the trace.
    let rows = exit_on_quarantine(run_suite(
        &cfg,
        &trace_params(),
        &[LlcOrgKind::SmSide],
        &SweepOptions::from_args(),
    ));
    emit(&Fig11Data::compute(&cfg, &rows));
}
