//! Regenerates Table 4: CTAs, footprint, truly- and falsely-shared MB per
//! benchmark — the paper's published values next to what our generated
//! traces actually measure (paper-equivalent scale).
//!
//! `--json PATH` additionally writes the table's structured data as a
//! canonical `mcgpu-figdata-v1` document.

use mcgpu_trace::{analysis, generate, profiles};
use sac_bench::figdata::{emit, Table4Data};
use sac_bench::{reject_unknown_flags, sweep};

fn main() {
    reject_unknown_flags(&["--quick", "--jobs", "--json"]);
    let cfg = sac_bench::experiment_config();
    let params = sac_bench::trace_params();
    // Generation + characterization of the 16 workloads fans out over the
    // sweep pool; rows come back in suite order. Nothing is simulated.
    let rows = sweep::map(profiles::all_profiles(), |p| {
        let wl = generate(&cfg, &p, &params);
        let ch = analysis::characterize(&cfg, &wl);
        (p, ch)
    });
    emit(&Table4Data::compute(&rows));
}
