//! Regenerates Table 4: CTAs, footprint, truly- and falsely-shared MB per
//! benchmark — the paper's published values next to what our generated
//! traces actually measure (paper-equivalent scale).
//!
//! `--json PATH` additionally writes the table's structured data as a
//! canonical `mcgpu-figdata-v1` document.

use mcgpu_trace::{analysis, generate, profiles};
use sac_bench::figdata::{emit, Table4Data};
use sac_bench::{collect_outcomes, exit_on_quarantine, sweep};

fn main() {
    let cfg = sac_bench::experiment_config();
    let params = sac_bench::trace_params();
    // Generation + characterization of the 16 workloads fans out over the
    // sweep pool as isolated cells; rows come back in suite order and one
    // bad workload cannot sink the table.
    let outcomes = sweep::map_isolated(profiles::all_profiles(), |p, _attempt| {
        let wl = generate(&cfg, p, &params);
        Ok((p.clone(), analysis::characterize(&cfg, &wl)))
    });
    let rows = exit_on_quarantine(collect_outcomes(outcomes, |i| {
        profiles::all_profiles()[i].name.to_string()
    }));
    emit(&Table4Data::compute(&rows));
}
