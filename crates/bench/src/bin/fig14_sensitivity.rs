//! Regenerates Fig. 14: SAC sensitivity across the design space —
//! inter-chip bandwidth, LLC capacity, memory interface, coherence
//! protocol, GPU count, sectored caches and page size. Reports the
//! harmonic-mean speedup of SM-side and SAC over the memory-side baseline
//! on a representative benchmark subset (3 SP + 3 MP).
//!
//! `--json PATH` additionally writes the figure's structured data as a
//! canonical `mcgpu-figdata-v1` document.

use sac_bench::figdata::{emit, Fig14Data};
use sac_bench::SweepOptions;

fn main() {
    sac_bench::reject_unknown_flags(sac_bench::FIGURE_FLAGS);
    let base = sac_bench::experiment_config();
    let params = sac_bench::trace_params();
    let opts = SweepOptions::from_args();
    emit(&Fig14Data::collect(&base, &params, &opts));
}
