//! Regenerates Fig. 15 (scale-out, beyond the paper): the SAC-vs-baselines
//! comparison re-run at 4/8/16 chips on every inter-chip topology (ring,
//! fully connected, 2-D mesh), with per-link bandwidth held constant.
//! Reports the harmonic-mean SM-side and SAC speedups over the memory-side
//! baseline on a small SP+MP subset, plus the memory-side fabric traffic
//! and each machine's bisection bandwidth.
//!
//! After the figure is emitted, the scale-out expectation set is scored
//! through the `figcheck` machinery and the process exits 2 iff a `shape`
//! expectation fails — the same gate the paper figures get.
//!
//! Flags:
//! - `--json PATH` — write the figure's canonical `mcgpu-figdata-v1`
//!   document.
//! - `--expectations PATH` — expectation set to score (default
//!   `expectations/fig15_scaleout.json`).
//! - `--report PATH` — also write the canonical `mcgpu-figcheck-v1`
//!   report.
//! - `--quick` — reduced trace volume (what CI runs).
//! - `--journal PATH` / `--resume PATH` — the standard journaled-sweep
//!   flags; every `(topology, chips, benchmark, organization)` cell is
//!   keyed by its full machine config, so a killed run resumes without
//!   re-simulating finished cells.

use sac_bench::figdata::{emit, Fig15Data};
use sac_bench::{figcheck, quick_mode, SweepOptions};

fn main() {
    sac_bench::reject_unknown_flags(
        &[sac_bench::FIGURE_FLAGS, &["--expectations", "--report"]].concat(),
    );
    let set = figcheck::load_expectations("expectations/fig15_scaleout.json");
    let base = sac_bench::experiment_config();
    let params = sac_bench::trace_params();
    let data = Fig15Data::collect(&base, &params, &SweepOptions::from_args());
    emit(&data);

    let mut metrics = figcheck::Metrics::new();
    metrics.add_fig15(&data);
    let volume = if quick_mode() { "quick" } else { "standard" };
    figcheck::gate(&set, &metrics, volume);
}
