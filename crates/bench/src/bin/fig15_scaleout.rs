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

use mcgpu_types::ExpectationSet;
use sac_bench::figdata::{emit, Fig15Data};
use sac_bench::{arg_value, figcheck, SweepOptions};

fn main() {
    sac_bench::reject_unknown_flags(
        &[sac_bench::FIGURE_FLAGS, &["--expectations", "--report"]].concat(),
    );
    let path = arg_value("--expectations")
        .unwrap_or_else(|| "expectations/fig15_scaleout.json".to_string());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let set = ExpectationSet::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });

    let base = sac_bench::experiment_config();
    let params = sac_bench::trace_params();
    let opts = SweepOptions::from_args().sequential();
    let data = Fig15Data::collect(&base, &params, &opts);
    emit(&data);

    let mut metrics = figcheck::Metrics::new();
    metrics.add_fig15(&data);
    let volume = if sac_bench::quick_mode() {
        "quick"
    } else {
        "standard"
    };
    let report = figcheck::evaluate(&set, &metrics, volume);
    println!();
    print!("{}", figcheck::scorecard(&report));
    if let Some(out) = arg_value::<String>("--report") {
        std::fs::write(&out, report.to_canonical_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("  wrote {out}");
    }
    if report.gates() {
        std::process::exit(2);
    }
}
