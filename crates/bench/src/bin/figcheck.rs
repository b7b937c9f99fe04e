//! The figure-regression gate: runs the full benchmark suite under every
//! LLC organization, scores the paper's expectation set against the
//! measured figure data, prints a scorecard, and exits nonzero iff a
//! `shape` expectation fails (or cannot be evaluated).
//!
//! Flags:
//! - `--expectations PATH` — expectation set to score (default
//!   `expectations/sac_isca23.json`).
//! - `--report PATH` — also write the canonical `mcgpu-figcheck-v1`
//!   report (byte-deterministic for a given machine config and volume).
//! - `--quick` — reduced trace volume (what CI runs).
//! - `--journal PATH` / `--resume PATH` — the standard journaled-sweep
//!   flags; a killed run resumes without re-simulating finished cells.

use mcgpu_types::{ExpectationSet, LlcOrgKind};
use sac_bench::{
    arg_value, exit_on_quarantine, experiment_config, figcheck, quick_mode, run_suite,
    trace_params, SweepOptions,
};

fn main() {
    let path =
        arg_value("--expectations").unwrap_or_else(|| "expectations/sac_isca23.json".to_string());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let set = ExpectationSet::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });

    let cfg = experiment_config();
    let rows = exit_on_quarantine(run_suite(
        &cfg,
        &trace_params(),
        &LlcOrgKind::ALL,
        &SweepOptions::from_args(),
    ));
    let metrics = figcheck::suite_metrics(&cfg, &rows);
    let volume = if quick_mode() { "quick" } else { "standard" };
    let report = figcheck::evaluate(&set, &metrics, volume);
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
