//! The two-tier cross-validation gate: runs every golden case under both
//! the cycle engine and the analytic fast mode, prints the per-case error
//! table, scores the errors against the pinned expectation bands, and
//! exits nonzero iff a `shape` band is violated (or cannot be evaluated).
//!
//! Flags:
//! - `--expectations PATH` — expectation set to score (default
//!   `expectations/crossval.json`).
//! - `--report PATH` — also write the canonical `mcgpu-figcheck-v1`
//!   report (byte-deterministic; the engines are).
//!
//! The golden suite is tiny by design (the same eight cases CI snapshots
//! byte-for-byte), so this runs at every-PR cost. Recalibrating after a
//! deliberate estimator change means rerunning this binary, reading the
//! table, and re-pinning `expectations/crossval.json` with margin — see
//! `EXPERIMENTS.md`.

use sac_bench::{crossval, figcheck};

fn main() {
    sac_bench::reject_unknown_flags(&["--jobs", "--expectations", "--report"]);
    let set = figcheck::load_expectations("expectations/crossval.json");
    let rows = crossval::crossval_rows();
    print!("{}", crossval::render_table(&rows));
    figcheck::gate(&set, &crossval::crossval_metrics(&rows), "golden");
}
