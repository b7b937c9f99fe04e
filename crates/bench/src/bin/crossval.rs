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

use mcgpu_types::ExpectationSet;
use sac_bench::{arg_value, crossval, figcheck};

fn main() {
    let path =
        arg_value("--expectations").unwrap_or_else(|| "expectations/crossval.json".to_string());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let set = ExpectationSet::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });

    let rows = crossval::crossval_rows();
    print!("{}", crossval::render_table(&rows));
    println!();

    let metrics = crossval::crossval_metrics(&rows);
    let report = figcheck::evaluate(&set, &metrics, "golden");
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
