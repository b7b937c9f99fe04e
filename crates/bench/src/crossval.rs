//! Cycle-vs-fast cross-validation of the two-tier engine.
//!
//! Fast mode (`sacsim --mode fast`) predicts cell-level outcomes from an
//! analytic model instead of cycle simulation, so its accuracy has to be
//! *measured*, not assumed. This module runs every golden case (the same
//! fixed suite `tests/golden.rs` snapshots) through both engines and
//! tabulates the prediction error along three dimensions:
//!
//! * **LLC hit rate** — absolute error in hit-rate points;
//! * **fabric bytes** — relative error of inter-chip traffic;
//! * **DRAM traffic** — relative error of reads + writes.
//!
//! The `crossval` binary renders the table, folds the errors into the
//! shared [`crate::figcheck::Metrics`] lookup (as
//! [`mcgpu_types::expect::Metric::CrossvalErr`] values)
//! and scores them against `expectations/crossval.json` — band checks at
//! `shape` severity, so a fast-mode accuracy regression gates CI exactly
//! like a figure-shape regression.

use crate::figcheck::Metrics;
use crate::{fastmode, golden, sweep};
use mcgpu_sim::RunStats;
use mcgpu_types::CrossvalField;

/// One golden case measured under both engines.
#[derive(Debug, Clone)]
pub struct CrossvalRow {
    /// Golden case name (`sn_sac`, …).
    pub case: &'static str,
    /// LLC hit rate under the cycle engine.
    pub cycle_hit_rate: f64,
    /// LLC hit rate predicted by fast mode.
    pub fast_hit_rate: f64,
    /// Inter-chip fabric bytes under the cycle engine.
    pub cycle_fabric: u64,
    /// Inter-chip fabric bytes predicted by fast mode.
    pub fast_fabric: u64,
    /// DRAM reads + writes under the cycle engine.
    pub cycle_dram: u64,
    /// DRAM reads + writes predicted by fast mode.
    pub fast_dram: u64,
}

fn hit_rate(s: &RunStats) -> f64 {
    if s.llc.accesses == 0 {
        0.0
    } else {
        s.llc.hits as f64 / s.llc.accesses as f64
    }
}

/// `|fast − cycle| / cycle`, with a unit floor on the denominator so a
/// zero-traffic reference cannot divide by zero (then the error is just
/// the stray byte count, which any sane band still catches).
fn rel_err(cycle: u64, fast: u64) -> f64 {
    (fast as f64 - cycle as f64).abs() / (cycle.max(1)) as f64
}

impl CrossvalRow {
    /// The error value of one [`CrossvalField`] dimension.
    pub fn error(&self, field: CrossvalField) -> f64 {
        match field {
            CrossvalField::LlcHitAbsErr => (self.fast_hit_rate - self.cycle_hit_rate).abs(),
            CrossvalField::FabricRelErr => rel_err(self.cycle_fabric, self.fast_fabric),
            CrossvalField::DramRelErr => rel_err(self.cycle_dram, self.fast_dram),
        }
    }
}

/// Run the full golden suite under both engines and tabulate the errors.
/// Cycle runs fan out over the sweep pool; the fast predictions are cheap
/// and run inline. Deterministic (both engines are).
pub fn crossval_rows() -> Vec<CrossvalRow> {
    let cases = golden::suite();
    sweep::map(cases.into_iter().collect(), |c| {
        let (cfg, wl) = c.inputs();
        let cycle = crate::run_one(&cfg, &wl, c.org);
        let fast = fastmode::run_fast(&cfg, &wl, c.org);
        CrossvalRow {
            case: c.name,
            cycle_hit_rate: hit_rate(&cycle),
            fast_hit_rate: hit_rate(&fast),
            cycle_fabric: cycle.ring_bytes,
            fast_fabric: fast.ring_bytes,
            cycle_dram: cycle.dram_reads + cycle.dram_writes,
            fast_dram: fast.dram_reads + fast.dram_writes,
        }
    })
}

/// Fold the rows into a [`Metrics`] table keyed by case name and error
/// field, ready for [`crate::figcheck::evaluate`].
pub fn crossval_metrics(rows: &[CrossvalRow]) -> Metrics {
    let mut m = Metrics::new();
    for r in rows {
        for field in CrossvalField::ALL {
            m.insert_crossval_err(r.case, field, r.error(field));
        }
    }
    m
}

/// The human-readable error table: one line per golden case with both
/// engines' values and the derived errors.
pub fn render_table(rows: &[CrossvalRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:18} {:>7} {:>7} {:>6}  {:>12} {:>12} {:>6}  {:>10} {:>10} {:>6}",
        "case",
        "hit.cy",
        "hit.fa",
        "d.pts",
        "fabric.cy",
        "fabric.fa",
        "rel",
        "dram.cy",
        "dram.fa",
        "rel"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:18} {:>7.4} {:>7.4} {:>6.4}  {:>12} {:>12} {:>6.3}  {:>10} {:>10} {:>6.3}",
            r.case,
            r.cycle_hit_rate,
            r.fast_hit_rate,
            r.error(CrossvalField::LlcHitAbsErr),
            r.cycle_fabric,
            r.fast_fabric,
            r.error(CrossvalField::FabricRelErr),
            r.cycle_dram,
            r.fast_dram,
            r.error(CrossvalField::DramRelErr),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> CrossvalRow {
        CrossvalRow {
            case: "sn_sac",
            cycle_hit_rate: 0.50,
            fast_hit_rate: 0.46,
            cycle_fabric: 1_000,
            fast_fabric: 1_100,
            cycle_dram: 400,
            fast_dram: 300,
        }
    }

    #[test]
    fn errors_are_absolute_points_and_relative_fractions() {
        let r = row();
        assert!((r.error(CrossvalField::LlcHitAbsErr) - 0.04).abs() < 1e-12);
        assert!((r.error(CrossvalField::FabricRelErr) - 0.1).abs() < 1e-12);
        assert!((r.error(CrossvalField::DramRelErr) - 0.25).abs() < 1e-12);
        // A zero-traffic reference does not divide by zero.
        assert_eq!(rel_err(0, 0), 0.0);
        assert!(rel_err(0, 5) > 0.0);
    }

    #[test]
    fn metrics_table_carries_every_dimension_of_every_row() {
        let rows = vec![row()];
        let m = crossval_metrics(&rows);
        assert_eq!(m.len(), CrossvalField::ALL.len());
        let v = m.value(&mcgpu_types::Metric::CrossvalErr {
            case: "sn_sac".to_string(),
            field: CrossvalField::DramRelErr,
        });
        assert!((v.unwrap() - 0.25).abs() < 1e-12);
        let table = render_table(&rows);
        assert!(table.contains("sn_sac"), "{table}");
    }
}
