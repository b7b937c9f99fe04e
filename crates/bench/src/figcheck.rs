//! The figure-regression scorer: evaluates a paper [`ExpectationSet`]
//! against measured figure data and produces a deterministic
//! `mcgpu-figcheck-v1` [`Report`].
//!
//! The scorer never touches raw sweep output directly — it reads the same
//! [`crate::figdata`] structs the figure binaries render, collected into a
//! [`Metrics`] lookup table. That shared path is the whole point: a figure
//! and the expectation gating it can never disagree about a number.
//!
//! Two table constructors exist: [`suite_metrics`] for the full-suite
//! sweep the `figcheck` binary runs, and [`golden_metrics`] for the fixed
//! 8-case golden suite, whose report is snapshotted byte-for-byte under
//! `tests/golden/`.

use crate::figdata::{Fig08Data, Fig09Data, Fig10Data, Fig11Data, Fig15Data, Table4Data};
use crate::{golden, sweep, BenchRows};
use mcgpu_sim::RunStats;
use mcgpu_trace::analysis;
use mcgpu_types::{
    Check, CrossvalField, ExpectationSet, Finding, LlcOrgKind, MachineConfig, Metric, Report,
    ResponseOrigin, Severity, Verdict,
};
use std::collections::BTreeMap;

/// A lookup table from [`Metric`] identities to measured values.
///
/// Keys are the stable string labels of the vocabulary types (benchmark
/// name, organization label, origin label, …), so the table is agnostic to
/// where its values came from; a metric absent from the table scores as
/// [`Verdict::Error`].
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    speedup: BTreeMap<(String, String), f64>,
    hmean: BTreeMap<(String, String), f64>,
    local_fraction: BTreeMap<(String, String), f64>,
    bw_total: BTreeMap<(String, String), f64>,
    bw_share: BTreeMap<(String, String, String), f64>,
    working_set: BTreeMap<(String, u64), f64>,
    measured: BTreeMap<(String, String), f64>,
    scale_speedup: BTreeMap<(String, u64, String), f64>,
    fabric_bytes: BTreeMap<(String, u64), f64>,
    crossval: BTreeMap<(String, String), f64>,
}

impl Metrics {
    /// An empty table.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record a speedup over the memory-side baseline.
    pub fn insert_speedup(&mut self, bench: &str, org: LlcOrgKind, v: f64) {
        self.speedup
            .insert((bench.to_string(), org.label().to_string()), v);
    }

    /// Record one cycle-vs-fast cross-validation error (the `crossval`
    /// binary's table).
    pub fn insert_crossval_err(&mut self, case: &str, field: CrossvalField, v: f64) {
        self.crossval
            .insert((case.to_string(), field.label().to_string()), v);
    }

    /// Record everything a single run's stats can support: the local
    /// fraction and the per-origin bandwidth shares. When `base` (the
    /// same workload under memory-side) is given, the normalized
    /// bandwidth total and the speedup are recorded too.
    pub fn insert_stats(
        &mut self,
        bench: &str,
        org: LlcOrgKind,
        stats: &RunStats,
        base: Option<&RunStats>,
    ) {
        let key = (bench.to_string(), org.label().to_string());
        self.local_fraction.insert(key, stats.llc_local_fraction);
        let total = stats.effective_llc_bandwidth();
        if total > 0.0 {
            for origin in ResponseOrigin::ALL {
                self.bw_share.insert(
                    (
                        bench.to_string(),
                        org.label().to_string(),
                        origin.label().to_string(),
                    ),
                    stats.response_rate(origin) / total,
                );
            }
        }
        if let Some(base) = base {
            let base_total = base.effective_llc_bandwidth();
            if base_total > 0.0 {
                self.bw_total.insert(
                    (bench.to_string(), org.label().to_string()),
                    total / base_total,
                );
            }
            self.insert_speedup(bench, org, stats.speedup_over(base));
        }
    }

    /// Fold a Fig. 8 table in: per-benchmark speedups and group harmonic
    /// means for every organization.
    pub fn add_fig08(&mut self, d: &Fig08Data) {
        for r in &d.rows {
            for (org, &v) in LlcOrgKind::ALL.iter().zip(&r.speedups) {
                self.insert_speedup(&r.bench, *org, v);
            }
        }
        for h in &d.hmeans {
            for (org, &v) in LlcOrgKind::ALL.iter().zip(&h.speedups) {
                self.hmean
                    .insert((h.group.clone(), org.label().to_string()), v);
            }
        }
    }

    /// Fold a Fig. 9 table in: local fractions per organization.
    pub fn add_fig09(&mut self, d: &Fig09Data) {
        for r in &d.rows {
            for (org, &v) in LlcOrgKind::ALL.iter().zip(&r.local_fraction) {
                self.local_fraction
                    .insert((r.bench.clone(), org.label().to_string()), v);
            }
        }
    }

    /// Fold a Fig. 10 table in: normalized bandwidth totals and
    /// per-origin shares of each organization's own total.
    pub fn add_fig10(&mut self, d: &Fig10Data) {
        for b in &d.benches {
            for row in &b.orgs {
                self.bw_total
                    .insert((b.bench.clone(), row.org.clone()), row.total);
                if row.total > 0.0 {
                    for (origin, &rate) in ResponseOrigin::ALL.iter().zip(&row.rates) {
                        self.bw_share.insert(
                            (b.bench.clone(), row.org.clone(), origin.label().to_string()),
                            rate / row.total,
                        );
                    }
                }
            }
        }
    }

    /// Fold a Fig. 11 table in: total working-set MB per window.
    pub fn add_fig11(&mut self, d: &Fig11Data) {
        for r in &d.rows {
            for p in &r.points {
                self.working_set
                    .insert((r.bench.clone(), p.window_cycles), p.total_mb());
            }
        }
    }

    /// Fold a Table 4 in: measured characteristics per benchmark.
    pub fn add_table04(&mut self, d: &Table4Data) {
        for r in &d.rows {
            for (field, v) in [
                ("footprint_mb", r.footprint_measured_mb),
                ("true_shared_mb", r.true_measured_mb),
                ("false_shared_mb", r.false_measured_mb),
            ] {
                self.measured
                    .insert((r.bench.clone(), field.to_string()), v);
            }
        }
    }

    /// Fold a Fig. 15 table in: per-(topology, chip count) harmonic-mean
    /// speedups and memory-side fabric traffic.
    pub fn add_fig15(&mut self, d: &Fig15Data) {
        for c in &d.curves {
            for p in &c.points {
                for (org, v) in [(LlcOrgKind::SmSide, p.sm_side), (LlcOrgKind::Sac, p.sac)] {
                    self.scale_speedup
                        .insert((c.topology.clone(), p.chips, org.label().to_string()), v);
                }
                self.fabric_bytes
                    .insert((c.topology.clone(), p.chips), p.fabric_bytes_per_cycle);
            }
        }
    }

    /// The measured value of `metric`, if this table carries it.
    pub fn value(&self, metric: &Metric) -> Option<f64> {
        match metric {
            Metric::Speedup { bench, org } => self
                .speedup
                .get(&(bench.clone(), org.label().to_string()))
                .copied(),
            Metric::HmeanSpeedup { group, org } => self
                .hmean
                .get(&(group.label().to_string(), org.label().to_string()))
                .copied(),
            Metric::LocalFraction { bench, org } => self
                .local_fraction
                .get(&(bench.clone(), org.label().to_string()))
                .copied(),
            Metric::BwTotal { bench, org } => self
                .bw_total
                .get(&(bench.clone(), org.label().to_string()))
                .copied(),
            Metric::BwShare { bench, org, origin } => self
                .bw_share
                .get(&(
                    bench.clone(),
                    org.label().to_string(),
                    origin.label().to_string(),
                ))
                .copied(),
            Metric::WorkingSetMb { bench, window } => {
                self.working_set.get(&(bench.clone(), *window)).copied()
            }
            Metric::MeasuredMb { bench, field } => self
                .measured
                .get(&(bench.clone(), field.label().to_string()))
                .copied(),
            Metric::ScaleSpeedup {
                topology,
                chips,
                org,
            } => self
                .scale_speedup
                .get(&(
                    topology.label().to_string(),
                    *chips,
                    org.label().to_string(),
                ))
                .copied(),
            Metric::FabricBytes { topology, chips } => self
                .fabric_bytes
                .get(&(topology.label().to_string(), *chips))
                .copied(),
            Metric::CrossvalErr { case, field } => self
                .crossval
                .get(&(case.clone(), field.label().to_string()))
                .copied(),
        }
    }

    /// Number of metric values in the table (diagnostics only).
    pub fn len(&self) -> usize {
        self.speedup.len()
            + self.hmean.len()
            + self.local_fraction.len()
            + self.bw_total.len()
            + self.bw_share.len()
            + self.working_set.len()
            + self.measured.len()
            + self.scale_speedup.len()
            + self.fabric_bytes.len()
            + self.crossval.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Build the full-suite metric table the `figcheck` binary scores: Fig. 8,
/// 9, 10 and 11 data from an all-organizations suite plus measured
/// Table 4 characteristics. The per-benchmark working-set and
/// characterization analyses fan out over the sweep pool.
pub fn suite_metrics(cfg: &MachineConfig, rows: &[BenchRows]) -> Metrics {
    let fig08 = Fig08Data::compute(rows);
    let fig09 = Fig09Data::compute(rows);
    let fig10 = Fig10Data::compute(rows);
    let fig11 = Fig11Data::compute(cfg, rows);
    let t4_rows = sweep::map(rows.iter().collect(), |r| {
        (r.profile.clone(), analysis::characterize(cfg, &r.workload))
    });
    let table04 = Table4Data::compute(&t4_rows);

    let mut m = Metrics::new();
    m.add_fig08(&fig08);
    m.add_fig09(&fig09);
    m.add_fig10(&fig10);
    m.add_fig11(&fig11);
    m.add_table04(&table04);
    m
}

/// Build the metric table of the fixed golden suite (`golden::suite()`):
/// local fractions and bandwidth shares for all eight cases, plus
/// speedups and normalized bandwidth totals for the SN trio (the only
/// golden benchmark run under the memory-side baseline). The eight runs
/// fan out over the sweep pool.
pub fn golden_metrics() -> Metrics {
    golden_metrics_on(None)
}

/// [`golden_metrics`] on a dedicated pool of `jobs` threads instead of
/// the process-wide sweep pool. The report determinism tests compare the
/// 1-thread and N-thread tables byte-for-byte.
pub fn golden_metrics_with_jobs(jobs: usize) -> Metrics {
    golden_metrics_on(Some(jobs))
}

fn golden_metrics_on(jobs: Option<usize>) -> Metrics {
    let cases = golden::suite();
    let run = |c: &golden::Case| {
        let (cfg, wl) = c.inputs();
        crate::run_one(&cfg, &wl, c.org)
    };
    let stats: Vec<RunStats> = match jobs {
        Some(n) => sweep::map_with_jobs(n, cases.iter().collect(), run),
        None => sweep::map(cases.iter().collect(), run),
    };
    let sn_mem = cases
        .iter()
        .zip(&stats)
        .find(|(c, _)| c.bench == "SN" && c.org == LlcOrgKind::MemorySide)
        .map(|(_, s)| s);
    let mut m = Metrics::new();
    for (c, s) in cases.iter().zip(&stats) {
        let base = if c.bench == "SN" { sn_mem } else { None };
        m.insert_stats(c.bench, c.org, s, base);
    }
    m
}

fn detail_for(check: &Check, observed: &[(String, f64)]) -> String {
    match check {
        Check::Band { lo, hi, .. } => {
            format!(
                "{} = {:.4} in [{lo:?}, {hi:?}]",
                observed[0].0, observed[0].1
            )
        }
        Check::Ordering { min_ratio, .. } => format!(
            "{} = {:.4}, {} = {:.4}, required ratio >= {min_ratio:?}",
            observed[0].0, observed[0].1, observed[1].0, observed[1].1
        ),
        Check::RelErr {
            reference, max_rel, ..
        } => format!(
            "{} = {:.4}, paper {reference:?}, rel err {:.3} (max {max_rel:?})",
            observed[0].0,
            observed[0].1,
            (observed[0].1 - reference).abs() / reference.abs()
        ),
        Check::Crossover { threshold, .. } => format!(
            "{} = {:.4} <= {threshold:?} <= {} = {:.4}",
            observed[0].0, observed[0].1, observed[1].0, observed[1].1
        ),
    }
}

/// Score every expectation of `set` against `metrics`.
///
/// A metric missing from the table yields [`Verdict::Error`] (with an
/// empty observed list), which gates CI exactly like a failure when the
/// expectation's severity is [`Severity::Shape`] — silently skipping a
/// gating check must not look like passing it.
pub fn evaluate(set: &ExpectationSet, metrics: &Metrics, volume: &str) -> Report {
    let findings = set
        .expectations
        .iter()
        .map(|e| {
            let mut observed = Vec::new();
            let mut missing = Vec::new();
            for m in e.check.metrics() {
                match metrics.value(m) {
                    Some(v) => observed.push((m.describe(), v)),
                    None => missing.push(m.describe()),
                }
            }
            let (verdict, observed, detail) = if missing.is_empty() {
                let values: Vec<f64> = observed.iter().map(|(_, v)| *v).collect();
                let verdict = if e.check.apply(&values) {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                };
                let detail = detail_for(&e.check, &observed);
                (verdict, observed, detail)
            } else {
                (
                    Verdict::Error,
                    Vec::new(),
                    format!("metric unavailable: {}", missing.join(", ")),
                )
            };
            Finding {
                id: e.id.clone(),
                figure: e.figure.clone(),
                severity: e.severity,
                verdict,
                observed,
                detail,
            }
        })
        .collect();
    Report {
        source: set.source.clone(),
        volume: volume.to_string(),
        findings,
    }
}

/// Render the human-readable scorecard of a report: findings grouped by
/// figure (in first-appearance order), one verdict line each, a summary
/// and the gating verdict. Deterministic for a deterministic report.
pub fn scorecard(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "figure-regression scorecard — {} [{} volume]",
        report.source, report.volume
    );
    let mut figures: Vec<&str> = Vec::new();
    for f in &report.findings {
        if !figures.contains(&f.figure.as_str()) {
            figures.push(&f.figure);
        }
    }
    for figure in figures {
        let _ = writeln!(s, "\n{figure}:");
        for f in report.findings.iter().filter(|f| f.figure == figure) {
            let verdict = match f.verdict {
                Verdict::Pass => "PASS ",
                Verdict::Fail => "FAIL ",
                Verdict::Error => "ERROR",
            };
            let _ = writeln!(
                s,
                "  {verdict} {:9} {:44} {}",
                f.severity.label(),
                f.id,
                f.detail
            );
        }
    }
    let count = |sev, verdict| report.count(sev, verdict);
    let _ = writeln!(
        s,
        "\nsummary: {} expectations | shape: {} pass, {} fail, {} error | magnitude: {} pass, {} fail, {} error",
        report.findings.len(),
        count(Severity::Shape, Verdict::Pass),
        count(Severity::Shape, Verdict::Fail),
        count(Severity::Shape, Verdict::Error),
        count(Severity::Magnitude, Verdict::Pass),
        count(Severity::Magnitude, Verdict::Fail),
        count(Severity::Magnitude, Verdict::Error),
    );
    let gating = count(Severity::Shape, Verdict::Fail) + count(Severity::Shape, Verdict::Error);
    if report.gates() {
        let _ = writeln!(
            s,
            "verdict: SHAPE REGRESSION — {gating} gating expectation(s) violated"
        );
    } else {
        let _ = writeln!(s, "verdict: OK — all shape expectations hold");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Metrics {
        let mut m = Metrics::new();
        m.insert_speedup("RN", LlcOrgKind::SmSide, 1.86);
        m.insert_speedup("RN", LlcOrgKind::MemorySide, 1.0);
        m
    }

    fn set(json: &str) -> ExpectationSet {
        ExpectationSet::parse(json).expect("expectation set parses")
    }

    const ORDERING_SET: &str = r#"{
      "schema": "mcgpu-expect-v1",
      "source": "test",
      "expectations": [
        {
          "id": "fig08/RN/sm-beats-mem",
          "figure": "fig08",
          "severity": "shape",
          "check": {
            "kind": "ordering",
            "left": {"metric": "speedup", "bench": "RN", "org": "SM-side"},
            "right": {"metric": "speedup", "bench": "RN", "org": "memory-side"},
            "min_ratio": 1.05
          },
          "note": ""
        }
      ]
    }"#;

    #[test]
    fn passing_ordering_yields_a_pass_and_no_gate() {
        let report = evaluate(&set(ORDERING_SET), &table(), "quick");
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].verdict, Verdict::Pass);
        assert!(!report.gates());
        let card = scorecard(&report);
        assert!(card.contains("PASS  shape"), "scorecard: {card}");
        assert!(card.contains("verdict: OK"), "scorecard: {card}");
    }

    #[test]
    fn missing_metric_yields_error_and_gates_shape() {
        let report = evaluate(&set(ORDERING_SET), &Metrics::new(), "quick");
        assert_eq!(report.findings[0].verdict, Verdict::Error);
        assert!(report.findings[0].observed.is_empty());
        assert!(report.gates(), "a gating check that cannot run must gate");
        let card = scorecard(&report);
        assert!(card.contains("metric unavailable"), "scorecard: {card}");
        assert!(card.contains("SHAPE REGRESSION"), "scorecard: {card}");
    }

    #[test]
    fn fig15_table_scores_scaleout_metrics() {
        use crate::figdata::{Fig15Curve, Fig15Point};
        use mcgpu_types::TopologyKind;

        let data = Fig15Data {
            curves: vec![Fig15Curve {
                topology: "ring".to_string(),
                points: vec![
                    Fig15Point {
                        chips: 4,
                        sm_side: 1.2,
                        sac: 1.4,
                        fabric_bytes_per_cycle: 100.0,
                        bisection_gbs: 384.0,
                    },
                    Fig15Point {
                        chips: 8,
                        sm_side: 1.1,
                        sac: 1.3,
                        fabric_bytes_per_cycle: 150.0,
                        bisection_gbs: 384.0,
                    },
                ],
            }],
        };
        let mut m = Metrics::new();
        m.add_fig15(&data);
        assert_eq!(
            m.value(&Metric::FabricBytes {
                topology: TopologyKind::Ring,
                chips: 8
            }),
            Some(150.0)
        );
        assert_eq!(
            m.value(&Metric::ScaleSpeedup {
                topology: TopologyKind::Ring,
                chips: 4,
                org: LlcOrgKind::Sac
            }),
            Some(1.4)
        );
        // A (topology, chips) point the sweep never ran is absent, which
        // scores as Verdict::Error rather than passing silently.
        assert_eq!(
            m.value(&Metric::FabricBytes {
                topology: TopologyKind::Mesh2D,
                chips: 4
            }),
            None
        );
    }

    #[test]
    fn report_round_trips_through_canonical_json() {
        let report = evaluate(&set(ORDERING_SET), &table(), "quick");
        let doc = report.to_canonical_json();
        let back = Report::parse(&doc).expect("report parses");
        assert_eq!(back.to_canonical_json(), doc);
    }
}
