//! Paper-shape expectations and the figure-regression report schema.
//!
//! The SAC reproduction's contract with the paper is *shape*, not absolute
//! cycles (see `DESIGN.md`): who wins on each workload, by what rough
//! factor, and where crossovers fall. This module gives that contract a
//! machine-readable form. An [`ExpectationSet`] is parsed from a committed
//! JSON file (`expectations/sac_isca23.json`, schema
//! [`EXPECT_SCHEMA`]); the `figcheck` harness in `sac-bench` evaluates
//! every [`Expectation`] against freshly swept statistics and emits a
//! [`Report`] (schema [`REPORT_SCHEMA`]) in the workspace's canonical JSON
//! form — deterministic byte-for-byte, so reports can be diffed, snapshot
//! -tested, and uploaded as CI artifacts.
//!
//! Two [`Severity`] classes split the contract:
//!
//! * [`Severity::Shape`] — ordering and crossover facts the reproduction
//!   must preserve (e.g. "SM-side beats memory-side on RN"). A failing
//!   shape expectation gates CI.
//! * [`Severity::Magnitude`] — rough factors with tolerance bands (e.g.
//!   "SP harmonic-mean SM-side speedup within [1.6, 4.0]"). Drift warns
//!   but does not gate, because the scaled model reproduces ratios, not
//!   absolute magnitudes.
//!
//! The checking vocabulary ([`Check`]) is deliberately closed: a band with
//! inclusive edges, a ratio ordering, a relative-error comparison against
//! a published paper value, and a threshold crossover between two points
//! of a curve. Everything an expectation can observe is a [`Metric`] — a
//! named scalar the harness computes from the same structured statistics
//! the figure binaries render, so figures and checks cannot disagree.

use crate::config::{LlcOrgKind, TopologyKind};
use crate::error::ParseError;
use crate::json::{parse, CanonicalWriter, JsonValue};
use crate::packet::ResponseOrigin;

/// Schema identifier of the expectations file.
pub const EXPECT_SCHEMA: &str = "mcgpu-expect-v1";

/// Schema identifier of the figure-regression report.
pub const REPORT_SCHEMA: &str = "mcgpu-figcheck-v1";

/// How severely a failed expectation is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A structural fact of the paper (ordering, crossover). Failing one
    /// fails the `figcheck` run (nonzero exit, CI gate).
    Shape,
    /// A rough published factor with a tolerance band. Failing one is
    /// reported as a warning only.
    Magnitude,
}

impl Severity {
    /// Stable label used in the JSON forms.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Shape => "shape",
            Severity::Magnitude => "magnitude",
        }
    }

    /// Inverse of [`Severity::label`].
    pub fn from_label(label: &str) -> Option<Severity> {
        match label {
            "shape" => Some(Severity::Shape),
            "magnitude" => Some(Severity::Magnitude),
            _ => None,
        }
    }
}

/// The benchmark group a harmonic mean runs over (Fig. 1 / Fig. 8 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// SM-side-preferred benchmarks (top half of Table 4).
    Sp,
    /// Memory-side-preferred benchmarks (bottom half of Table 4).
    Mp,
    /// All 16 benchmarks.
    All,
}

impl Group {
    /// Stable label used in the JSON forms.
    pub fn label(self) -> &'static str {
        match self {
            Group::Sp => "SP",
            Group::Mp => "MP",
            Group::All => "all",
        }
    }

    /// Inverse of [`Group::label`].
    pub fn from_label(label: &str) -> Option<Group> {
        match label {
            "SP" => Some(Group::Sp),
            "MP" => Some(Group::Mp),
            "all" => Some(Group::All),
            _ => None,
        }
    }
}

/// Which Table 4 column a measured-characteristic metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table4Field {
    /// Total footprint in paper-equivalent MB.
    Footprint,
    /// Truly-shared MB.
    TrueShared,
    /// Falsely-shared MB.
    FalseShared,
}

impl Table4Field {
    /// Stable label used in the JSON forms.
    pub fn label(self) -> &'static str {
        match self {
            Table4Field::Footprint => "footprint_mb",
            Table4Field::TrueShared => "true_shared_mb",
            Table4Field::FalseShared => "false_shared_mb",
        }
    }

    /// Inverse of [`Table4Field::label`].
    pub fn from_label(label: &str) -> Option<Table4Field> {
        match label {
            "footprint_mb" => Some(Table4Field::Footprint),
            "true_shared_mb" => Some(Table4Field::TrueShared),
            "false_shared_mb" => Some(Table4Field::FalseShared),
            _ => None,
        }
    }
}

/// Which cycle-vs-fast error dimension a cross-validation metric reads.
///
/// The two-tier engine's analytic fast mode is only trustworthy while its
/// predictions track the cycle engine; the `crossval` harness measures
/// these per golden case and `expectations/crossval.json` pins bands on
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossvalField {
    /// `|fast hit rate − cycle hit rate|` in absolute LLC hit-rate points
    /// (a fraction in `[0, 1]`, so `0.05` is five points).
    LlcHitAbsErr,
    /// Relative error of predicted inter-chip fabric bytes:
    /// `|fast − cycle| / cycle`.
    FabricRelErr,
    /// Relative error of predicted DRAM traffic (reads + writes):
    /// `|fast − cycle| / cycle`.
    DramRelErr,
}

impl CrossvalField {
    /// Every field, in scorecard order.
    pub const ALL: [CrossvalField; 3] = [
        CrossvalField::LlcHitAbsErr,
        CrossvalField::FabricRelErr,
        CrossvalField::DramRelErr,
    ];

    /// Stable label used in the JSON forms.
    pub fn label(self) -> &'static str {
        match self {
            CrossvalField::LlcHitAbsErr => "llc_hit_abs_err",
            CrossvalField::FabricRelErr => "fabric_rel_err",
            CrossvalField::DramRelErr => "dram_rel_err",
        }
    }

    /// Inverse of [`CrossvalField::label`].
    pub fn from_label(label: &str) -> Option<CrossvalField> {
        match label {
            "llc_hit_abs_err" => Some(CrossvalField::LlcHitAbsErr),
            "fabric_rel_err" => Some(CrossvalField::FabricRelErr),
            "dram_rel_err" => Some(CrossvalField::DramRelErr),
            _ => None,
        }
    }
}

/// One named scalar the harness can compute from swept statistics.
///
/// Benchmark names are free-form here (the types crate does not know the
/// profile set); the harness rejects unknown names at evaluation time.
/// Organization, origin, group and field names are validated at parse
/// time against their closed vocabularies.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Fig. 8: speedup of `org` over the memory-side baseline on `bench`
    /// (cycle-count ratio).
    Speedup {
        /// Table 4 benchmark name.
        bench: String,
        /// LLC organization.
        org: LlcOrgKind,
    },
    /// Fig. 8 bottom rows: harmonic-mean speedup of `org` over the
    /// memory-side baseline across a benchmark group.
    HmeanSpeedup {
        /// Benchmark group.
        group: Group,
        /// LLC organization.
        org: LlcOrgKind,
    },
    /// Fig. 9: mean fraction of resident LLC lines holding local data.
    LocalFraction {
        /// Table 4 benchmark name.
        bench: String,
        /// LLC organization.
        org: LlcOrgKind,
    },
    /// Fig. 10: effective LLC bandwidth (read responses per cycle) of
    /// `org`, normalized to the memory-side total on the same benchmark.
    BwTotal {
        /// Table 4 benchmark name.
        bench: String,
        /// LLC organization.
        org: LlcOrgKind,
    },
    /// Fig. 10: the share of `org`'s read responses served from `origin`
    /// (a fraction of that organization's own total, in `[0, 1]`).
    BwShare {
        /// Table 4 benchmark name.
        bench: String,
        /// LLC organization.
        org: LlcOrgKind,
        /// Response origin whose share is measured.
        origin: ResponseOrigin,
    },
    /// Fig. 11: mean per-window working set of `bench` in paper-equivalent
    /// MB (all sharing classes summed) for a window of `window` cycles,
    /// measured under the SM-side organization.
    WorkingSetMb {
        /// Table 4 benchmark name.
        bench: String,
        /// Window length in cycles.
        window: u64,
    },
    /// Table 4: a characteristic measured from the generated trace, in
    /// paper-equivalent MB.
    MeasuredMb {
        /// Table 4 benchmark name.
        bench: String,
        /// Which column.
        field: Table4Field,
    },
    /// Fig. 15: harmonic-mean speedup of `org` over the memory-side
    /// baseline across the scale-out subset at (`topology`, `chips`).
    ScaleSpeedup {
        /// Inter-chip topology.
        topology: TopologyKind,
        /// Chip count.
        chips: u64,
        /// LLC organization.
        org: LlcOrgKind,
    },
    /// Fig. 15: mean inter-chip fabric traffic under the memory-side
    /// baseline, in bytes per cycle, at (`topology`, `chips`).
    FabricBytes {
        /// Inter-chip topology.
        topology: TopologyKind,
        /// Chip count.
        chips: u64,
    },
    /// Two-tier cross-validation: a cycle-vs-fast prediction error of the
    /// analytic engine on one golden case (free-form case name, validated
    /// at evaluation time like benchmark names).
    CrossvalErr {
        /// Golden case name (e.g. `sn_sac`).
        case: String,
        /// Which error dimension.
        field: CrossvalField,
    },
}

impl Metric {
    /// A compact human-readable identity, used in scorecards and report
    /// detail strings (e.g. `speedup(RN, SM-side)`).
    pub fn describe(&self) -> String {
        match self {
            Metric::Speedup { bench, org } => format!("speedup({bench}, {})", org.label()),
            Metric::HmeanSpeedup { group, org } => {
                format!("hmean_speedup({}, {})", group.label(), org.label())
            }
            Metric::LocalFraction { bench, org } => {
                format!("local_fraction({bench}, {})", org.label())
            }
            Metric::BwTotal { bench, org } => format!("bw_total({bench}, {})", org.label()),
            Metric::BwShare { bench, org, origin } => {
                format!("bw_share({bench}, {}, {})", org.label(), origin.label())
            }
            Metric::WorkingSetMb { bench, window } => {
                format!("working_set_mb({bench}, {window}cy)")
            }
            Metric::MeasuredMb { bench, field } => {
                format!("measured_mb({bench}, {})", field.label())
            }
            Metric::ScaleSpeedup {
                topology,
                chips,
                org,
            } => {
                format!(
                    "scale_speedup({}, {chips}, {})",
                    topology.label(),
                    org.label()
                )
            }
            Metric::FabricBytes { topology, chips } => {
                format!("fabric_bytes({}, {chips})", topology.label())
            }
            Metric::CrossvalErr { case, field } => {
                format!("crossval_err({case}, {})", field.label())
            }
        }
    }

    fn from_json(v: &JsonValue) -> Result<Metric, ParseError> {
        let kind = str_field(v, "metric")?;
        let org = || -> Result<LlcOrgKind, ParseError> {
            let label = str_field(v, "org")?;
            LlcOrgKind::from_label(label)
                .ok_or_else(|| ParseError::new(format!("unknown organization `{label}`")))
        };
        let bench = || str_field(v, "bench").map(str::to_string);
        match kind {
            "speedup" => Ok(Metric::Speedup {
                bench: bench()?,
                org: org()?,
            }),
            "hmean_speedup" => {
                let label = str_field(v, "group")?;
                Ok(Metric::HmeanSpeedup {
                    group: Group::from_label(label)
                        .ok_or_else(|| ParseError::new(format!("unknown group `{label}`")))?,
                    org: org()?,
                })
            }
            "local_fraction" => Ok(Metric::LocalFraction {
                bench: bench()?,
                org: org()?,
            }),
            "bw_total" => Ok(Metric::BwTotal {
                bench: bench()?,
                org: org()?,
            }),
            "bw_share" => {
                let label = str_field(v, "origin")?;
                let origin = ResponseOrigin::ALL
                    .into_iter()
                    .find(|o| o.label() == label)
                    .ok_or_else(|| ParseError::new(format!("unknown origin `{label}`")))?;
                Ok(Metric::BwShare {
                    bench: bench()?,
                    org: org()?,
                    origin,
                })
            }
            "working_set_mb" => Ok(Metric::WorkingSetMb {
                bench: bench()?,
                window: u64_field(v, "window")?,
            }),
            "measured_mb" => {
                let label = str_field(v, "field")?;
                Ok(Metric::MeasuredMb {
                    bench: bench()?,
                    field: Table4Field::from_label(label)
                        .ok_or_else(|| ParseError::new(format!("unknown field `{label}`")))?,
                })
            }
            "scale_speedup" => Ok(Metric::ScaleSpeedup {
                topology: topology_field(v)?,
                chips: u64_field(v, "chips")?,
                org: org()?,
            }),
            "fabric_bytes" => Ok(Metric::FabricBytes {
                topology: topology_field(v)?,
                chips: u64_field(v, "chips")?,
            }),
            "crossval_err" => {
                let label = str_field(v, "field")?;
                Ok(Metric::CrossvalErr {
                    case: str_field(v, "case")?.to_string(),
                    field: CrossvalField::from_label(label).ok_or_else(|| {
                        ParseError::new(format!("unknown crossval field `{label}`"))
                    })?,
                })
            }
            other => Err(ParseError::new(format!("unknown metric kind `{other}`"))),
        }
    }

    /// Every benchmark name this metric reads (for cross-validation
    /// against the profile set).
    pub fn benches(&self) -> Vec<&str> {
        match self {
            Metric::Speedup { bench, .. }
            | Metric::LocalFraction { bench, .. }
            | Metric::BwTotal { bench, .. }
            | Metric::BwShare { bench, .. }
            | Metric::WorkingSetMb { bench, .. }
            | Metric::MeasuredMb { bench, .. } => vec![bench],
            Metric::HmeanSpeedup { .. }
            | Metric::ScaleSpeedup { .. }
            | Metric::FabricBytes { .. }
            | Metric::CrossvalErr { .. } => Vec::new(),
        }
    }
}

/// The closed predicate vocabulary an expectation can assert.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// `lo <= value <= hi`. Both edges are **inclusive** (pinned by test;
    /// a value exactly on an edge passes).
    Band {
        /// The observed metric.
        metric: Metric,
        /// Inclusive lower edge.
        lo: f64,
        /// Inclusive upper edge.
        hi: f64,
    },
    /// `left >= min_ratio * right`: the paper's ordering facts, with an
    /// optional separation factor (`min_ratio = 1.0` is a plain ordering).
    Ordering {
        /// The side the paper says is larger.
        left: Metric,
        /// The side the paper says is smaller.
        right: Metric,
        /// Required separation; `left` must be at least this multiple of
        /// `right`.
        min_ratio: f64,
    },
    /// `|value - reference| <= max_rel * |reference|`: a measured quantity
    /// must land within a relative tolerance of a published paper value.
    RelErr {
        /// The observed metric.
        metric: Metric,
        /// The paper's published value.
        reference: f64,
        /// Maximum relative error (e.g. `0.25` for ±25%).
        max_rel: f64,
    },
    /// A curve crosses `threshold` between two sampled points:
    /// `below <= threshold` **and** `above >= threshold` (edges
    /// inclusive). Encodes the paper's crossover locations (Fig. 11's
    /// working sets crossing LLC capacity, Fig. 13's input-scale flips).
    Crossover {
        /// The sample on the small side of the crossover.
        below: Metric,
        /// The sample on the large side of the crossover.
        above: Metric,
        /// The crossed threshold.
        threshold: f64,
    },
}

impl Check {
    /// Every metric this check observes, in evaluation order.
    pub fn metrics(&self) -> Vec<&Metric> {
        match self {
            Check::Band { metric, .. } | Check::RelErr { metric, .. } => vec![metric],
            Check::Ordering { left, right, .. } => vec![left, right],
            Check::Crossover { below, above, .. } => vec![below, above],
        }
    }

    /// Apply the predicate to the metric values, in the order
    /// [`Check::metrics`] returned them.
    ///
    /// Band and crossover edges are inclusive; NaN values fail every
    /// check (a NaN metric means the sweep produced degenerate data, which
    /// must never pass silently).
    pub fn apply(&self, values: &[f64]) -> bool {
        match self {
            Check::Band { lo, hi, .. } => values[0] >= *lo && values[0] <= *hi,
            Check::Ordering { min_ratio, .. } => values[0] >= min_ratio * values[1],
            Check::RelErr {
                reference, max_rel, ..
            } => (values[0] - reference).abs() <= max_rel * reference.abs(),
            Check::Crossover { threshold, .. } => {
                values[0] <= *threshold && values[1] >= *threshold
            }
        }
    }

    fn from_json(v: &JsonValue) -> Result<Check, ParseError> {
        let kind = str_field(v, "kind")?;
        let metric_at = |key: &str| -> Result<Metric, ParseError> {
            Metric::from_json(
                v.get(key)
                    .ok_or_else(|| ParseError::new(format!("missing metric `{key}`")))?,
            )
        };
        match kind {
            "band" => {
                let lo = f64_field(v, "lo")?;
                let hi = f64_field(v, "hi")?;
                if lo.is_nan() || hi.is_nan() || lo > hi {
                    return Err(ParseError::new(format!(
                        "band edges inverted: [{lo}, {hi}]"
                    )));
                }
                Ok(Check::Band {
                    metric: metric_at("value")?,
                    lo,
                    hi,
                })
            }
            "ordering" => {
                let min_ratio = f64_field(v, "min_ratio")?;
                if min_ratio.is_nan() || min_ratio <= 0.0 {
                    return Err(ParseError::new("min_ratio must be positive"));
                }
                Ok(Check::Ordering {
                    left: metric_at("left")?,
                    right: metric_at("right")?,
                    min_ratio,
                })
            }
            "rel_err" => {
                let max_rel = f64_field(v, "max_rel")?;
                if max_rel.is_nan() || max_rel < 0.0 {
                    return Err(ParseError::new("max_rel must be non-negative"));
                }
                Ok(Check::RelErr {
                    metric: metric_at("value")?,
                    reference: f64_field(v, "reference")?,
                    max_rel,
                })
            }
            "crossover" => Ok(Check::Crossover {
                below: metric_at("below")?,
                above: metric_at("above")?,
                threshold: f64_field(v, "threshold")?,
            }),
            other => Err(ParseError::new(format!("unknown check kind `{other}`"))),
        }
    }
}

/// One paper-shape expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Stable unique identifier (`figure/subject/claim` by convention).
    pub id: String,
    /// The figure or table this fact comes from (`fig08` … `table04`).
    pub figure: String,
    /// CI-gating class.
    pub severity: Severity,
    /// The predicate.
    pub check: Check,
    /// Free-form provenance note (what the paper actually says).
    pub note: String,
}

/// A parsed expectations file.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectationSet {
    /// Provenance of the expectations (the paper's citation).
    pub source: String,
    /// The expectations, in file order (which is also report order).
    pub expectations: Vec<Expectation>,
}

impl ExpectationSet {
    /// Parse an `mcgpu-expect-v1` document.
    ///
    /// # Errors
    /// [`ParseError`] on malformed JSON, a wrong or missing schema tag,
    /// duplicate ids, unknown vocabulary (organizations, origins, groups,
    /// fields, check/metric kinds), or invalid bounds.
    pub fn parse(text: &str) -> Result<ExpectationSet, ParseError> {
        let v = parse(text)?;
        let schema = str_field(&v, "schema")?;
        if schema != EXPECT_SCHEMA {
            return Err(ParseError::new(format!(
                "expected schema `{EXPECT_SCHEMA}`, found `{schema}`"
            )));
        }
        let source = str_field(&v, "source")?.to_string();
        let items = v
            .get("expectations")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ParseError::new("missing array field `expectations`"))?;
        let mut expectations = Vec::with_capacity(items.len());
        for item in items {
            let id = str_field(item, "id")?.to_string();
            let severity_label = str_field(item, "severity")?;
            let severity = Severity::from_label(severity_label)
                .ok_or_else(|| ParseError::new(format!("unknown severity `{severity_label}`")))?;
            let check = Check::from_json(
                item.get("check")
                    .ok_or_else(|| ParseError::new(format!("expectation `{id}` has no check")))?,
            )
            .map_err(|e| ParseError::new(format!("expectation `{id}`: {e}")))?;
            expectations.push(Expectation {
                id,
                figure: str_field(item, "figure")?.to_string(),
                severity,
                check,
                note: str_field(item, "note")?.to_string(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for e in &expectations {
            if !seen.insert(e.id.as_str()) {
                return Err(ParseError::new(format!(
                    "duplicate expectation id `{}`",
                    e.id
                )));
            }
        }
        Ok(ExpectationSet {
            source,
            expectations,
        })
    }

    /// The distinct figures referenced, in first-appearance order.
    pub fn figures(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.expectations {
            if !out.contains(&e.figure.as_str()) {
                out.push(&e.figure);
            }
        }
        out
    }
}

/// Verdict of one evaluated expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The check held.
    Pass,
    /// The check failed (gates iff the expectation is shape-class).
    Fail,
    /// A metric could not be computed (unknown benchmark, missing sweep
    /// data). Treated as failing for gating purposes.
    Error,
}

impl Verdict {
    /// Stable label used in the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Error => "error",
        }
    }
}

/// One evaluated expectation in a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The expectation's id.
    pub id: String,
    /// The expectation's figure.
    pub figure: String,
    /// The expectation's severity class.
    pub severity: Severity,
    /// The outcome.
    pub verdict: Verdict,
    /// `(metric description, observed value)` pairs in evaluation order;
    /// empty when the verdict is [`Verdict::Error`].
    pub observed: Vec<(String, f64)>,
    /// Human-readable explanation (the predicate with numbers filled in,
    /// or the evaluation error).
    pub detail: String,
}

/// A complete `mcgpu-figcheck-v1` evaluation report.
///
/// Reports are canonical: byte equality of
/// [`Report::to_canonical_json`] is exactly equality of the evaluation,
/// so two runs of the harness over the same simulator must produce
/// byte-identical reports regardless of thread count or journal resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Provenance copied from the expectations file.
    pub source: String,
    /// Label of the sweep volume the metrics were computed at (e.g.
    /// `"standard"` or `"quick"`), so a report is never compared against
    /// one computed from a different-size sweep.
    pub volume: String,
    /// One finding per expectation, in expectations-file order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Number of findings with the given verdict and severity.
    pub fn count(&self, severity: Severity, verdict: Verdict) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity && f.verdict == verdict)
            .count()
    }

    /// Whether any shape-class expectation failed or errored — the
    /// condition under which `figcheck` exits nonzero and CI gates.
    pub fn gates(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == Severity::Shape && f.verdict != Verdict::Pass)
    }

    /// Serialize to canonical `mcgpu-figcheck-v1` JSON: fixed key order,
    /// 2-space indentation, floats in shortest-roundtrip form. Two
    /// evaluations serialize identically iff they observed bit-identical
    /// values and verdicts.
    pub fn to_canonical_json(&self) -> String {
        let mut w = CanonicalWriter::new();
        w.open();
        w.str_field("schema", REPORT_SCHEMA);
        w.str_field("source", &self.source);
        w.str_field("volume", &self.volume);
        w.object_field("summary", |w| {
            w.u64_field("expectations", self.findings.len() as u64);
            for sev in [Severity::Shape, Severity::Magnitude] {
                w.object_field(sev.label(), |w| {
                    w.u64_field("pass", self.count(sev, Verdict::Pass) as u64);
                    w.u64_field("fail", self.count(sev, Verdict::Fail) as u64);
                    w.u64_field("error", self.count(sev, Verdict::Error) as u64);
                });
            }
            w.bool_field("gates", self.gates());
        });
        w.array_field("findings", self.findings.len(), |w, i| {
            let f = &self.findings[i];
            w.open();
            w.str_field("id", &f.id);
            w.str_field("figure", &f.figure);
            w.str_field("severity", f.severity.label());
            w.str_field("verdict", f.verdict.label());
            w.array_field("observed", f.observed.len(), |w, j| {
                let (desc, value) = &f.observed[j];
                w.open();
                w.str_field("metric", desc);
                w.f64_field("value", *value);
                w.close();
            });
            w.str_field("detail", &f.detail);
            w.close();
        });
        w.close();
        w.finish()
    }
}

fn topology_field(v: &JsonValue) -> Result<TopologyKind, ParseError> {
    let label = str_field(v, "topology")?;
    TopologyKind::from_label(label)
        .ok_or_else(|| ParseError::new(format!("unknown topology `{label}`")))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, ParseError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ParseError::new(format!("missing string field `{key}`")))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, ParseError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ParseError::new(format!("missing number field `{key}`")))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, ParseError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| ParseError::new(format!("missing integer field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ExpectationSet {
        ExpectationSet {
            source: "SAC ISCA 2023".to_string(),
            expectations: vec![
                Expectation {
                    id: "fig08/RN/sm-beats-mem".to_string(),
                    figure: "fig08".to_string(),
                    severity: Severity::Shape,
                    check: Check::Ordering {
                        left: Metric::Speedup {
                            bench: "RN".to_string(),
                            org: LlcOrgKind::SmSide,
                        },
                        right: Metric::Speedup {
                            bench: "RN".to_string(),
                            org: LlcOrgKind::MemorySide,
                        },
                        min_ratio: 1.0,
                    },
                    note: "Fig. 8: SM-side beats memory-side on RN".to_string(),
                },
                Expectation {
                    id: "fig11/RN/crossover".to_string(),
                    figure: "fig11".to_string(),
                    severity: Severity::Magnitude,
                    check: Check::Crossover {
                        below: Metric::WorkingSetMb {
                            bench: "RN".to_string(),
                            window: 1_000,
                        },
                        above: Metric::WorkingSetMb {
                            bench: "RN".to_string(),
                            window: 100_000,
                        },
                        threshold: 16.0,
                    },
                    note: "Fig. 11: working set crosses LLC capacity".to_string(),
                },
            ],
        }
    }

    const SAMPLE_SET: &str = r#"{
      "schema": "mcgpu-expect-v1",
      "source": "SAC ISCA 2023",
      "expectations": [
        {
          "id": "fig08/RN/sm-beats-mem",
          "figure": "fig08",
          "severity": "shape",
          "check": {
            "kind": "ordering",
            "left": {"metric": "speedup", "bench": "RN", "org": "SM-side"},
            "right": {"metric": "speedup", "bench": "RN", "org": "memory-side"},
            "min_ratio": 1.0
          },
          "note": "Fig. 8: SM-side beats memory-side on RN"
        },
        {
          "id": "fig11/RN/crossover",
          "figure": "fig11",
          "severity": "magnitude",
          "check": {
            "kind": "crossover",
            "below": {"metric": "working_set_mb", "bench": "RN", "window": 1000},
            "above": {"metric": "working_set_mb", "bench": "RN", "window": 100000},
            "threshold": 16.0
          },
          "note": "Fig. 11: working set crosses LLC capacity"
        }
      ]
    }"#;

    #[test]
    fn expectation_set_parses_every_field() {
        let set = ExpectationSet::parse(SAMPLE_SET).unwrap();
        assert_eq!(set, sample_set());
        assert_eq!(set.figures(), vec!["fig08", "fig11"]);
    }

    const SCALEOUT_SET: &str = r#"{
      "schema": "mcgpu-expect-v1",
      "source": "scale-out",
      "expectations": [
        {
          "id": "fig15/ring/fabric-grows-4-to-8",
          "figure": "fig15",
          "severity": "shape",
          "check": {
            "kind": "ordering",
            "left": {"metric": "fabric_bytes", "topology": "ring", "chips": 8},
            "right": {"metric": "fabric_bytes", "topology": "ring", "chips": 4},
            "min_ratio": 1.0
          },
          "note": "fabric traffic grows with chip count"
        },
        {
          "id": "fig15/mesh2d/sac-band",
          "figure": "fig15",
          "severity": "magnitude",
          "check": {
            "kind": "band",
            "value": {"metric": "scale_speedup", "topology": "mesh2d", "chips": 16, "org": "SAC"},
            "lo": 0.9,
            "hi": 3.0
          },
          "note": ""
        }
      ]
    }"#;

    #[test]
    fn scaleout_metrics_parse_and_reject_unknown_topologies() {
        let set = ExpectationSet {
            source: "scale-out".to_string(),
            expectations: vec![
                Expectation {
                    id: "fig15/ring/fabric-grows-4-to-8".to_string(),
                    figure: "fig15".to_string(),
                    severity: Severity::Shape,
                    check: Check::Ordering {
                        left: Metric::FabricBytes {
                            topology: TopologyKind::Ring,
                            chips: 8,
                        },
                        right: Metric::FabricBytes {
                            topology: TopologyKind::Ring,
                            chips: 4,
                        },
                        min_ratio: 1.0,
                    },
                    note: "fabric traffic grows with chip count".to_string(),
                },
                Expectation {
                    id: "fig15/mesh2d/sac-band".to_string(),
                    figure: "fig15".to_string(),
                    severity: Severity::Magnitude,
                    check: Check::Band {
                        metric: Metric::ScaleSpeedup {
                            topology: TopologyKind::Mesh2D,
                            chips: 16,
                            org: LlcOrgKind::Sac,
                        },
                        lo: 0.9,
                        hi: 3.0,
                    },
                    note: "".to_string(),
                },
            ],
        };
        assert_eq!(ExpectationSet::parse(SCALEOUT_SET).unwrap(), set);
        // An unknown topology label must be rejected at parse time.
        assert!(ExpectationSet::parse(&SCALEOUT_SET.replace("\"ring\"", "\"torus\"")).is_err());
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(ExpectationSet::parse("{}").is_err());
        assert!(
            ExpectationSet::parse(r#"{"schema": "nope", "source": "x", "expectations": []}"#)
                .is_err()
        );
        // Unknown org.
        let bad = r#"{"schema": "mcgpu-expect-v1", "source": "x", "expectations": [
            {"id": "a", "figure": "f", "severity": "shape", "note": "",
             "check": {"kind": "band", "lo": 0.0, "hi": 1.0,
                       "value": {"metric": "speedup", "bench": "RN", "org": "bogus"}}}]}"#;
        assert!(ExpectationSet::parse(bad).is_err());
        // Inverted band.
        let inverted = r#"{"schema": "mcgpu-expect-v1", "source": "x", "expectations": [
            {"id": "a", "figure": "f", "severity": "shape", "note": "",
             "check": {"kind": "band", "lo": 2.0, "hi": 1.0,
                       "value": {"metric": "speedup", "bench": "RN", "org": "SAC"}}}]}"#;
        assert!(ExpectationSet::parse(inverted).is_err());
        // Duplicate ids.
        let dup = r#"{"schema": "mcgpu-expect-v1", "source": "x", "expectations": [
            {"id": "a", "figure": "f", "severity": "shape", "note": "",
             "check": {"kind": "band", "lo": 0.0, "hi": 1.0,
                       "value": {"metric": "speedup", "bench": "RN", "org": "SAC"}}},
            {"id": "a", "figure": "f", "severity": "magnitude", "note": "",
             "check": {"kind": "band", "lo": 0.0, "hi": 1.0,
                       "value": {"metric": "speedup", "bench": "RN", "org": "SAC"}}}]}"#;
        assert!(ExpectationSet::parse(dup).is_err());
    }

    #[test]
    fn check_edges_are_inclusive() {
        let m = Metric::Speedup {
            bench: "RN".to_string(),
            org: LlcOrgKind::Sac,
        };
        let band = Check::Band {
            metric: m.clone(),
            lo: 1.0,
            hi: 2.0,
        };
        assert!(band.apply(&[1.0]));
        assert!(band.apply(&[2.0]));
        assert!(!band.apply(&[0.9999999999]));
        assert!(!band.apply(&[2.0000000001]));
        assert!(!band.apply(&[f64::NAN]));

        let cross = Check::Crossover {
            below: m.clone(),
            above: m.clone(),
            threshold: 16.0,
        };
        assert!(cross.apply(&[16.0, 16.0]));
        assert!(cross.apply(&[10.0, 20.0]));
        assert!(!cross.apply(&[17.0, 20.0]));
        assert!(!cross.apply(&[10.0, 15.0]));
        assert!(!cross.apply(&[f64::NAN, 20.0]));

        let ord = Check::Ordering {
            left: m.clone(),
            right: m.clone(),
            min_ratio: 1.5,
        };
        assert!(ord.apply(&[3.0, 2.0]));
        assert!(!ord.apply(&[2.9, 2.0]));
        assert!(!ord.apply(&[f64::NAN, 2.0]));

        let rel = Check::RelErr {
            metric: m,
            reference: 10.0,
            max_rel: 0.25,
        };
        assert!(rel.apply(&[12.5]));
        assert!(rel.apply(&[7.5]));
        assert!(!rel.apply(&[12.6]));
        assert!(!rel.apply(&[f64::NAN]));
    }

    #[test]
    fn report_json_holds_every_finding_and_gates_on_shape_only() {
        let mut report = Report {
            source: "SAC ISCA 2023".to_string(),
            volume: "quick".to_string(),
            findings: vec![
                Finding {
                    id: "a".to_string(),
                    figure: "fig08".to_string(),
                    severity: Severity::Magnitude,
                    verdict: Verdict::Fail,
                    observed: vec![("speedup(RN, SAC)".to_string(), 1.2345678901234567)],
                    detail: "1.23 outside [2, 3]".to_string(),
                },
                Finding {
                    id: "b".to_string(),
                    figure: "fig09".to_string(),
                    severity: Severity::Shape,
                    verdict: Verdict::Pass,
                    observed: vec![],
                    detail: "ok".to_string(),
                },
            ],
        };
        assert!(!report.gates(), "magnitude failures never gate");
        let v = parse(&report.to_canonical_json()).unwrap();
        assert_eq!(str_field(&v, "schema").unwrap(), REPORT_SCHEMA);
        assert_eq!(str_field(&v, "source").unwrap(), "SAC ISCA 2023");
        assert_eq!(str_field(&v, "volume").unwrap(), "quick");
        let summary = v.get("summary").unwrap();
        assert_eq!(u64_field(summary, "expectations").unwrap(), 2);
        assert_eq!(
            u64_field(summary.get("magnitude").unwrap(), "fail").unwrap(),
            1
        );
        assert_eq!(u64_field(summary.get("shape").unwrap(), "pass").unwrap(), 1);
        assert_eq!(
            summary.get("gates").and_then(JsonValue::as_bool),
            Some(false)
        );
        let findings = v.get("findings").and_then(JsonValue::as_array).unwrap();
        let field = |i: usize, key: &str| str_field(&findings[i], key).unwrap().to_string();
        assert_eq!(
            [
                field(0, "id"),
                field(0, "figure"),
                field(0, "severity"),
                field(0, "verdict")
            ],
            ["a", "fig08", "magnitude", "fail"]
        );
        assert_eq!(field(0, "detail"), "1.23 outside [2, 3]");
        assert_eq!(field(1, "verdict"), "pass");
        let observed = findings[0]
            .get("observed")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            str_field(&observed[0], "metric").unwrap(),
            "speedup(RN, SAC)"
        );
        // Shortest-roundtrip floats: the value reads back bit for bit.
        assert_eq!(
            f64_field(&observed[0], "value").unwrap().to_bits(),
            1.2345678901234567f64.to_bits()
        );
        assert_eq!(
            findings[1]
                .get("observed")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(0)
        );

        report.findings[1].verdict = Verdict::Error;
        assert!(report.gates(), "shape errors gate");
        report.findings[1].verdict = Verdict::Fail;
        assert!(report.gates(), "shape failures gate");
        assert_eq!(report.count(Severity::Shape, Verdict::Fail), 1);
        assert_eq!(report.count(Severity::Magnitude, Verdict::Fail), 1);
    }
}
