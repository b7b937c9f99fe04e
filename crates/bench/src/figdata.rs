//! Shared structured-stats layer for the figure/table binaries.
//!
//! Every figure binary used to interleave sweep calls with ad-hoc
//! `println!` formatting, which left the numbers a figure printed and the
//! numbers a regression check would score as two separate code paths.
//! This module splits each figure into three steps that cannot disagree:
//!
//! 1. **compute/collect** — build a plain-data struct (`Fig08Data`,
//!    `Table4Data`, …) from sweep results,
//! 2. **render** — format that struct into exactly the text the binary
//!    has always printed (byte-identical to the pre-refactor output), and
//! 3. **JSON** — serialize the same struct to a canonical
//!    `mcgpu-figdata-v1` document for machine consumers.
//!
//! Binaries call [`emit`], which prints the rendered text and honors a
//! `--json PATH` flag; the `figcheck` harness consumes the same structs
//! through [`crate::figcheck::Metrics`], so a figure and its expectations
//! always read one set of numbers.

use crate::{
    exit_on_quarantine, group_speedup, harmonic_mean, run_profiles, sweep, BenchRows, SweepOptions,
};
use mcgpu_trace::profiles::Preference;
use mcgpu_trace::{analysis, profiles, TraceParams};
use mcgpu_types::json::CanonicalWriter;
use mcgpu_types::{
    CoherenceKind, LlcOrgKind, MachineConfig, MemoryInterface, ResponseOrigin, TopologyKind,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Schema identifier of the structured figure-data documents.
pub const FIGDATA_SCHEMA: &str = "mcgpu-figdata-v1";

/// A figure's structured data: renderable to the binary's exact stdout
/// and serializable to a canonical JSON document.
pub trait FigData {
    /// Stable figure name (`"fig08"`, `"table04"`, …).
    fn figure(&self) -> &'static str;
    /// The exact text the figure binary prints.
    fn render(&self) -> String;
    /// Figure-specific members of the JSON document.
    fn write_fields(&self, w: &mut CanonicalWriter);
    /// The complete canonical `mcgpu-figdata-v1` document.
    fn to_canonical_json(&self) -> String {
        let mut w = CanonicalWriter::new();
        w.open();
        w.str_field("schema", FIGDATA_SCHEMA);
        w.str_field("figure", self.figure());
        self.write_fields(&mut w);
        w.close();
        w.finish()
    }
}

/// Print a figure's rendered text to stdout and, when `--json PATH` was
/// passed, write its canonical JSON document to `PATH`.
pub fn emit(data: &impl FigData) {
    print!("{}", data.render());
    if let Some(path) = crate::arg_value::<PathBuf>("--json") {
        std::fs::write(&path, data.to_canonical_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("  wrote {}", path.display());
    }
}

fn org_labels() -> Vec<&'static str> {
    LlcOrgKind::ALL.iter().map(|o| o.label()).collect()
}

fn sac_mode_string(stats: &mcgpu_sim::RunStats) -> String {
    stats
        .sac_history
        .iter()
        .map(|k| {
            if k.mode == sac::LlcMode::SmSide {
                'S'
            } else {
                'M'
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig01

/// One organization's row of a Fig. 1 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig01Row {
    /// Organization label.
    pub org: String,
    /// SM-side-preferred group value.
    pub sp: f64,
    /// Memory-side-preferred group value.
    pub mp: f64,
    /// All-benchmark value (only the performance panel reports it).
    pub all: Option<f64>,
}

/// Fig. 1: performance, LLC miss rate and effective LLC bandwidth per
/// organization, grouped into SP and MP benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig01Data {
    /// Panel (a): harmonic-mean speedup vs memory-side.
    pub performance: Vec<Fig01Row>,
    /// Panel (b): arithmetic-mean LLC miss rate.
    pub miss_rate: Vec<Fig01Row>,
    /// Panel (c): harmonic-mean normalized effective LLC bandwidth.
    pub bandwidth: Vec<Fig01Row>,
}

impl Fig01Data {
    /// Build from full-suite rows (all five organizations).
    pub fn compute(rows: &[BenchRows]) -> Fig01Data {
        let group_metric = |org, pref, f: &dyn Fn(&mcgpu_sim::RunStats) -> f64| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.profile.preference == pref)
                .map(|r| f(r.stats(org)))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let norm_bw = |org, pref| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.profile.preference == pref)
                .map(|r| {
                    r.stats(org).effective_llc_bandwidth()
                        / r.stats(LlcOrgKind::MemorySide).effective_llc_bandwidth()
                })
                .collect();
            harmonic_mean(&v)
        };
        Fig01Data {
            performance: LlcOrgKind::ALL
                .iter()
                .map(|&org| Fig01Row {
                    org: org.label().to_string(),
                    sp: group_speedup(rows, org, Some(Preference::SmSide)),
                    mp: group_speedup(rows, org, Some(Preference::MemorySide)),
                    all: Some(group_speedup(rows, org, None)),
                })
                .collect(),
            miss_rate: LlcOrgKind::ALL
                .iter()
                .map(|&org| Fig01Row {
                    org: org.label().to_string(),
                    sp: group_metric(org, Preference::SmSide, &|s| s.llc_miss_rate()),
                    mp: group_metric(org, Preference::MemorySide, &|s| s.llc_miss_rate()),
                    all: None,
                })
                .collect(),
            bandwidth: LlcOrgKind::ALL
                .iter()
                .map(|&org| Fig01Row {
                    org: org.label().to_string(),
                    sp: norm_bw(org, Preference::SmSide),
                    mp: norm_bw(org, Preference::MemorySide),
                    all: None,
                })
                .collect(),
        }
    }
}

impl FigData for Fig01Data {
    fn figure(&self) -> &'static str {
        "fig01"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "(a) performance normalized to memory-side (harmonic mean):"
        );
        let _ = writeln!(
            s,
            "{:14} {:>6} {:>6} {:>6}",
            "organization", "SP", "MP", "all"
        );
        for r in &self.performance {
            let _ = writeln!(
                s,
                "{:14} {:>6.2} {:>6.2} {:>6.2}",
                r.org,
                r.sp,
                r.mp,
                r.all.expect("performance rows carry the all-bench mean")
            );
        }
        let _ = writeln!(s, "\n(b) LLC miss rate (arithmetic mean):");
        let _ = writeln!(s, "{:14} {:>6} {:>6}", "organization", "SP", "MP");
        for r in &self.miss_rate {
            let _ = writeln!(s, "{:14} {:>6.2} {:>6.2}", r.org, r.sp, r.mp);
        }
        let _ = writeln!(
            s,
            "\n(c) effective LLC bandwidth, responses/cycle normalized to memory-side:"
        );
        let _ = writeln!(s, "{:14} {:>6} {:>6}", "organization", "SP", "MP");
        for r in &self.bandwidth {
            let _ = writeln!(s, "{:14} {:>6.2} {:>6.2}", r.org, r.sp, r.mp);
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        let panel = |w: &mut CanonicalWriter, key: &str, rows: &[Fig01Row]| {
            w.array_field(key, rows.len(), |w, i| {
                let r = &rows[i];
                w.open();
                w.str_field("org", &r.org);
                w.f64_field("sp", r.sp);
                w.f64_field("mp", r.mp);
                if let Some(all) = r.all {
                    w.f64_field("all", all);
                }
                w.close();
            });
        };
        panel(w, "performance", &self.performance);
        panel(w, "llc_miss_rate", &self.miss_rate);
        panel(w, "bandwidth", &self.bandwidth);
    }
}

// ---------------------------------------------------------------- fig08

/// One benchmark's row of Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Row {
    /// Benchmark name.
    pub bench: String,
    /// Preference-group label (`"SP"` / `"MP"`).
    pub pref: String,
    /// Speedup over memory-side, one per [`LlcOrgKind::ALL`] entry.
    pub speedups: Vec<f64>,
    /// SAC's per-kernel mode string (`S` = SM-side, `M` = memory-side).
    pub sac_modes: String,
}

/// One harmonic-mean row of Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Hmean {
    /// Group label (`"SP"` / `"MP"` / `"all"`).
    pub group: String,
    /// Harmonic-mean speedup, one per [`LlcOrgKind::ALL`] entry.
    pub speedups: Vec<f64>,
}

/// Fig. 8: per-benchmark speedup of each organization vs memory-side.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Data {
    /// One row per benchmark, in suite order.
    pub rows: Vec<Fig08Row>,
    /// Harmonic means for SP, MP and all benchmarks (in that order).
    pub hmeans: Vec<Fig08Hmean>,
}

impl Fig08Data {
    /// Build from full-suite rows (all five organizations).
    pub fn compute(rows: &[BenchRows]) -> Fig08Data {
        Fig08Data {
            rows: rows
                .iter()
                .map(|r| Fig08Row {
                    bench: r.profile.name.to_string(),
                    pref: r.profile.preference.label().to_string(),
                    speedups: LlcOrgKind::ALL.iter().map(|&o| r.speedup(o)).collect(),
                    sac_modes: sac_mode_string(r.stats(LlcOrgKind::Sac)),
                })
                .collect(),
            hmeans: [
                ("SP", Some(Preference::SmSide)),
                ("MP", Some(Preference::MemorySide)),
                ("all", None),
            ]
            .into_iter()
            .map(|(label, pref)| Fig08Hmean {
                group: label.to_string(),
                speedups: LlcOrgKind::ALL
                    .iter()
                    .map(|&o| group_speedup(rows, o, pref))
                    .collect(),
            })
            .collect(),
        }
    }

    /// Harmonic-mean speedup of `org` over the `group` label.
    pub fn hmean(&self, group: &str, org: LlcOrgKind) -> Option<f64> {
        let idx = LlcOrgKind::ALL.iter().position(|&o| o == org)?;
        self.hmeans
            .iter()
            .find(|h| h.group == group)
            .map(|h| h.speedups[idx])
    }
}

impl FigData for Fig08Data {
    fn figure(&self) -> &'static str {
        "fig08"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:6} {:>4} | {:>8} {:>8} {:>8} {:>8} {:>8} | SAC modes",
            "bench", "pref", "mem-side", "SM-side", "static", "dynamic", "SAC"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:6} {:>4} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} | [{}]",
                r.bench,
                r.pref,
                r.speedups[0],
                r.speedups[1],
                r.speedups[2],
                r.speedups[3],
                r.speedups[4],
                r.sac_modes
            );
        }
        for h in &self.hmeans {
            let _ = write!(s, "hmean {:>4} |", h.group);
            for v in &h.speedups {
                let _ = write!(s, " {v:>8.2}");
            }
            let _ = writeln!(s);
        }
        let sac_all = self
            .hmean("all", LlcOrgKind::Sac)
            .expect("all-group hmean is always computed");
        let _ = writeln!(
            s,
            "\nSAC vs memory-side: {:+.0}%   (paper: +76%)",
            (sac_all - 1.0) * 100.0
        );
        for (org, paper) in [
            (LlcOrgKind::SmSide, "+12%"),
            (LlcOrgKind::StaticHalf, "+31%"),
            (LlcOrgKind::Dynamic, "+18%"),
        ] {
            let other = self
                .hmean("all", org)
                .expect("all-group hmean is always computed");
            let _ = writeln!(
                s,
                "SAC vs {:11}: {:+.0}%   (paper: {paper})",
                org.label(),
                (sac_all / other - 1.0) * 100.0
            );
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.str_array_field("orgs", &org_labels());
        w.array_field("rows", self.rows.len(), |w, i| {
            let r = &self.rows[i];
            w.open();
            w.str_field("bench", &r.bench);
            w.str_field("pref", &r.pref);
            w.f64_array_field("speedups", &r.speedups);
            w.str_field("sac_modes", &r.sac_modes);
            w.close();
        });
        w.array_field("hmeans", self.hmeans.len(), |w, i| {
            let h = &self.hmeans[i];
            w.open();
            w.str_field("group", &h.group);
            w.f64_array_field("speedups", &h.speedups);
            w.close();
        });
    }
}

// ---------------------------------------------------------------- fig09

/// One benchmark's row of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Row {
    /// Benchmark name.
    pub bench: String,
    /// Preference-group label.
    pub pref: String,
    /// Fraction of resident LLC lines holding local data, one per
    /// [`LlcOrgKind::ALL`] entry.
    pub local_fraction: Vec<f64>,
}

/// Fig. 9: local vs remote composition of the LLC per organization.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Data {
    /// One row per benchmark, in suite order.
    pub rows: Vec<Fig09Row>,
}

impl Fig09Data {
    /// Build from full-suite rows (all five organizations).
    pub fn compute(rows: &[BenchRows]) -> Fig09Data {
        Fig09Data {
            rows: rows
                .iter()
                .map(|r| Fig09Row {
                    bench: r.profile.name.to_string(),
                    pref: r.profile.preference.label().to_string(),
                    local_fraction: LlcOrgKind::ALL
                        .iter()
                        .map(|&o| r.stats(o).llc_local_fraction)
                        .collect(),
                })
                .collect(),
        }
    }
}

impl FigData for Fig09Data {
    fn figure(&self) -> &'static str {
        "fig09"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fraction of LLC caching LOCAL data (remainder = remote data):"
        );
        let _ = write!(s, "{:6} {:>4}", "bench", "pref");
        for org in LlcOrgKind::ALL {
            let _ = write!(s, " {:>11}", org.label());
        }
        let _ = writeln!(s);
        for r in &self.rows {
            let _ = write!(s, "{:6} {:>4}", r.bench, r.pref);
            for v in &r.local_fraction {
                let _ = write!(s, " {v:>11.2}");
            }
            let _ = writeln!(s);
        }
        let _ = writeln!(
            s,
            "\n(memory-side is 1.00 by construction; the static LLC pins a 50/50 way"
        );
        let _ = writeln!(
            s,
            " split; SAC caches only local data when it selects memory-side.)"
        );
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.str_array_field("orgs", &org_labels());
        w.array_field("rows", self.rows.len(), |w, i| {
            let r = &self.rows[i];
            w.open();
            w.str_field("bench", &r.bench);
            w.str_field("pref", &r.pref);
            w.f64_array_field("local_fraction", &r.local_fraction);
            w.close();
        });
    }
}

// ---------------------------------------------------------------- fig10

/// One organization's bandwidth row for one benchmark in Fig. 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10OrgRow {
    /// Organization label.
    pub org: String,
    /// Responses/cycle by [`ResponseOrigin::ALL`] origin, normalized to
    /// the benchmark's memory-side total.
    pub rates: Vec<f64>,
    /// Total responses/cycle, normalized likewise.
    pub total: f64,
}

/// One benchmark's block of Fig. 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Bench {
    /// Benchmark name.
    pub bench: String,
    /// Preference-group label.
    pub pref: String,
    /// One row per [`LlcOrgKind::ALL`] organization.
    pub orgs: Vec<Fig10OrgRow>,
}

/// Fig. 10: effective LLC bandwidth broken down by response origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Data {
    /// One block per benchmark, in suite order.
    pub benches: Vec<Fig10Bench>,
}

impl Fig10Data {
    /// Build from full-suite rows (all five organizations).
    pub fn compute(rows: &[BenchRows]) -> Fig10Data {
        Fig10Data {
            benches: rows
                .iter()
                .map(|r| {
                    let base = r.stats(LlcOrgKind::MemorySide).effective_llc_bandwidth();
                    Fig10Bench {
                        bench: r.profile.name.to_string(),
                        pref: r.profile.preference.label().to_string(),
                        orgs: LlcOrgKind::ALL
                            .iter()
                            .map(|&org| {
                                let s = r.stats(org);
                                Fig10OrgRow {
                                    org: org.label().to_string(),
                                    rates: ResponseOrigin::ALL
                                        .iter()
                                        .map(|&o| s.response_rate(o) / base)
                                        .collect(),
                                    total: s.effective_llc_bandwidth() / base,
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

impl FigData for Fig10Data {
    fn figure(&self) -> &'static str {
        "fig10"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "per-benchmark responses/cycle by origin (normalized to the memory-side total):"
        );
        for b in &self.benches {
            let _ = writeln!(s, "{} ({}):", b.bench, b.pref);
            let _ = writeln!(
                s,
                "  {:12} {:>10} {:>10} {:>10} {:>10} {:>8}",
                "org", "local LLC", "remote LLC", "local mem", "remote mem", "total"
            );
            for row in &b.orgs {
                let _ = write!(s, "  {:12}", row.org);
                for v in &row.rates {
                    let _ = write!(s, " {v:>10.2}");
                }
                let _ = writeln!(s, " {:>8.2}", row.total);
            }
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        let origin_labels: Vec<&str> = ResponseOrigin::ALL.iter().map(|o| o.label()).collect();
        w.str_array_field("origins", &origin_labels);
        w.array_field("benches", self.benches.len(), |w, i| {
            let b = &self.benches[i];
            w.open();
            w.str_field("bench", &b.bench);
            w.str_field("pref", &b.pref);
            w.array_field("orgs", b.orgs.len(), |w, j| {
                let row = &b.orgs[j];
                w.open();
                w.str_field("org", &row.org);
                w.f64_array_field("rates", &row.rates);
                w.f64_field("total", row.total);
                w.close();
            });
            w.close();
        });
    }
}

// ---------------------------------------------------------------- fig11

/// The cycle windows Fig. 11 samples the working set at.
pub const FIG11_WINDOWS_CYCLES: [usize; 3] = [1_000, 10_000, 100_000];

/// One `(window, sharing breakdown)` sample of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Point {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Truly-shared MB (paper scale).
    pub true_mb: f64,
    /// Falsely-shared MB (paper scale).
    pub false_mb: f64,
    /// Non-shared MB (paper scale).
    pub non_mb: f64,
}

impl Fig11Point {
    /// All sharing classes summed.
    pub fn total_mb(&self) -> f64 {
        self.true_mb + self.false_mb + self.non_mb
    }
}

/// One benchmark's working-set curve of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Benchmark name.
    pub bench: String,
    /// Preference-group label.
    pub pref: String,
    /// One point per [`FIG11_WINDOWS_CYCLES`] window.
    pub points: Vec<Fig11Point>,
}

/// Fig. 11: per-time-window working-set size under the SM-side
/// organization, split by sharing class.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Data {
    /// One row per benchmark, in suite order.
    pub rows: Vec<Fig11Row>,
}

impl Fig11Data {
    /// Build from rows whose run set includes the SM-side organization.
    /// The paper's x-axis is cycles; windows are converted to access
    /// counts via each benchmark's measured SM-side issue rate, and the
    /// per-benchmark curve analyses fan out over the sweep pool.
    pub fn compute(cfg: &MachineConfig, rows: &[BenchRows]) -> Fig11Data {
        let curves = sweep::map(rows.iter().collect(), |r| {
            let rate = r.stats(LlcOrgKind::SmSide).perf();
            let windows_accesses: Vec<usize> = FIG11_WINDOWS_CYCLES
                .iter()
                .map(|&w| ((w as f64 * rate) as usize).max(100))
                .collect();
            analysis::working_set_curve(cfg, &r.workload, &windows_accesses)
        });
        Fig11Data {
            rows: rows
                .iter()
                .zip(curves)
                .map(|(r, curve)| Fig11Row {
                    bench: r.profile.name.to_string(),
                    pref: r.profile.preference.label().to_string(),
                    points: curve
                        .iter()
                        .enumerate()
                        .map(|(i, (_, ws))| {
                            let ws = ws.to_paper_scale(cfg);
                            Fig11Point {
                                window_cycles: FIG11_WINDOWS_CYCLES[i] as u64,
                                true_mb: ws.true_mb,
                                false_mb: ws.false_mb,
                                non_mb: ws.non_mb,
                            }
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

impl FigData for Fig11Data {
    fn figure(&self) -> &'static str {
        "fig11"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "mean per-window working set in paper-equivalent MB (SM-side organization);"
        );
        let _ = writeln!(s, "machine total LLC at paper scale = 16 MB\n");
        let _ = writeln!(
            s,
            "{:6} {:>4} | {:>9} | {:>8} {:>8} {:>8} | {:>8}",
            "bench", "pref", "window", "true", "false", "non", "total"
        );
        for r in &self.rows {
            for (i, p) in r.points.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "{:6} {:>4} | {:>7}cy | {:>8.1} {:>8.1} {:>8.1} | {:>8.1}",
                    if i == 0 { r.bench.as_str() } else { "" },
                    if i == 0 { r.pref.as_str() } else { "" },
                    p.window_cycles,
                    p.true_mb,
                    p.false_mb,
                    p.non_mb,
                    p.total_mb()
                );
            }
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.array_field("rows", self.rows.len(), |w, i| {
            let r = &self.rows[i];
            w.open();
            w.str_field("bench", &r.bench);
            w.str_field("pref", &r.pref);
            w.array_field("points", r.points.len(), |w, j| {
                let p = &r.points[j];
                w.open();
                w.u64_field("window_cycles", p.window_cycles);
                w.f64_field("true_mb", p.true_mb);
                w.f64_field("false_mb", p.false_mb);
                w.f64_field("non_mb", p.non_mb);
                w.close();
            });
            w.close();
        });
    }
}

// ---------------------------------------------------------------- fig12

/// One kernel's row of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Kernel {
    /// Kernel launch index.
    pub index: u64,
    /// Alternating phase label (`"K1"` / `"K2"`).
    pub phase: String,
    /// SM-side per-kernel performance relative to memory-side.
    pub sm_side: f64,
    /// SAC per-kernel performance relative to memory-side.
    pub sac: f64,
    /// SAC's chosen mode for this kernel (`"-"` before the first
    /// decision).
    pub sac_mode: String,
}

/// Fig. 12: BFS's time-varying behaviour — per-kernel performance and
/// SAC's per-kernel organization choice.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Data {
    /// One row per kernel launch.
    pub kernels: Vec<Fig12Kernel>,
    /// Whole-application SM-side speedup vs memory-side.
    pub app_sm_side: f64,
    /// Whole-application SAC speedup vs memory-side.
    pub app_sac: f64,
}

impl Fig12Data {
    /// Build from a BFS row run under memory-side, SM-side and SAC.
    pub fn compute(rows: &BenchRows) -> Fig12Data {
        let mem = rows.stats(LlcOrgKind::MemorySide);
        let sm = rows.stats(LlcOrgKind::SmSide);
        let sac = rows.stats(LlcOrgKind::Sac);
        Fig12Data {
            kernels: (0..mem.kernels.len())
                .map(|i| {
                    let base = mem.kernels[i].perf();
                    Fig12Kernel {
                        index: i as u64,
                        phase: if i % 2 == 0 { "K1" } else { "K2" }.to_string(),
                        sm_side: sm.kernels[i].perf() / base,
                        sac: sac.kernels[i].perf() / base,
                        sac_mode: sac.kernels[i]
                            .sac_mode
                            .map(|m| m.label())
                            .unwrap_or("-")
                            .to_string(),
                    }
                })
                .collect(),
            app_sm_side: rows.speedup(LlcOrgKind::SmSide),
            app_sac: rows.speedup(LlcOrgKind::Sac),
        }
    }
}

impl FigData for Fig12Data {
    fn figure(&self) -> &'static str {
        "fig12"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "BFS per-kernel performance relative to memory-side:");
        let _ = writeln!(
            s,
            "{:>7} {:>10} {:>10} {:>10} {:>10}",
            "kernel", "phase", "SM-side", "SAC", "SAC mode"
        );
        for k in &self.kernels {
            let _ = writeln!(
                s,
                "{:>7} {:>10} {:>10.2} {:>10.2} {:>10}",
                k.index, k.phase, k.sm_side, k.sac, k.sac_mode
            );
        }
        let _ = writeln!(
            s,
            "\nwhole-application speedup vs memory-side: SM-side {:.2}x, SAC {:.2}x",
            self.app_sm_side, self.app_sac
        );
        let _ = writeln!(
            s,
            "(the paper's point: K1 prefers memory-side, K2 prefers SM-side, and SAC"
        );
        let _ = writeln!(
            s,
            " picks per kernel — beating the static choice of either organization.)"
        );
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.array_field("kernels", self.kernels.len(), |w, i| {
            let k = &self.kernels[i];
            w.open();
            w.u64_field("index", k.index);
            w.str_field("phase", &k.phase);
            w.f64_field("sm_side", k.sm_side);
            w.f64_field("sac", k.sac);
            w.str_field("sac_mode", &k.sac_mode);
            w.close();
        });
        w.object_field("application", |w| {
            w.f64_field("sm_side", self.app_sm_side);
            w.f64_field("sac", self.app_sac);
        });
    }
}

// ---------------------------------------------------------------- fig13

/// One `(input scale, speedups)` row of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Input scale factor relative to the Table 4 footprint.
    pub scale: f64,
    /// SM-side speedup vs memory-side at this scale.
    pub sm_side: f64,
    /// SAC speedup vs memory-side at this scale.
    pub sac: f64,
    /// SAC's per-kernel mode string.
    pub sac_modes: String,
}

/// One benchmark's scale sweep of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Bench {
    /// Benchmark name.
    pub bench: String,
    /// One row per swept input scale (largest first).
    pub rows: Vec<Fig13Row>,
}

/// One preference group of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Group {
    /// Group label (`"SM-side preferred"` / `"memory-side preferred"`).
    pub label: String,
    /// The group's benchmarks.
    pub benches: Vec<Fig13Bench>,
}

/// Fig. 13: input-set sensitivity over a representative benchmark subset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Data {
    /// SP group then MP group.
    pub groups: Vec<Fig13Group>,
}

impl Fig13Data {
    /// Generate, simulate and collect the full figure. Trace generation
    /// and every `(workload, organization)` run fan out over the sweep
    /// pool as isolated cells; a quarantined cell exits the process with
    /// the standard report (this is a binary-support path).
    pub fn collect(cfg: &MachineConfig, base: &TraceParams) -> Fig13Data {
        use crate::{collect_outcomes, Attempt, SimCell};
        use mcgpu_trace::{generate, Workload};
        use std::sync::Arc;

        const ORGS: [LlcOrgKind; 3] = [LlcOrgKind::MemorySide, LlcOrgKind::SmSide, LlcOrgKind::Sac];
        let sp = ["RN", "CFD"];
        let mp = ["SRAD", "GEMM"];
        let sp_scales: &[f64] = &[8.0, 2.0, 1.0, 0.5, 0.25];
        let mp_scales: &[f64] = &[4.0, 1.0, 0.25, 1.0 / 16.0, 1.0 / 32.0];

        let combos: Vec<(&str, f64)> = [(&sp[..], sp_scales), (&mp[..], mp_scales)]
            .iter()
            .flat_map(|(names, scales)| {
                names
                    .iter()
                    .flat_map(move |&n| scales.iter().map(move |&s| (n, s)))
            })
            .collect();
        let workloads: Vec<Arc<Workload>> = sweep::map(combos.clone(), |(name, scale)| {
            let p = profiles::by_name(name).expect("profile");
            let params = TraceParams {
                input_scale: scale,
                ..*base
            };
            Arc::new(generate(cfg, &p, &params))
        });
        let pairs: Vec<(usize, LlcOrgKind)> = (0..combos.len())
            .flat_map(|i| ORGS.iter().map(move |&org| (i, org)))
            .collect();
        let outcomes = sweep::map_isolated(pairs.clone(), |&(i, org), n| {
            SimCell::new(cfg, &workloads[i], org).attempt(Attempt::cycle(n))
        });
        let stats = exit_on_quarantine(collect_outcomes(outcomes, |k| {
            let (i, org) = pairs[k];
            let (name, scale) = combos[i];
            format!("{name}@x{scale}/{}", org.label())
        }));
        let row = |i: usize| &stats[i * ORGS.len()..(i + 1) * ORGS.len()];

        let mut groups = Vec::new();
        let mut idx = 0;
        for (names, label) in [
            (&sp[..], "SM-side preferred"),
            (&mp[..], "memory-side preferred"),
        ] {
            let mut benches = Vec::new();
            for _ in names {
                let bench = combos[idx].0.to_string();
                let mut rows = Vec::new();
                loop {
                    let (name, scale) = combos[idx];
                    let [mem, sm, sac] = row(idx) else {
                        unreachable!("one stats row per combo")
                    };
                    rows.push(Fig13Row {
                        scale,
                        sm_side: sm.speedup_over(mem),
                        sac: sac.speedup_over(mem),
                        sac_modes: sac_mode_string(sac),
                    });
                    idx += 1;
                    if idx == combos.len() || combos[idx].0 != name {
                        break;
                    }
                }
                benches.push(Fig13Bench { bench, rows });
            }
            groups.push(Fig13Group {
                label: label.to_string(),
                benches,
            });
        }
        Fig13Data { groups }
    }
}

impl FigData for Fig13Data {
    fn figure(&self) -> &'static str {
        "fig13"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        for g in &self.groups {
            let _ = writeln!(s, "== {} benchmarks ==", g.label);
            let _ = writeln!(
                s,
                "{:6} {:>8} | {:>8} {:>8} | SAC modes",
                "bench", "input", "SM-side", "SAC"
            );
            for b in &g.benches {
                for r in &b.rows {
                    let _ = writeln!(
                        s,
                        "{:6} {:>7}x | {:>8.2} {:>8.2} | [{}]",
                        b.bench, r.scale, r.sm_side, r.sac, r.sac_modes
                    );
                }
                let _ = writeln!(s);
            }
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.array_field("groups", self.groups.len(), |w, i| {
            let g = &self.groups[i];
            w.open();
            w.str_field("label", &g.label);
            w.array_field("benches", g.benches.len(), |w, j| {
                let b = &g.benches[j];
                w.open();
                w.str_field("bench", &b.bench);
                w.array_field("rows", b.rows.len(), |w, k| {
                    let r = &b.rows[k];
                    w.open();
                    w.f64_field("scale", r.scale);
                    w.f64_field("sm_side", r.sm_side);
                    w.f64_field("sac", r.sac);
                    w.str_field("sac_modes", &r.sac_modes);
                    w.close();
                });
                w.close();
            });
            w.close();
        });
    }
}

// ---------------------------------------------------------------- fig14

/// The benchmark subset Fig. 14 sweeps.
pub const FIG14_SUBSET: [&str; 6] = ["RN", "SN", "CFD", "SRAD", "LUD", "GEMM"];

/// One configuration row of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Configuration label (`*` marks the default).
    pub label: String,
    /// Harmonic-mean SM-side speedup over the subset.
    pub sm_side: f64,
    /// Harmonic-mean SAC speedup over the subset.
    pub sac: f64,
}

/// One design-space axis of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Section {
    /// Axis title as printed (`-- inter-chip bandwidth ... --`).
    pub title: String,
    /// One row per swept configuration.
    pub rows: Vec<Fig14Row>,
}

/// Fig. 14: SAC sensitivity across the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Data {
    /// One section per design-space axis, in figure order.
    pub sections: Vec<Fig14Section>,
}

impl Fig14Data {
    /// Run all 19 configuration sweeps and collect the figure. Each sweep
    /// fans its `(benchmark × organization)` cells out over the pool;
    /// quarantined cells exit the process with the standard report.
    pub fn collect(base: &MachineConfig, params: &TraceParams, opts: &SweepOptions) -> Fig14Data {
        let subset: Vec<_> = FIG14_SUBSET
            .iter()
            .map(|n| profiles::by_name(n).expect("profile"))
            .collect();
        let run = |label: &str, cfg: &MachineConfig| -> Fig14Row {
            let rows = exit_on_quarantine(run_profiles(
                cfg,
                &subset,
                params,
                &[LlcOrgKind::MemorySide, LlcOrgKind::SmSide, LlcOrgKind::Sac],
                opts,
            ));
            let sm: Vec<f64> = rows.iter().map(|r| r.speedup(LlcOrgKind::SmSide)).collect();
            let sac: Vec<f64> = rows.iter().map(|r| r.speedup(LlcOrgKind::Sac)).collect();
            Fig14Row {
                label: label.to_string(),
                sm_side: harmonic_mean(&sm),
                sac: harmonic_mean(&sac),
            }
        };

        let mut sections = Vec::new();

        let mut rows = Vec::new();
        for (label, factor) in [
            ("PCIe-class (0.5x)", 0.5),
            ("NVLink2-class (1x) *", 1.0),
            ("NVLink3-class (2x)", 2.0),
            ("MCM-class (4x)", 4.0),
            ("MCM-class (8x)", 8.0),
        ] {
            let mut c = base.clone();
            c.interchip_pair_gbs *= factor;
            rows.push(run(label, &c));
        }
        sections.push(Fig14Section {
            title: "-- inter-chip bandwidth (default marked *) --".to_string(),
            rows,
        });

        let mut rows = Vec::new();
        for (label, factor) in [("0.5x LLC", 0.5), ("1x LLC *", 1.0), ("2x LLC", 2.0)] {
            let mut c = base.clone();
            c.llc_bytes_per_chip = (c.llc_bytes_per_chip as f64 * factor) as u64;
            rows.push(run(label, &c));
        }
        sections.push(Fig14Section {
            title: "-- LLC capacity --".to_string(),
            rows,
        });

        let mut rows = Vec::new();
        for iface in [
            MemoryInterface::Gddr5,
            MemoryInterface::Gddr6,
            MemoryInterface::Hbm2,
        ] {
            let mut c = base.clone().with_memory_interface(iface);
            c.dram_channel_gbs /= base.scale.topology as f64;
            let star = if iface == MemoryInterface::Gddr6 {
                " *"
            } else {
                ""
            };
            rows.push(run(&format!("{}{}", iface.label(), star), &c));
        }
        sections.push(Fig14Section {
            title: "-- memory interface --".to_string(),
            rows,
        });

        let mut rows = Vec::new();
        for coh in [CoherenceKind::Software, CoherenceKind::Hardware] {
            let mut c = base.clone();
            c.coherence = coh;
            let star = if coh == CoherenceKind::Software {
                " *"
            } else {
                ""
            };
            rows.push(run(&format!("{:?}{}", coh, star), &c));
        }
        sections.push(Fig14Section {
            title: "-- coherence protocol --".to_string(),
            rows,
        });

        let mut rows = Vec::new();
        for chips in [2usize, 4] {
            let mut c = base.clone();
            let total_pair_bw = c.interchip_pair_gbs * c.chips as f64;
            c.chips = chips;
            c.interchip_pair_gbs = total_pair_bw / chips as f64;
            let star = if chips == 4 { " *" } else { "" };
            rows.push(run(&format!("{} GPUs{}", chips, star), &c));
        }
        sections.push(Fig14Section {
            title: "-- GPU count (total inter-chip bandwidth held constant) --".to_string(),
            rows,
        });

        let mut rows = Vec::new();
        for sectored in [false, true] {
            let mut c = base.clone();
            c.sectored = sectored;
            let star = if !sectored { " *" } else { "" };
            rows.push(run(&format!("sectored={}{}", sectored, star), &c));
        }
        sections.push(Fig14Section {
            title: "-- sectored cache --".to_string(),
            rows,
        });

        let mut rows = Vec::new();
        for ps in [2048u64, 4096, 8192] {
            let mut c = base.clone();
            c.page_size = ps;
            let star = if ps == 4096 { " *" } else { "" };
            rows.push(run(&format!("{} B pages{}", ps, star), &c));
        }
        sections.push(Fig14Section {
            title: "-- page size --".to_string(),
            rows,
        });

        Fig14Data { sections }
    }
}

impl FigData for Fig14Data {
    fn figure(&self) -> &'static str {
        "fig14"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "harmonic-mean speedup vs memory-side on {:?}:\n",
            FIG14_SUBSET
        );
        for (i, section) in self.sections.iter().enumerate() {
            if i > 0 {
                let _ = writeln!(s);
            }
            let _ = writeln!(s, "{}", section.title);
            for r in &section.rows {
                let _ = writeln!(
                    s,
                    "{:36} | SM-side {:>5.2} | SAC {:>5.2}",
                    r.label, r.sm_side, r.sac
                );
            }
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.str_array_field("subset", &FIG14_SUBSET);
        w.array_field("sections", self.sections.len(), |w, i| {
            let section = &self.sections[i];
            w.open();
            w.str_field("title", &section.title);
            w.array_field("rows", section.rows.len(), |w, j| {
                let r = &section.rows[j];
                w.open();
                w.str_field("label", &r.label);
                w.f64_field("sm_side", r.sm_side);
                w.f64_field("sac", r.sac);
                w.close();
            });
            w.close();
        });
    }
}

// ---------------------------------------------------------------- fig15

/// The benchmark subset the scale-out comparison sweeps (one SP + one MP).
pub const FIG15_SUBSET: [&str; 2] = ["SN", "SRAD"];

/// The chip counts the scale-out comparison sweeps per topology.
pub const FIG15_CHIPS: [usize; 3] = [4, 8, 16];

/// One chip-count sample of one topology's scale-out curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Point {
    /// Chip count.
    pub chips: u64,
    /// Harmonic-mean SM-side speedup over the subset.
    pub sm_side: f64,
    /// Harmonic-mean SAC speedup over the subset.
    pub sac: f64,
    /// Mean inter-chip fabric traffic of the memory-side baseline, in
    /// bytes per cycle, averaged over the subset.
    pub fabric_bytes_per_cycle: f64,
    /// The topology's bisection bandwidth at this chip count, in GB/s.
    pub bisection_gbs: f64,
}

/// One topology's scale-out curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Curve {
    /// Topology label (`"ring"` / `"full"` / `"mesh2d"`).
    pub topology: String,
    /// One point per [`FIG15_CHIPS`] entry.
    pub points: Vec<Fig15Point>,
}

/// Fig. 15 (scale-out, beyond the paper): the SAC-vs-baselines comparison
/// re-run at 4/8/16 chips on every inter-chip topology. Unlike the
/// Fig. 14 GPU-count axis (which holds *total* inter-chip bandwidth
/// constant), the scale-out sweep holds *per-link* bandwidth constant:
/// growing the machine adds links, and each topology's bisection grows
/// according to its structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Data {
    /// One curve per [`TopologyKind::ALL`] entry, in that order.
    pub curves: Vec<Fig15Curve>,
}

impl Fig15Data {
    /// Run the 9 `(topology × chip count)` sweeps and collect the figure.
    /// Each sweep fans its `(benchmark × organization)` cells out over
    /// the pool; quarantined cells exit the process with the standard
    /// report. With journaling, cells are keyed by the full machine
    /// config, so every `(topology, chips)` variant resumes independently.
    pub fn collect(base: &MachineConfig, params: &TraceParams, opts: &SweepOptions) -> Fig15Data {
        let subset: Vec<_> = FIG15_SUBSET
            .iter()
            .map(|n| profiles::by_name(n).expect("profile"))
            .collect();
        let curves = TopologyKind::ALL
            .iter()
            .map(|&kind| {
                let points = FIG15_CHIPS
                    .iter()
                    .map(|&chips| {
                        let mut c = base.clone();
                        c.topology = kind;
                        c.chips = chips;
                        let rows = exit_on_quarantine(run_profiles(
                            &c,
                            &subset,
                            params,
                            &[LlcOrgKind::MemorySide, LlcOrgKind::SmSide, LlcOrgKind::Sac],
                            opts,
                        ));
                        let sm: Vec<f64> =
                            rows.iter().map(|r| r.speedup(LlcOrgKind::SmSide)).collect();
                        let sac: Vec<f64> =
                            rows.iter().map(|r| r.speedup(LlcOrgKind::Sac)).collect();
                        let fabric: Vec<f64> = rows
                            .iter()
                            .map(|r| {
                                let s = r.stats(LlcOrgKind::MemorySide);
                                s.ring_bytes as f64 / s.cycles as f64
                            })
                            .collect();
                        Fig15Point {
                            chips: chips as u64,
                            sm_side: harmonic_mean(&sm),
                            sac: harmonic_mean(&sac),
                            fabric_bytes_per_cycle: fabric.iter().sum::<f64>()
                                / fabric.len() as f64,
                            bisection_gbs: c.bisection_gbs(),
                        }
                    })
                    .collect();
                Fig15Curve {
                    topology: kind.label().to_string(),
                    points,
                }
            })
            .collect();
        Fig15Data { curves }
    }
}

impl FigData for Fig15Data {
    fn figure(&self) -> &'static str {
        "fig15"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scale-out: hmean speedup vs memory-side on {FIG15_SUBSET:?};"
        );
        let _ = writeln!(
            s,
            "fabric traffic is the memory-side mean (per-link bandwidth held constant):\n"
        );
        for (i, c) in self.curves.iter().enumerate() {
            if i > 0 {
                let _ = writeln!(s);
            }
            let _ = writeln!(s, "-- {} --", c.topology);
            let _ = writeln!(
                s,
                "{:>6} | {:>8} {:>6} | {:>11} | {:>14}",
                "chips", "SM-side", "SAC", "fabric B/cy", "bisection GB/s"
            );
            for p in &c.points {
                let _ = writeln!(
                    s,
                    "{:>6} | {:>8.2} {:>6.2} | {:>11.1} | {:>14.0}",
                    p.chips, p.sm_side, p.sac, p.fabric_bytes_per_cycle, p.bisection_gbs
                );
            }
        }
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.str_array_field("subset", &FIG15_SUBSET);
        w.array_field("curves", self.curves.len(), |w, i| {
            let c = &self.curves[i];
            w.open();
            w.str_field("topology", &c.topology);
            w.array_field("points", c.points.len(), |w, j| {
                let p = &c.points[j];
                w.open();
                w.u64_field("chips", p.chips);
                w.f64_field("sm_side", p.sm_side);
                w.f64_field("sac", p.sac);
                w.f64_field("fabric_bytes_per_cycle", p.fabric_bytes_per_cycle);
                w.f64_field("bisection_gbs", p.bisection_gbs);
                w.close();
            });
            w.close();
        });
    }
}

// -------------------------------------------------------------- table04

/// One benchmark's row of Table 4: the paper's published characteristics
/// next to what the generated trace measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4DataRow {
    /// Benchmark name.
    pub bench: String,
    /// CTA count (paper value, also used by the generator).
    pub ctas: u64,
    /// Published footprint in MB.
    pub footprint_paper_mb: f64,
    /// Measured footprint (paper-equivalent MB).
    pub footprint_measured_mb: f64,
    /// Published truly-shared MB.
    pub true_paper_mb: f64,
    /// Measured truly-shared MB.
    pub true_measured_mb: f64,
    /// Published falsely-shared MB.
    pub false_paper_mb: f64,
    /// Measured falsely-shared MB.
    pub false_measured_mb: f64,
}

/// Table 4: workload characteristics, published vs measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Data {
    /// One row per benchmark, in suite order.
    pub rows: Vec<Table4DataRow>,
}

impl Table4Data {
    /// Build from `(profile, measured characteristics)` pairs.
    pub fn compute(rows: &[(mcgpu_trace::BenchmarkProfile, analysis::Table4Row)]) -> Table4Data {
        Table4Data {
            rows: rows
                .iter()
                .map(|(p, m)| Table4DataRow {
                    bench: p.name.to_string(),
                    ctas: u64::from(p.ctas),
                    footprint_paper_mb: p.footprint_mb,
                    footprint_measured_mb: m.footprint_mb,
                    true_paper_mb: p.true_shared_mb,
                    true_measured_mb: m.true_shared_mb,
                    false_paper_mb: p.false_shared_mb,
                    false_measured_mb: m.false_shared_mb,
                })
                .collect(),
        }
    }
}

impl FigData for Table4Data {
    fn figure(&self) -> &'static str {
        "table04"
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:6} {:>8} | {:>9} {:>9} | {:>8} {:>8} | {:>8} {:>8}",
            "bench",
            "CTAs",
            "fp(paper)",
            "fp(meas)",
            "TS(paper)",
            "TS(meas)",
            "FS(paper)",
            "FS(meas)"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:6} {:>8} | {:>9.0} {:>9.0} | {:>8.0} {:>8.1} | {:>8.0} {:>8.1}",
                r.bench,
                r.ctas,
                r.footprint_paper_mb,
                r.footprint_measured_mb,
                r.true_paper_mb,
                r.true_measured_mb,
                r.false_paper_mb,
                r.false_measured_mb
            );
        }
        let _ = writeln!(
            s,
            "\n(measured = from the generated trace, rescaled to paper-equivalent MB;"
        );
        let _ = writeln!(
            s,
            " measured footprint covers only pages the trace volume actually touches)"
        );
        s
    }

    fn write_fields(&self, w: &mut CanonicalWriter) {
        w.array_field("rows", self.rows.len(), |w, i| {
            let r = &self.rows[i];
            w.open();
            w.str_field("bench", &r.bench);
            w.u64_field("ctas", r.ctas);
            w.f64_field("footprint_paper_mb", r.footprint_paper_mb);
            w.f64_field("footprint_measured_mb", r.footprint_measured_mb);
            w.f64_field("true_paper_mb", r.true_paper_mb);
            w.f64_field("true_measured_mb", r.true_measured_mb);
            w.f64_field("false_paper_mb", r.false_paper_mb);
            w.f64_field("false_measured_mb", r.false_measured_mb);
            w.close();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::json::parse;

    #[test]
    fn canonical_json_documents_parse_and_carry_the_schema() {
        let data = Fig12Data {
            kernels: vec![Fig12Kernel {
                index: 0,
                phase: "K1".to_string(),
                sm_side: 0.61,
                sac: 1.0,
                sac_mode: "-".to_string(),
            }],
            app_sm_side: 1.19,
            app_sac: 1.07,
        };
        let doc = data.to_canonical_json();
        let v = parse(&doc).expect("canonical figdata parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(FIGDATA_SCHEMA)
        );
        assert_eq!(v.get("figure").and_then(|s| s.as_str()), Some("fig12"));
        let kernels = v.get("kernels").and_then(|k| k.as_array()).unwrap();
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].get("phase").and_then(|p| p.as_str()), Some("K1"));
    }

    #[test]
    fn fig11_point_total_is_the_sum_of_classes() {
        let p = Fig11Point {
            window_cycles: 1_000,
            true_mb: 2.0,
            false_mb: 0.9,
            non_mb: 1.8,
        };
        assert!((p.total_mb() - 4.7).abs() < 1e-12);
    }

    #[test]
    fn fig13_render_groups_and_blank_lines_match_the_legacy_layout() {
        let data = Fig13Data {
            groups: vec![Fig13Group {
                label: "SM-side preferred".to_string(),
                benches: vec![Fig13Bench {
                    bench: "RN".to_string(),
                    rows: vec![Fig13Row {
                        scale: 0.5,
                        sm_side: 2.46,
                        sac: 1.51,
                        sac_modes: "SS".to_string(),
                    }],
                }],
            }],
        };
        let text = data.render();
        assert!(text.starts_with("== SM-side preferred benchmarks ==\n"));
        assert!(text.contains("RN         0.5x |     2.46     1.51 | [SS]\n"));
        assert!(
            text.ends_with("\n\n"),
            "each bench block ends with a blank line"
        );
    }
}
