//! One repetition of a workload: generate its traces, run every cell on
//! the sweep pool, and check the outputs.

use crate::grid::{Cell, Engine, Grid};
use crate::spans::{SpanId, Tracer};
use mcgpu_sim::{RunStats, SimBuilder};
use mcgpu_trace::{generate, Workload};
use mcgpu_types::{ExpectationSet, LlcOrgKind, Verdict};
use sac_bench::journal::fnv1a_64;
use sac_bench::{fastmode, figcheck, sweep, BenchRows};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A grid's generated traces, indexed like [`Grid::traces`].
pub struct Traces {
    /// The workloads.
    pub workloads: Vec<Arc<Workload>>,
    /// Host seconds in `mcgpu_trace::generate`, summed over traces.
    pub generate_s: f64,
}

/// Generate every trace of `grid` on the sweep pool.
pub fn generate_traces(grid: &Grid, tracer: &Tracer, parent: Option<SpanId>) -> Traces {
    let made = sweep::map(grid.traces(), |(m, p)| {
        let (wl, secs) = tracer.span(parent, "mcgpu-trace", "generate", None, |_| {
            generate(&grid.machines[m].1, &grid.profiles[p], &grid.params)
        });
        (Arc::new(wl), secs)
    });
    Traces {
        generate_s: made.iter().map(|(_, s)| s).sum(),
        workloads: made.into_iter().map(|(w, _)| w).collect(),
    }
}

/// Set the grid up once, as a user does before any cell runs: generate
/// every trace and build every cell's simulator on the sweep pool.
/// Returns host seconds in `generate` plus `SimBuilder::build`, summed
/// over calls.
pub fn setup_once(grid: &Grid) -> f64 {
    let traces = generate_traces(grid, &Tracer::new(false), None);
    let build_s: f64 = match grid.engine {
        Engine::Fast => 0.0,
        Engine::Cycle => sweep::map(grid.cells(), |c| {
            let t = Instant::now();
            let sim = SimBuilder::new(grid.machines[c.machine].1.clone())
                .organization(c.org)
                .build();
            let secs = t.elapsed().as_secs_f64();
            drop(sim);
            secs
        })
        .iter()
        .sum(),
    };
    traces.generate_s + build_s
}

/// Outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// FNV-1a-64 of `RunStats::to_canonical_json` (0 when the cell failed).
    pub digest: u64,
    /// The statistics, or the reason the cell failed.
    pub stats: Result<RunStats, String>,
    /// Host seconds in `SimBuilder::build`.
    pub build_s: f64,
    /// Host seconds in `Simulator::run` or `run_fast`.
    pub run_s: f64,
    /// Host seconds in `RunStats::to_canonical_json`.
    pub json_s: f64,
    /// `Simulator::skipped_cycles` after the run.
    pub skipped_cycles: u64,
    /// `Simulator::skip_jumps` after the run.
    pub skip_jumps: u64,
}

impl CellResult {
    fn failed(reason: String) -> CellResult {
        CellResult {
            digest: 0,
            stats: Err(reason),
            build_s: 0.0,
            run_s: 0.0,
            json_s: 0.0,
            skipped_cycles: 0,
            skip_jumps: 0,
        }
    }

    /// Host seconds the cell kept a pool thread busy.
    pub fn busy_s(&self) -> f64 {
        self.build_s + self.run_s + self.json_s
    }
}

/// Run one cell through the public engine API at its defaults. Errors
/// and panics become a failed [`CellResult`] rather than aborting the
/// batch.
pub fn run_cell(
    grid: &Grid,
    traces: &Traces,
    cell: &Cell,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> CellResult {
    let cfg = &grid.machines[cell.machine].1;
    let wl = &traces.workloads[grid.trace_index(cell.machine, cell.profile)];
    let id = Some(cell.id);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut r = CellResult::failed(String::new());
        let stats = match grid.engine {
            Engine::Fast => {
                let (s, secs) = tracer.span(parent, "sac-bench", "run_fast", id, |_| {
                    fastmode::run_fast(cfg, wl, cell.org)
                });
                r.run_s = secs;
                s
            }
            Engine::Cycle => {
                let (sim, secs) = tracer.span(parent, "mcgpu-sim", "build", id, |_| {
                    SimBuilder::new(cfg.clone()).organization(cell.org).build()
                });
                r.build_s = secs;
                let mut sim = sim.map_err(|e| format!("build: {e}"))?;
                let (s, secs) = tracer.span(parent, "mcgpu-sim", "run", id, |_| sim.run(wl));
                r.run_s = secs;
                r.skipped_cycles = sim.skipped_cycles();
                r.skip_jumps = sim.skip_jumps();
                s.map_err(|e| format!("run: {e}"))?
            }
        };
        let (json, secs) = tracer.span(parent, "mcgpu-sim", "to_canonical_json", id, |_| {
            stats.to_canonical_json()
        });
        r.json_s = secs;
        r.digest = fnv1a_64(json.as_bytes());
        r.stats = Ok(stats);
        Ok::<CellResult, String>(r)
    }));
    match attempt {
        Ok(Ok(r)) => r,
        Ok(Err(reason)) => CellResult::failed(reason),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            CellResult::failed(format!("panic: {msg}"))
        }
    }
}

/// Label of a cell for messages: `machine/profile/org`.
pub fn cell_label(grid: &Grid, cell: &Cell) -> String {
    format!(
        "{}/{}/{}",
        grid.machines[cell.machine].0,
        grid.profiles[cell.profile].name,
        cell.org.label()
    )
}

/// Everything one repetition measured.
pub struct Rep {
    /// Host seconds for the whole repetition.
    pub wall_s: f64,
    /// Host seconds in `generate`, summed over traces.
    pub generate_s: f64,
    /// Simulated accesses in the generated traces.
    pub trace_accesses: u64,
    /// Per-cell outcomes, in grid order.
    pub cells: Vec<CellResult>,
    /// Host seconds of the cell phase (all cells on the pool).
    pub cells_wall_s: f64,
    /// Host seconds building the figcheck metric table.
    pub metrics_s: f64,
    /// Host seconds in `figcheck::evaluate`.
    pub evaluate_s: f64,
    /// Expectations failing or unevaluable on the grid's 4-chip-ring
    /// figure data (`None` when the grid has no complete figure data).
    pub expect_fail: Option<usize>,
}

impl Rep {
    /// Host seconds in `Simulator::run` / `run_fast`, summed over cells.
    pub fn run_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run_s).sum()
    }

    /// Statistics of the cells that completed.
    pub fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.cells.iter().filter_map(|c| c.stats.as_ref().ok())
    }

    /// Simulated (or, in fast mode, estimated) cycles summed over cells.
    pub fn cycles(&self) -> u64 {
        self.stats().map(|s| s.cycles).sum()
    }

    /// Simulated accesses completed, summed over cells.
    pub fn accesses(&self) -> u64 {
        self.stats().map(|s| s.reads + s.writes).sum()
    }

    /// Busy cell time over (cell-phase wall time x pool threads).
    pub fn sweep_efficiency(&self) -> f64 {
        let busy: f64 = self.cells.iter().map(CellResult::busy_s).sum();
        busy / (self.cells_wall_s * sweep::jobs() as f64)
    }

    /// FNV-1a-64 over the cell digests in grid order: one number that
    /// changes if any simulated statistic of any cell changes.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .cells
            .iter()
            .flat_map(|c| c.digest.to_le_bytes())
            .collect();
        fnv1a_64(&bytes)
    }
}

/// Run one repetition of `grid` under `parent`, returning what it
/// measured and the traces it generated.
pub fn run_rep(
    grid: &Grid,
    expectations: &ExpectationSet,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Rep, Traces) {
    let t = Instant::now();
    let traces = generate_traces(grid, tracer, parent);
    let trace_accesses = traces
        .workloads
        .iter()
        .map(|w| w.total_accesses() as u64)
        .sum();
    let cells = grid.cells();
    let (results, cells_wall_s) = {
        let t = Instant::now();
        let r = sweep::map(cells.iter().collect(), |c| {
            run_cell(grid, &traces, c, tracer, parent)
        });
        (r, t.elapsed().as_secs_f64())
    };
    let (metrics, metrics_s) = tracer.span(parent, "sac-bench", "figcheck_metrics", None, |_| {
        figure_metrics(grid, &traces, &cells, &results)
    });
    let (report, evaluate_s) = tracer.span(parent, "sac-bench", "figcheck_evaluate", None, |_| {
        figcheck::evaluate(expectations, &metrics, "quick")
    });
    let expect_fail = grid.figure_machine().map(|_| {
        report
            .findings
            .iter()
            .filter(|f| f.verdict != Verdict::Pass)
            .count()
    });
    let rep = Rep {
        wall_s: t.elapsed().as_secs_f64(),
        generate_s: traces.generate_s,
        trace_accesses,
        cells: results,
        cells_wall_s,
        metrics_s,
        evaluate_s,
        expect_fail,
    };
    (rep, traces)
}

/// The figcheck metric table of a repetition: the full figure data
/// (`figcheck::suite_metrics`) when the grid has a complete 4-chip-ring
/// suite, otherwise the per-cell statistics the golden table uses
/// (`Metrics::insert_stats` against the memory-side cell).
fn figure_metrics(
    grid: &Grid,
    traces: &Traces,
    cells: &[Cell],
    results: &[CellResult],
) -> figcheck::Metrics {
    let stats_of = |m: usize, p: usize, org: LlcOrgKind| {
        cells
            .iter()
            .zip(results)
            .find(|(c, _)| c.machine == m && c.profile == p && c.org == org)
            .and_then(|(_, r)| r.stats.as_ref().ok())
    };
    if let Some(m) = grid.figure_machine() {
        let rows: Option<Vec<BenchRows>> = (0..grid.profiles.len())
            .map(|p| {
                let runs = grid
                    .orgs
                    .iter()
                    .map(|&o| stats_of(m, p, o).map(|s| (o, s.clone())))
                    .collect::<Option<Vec<_>>>()?;
                Some(BenchRows {
                    profile: grid.profiles[p].clone(),
                    workload: Arc::clone(&traces.workloads[grid.trace_index(m, p)]),
                    runs,
                })
            })
            .collect();
        // A failed cell leaves the table empty; every expectation then
        // errors, and the failed cell is reported on its own.
        return match rows {
            Some(rows) => figcheck::suite_metrics(&grid.machines[m].1, &rows),
            None => figcheck::Metrics::new(),
        };
    }
    let mut table = figcheck::Metrics::new();
    for (c, r) in cells.iter().zip(results) {
        if let Ok(s) = &r.stats {
            let base = stats_of(c.machine, c.profile, LlcOrgKind::MemorySide);
            table.insert_stats(grid.profiles[c.profile].name, c.org, s, base);
        }
    }
    table
}
