//! One benchmark invocation: timed repetitions of a workload, the output
//! checks, and (traced run only) the layer drives and span report.

use crate::drives::{run_drives, DriveMetrics};
use crate::exec::{cell_label, run_cell, run_rep, setup_once, CellResult, Rep, Traces};
use crate::grid::{Grid, WorkloadKind, DEFAULT_SEED, HELD_OUT_SEED};
use crate::report::{result_line, END_TO_END, PER_LAYER};
use crate::spans::{layer_self_seconds, write_jsonl, Tracer};
use mcgpu_sim::RunStats;
use mcgpu_types::ExpectationSet;
use sac_bench::{golden, sweep};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Trace seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Set-ups measured per untraced run: at least `SETUP_MIN_SAMPLES`, then
/// more until `SETUP_BUDGET_S` of wall time has gone, at most
/// `SETUP_MAX_SAMPLES`. `setup_s` is their median.
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_MAX_SAMPLES: usize = 200;
const SETUP_BUDGET_S: f64 = 0.5;

const USAGE: &str = "usage: sacperf --workload figsuite|scaleout16|sparse_compute|fast_dse \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.parse().ok(),
    }
}

/// Parse `--workload`, `--seed` (decimal or `0x` hex, default
/// [`DEFAULT_SEED`]), `--seconds` (default 10) and `--trace` (default 0).
///
/// # Errors
/// A usage message for a missing or malformed argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: WorkloadKind::FigSuite,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadKind::from_name(value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(args)
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The process's resident-memory high-water mark in MiB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// The timed repetitions of one invocation.
struct Measured {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    /// The last repetition's traces, for the checks and the drives.
    traces: Traces,
    /// Peak RSS after the first repetition. Later repetitions add only
    /// allocator fragmentation that depends on thread timing.
    rss_mb: Option<f64>,
}

/// Repeat the grid while the longest repetition so far still fits in
/// `--seconds`. A traced run alternates untraced and traced repetitions,
/// so that both see the same machine state, and runs at least one of each.
fn repeat(args: &Args, grid: &Grid, expectations: &ExpectationSet, tracer: &Tracer) -> Measured {
    let started = Instant::now();
    let untraced = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traces: Option<Traces> = None;
    let mut rss_mb = None;
    loop {
        drop(traces.take()); // one repetition's traces alive at a time
        let trace_this = args.trace && traced.len() < plain.len();
        let (rep, t) = if trace_this {
            let (out, _) = tracer.span(None, "sacperf", "rep", None, |id| {
                run_rep(grid, expectations, tracer, id)
            });
            out
        } else {
            run_rep(grid, expectations, &untraced, None)
        };
        traces = Some(t);
        if trace_this { &mut traced } else { &mut plain }.push(rep);
        if plain.len() + traced.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        let longest = plain
            .iter()
            .chain(&traced)
            .map(|r: &Rep| r.wall_s)
            .fold(0.0, f64::max);
        let enough = !plain.is_empty() && (!args.trace || !traced.is_empty());
        if enough && started.elapsed().as_secs_f64() + longest > args.seconds {
            break;
        }
    }
    Measured {
        plain,
        traced,
        traces: traces.expect("at least one repetition ran"),
        rss_mb,
    }
}

/// Cells that failed, by grid index: a cell fails if it errored in any
/// repetition, if its digest differs between repetitions, or if it
/// differs when re-run on a 1-thread pool. The re-run starts at a cell
/// chosen by the seed; an untraced run re-runs that one cell, a traced
/// run goes on through the grid until it has spent `--seconds` (every
/// cell of the smaller grids, about half of `figsuite`). Also returns how
/// many cells were re-run.
fn cell_failures(
    args: &Args,
    grid: &Grid,
    reps: &[&Rep],
    traces: &Traces,
) -> (BTreeMap<usize, String>, usize) {
    let cells = grid.cells();
    let mut failures = BTreeMap::new();
    for (i, c) in cells.iter().enumerate() {
        let first = &reps[0].cells[i];
        if let Some(Err(e)) = reps.iter().map(|r| &r.cells[i].stats).find(|s| s.is_err()) {
            failures.insert(i, format!("{}: {e}", cell_label(grid, c)));
        } else if reps.iter().any(|r| r.cells[i].digest != first.digest) {
            let msg = format!(
                "{}: digest differs between repetitions",
                cell_label(grid, c)
            );
            failures.insert(i, msg);
        }
    }
    let budget = if args.trace { args.seconds } else { 0.0 };
    let start = (args.seed % cells.len() as u64) as usize;
    let single = sweep::map_with_jobs(1, vec![()], |()| {
        let t = Instant::now();
        let mut out = Vec::new();
        for i in (0..cells.len()).map(|k| (start + k) % cells.len()) {
            let r = run_cell(grid, traces, &cells[i], &Tracer::new(false), None);
            out.push((i, r.digest));
            if t.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        out
    })
    .pop()
    .expect("one job");
    let checked = single.len();
    for (i, digest) in single {
        if digest != reps[0].cells[i].digest {
            let msg = format!(
                "{}: digest differs on 1 thread vs {}",
                cell_label(grid, &cells[i]),
                sweep::jobs()
            );
            failures.entry(i).or_insert(msg);
        }
    }
    (failures, checked)
}

/// Re-run the 8 golden cases and compare each with its committed
/// snapshot under `tests/golden/`. Returns the names that differ.
fn golden_mismatches(root: &Path) -> Vec<String> {
    let cases = golden::suite();
    let runs = sweep::map(cases.iter().collect(), |c| c.try_run());
    cases
        .iter()
        .zip(runs)
        .filter(|(c, run)| {
            let want = std::fs::read_to_string(root.join(format!("tests/golden/{}.json", c.name)));
            match (want, run) {
                (Ok(want), Ok(got)) => want != *got,
                _ => true,
            }
        })
        .map(|(c, _)| c.name.to_string())
        .collect()
}

/// Run one invocation and print its report; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let root = repo_root();
    let exp_path = root.join("expectations/sac_isca23.json");
    let expectations = match std::fs::read_to_string(&exp_path)
        .map_err(|e| e.to_string())
        .and_then(|t| ExpectationSet::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(set) => set,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", exp_path.display());
            return 2;
        }
    };
    let name = args.workload.name();
    let grid = Grid::new(args.workload, args.seed);
    let cells = grid.cells().len();
    let tracer = Tracer::new(args.trace);
    let m = repeat(args, &grid, &expectations, &tracer);

    // Set-up is sampled apart from the repetitions, so that its median
    // does not rest on one sample where a repetition fills the run.
    let mut setups = Vec::new();
    let setup_started = Instant::now();
    while !args.trace
        && (setups.len() < SETUP_MIN_SAMPLES
            || (setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S
                && setups.len() < SETUP_MAX_SAMPLES))
    {
        setups.push(setup_once(&grid));
    }

    let reps: Vec<&Rep> = m.plain.iter().chain(&m.traced).collect();
    let (cell_failures, single_checked) = cell_failures(args, &grid, &reps, &m.traces);
    let default_seed = args.seed == DEFAULT_SEED;
    let (golden_cases, golden_bad) = if default_seed {
        (golden::suite().len(), golden_mismatches(&root))
    } else {
        (0, Vec::new())
    };
    let attempted = (cells + golden_cases) as u64;
    let failed = (cell_failures.len() + golden_bad.len()) as u64;
    let fail_ratio = failed as f64 / attempted as f64;
    let expect_fail = reps.iter().filter_map(|r| r.expect_fail).max();
    let expect_gate =
        !(default_seed && args.workload == WorkloadKind::FigSuite && expect_fail != Some(0));

    let gates = match args.seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held out: golden and expectation gates off",
        _ => "not default: golden and expectation gates off",
    };
    println!(
        "sacperf {name}: seed {} ({gates}), {cells} cells, {} untraced + {} traced repetitions on {} threads",
        args.seed,
        m.plain.len(),
        m.traced.len(),
        sweep::jobs()
    );
    println!("digest {name} {:016x}", reps[0].digest());
    println!(
        "determinism: {} repetitions agree cell by cell; {single_checked} of {cells} cells re-run on 1 thread",
        reps.len()
    );
    let walls = |rs: &[Rep]| {
        let v: Vec<String> = rs.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
        v.join(" ")
    };
    println!(
        "repetition wall_s: untraced [{}] traced [{}]",
        walls(&m.plain),
        walls(&m.traced)
    );
    for f in cell_failures.values() {
        println!("FAIL cell {f}");
    }
    for g in &golden_bad {
        println!("FAIL golden {g}: differs from tests/golden/{g}.json");
    }
    if default_seed {
        let same = golden_cases - golden_bad.len();
        println!("golden: {same} of {golden_cases} cases byte-identical");
    }
    match expect_fail {
        Some(n) => println!(
            "expectations: {n} of {} failing on the 4-chip-ring figure data",
            expectations.expectations.len()
        ),
        None => println!("expectations: not applicable (no complete 4-chip-ring figure data)"),
    }
    if !expect_gate {
        println!("FAIL expectations must all hold on figsuite at the default seed");
    }

    let mut correct = failed == 0 && expect_gate;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let defs = if args.trace {
        let ((drives, engine_cell), _) = tracer.span(None, "sacperf", "drives", None, |id| {
            run_drives(&grid, &m.traces, &tracer, id)
        });
        for f in &drives.failures {
            println!("FAIL drive {f}");
        }
        correct &= drives.failures.is_empty();
        let spans = tracer.spans();
        let self_s = layer_self_seconds(&spans);
        let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-{}.jsonl", args.seed));
        match write_jsonl(&spans_path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), spans_path.display()),
            Err(e) => {
                println!("FAIL cannot write {}: {e}", spans_path.display());
                correct = false;
            }
        }
        let last = m
            .traced
            .last()
            .expect("a traced run has a traced repetition");
        per_layer_values(&mut values, last, &drives, engine_cell.as_ref(), &self_s);
        values.insert("fail_ratio", fail_ratio);
        values.insert("expect_fail", expect_fail.unwrap_or(0) as f64);
        let (traced_wall, plain_wall) = (
            median_of(&m.traced, |r| r.wall_s),
            median_of(&m.plain, |r| r.wall_s),
        );
        let overhead = traced_wall - plain_wall;
        values.insert("tracing.overhead_s", overhead);
        println!("per-layer self time (span time minus child spans) over the traced run:");
        for (layer, s) in &self_s {
            println!("  {layer:<12} {s:10.4} s");
        }
        println!(
            "tracing overhead: traced wall_s {traced_wall:.4} s - untraced wall_s {plain_wall:.4} s = {overhead:+.4} s"
        );
        PER_LAYER
    } else {
        let Some(rss_mb) = m.rss_mb else {
            eprintln!("error: cannot read VmHWM from /proc/self/status");
            return 2;
        };
        values.insert("wall_s", median_of(&m.plain, |r| r.wall_s));
        values.insert("setup_s", median(setups));
        let rate = |count: fn(&Rep) -> u64| median_of(&m.plain, |r| count(r) as f64 / r.run_s());
        values.insert("sim_cycles_per_s", rate(Rep::cycles));
        values.insert("accesses_per_s", rate(Rep::accesses));
        values.insert("peak_rss_mb", rss_mb);
        println!("fail_ratio {fail_ratio} ratio");
        println!("expect_fail {} count", expect_fail.unwrap_or(0));
        END_TO_END
    };
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(f64::NAN);
        println!("{} {v} {}", d.name, d.unit);
    }
    match result_line(defs, correct, attempted, failed, &values) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    }
    if correct {
        0
    } else {
        1
    }
}

/// Per-layer values from the last traced repetition, the drives and the
/// span self times. For a fast-mode grid the engine layer is the one
/// cell the drives ran through the cycle engine.
fn per_layer_values(
    values: &mut BTreeMap<&'static str, f64>,
    last: &Rep,
    drives: &DriveMetrics,
    engine_cell: Option<&CellResult>,
    self_s: &BTreeMap<&'static str, f64>,
) {
    let engine: Vec<&CellResult> = match engine_cell {
        Some(c) => vec![c],
        None => last.cells.iter().collect(),
    };
    let engine_sum = |f: fn(&CellResult) -> f64| engine.iter().map(|c| f(c)).sum::<f64>();
    let engine_cycles = engine
        .iter()
        .filter_map(|c| c.stats.as_ref().ok())
        .map(|s| s.cycles)
        .sum::<u64>()
        .max(1) as f64;
    let model = |f: fn(&RunStats) -> u64| last.stats().map(f).sum::<u64>() as f64;

    values.insert("trace.generate_s", last.generate_s);
    values.insert("trace.accesses", last.trace_accesses as f64);
    values.insert("sim.build_s", engine_sum(|c| c.build_s));
    values.insert("sim.run_s", engine_sum(|c| c.run_s));
    values.insert(
        "sim.ns_per_cycle",
        engine_sum(|c| c.run_s) * 1e9 / engine_cycles,
    );
    values.insert("sim.cells", engine.len() as f64);
    values.insert(
        "sim.skipped_frac",
        engine_sum(|c| c.skipped_cycles as f64) / engine_cycles,
    );
    values.insert("sim.skip_jumps", engine_sum(|c| c.skip_jumps as f64));
    values.insert("fabric.ns_per_packet", drives.fabric_ns_per_packet);
    values.insert("fabric.backlog_peak", drives.fabric_backlog_peak as f64);
    values.insert("fabric.full_ratio", drives.fabric_full_ratio);
    values.insert("xbar.ns_per_packet", drives.xbar_ns_per_packet);
    values.insert("xbar.full_ratio", drives.xbar_full_ratio);
    values.insert("cache.ns_per_access", drives.cache_ns_per_access);
    values.insert("cache.hit_ratio", drives.cache_hit_ratio);
    values.insert("dram.ns_per_request", drives.dram_ns_per_request);
    values.insert("dram.bytes_per_cycle", drives.dram_bytes_per_cycle);
    values.insert("pae.ns_per_index", drives.pae_ns_per_index);
    values.insert("crd.ns_per_observe", drives.crd_ns_per_observe);
    values.insert("eab.ns_per_decide", drives.eab_ns_per_decide);
    values.insert("estimate.ns_per_cell", drives.estimate_ns_per_cell);
    values.insert(
        "fast.run_s",
        drives.fast_run_s.unwrap_or_else(|| last.run_s()),
    );
    values.insert("fast.profile_s", drives.fast_profile_s);
    values.insert("sweep.efficiency", last.sweep_efficiency());
    values.insert("figcheck.metrics_s", last.metrics_s);
    values.insert("figcheck.evaluate_s", last.evaluate_s);
    values.insert("stats.json_s", last.cells.iter().map(|c| c.json_s).sum());
    values.insert("model.cycles", model(|s| s.cycles));
    values.insert("model.accesses", model(|s| s.reads + s.writes));
    values.insert("model.fabric_bytes", model(|s| s.ring_bytes));
    let ratio = |hits: f64, total: f64| hits / total.max(1.0);
    values.insert(
        "model.l1_hit_ratio",
        ratio(model(|s| s.l1.hits), model(|s| s.l1.accesses)),
    );
    values.insert("model.llc_accesses", model(|s| s.llc.accesses));
    values.insert(
        "model.llc_hit_ratio",
        ratio(model(|s| s.llc.hits), model(|s| s.llc.accesses)),
    );
    values.insert("model.dram_reads", model(|s| s.dram_reads));
    values.insert("model.dram_writes", model(|s| s.dram_writes));
    values.insert("model.sac_decisions", model(|s| s.sac_history.len() as u64));
    values.insert("model.overhead_cycles", model(|s| s.overhead_cycles));
    for d in PER_LAYER {
        if let Some(layer) = d.name.strip_prefix("self_s.") {
            values.insert(d.name, self_s.get(layer).copied().unwrap_or(0.0));
        }
    }
}
