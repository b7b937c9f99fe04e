//! Shared experiment runner for the figure/table harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). They share this runner: a scaled
//! baseline machine, the 16 Table 4 workloads, and helpers that run a
//! workload under each LLC organization and aggregate the statistics the
//! figures report.
//!
//! Run the binaries in release mode — e.g.
//! `cargo run --release -p sac-bench --bin fig08_speedup` — and pass
//! `--quick` for a reduced-volume smoke run. Every binary fans its
//! simulation runs out over the [`sweep`] thread pool; `--jobs N` (or
//! `MCGPU_JOBS=N`) bounds the parallelism, and results are identical for
//! every thread count.
//!
//! # Crash safety and resume
//!
//! Each (benchmark × organization) cell runs in isolation: a panicking,
//! deadlocked or over-budget cell is retried with escalating budgets and,
//! if it keeps failing, quarantined with a typed [`sweep::CellError`] while
//! every sibling cell completes. Pass `--journal results/run.jsonl` to
//! record every finished cell in an append-only JSONL [`journal`], and
//! `--resume results/run.jsonl` after an interruption to replay completed
//! cells byte-identically and re-execute only missing or quarantined ones.
//! The cell is the unit of recovery: a cell interrupted mid-run re-runs
//! from cycle 0, which costs at most a few seconds at this scale.

use mcgpu_sim::{ObsReport, RunStats, SimBuilder};
use mcgpu_trace::{generate, profiles, BenchmarkProfile, TraceParams, Workload};
use mcgpu_types::{EngineMode, LlcOrgKind, MachineConfig, ObsConfig};
use sac::SacConfig;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub mod crossval;
pub mod fastmode;
pub mod figcheck;
pub mod figdata;
pub mod golden;
pub mod journal;
pub mod resilience;
pub mod sweep;

pub use journal::{cell_config_desc, cell_config_hash, Journal, JournalRecord, RecordOutcome};
pub use mcgpu_sim::stats::harmonic_mean;
pub use sweep::{CellError, CellOutcome};

/// The scaled baseline machine every figure uses unless it sweeps a
/// parameter (see `ScaleFactor::EXPERIMENT` for what "scaled" preserves).
///
/// `MCGPU_WATCHDOG_CYCLES` overrides the forward-progress watchdog window
/// (validated by `MachineConfig::validate()` at build time; `u64::MAX`
/// disables the watchdog).
pub fn experiment_config() -> MachineConfig {
    let mut cfg = MachineConfig::experiment_baseline();
    if let Some(n) = std::env::var("MCGPU_WATCHDOG_CYCLES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        cfg.watchdog_cycles = n;
    }
    cfg
}

/// Trace volume: standard for figures, reduced with `--quick`.
pub fn trace_params() -> TraceParams {
    if quick_mode() {
        TraceParams {
            total_accesses: 150_000,
            ..TraceParams::standard()
        }
    } else {
        TraceParams::standard()
    }
}

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value of the command-line flag `name`, given as `name VALUE` or
/// `name=VALUE`: the first occurrence, in argument order, whose value
/// parses as `T`. Every binary reads its flags through this one reader.
pub fn arg_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let prefix = format!("{name}=");
    args.iter().enumerate().find_map(|(i, a)| {
        let v = if a == name {
            args.get(i + 1)?.as_str()
        } else {
            a.strip_prefix(&prefix)?
        };
        v.parse().ok()
    })
}

/// Validate an `--mode` token against the engine-mode registry, exiting
/// with the registry-style diagnostic on an unknown token (mirrors the
/// binaries' `--org` validation).
pub fn parse_mode_or_exit(token: &str) -> EngineMode {
    EngineMode::from_token(token).unwrap_or_else(|| {
        eprintln!(
            "error: unknown engine mode `{token}`; known modes: {} (see --list-modes)",
            EngineMode::tokens().join(", ")
        );
        std::process::exit(2);
    })
}

/// Journal/resume options for a sweep, normally parsed from the command
/// line with [`SweepOptions::from_args`].
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Record finished cells to a fresh journal at this path.
    pub journal: Option<PathBuf>,
    /// Load this journal, replay its completed cells, re-run the rest, and
    /// keep recording to the same path. Takes precedence over `journal`.
    pub resume: Option<PathBuf>,
    /// How cells are evaluated: cycle-stepped simulation (the default) or
    /// the analytic fast estimator (see [`fastmode`]). Journal records are
    /// stamped with the mode, and a `--resume` in a different mode is
    /// refused rather than silently mixing fidelities.
    pub mode: EngineMode,
}

impl SweepOptions {
    /// No journaling (the default for tests and library callers).
    pub fn none() -> SweepOptions {
        SweepOptions::default()
    }

    /// Parse `--journal PATH` / `--resume PATH` / `--mode M` (or
    /// `--flag=VALUE`) from the process arguments.
    pub fn from_args() -> SweepOptions {
        SweepOptions {
            journal: arg_value("--journal"),
            resume: arg_value("--resume"),
            mode: arg_value::<String>("--mode")
                .map_or(EngineMode::Cycle, |v| parse_mode_or_exit(&v)),
        }
    }

    /// Adapt for binaries that run *several* sweeps in sequence: a fresh
    /// `--journal` is truncated once, here, and then treated as a resume
    /// target so later sweeps append to it instead of truncating the
    /// records of earlier ones.
    pub fn sequential(self) -> SweepOptions {
        if let (Some(path), None) = (&self.journal, &self.resume) {
            Journal::create(path)
                .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display()));
            SweepOptions {
                journal: None,
                resume: Some(path.clone()),
                ..self
            }
        } else {
            self
        }
    }

    /// Open the journal these options describe, if any.
    ///
    /// Journal I/O failures abort the process: they are environment
    /// errors (full disk, bad path), not cell outcomes, and silently
    /// dropping durability would defeat the journal's purpose. So does a
    /// resumed journal recorded in another engine mode: a journal holds
    /// results of exactly one fidelity, and mixing cycle-accurate and
    /// estimated cells in one result set must never happen silently.
    fn open_journal(&self) -> Option<Mutex<Journal>> {
        if let Some(path) = &self.resume {
            let j = Journal::open(path)
                .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display()));
            eprintln!(
                "  resuming from {} ({} recorded cell(s))",
                path.display(),
                j.records().len()
            );
            if let Some(r) = j
                .records()
                .iter()
                .find(|r| r.mode_token() != self.mode.token())
            {
                panic!(
                    "cannot resume journal in `{}` mode: cell `{}` was recorded in `{}` mode; \
                     re-run with --mode {} or start a fresh journal",
                    self.mode.token(),
                    r.cell,
                    r.mode_token(),
                    r.mode_token(),
                );
            }
            Some(Mutex::new(j))
        } else if let Some(path) = &self.journal {
            let j = Journal::create(path)
                .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display()));
            Some(Mutex::new(j))
        } else {
            None
        }
    }
}

/// One quarantined cell of a failed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Cell name (`"BENCH/organization"`).
    pub cell: String,
    /// Attempts executed before giving up.
    pub attempts: u32,
    /// The final typed error.
    pub error: CellError,
}

/// A sweep finished with one or more quarantined cells. Every other cell
/// completed (and was journaled, if journaling was on); the error lists
/// exactly which cells need attention.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Cells that completed successfully.
    pub completed: usize,
    /// Cells that exhausted their retries.
    pub quarantined: Vec<CellFailure>,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep quarantined {} of {} cell(s):",
            self.quarantined.len(),
            self.completed + self.quarantined.len()
        )?;
        for q in &self.quarantined {
            writeln!(
                f,
                "  {} [{}] after {} attempt(s): {}",
                q.cell,
                q.error.kind(),
                q.attempts,
                q.error
            )?;
        }
        write!(
            f,
            "re-run with --resume <journal> to retry only the quarantined cells"
        )
    }
}

impl std::error::Error for SweepFailure {}

/// Unwrap a sweep result in a binary: print the quarantine report and exit
/// non-zero on failure.
pub fn exit_on_quarantine<T>(result: Result<T, SweepFailure>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Collapse per-cell outcomes, in input order, into their results, or
/// into the [`SweepFailure`] naming every quarantined cell (`name(i)`
/// names cell `i`). Every sweep builds its quarantine report here.
///
/// # Errors
/// [`SweepFailure`] when any cell is quarantined.
pub fn collect_outcomes<R>(
    outcomes: Vec<CellOutcome<R>>,
    name: impl Fn(usize) -> String,
) -> Result<Vec<R>, SweepFailure> {
    let quarantined: Vec<CellFailure> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.result.as_ref().err().map(|e| CellFailure {
                cell: name(i),
                attempts: o.attempts,
                error: e.clone(),
            })
        })
        .collect();
    if !quarantined.is_empty() {
        return Err(SweepFailure {
            completed: outcomes.len() - quarantined.len(),
            quarantined,
        });
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.result.expect("quarantine handled above"))
        .collect())
}

/// Results of one benchmark under every requested organization.
pub struct BenchRows {
    /// The benchmark profile.
    pub profile: BenchmarkProfile,
    /// The generated workload (for trace-level analyses). Shared rather
    /// than owned so the sweep's parallel runs read one copy.
    pub workload: Arc<Workload>,
    /// `(organization, stats)` in the order requested.
    pub runs: Vec<(LlcOrgKind, RunStats)>,
}

impl BenchRows {
    /// Stats for one organization.
    ///
    /// # Panics
    /// Panics if the organization was not part of the run set.
    pub fn stats(&self, org: LlcOrgKind) -> &RunStats {
        &self
            .runs
            .iter()
            .find(|(o, _)| *o == org)
            .expect("organization was run")
            .1
    }

    /// Speedup of `org` over the memory-side baseline.
    pub fn speedup(&self, org: LlcOrgKind) -> f64 {
        self.stats(org)
            .speedup_over(self.stats(LlcOrgKind::MemorySide))
    }
}

/// One simulation cell: a workload under one LLC organization on one
/// machine, the unit of work every sweep fans out.
#[derive(Debug, Clone, Copy)]
pub struct SimCell<'a> {
    /// The machine.
    pub cfg: &'a MachineConfig,
    /// The workload, shared read-only by every cell that runs it.
    pub workload: &'a Workload,
    /// The LLC organization.
    pub org: LlcOrgKind,
    /// SAC parameters for the cycle engine (the θ and profiling-window
    /// ablations); `None` derives them from `cfg`. Fast mode ignores it.
    pub sac: Option<SacConfig>,
}

/// Which attempt of a cell to run, and how.
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    /// 0-based position in the cell's retry sequence; the attempt runs
    /// with the watchdog window scaled by `2^n`.
    pub n: u32,
    /// The engine tier.
    pub mode: EngineMode,
}

impl Attempt {
    /// Attempt `n` on the cycle engine, as the sweeps that keep no journal
    /// ([`sweep::map_isolated`]) run it.
    pub fn cycle(n: u32) -> Self {
        Attempt {
            n,
            mode: EngineMode::Cycle,
        }
    }
}

impl<'a> SimCell<'a> {
    /// The cell running `workload` under `org` on `cfg`, with the SAC
    /// parameters derived from `cfg`.
    pub fn new(cfg: &'a MachineConfig, workload: &'a Workload, org: LlcOrgKind) -> Self {
        SimCell {
            cfg,
            workload,
            org,
            sac: None,
        }
    }

    /// Run one attempt of this cell, returning typed errors instead of
    /// panicking. Every sweep runs its simulations through this function.
    ///
    /// Deterministic backoff: attempt `n` runs with the watchdog window
    /// scaled by `2^n` ([`sweep::escalate_budget`]), so a slow-but-live run
    /// clears a spurious deadlock trip while a true deadlock still fails
    /// every attempt identically. No wall-clock scheduling is involved, so
    /// results remain a pure function of the inputs. Fast mode has no
    /// cycles, so there is nothing to watchdog or escalate.
    ///
    /// # Errors
    /// [`CellError::Sim`] for configuration rejections and runtime aborts
    /// (cycle limit, deadlock, invariant violation).
    pub fn attempt(&self, a: Attempt) -> Result<RunStats, CellError> {
        if a.mode == EngineMode::Fast {
            return Ok(fastmode::run_fast(self.cfg, self.workload, self.org));
        }
        let mut cfg = self.cfg.clone();
        cfg.watchdog_cycles = sweep::escalate_budget(cfg.watchdog_cycles, a.n);
        let mut b = SimBuilder::new(cfg).organization(self.org);
        if let Some(sac) = self.sac {
            b = b.sac_config(sac);
        }
        Ok(b.build()?.run(self.workload)?)
    }
}

/// Run one `(workload, organization)` simulation on the cycle engine.
///
/// # Panics
/// Panics on any simulation error; sweeps run [`SimCell::attempt`].
pub fn run_one(cfg: &MachineConfig, workload: &Workload, org: LlcOrgKind) -> RunStats {
    SimCell::new(cfg, workload, org)
        .attempt(Attempt::cycle(0))
        .unwrap_or_else(|e| panic!("{}/{org}: {e}", workload.name))
}

/// Like [`run_one`], but with the observability layer configured by
/// `obs`: the returned [`ObsReport`] carries the run's latency histograms,
/// epoch timeline, and (at the trace level) the Chrome-trace JSON. The
/// report is `None` when `obs` is off. The [`RunStats`] are byte-identical
/// to an unobserved run at any level — the observer is strictly read-only.
///
/// # Panics
/// Panics on any simulation error.
pub fn run_one_observed(
    cfg: &MachineConfig,
    workload: &Workload,
    org: LlcOrgKind,
    obs: ObsConfig,
) -> (RunStats, Option<ObsReport>) {
    let run = || -> Result<_, CellError> {
        let mut sim = SimBuilder::new(cfg.clone())
            .organization(org)
            .observability(obs)
            .build()?;
        let stats = sim.run(workload)?;
        Ok((stats, sim.take_obs_report()))
    };
    run().unwrap_or_else(|e| panic!("{}/{org}: {e}", workload.name))
}

/// The journal identity of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellKey {
    /// Cell name, unique within one sweep (`"SN/SAC"`, `"sn_memside"`).
    pub name: String,
    /// Canonical description of the cell's inputs ([`cell_config_desc`]).
    /// Its FNV-1a-64 hash keys the journal record; the description itself
    /// guards replays against hash collisions.
    pub desc: String,
}

/// Run `cells` as isolated, journaled sweep cells on the sweep pool and
/// return their stats in input order. This is the one journaled cell
/// runner: the figure sweeps ([`run_profiles`]) and the golden sweep
/// ([`golden::run_sweep`]) both call it, and `attempt(cell, a)` runs one
/// attempt of a cell (normally [`SimCell::attempt`]).
///
/// For each cell, with journaling enabled (see [`SweepOptions`]): a
/// completed record with a matching key replays without re-running; a
/// quarantined record seeds the attempt counter, so a resume continues
/// the budget escalation where the interrupted run stopped instead of
/// restarting it from zero. Otherwise the cell runs with bounded retries
/// ([`sweep::run_cell_from`]), and its terminal outcome is appended to the
/// journal the moment the cell finishes.
/// Fast-mode cells get a distinct key, so a fast journal can never replay
/// into a cycle sweep (or vice versa); cycle-mode keys are unchanged, so
/// existing journals stay valid.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell; every sibling still
/// completed and was journaled.
///
/// # Panics
/// On journal I/O failures, and when resuming a journal recorded in
/// another engine mode.
pub fn run_journaled<C: Send>(
    cells: Vec<(CellKey, C)>,
    opts: &SweepOptions,
    attempt: impl Fn(&C, Attempt) -> Result<RunStats, CellError> + Sync,
) -> Result<Vec<RunStats>, SweepFailure> {
    let journal = opts.open_journal();
    let names: Vec<String> = cells.iter().map(|(k, _)| k.name.clone()).collect();
    let outcomes = sweep::map(cells, |(key, cell)| {
        let CellKey { name, mut desc } = key;
        if opts.mode != EngineMode::Cycle {
            desc.push_str("|mode:");
            desc.push_str(opts.mode.token());
        }
        let hash = journal::fnv1a_64(desc.as_bytes());
        let mut prior_attempts = 0;
        if let Some(j) = &journal {
            let guard = j.lock().expect("journal lock");
            if let Some(r) = guard.lookup_verified(&name, hash, &desc) {
                match &r.outcome {
                    RecordOutcome::Completed { .. } => {
                        if let Ok(Some(stats)) = r.stats() {
                            eprintln!("  replayed {name} from journal");
                            return CellOutcome {
                                attempts: 0,
                                result: Ok(stats),
                            };
                        }
                    }
                    RecordOutcome::Quarantined { .. } => {
                        prior_attempts = r.attempts;
                        eprintln!("  retrying quarantined {name} from attempt {prior_attempts}");
                    }
                }
            }
        }
        let out = sweep::run_cell_from(prior_attempts, |n| {
            attempt(&cell, Attempt { n, mode: opts.mode })
        });
        if let Some(j) = &journal {
            let outcome = match &out.result {
                Ok(stats) => RecordOutcome::Completed {
                    stats_json: stats.to_canonical_json(),
                },
                Err(e) => RecordOutcome::Quarantined {
                    kind: e.kind().to_string(),
                    error: e.to_string(),
                },
            };
            j.lock()
                .expect("journal lock")
                .append(JournalRecord {
                    cell: name.clone(),
                    config_hash: hash,
                    config: Some(desc),
                    mode: Some(opts.mode.token().to_string()),
                    attempts: out.attempts,
                    outcome,
                })
                .expect("write run journal");
        }
        match &out.result {
            Ok(_) => eprintln!("  finished {name}"),
            Err(e) => eprintln!(
                "  QUARANTINED {name} after {} attempt(s): {e}",
                out.attempts
            ),
        }
        out
    });
    collect_outcomes(outcomes, |i| names[i].clone())
}

/// Run one benchmark under the given organizations on `cfg`, fanning the
/// per-organization runs out over the sweep pool.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell; sibling cells still
/// completed (and were journaled, if `opts` enables journaling).
pub fn run_benchmark(
    cfg: &MachineConfig,
    profile: &BenchmarkProfile,
    params: &TraceParams,
    orgs: &[LlcOrgKind],
    opts: &SweepOptions,
) -> Result<BenchRows, SweepFailure> {
    let mut rows = run_profiles(cfg, std::slice::from_ref(profile), params, orgs, opts)?;
    Ok(rows.pop().expect("one profile yields one row"))
}

/// Run the full 16-benchmark suite under the given organizations on the
/// sweep pool: trace generation fans out per benchmark, then every
/// (benchmark × organization) simulation fans out independently. Results
/// are collected in input order, so the rows are identical to the serial
/// loop's for any `--jobs` value.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell.
pub fn run_suite(
    cfg: &MachineConfig,
    params: &TraceParams,
    orgs: &[LlcOrgKind],
    opts: &SweepOptions,
) -> Result<Vec<BenchRows>, SweepFailure> {
    run_profiles(cfg, &profiles::all_profiles(), params, orgs, opts)
}

/// [`run_suite`] over an explicit benchmark subset: every (benchmark ×
/// organization) cell, named `"BENCH/organization"`, runs through
/// [`run_journaled`].
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell.
pub fn run_profiles(
    cfg: &MachineConfig,
    profs: &[BenchmarkProfile],
    params: &TraceParams,
    orgs: &[LlcOrgKind],
    opts: &SweepOptions,
) -> Result<Vec<BenchRows>, SweepFailure> {
    eprintln!(
        "  sweep: {} benchmarks x {} organizations on {} thread(s)",
        profs.len(),
        orgs.len(),
        sweep::jobs()
    );
    let workloads: Vec<Arc<Workload>> =
        sweep::map(profs.to_vec(), |p| Arc::new(generate(cfg, &p, params)));
    let cells = profs
        .iter()
        .zip(&workloads)
        .flat_map(|(p, wl)| {
            orgs.iter().map(move |&org| {
                let key = CellKey {
                    name: format!("{}/{}", p.name, org.label()),
                    desc: cell_config_desc(cfg, params, p.name, org),
                };
                (key, SimCell::new(cfg, wl, org))
            })
        })
        .collect();
    let mut stats = run_journaled(cells, opts, SimCell::attempt)?.into_iter();
    Ok(profs
        .iter()
        .zip(&workloads)
        .map(|(p, wl)| BenchRows {
            profile: p.clone(),
            workload: Arc::clone(wl),
            runs: orgs
                .iter()
                .map(|&org| (org, stats.next().expect("one result per cell")))
                .collect(),
        })
        .collect())
}

/// Harmonic-mean speedup over `rows` filtered by preference (`None` = all).
pub fn group_speedup(
    rows: &[BenchRows],
    org: LlcOrgKind,
    pref: Option<profiles::Preference>,
) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| pref.is_none_or(|p| r.profile.preference == p))
        .map(|r| r.speedup(org))
        .collect();
    harmonic_mean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_smoke() {
        let cfg = experiment_config();
        let params = TraceParams {
            total_accesses: 20_000,
            ..TraceParams::quick()
        };
        let p = profiles::by_name("SN").unwrap();
        let rows = run_benchmark(
            &cfg,
            &p,
            &params,
            &[LlcOrgKind::MemorySide, LlcOrgKind::SmSide],
            &SweepOptions::none(),
        )
        .expect("healthy cells never quarantine");
        assert!((rows.speedup(LlcOrgKind::MemorySide) - 1.0).abs() < 1e-12);
        assert!(rows.speedup(LlcOrgKind::SmSide) > 0.0);
    }

    #[test]
    fn journaled_run_records_and_replays_cells() {
        let cfg = experiment_config();
        let params = TraceParams {
            total_accesses: 10_000,
            ..TraceParams::quick()
        };
        let p = profiles::by_name("SN").unwrap();
        let path =
            std::env::temp_dir().join(format!("sac-bench-journal-{}.jsonl", std::process::id()));
        let orgs = [LlcOrgKind::MemorySide, LlcOrgKind::Sac];

        let fresh = run_benchmark(
            &cfg,
            &p,
            &params,
            &orgs,
            &SweepOptions {
                journal: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records().len(), 2, "one record per cell");

        // Resuming replays both cells byte-identically without re-running.
        let resumed = run_benchmark(
            &cfg,
            &p,
            &params,
            &orgs,
            &SweepOptions {
                resume: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        for org in orgs {
            assert_eq!(
                resumed.stats(org).to_canonical_json(),
                fresh.stats(org).to_canonical_json()
            );
        }
        assert_eq!(
            Journal::open(&path).unwrap().records().len(),
            2,
            "replayed cells are not re-journaled"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
