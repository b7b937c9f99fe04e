//! Parallel sweep runner shared by every figure/table harness binary.
//!
//! Every figure of the paper is a sweep of independent (benchmark ×
//! organization × configuration) simulation runs. Each run is a pure
//! function of its inputs — it builds its own [`mcgpu_sim::Simulator`]
//! from a cloned config and a read-only workload — so the sweep fans the
//! runs out across a thread pool and collects the results **in input
//! order**, making the output bit-identical to the serial loop regardless
//! of thread count (see `DESIGN.md`, "Sweep runner and the determinism
//! contract").
//!
//! Thread count resolution, highest priority first:
//!
//! 1. `--jobs N` (or `--jobs=N`) on the command line,
//! 2. the `MCGPU_JOBS` environment variable,
//! 3. the `RAYON_NUM_THREADS` environment variable (vendored-rayon
//!    default),
//! 4. the number of available CPUs.

use mcgpu_sim::SimError;
use std::sync::OnceLock;

/// Thread count requested via `--jobs`/`MCGPU_JOBS`, or `None` to fall
/// through to the rayon default (`RAYON_NUM_THREADS` / available CPUs).
pub fn configured_jobs() -> Option<usize> {
    crate::arg_value::<usize>("--jobs")
        .or_else(|| {
            std::env::var("MCGPU_JOBS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .map(|n| n.max(1))
}

/// The sweep's thread count after full resolution.
pub fn jobs() -> usize {
    match configured_jobs() {
        Some(n) => n,
        None => rayon::current_num_threads(),
    }
}

/// The process-wide sweep pool, sized by [`jobs`] at first use.
fn pool() -> &'static rayon::ThreadPool {
    static POOL: OnceLock<rayon::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(jobs())
            .build()
            .expect("sweep pool")
    })
}

/// Run `f` over every item on the sweep pool, returning results in input
/// order. This is the single fan-out primitive every harness binary uses;
/// `f` must be a pure function of its item (no shared mutable state), which
/// is what makes the result independent of the thread count.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    use rayon::prelude::*;
    pool().install(|| items.into_par_iter().map(f).collect())
}

/// Like [`map`] but on a dedicated pool of exactly `jobs` threads,
/// ignoring the CLI/environment override. Used by the determinism tests to
/// compare 1-thread and N-thread executions of the same sweep.
pub fn map_with_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    use rayon::prelude::*;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(jobs.max(1))
        .build()
        .expect("sweep pool");
    pool.install(|| items.into_par_iter().map(f).collect())
}

/// Typed failure of one sweep cell. Sibling cells keep running; the sweep
/// reports every failed cell instead of aborting on the first.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The cell's closure panicked; the payload's message was captured.
    Panic {
        /// The panic message.
        message: String,
    },
    /// The simulator returned a typed error.
    Sim(SimError),
}

impl CellError {
    /// Whether a retry with a relaxed budget can plausibly succeed.
    ///
    /// Cycle-limit and watchdog-deadlock aborts are budget trips — a
    /// slow-but-live run clears them with a bigger budget, and a true
    /// deadlock fails them again deterministically. Panics, configuration
    /// rejections and invariant violations are not; retrying the same
    /// deterministic run cannot change the outcome.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            CellError::Sim(SimError::CycleLimit { .. } | SimError::Deadlock { .. })
        )
    }

    /// Short machine-readable classification, used by the run journal.
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Panic { .. } => "panic",
            CellError::Sim(SimError::CycleLimit { .. }) => "cycle-limit",
            CellError::Sim(SimError::Deadlock { .. }) => "deadlock",
            CellError::Sim(SimError::InvariantViolation { .. }) => "invariant-violation",
            CellError::Sim(SimError::Config(_)) => "config",
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panic { message } => write!(f, "cell panicked: {message}"),
            CellError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CellError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CellError::Panic { .. } => None,
            CellError::Sim(e) => Some(e),
        }
    }
}

impl From<SimError> for CellError {
    fn from(e: SimError) -> Self {
        CellError::Sim(e)
    }
}

impl From<mcgpu_types::ConfigError> for CellError {
    fn from(e: mcgpu_types::ConfigError) -> Self {
        CellError::Sim(SimError::Config(e))
    }
}

/// The outcome of one isolated cell: how many attempts ran and the final
/// result. `result.is_err()` means the cell is quarantined — it either hit
/// a non-retryable error or exhausted [`MAX_ATTEMPTS`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome<R> {
    /// Attempts executed (1-based; 0 means the result was replayed from a
    /// journal without running).
    pub attempts: u32,
    /// The final result.
    pub result: Result<R, CellError>,
}

/// Retry budget per cell, counting the first attempt.
pub const MAX_ATTEMPTS: u32 = 3;

/// Deterministic budget escalation for retry attempt `attempt` (0-based):
/// `base × 2^attempt`, saturating at `u64::MAX`.
///
/// Shared by every retrying harness so the arithmetic is overflow-safe in
/// exactly one place. In particular `u64::MAX` — the documented "watchdog
/// disabled" sentinel — stays `u64::MAX` on every attempt instead of
/// overflowing inside the retry path, and an absurd attempt count cannot
/// trigger a shift-overflow panic.
pub fn escalate_budget(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
}

/// Run one cell in isolation with bounded retries.
///
/// `f(attempt)` executes attempt `attempt` (0-based) and is expected to
/// scale its own budgets deterministically — e.g. double the cycle budget
/// or watchdog window per attempt. Backoff is *budget escalation only*:
/// there is no wall-clock sleep and no randomness, so a sweep's results
/// stay a pure function of its inputs (the PR 2 determinism contract).
///
/// Panics inside `f` are caught and converted to [`CellError::Panic`];
/// they never propagate to the caller or to sibling cells. Non-retryable
/// errors (see [`CellError::retryable`]) quarantine the cell immediately.
pub fn run_cell<R>(f: impl Fn(u32) -> Result<R, CellError>) -> CellOutcome<R> {
    run_cell_from(0, f)
}

/// [`run_cell`] continuing an earlier run's attempt sequence: the first
/// call is `f(prior_attempts)` and up to [`MAX_ATTEMPTS`] *fresh* attempts
/// execute. A resumed quarantined cell therefore keeps escalating its
/// budgets from where the interrupted run stopped instead of re-running
/// the attempts (and budgets) that already failed. The returned
/// `attempts` is cumulative (`prior_attempts` + fresh attempts), which is
/// what the run journal persists so a later resume continues the same
/// sequence.
pub fn run_cell_from<R>(
    prior_attempts: u32,
    f: impl Fn(u32) -> Result<R, CellError>,
) -> CellOutcome<R> {
    let limit = prior_attempts.saturating_add(MAX_ATTEMPTS);
    let mut attempt = prior_attempts;
    loop {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(attempt)));
        let err = match caught {
            Ok(Ok(v)) => {
                return CellOutcome {
                    attempts: attempt + 1,
                    result: Ok(v),
                }
            }
            Ok(Err(e)) => e,
            Err(payload) => CellError::Panic {
                message: rayon::panic_message(payload.as_ref()),
            },
        };
        attempt += 1;
        if attempt >= limit || !err.retryable() {
            return CellOutcome {
                attempts: attempt,
                result: Err(err),
            };
        }
    }
}

/// Crash-safe variant of [`map`]: every item runs as an isolated cell
/// ([`run_cell`]) on the sweep pool, so a panicking or erroring cell yields
/// its own `Err` slot while every sibling still completes. Output order is
/// input order.
pub fn map_isolated<T, R, F>(items: Vec<T>, f: F) -> Vec<CellOutcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(&T, u32) -> Result<R, CellError> + Sync + Send,
{
    // `run_cell` already catches per-attempt panics; the outer `map_catch`
    // is a second net so that even a panic in the retry bookkeeping turns
    // into a typed outcome instead of poisoning the batch.
    pool()
        .install(|| rayon::map_catch(items, |item| run_cell(|attempt| f(&item, attempt))))
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|p| CellOutcome {
                attempts: 1,
                result: Err(CellError::Panic {
                    message: p.message().to_string(),
                }),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let out = map((0..64).collect(), |i: u64| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = map_with_jobs(1, (0..97).collect(), |i: u64| i.wrapping_mul(0x9e37));
        let parallel = map_with_jobs(8, (0..97).collect(), |i: u64| i.wrapping_mul(0x9e37));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_cell_retries_retryable_errors_with_escalation() {
        let out = run_cell(|attempt| {
            if attempt < 2 {
                Err(CellError::Sim(SimError::CycleLimit {
                    limit: 1000 << attempt,
                }))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.attempts, 3);
        assert_eq!(out.result, Ok(2));
    }

    #[test]
    fn run_cell_quarantines_after_exhausting_retries() {
        let out: CellOutcome<()> =
            run_cell(|_| Err(CellError::Sim(SimError::CycleLimit { limit: 7 })));
        assert_eq!(out.attempts, MAX_ATTEMPTS);
        assert_eq!(
            out.result,
            Err(CellError::Sim(SimError::CycleLimit { limit: 7 }))
        );
    }

    #[test]
    fn run_cell_from_continues_the_attempt_sequence() {
        // A cell quarantined at attempts=3 resumes with f(3), f(4), f(5):
        // escalation picks up where the interrupted run stopped.
        let seen = std::sync::Mutex::new(Vec::new());
        let out: CellOutcome<()> = run_cell_from(3, |attempt| {
            seen.lock().unwrap().push(attempt);
            Err(CellError::Sim(SimError::CycleLimit {
                limit: 1000 << attempt,
            }))
        });
        assert_eq!(*seen.lock().unwrap(), vec![3, 4, 5]);
        assert_eq!(out.attempts, 6, "attempts are cumulative across resumes");

        // Success on the first resumed attempt reports prior + 1.
        let out = run_cell_from(2, Ok::<u32, CellError>);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.result, Ok(2), "first fresh attempt is f(prior)");
    }

    #[test]
    fn run_cell_does_not_retry_panics() {
        let out: CellOutcome<()> = run_cell(|_| panic!("one-shot failure"));
        assert_eq!(out.attempts, 1);
        let err = out.result.unwrap_err();
        assert_eq!(err.kind(), "panic");
        assert_eq!(
            err,
            CellError::Panic {
                message: "one-shot failure".to_string()
            }
        );
    }

    #[test]
    fn escalation_saturates_at_disabled_watchdog_sentinel() {
        // `u64::MAX` means "watchdog disabled"; escalation must keep it
        // there on every attempt instead of overflowing (attempt 2 was the
        // first multiply that could trip a naive `base * (1 << attempt)`).
        for attempt in 0..MAX_ATTEMPTS {
            assert_eq!(escalate_budget(u64::MAX, attempt), u64::MAX);
        }
        // Large-but-finite windows saturate instead of wrapping.
        assert_eq!(escalate_budget(u64::MAX / 2 + 1, 1), u64::MAX);
        // Absurd attempt counts must not panic on shift overflow.
        assert_eq!(escalate_budget(1, 200), u64::MAX);
        assert_eq!(escalate_budget(0, 200), 0);
        // Normal doubling is untouched.
        assert_eq!(escalate_budget(1000, 0), 1000);
        assert_eq!(escalate_budget(1000, 2), 4000);
    }

    #[test]
    fn map_isolated_contains_a_panicking_cell() {
        let out = map_isolated((0..16).collect::<Vec<u64>>(), |&i, _| {
            if i == 11 {
                panic!("cell {i} exploded");
            }
            Ok(i * 2)
        });
        assert_eq!(out.len(), 16);
        for (i, cell) in out.iter().enumerate() {
            if i == 11 {
                assert!(matches!(&cell.result, Err(CellError::Panic { message })
                    if message == "cell 11 exploded"));
            } else {
                assert_eq!(cell.result, Ok(i as u64 * 2));
            }
        }
    }
}
