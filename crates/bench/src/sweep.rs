//! Parallel sweep runner shared by every figure/table harness binary.
//!
//! Every figure of the paper is a sweep of independent (benchmark ×
//! organization × configuration) simulation runs. Each run is a pure
//! function of its inputs — it builds its own [`mcgpu_sim::Simulator`]
//! from a cloned config and a read-only workload — so the sweep fans the
//! runs out across threads and collects the results **in input order**,
//! making the output bit-identical to the serial loop regardless of
//! thread count (see `DESIGN.md`, "Parallel sweep runner and the
//! determinism contract").
//!
//! [`map`] is the fan-out primitive: the calling thread and `jobs - 1`
//! scoped helper threads claim the next item from one shared counter and
//! store its result by index. A panicking item stops further claims, and
//! its panic is re-raised on the caller once every thread has joined, so
//! it poisons the whole batch. Cells that produce `RunStats` therefore run
//! through [`crate::run_journaled`], which gives each cell bounded
//! retries ([`run_cell_from`]), catches its panics, and records it in the
//! run journal when one is open; the resilience report's fault runs,
//! which reduce to `Outcome`s, fan out on [`map`] directly.
//!
//! Thread count resolution, highest priority first:
//!
//! 1. `--jobs N` (or `--jobs=N`) on the command line,
//! 2. the `MCGPU_JOBS` environment variable,
//! 3. the number of available CPUs.
//!
//! A `--jobs` or `MCGPU_JOBS` value that does not parse exits with
//! status 2, naming the flag or variable.

use mcgpu_sim::SimError;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Thread count requested via `--jobs`/`MCGPU_JOBS`, or `None` to fall
/// through to the number of available CPUs.
fn configured_jobs() -> Option<usize> {
    crate::arg_value::<usize>("--jobs")
        .or_else(|| crate::env_value::<usize>("MCGPU_JOBS"))
        .map(|n| n.max(1))
}

/// The sweep's thread count, resolved once at first use.
pub fn jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        configured_jobs().unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    })
}

/// Run `f` over every item on [`jobs`] threads, returning results in input
/// order. This is the single fan-out primitive every harness binary uses;
/// `f` must be a pure function of its item (no shared mutable state), which
/// is what makes the result independent of the thread count.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    map_with_jobs(jobs(), items, f)
}

/// Like [`map`] but on exactly `jobs` threads, ignoring the
/// CLI/environment override. Used by the determinism tests to compare
/// 1-thread and N-thread executions of the same sweep.
///
/// With one thread or one item everything runs on the caller and no
/// helper thread is spawned.
pub fn map_with_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    let n = items.len();
    let helpers = jobs.min(n).saturating_sub(1);
    if helpers == 0 {
        return items.into_iter().map(f).collect();
    }
    // Each index is claimed by exactly one thread, so a slot's mutex is
    // never contended: it only moves the item to the claiming thread. The
    // counter publishes no data (the mutexes and the scope's joins do), so
    // its operations are relaxed.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || -> std::thread::Result<Vec<(usize, R)>> {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return Ok(done);
            };
            let item = slot
                .lock()
                .expect("slot never poisoned: locked once, by its claimer")
                .take()
                .expect("each index is claimed once");
            match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    next.store(n, Ordering::Relaxed);
                    return Err(payload);
                }
            }
        }
    };
    let parts = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut parts = vec![work()];
        parts.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("`work` catches every panic")),
        );
        parts
    });
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part.unwrap_or_else(|payload| panic::resume_unwind(payload)) {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index ran"))
        .collect()
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

/// Run one cell with bounded retries, continuing an earlier run's
/// attempt sequence.
///
/// `f(attempt)` executes attempt `attempt` (0-based) and is expected to
/// scale its own budgets deterministically, e.g. double the watchdog
/// window per attempt. Backoff is *budget escalation only*: there is no
/// wall-clock sleep and no randomness, so a sweep's results stay a pure
/// function of its inputs.
///
/// The first call is `f(prior_attempts)` and up to [`MAX_ATTEMPTS`]
/// *fresh* attempts execute, so a resumed quarantined cell keeps
/// escalating its budgets from where the interrupted run stopped instead
/// of re-running the attempts (and budgets) that already failed; a fresh
/// cell passes 0. The returned `attempts` is cumulative (prior plus
/// fresh attempts), which is what the run journal persists so a later
/// resume continues the same sequence.
///
/// Panics inside `f` are caught and converted to [`CellError::Panic`];
/// they never propagate to the caller or to sibling cells. Non-retryable
/// errors (see [`CellError::retryable`]) quarantine the cell immediately.
pub fn run_cell_from<R>(
    prior_attempts: u32,
    f: impl Fn(u32) -> Result<R, CellError>,
) -> CellOutcome<R> {
    let limit = prior_attempts.saturating_add(MAX_ATTEMPTS);
    let mut attempt = prior_attempts;
    loop {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| f(attempt)));
        let err = match caught {
            Ok(Ok(v)) => {
                return CellOutcome {
                    attempts: attempt + 1,
                    result: Ok(v),
                }
            }
            Ok(Err(e)) => e,
            Err(payload) => CellError::Panic {
                message: panic_message(payload.as_ref()),
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

/// Best-effort text of a panic payload: `panic!` with a literal carries a
/// `&'static str`, `panic!` with formatting carries a `String`; anything
/// else (a custom `panic_any` value) gets a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
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
        let expected: Vec<u64> = (0..257).map(|i: u64| i.wrapping_mul(0x9e37)).collect();
        for jobs in [1, 4, 8] {
            let runs = AtomicUsize::new(0);
            let out = map_with_jobs(jobs, (0..257).collect(), |i: u64| {
                runs.fetch_add(1, Ordering::Relaxed);
                i.wrapping_mul(0x9e37)
            });
            assert_eq!(runs.into_inner(), 257, "runs on {jobs} threads");
            assert_eq!(out, expected, "results on {jobs} threads");
        }
    }

    #[test]
    fn one_thread_or_one_item_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for (jobs, n) in [(1, 5), (4, 1)] {
            let ids = map_with_jobs(jobs, vec![(); n], |()| std::thread::current().id());
            assert_eq!(ids, vec![caller; n], "{jobs} threads, {n} items");
        }
    }

    #[test]
    #[should_panic(expected = "cell 11 failed")]
    fn a_panicking_item_reaches_the_caller() {
        map_with_jobs(4, (0..16).collect(), |i: u32| {
            if i == 11 {
                panic!("cell {i} failed");
            }
        });
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let literal: Box<dyn Any + Send> = Box::new("literal");
        assert_eq!(panic_message(literal.as_ref()), "literal");
        let formatted: Box<dyn Any + Send> = Box::new(String::from("formatted 7"));
        assert_eq!(panic_message(formatted.as_ref()), "formatted 7");
        let other: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn run_cell_retries_retryable_errors_with_escalation() {
        let out = run_cell_from(0, |attempt| {
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
        let out: CellOutcome<()> = run_cell_from(0, |_| {
            Err(CellError::Sim(SimError::CycleLimit { limit: 7 }))
        });
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
        let out: CellOutcome<()> = run_cell_from(0, |_| panic!("one-shot failure"));
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
}
