//! Crash-safe sweep integration tests.
//!
//! Covers the durability contract end to end through the one cell runner
//! every sweep uses (`run_journaled`): per-cell isolation (a panicking or
//! deadlocked cell never poisons siblings), deterministic bounded retries
//! with quarantine and watchdog escalation, and the resumable JSONL run
//! journal — including that a `--resume` from a truncated journal
//! reproduces byte-identical canonical stats while re-executing only the
//! missing or quarantined cells, and that a resumed quarantined cell
//! continues its journaled attempt count.

use mcgpu_sim::{DeadlockSnapshot, RunStats, SimError};
use mcgpu_trace::{profiles, TraceParams};
use mcgpu_types::LlcOrgKind;
use proptest::prelude::*;
use sac_bench::journal::{cell_config_desc, fnv1a_64};
use sac_bench::sweep::{CellError, MAX_ATTEMPTS};
use sac_bench::{
    cell_config_hash, golden, run_benchmark, run_journaled, run_profiles, CellKey, Journal,
    JournalRecord, RecordOutcome, SweepOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sac-crash-safe-{name}-{}.jsonl",
        std::process::id()
    ))
}

fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: whatever subset of cells is injected to fail — by panic
    /// or by a typed deadlock — the shared journaled runner quarantines
    /// exactly the injected cells with the matching typed error and
    /// attempt count, while every healthy sibling completes and its
    /// journal record replays its own result.
    #[test]
    fn injected_failures_never_poison_siblings(
        faults in proptest::collection::vec(0u8..3, 1..24),
    ) {
        let path = tmp_path("siblings");
        let opts = SweepOptions {
            journal: Some(path.clone()),
            ..SweepOptions::none()
        };
        let cells = faults
            .iter()
            .enumerate()
            .map(|(i, &fault)| {
                let name = format!("cell{i}");
                (CellKey { name: name.clone(), desc: name }, (i, fault))
            })
            .collect();
        let result = quiet_panics(|| {
            run_journaled(cells, &opts, |&(i, fault), _| match fault {
                0 => Ok(stats_with_cycles(i as u64)),
                1 => panic!("injected panic in cell {i}"),
                _ => Err(CellError::Sim(SimError::Deadlock {
                    cycle: 1_000,
                    window: 100,
                    snapshot: Box::new(DeadlockSnapshot::default()),
                })),
            })
        });
        let (completed, quarantined) = match result {
            Ok(stats) => (stats.len(), Vec::new()),
            Err(failure) => (failure.completed, failure.quarantined),
        };
        let injected: Vec<(usize, u8)> =
            faults.iter().copied().enumerate().filter(|&(_, f)| f != 0).collect();
        prop_assert_eq!(completed, faults.len() - injected.len());
        prop_assert_eq!(quarantined.len(), injected.len());
        for (q, &(i, fault)) in quarantined.iter().zip(&injected) {
            prop_assert_eq!(&q.cell, &format!("cell{i}"));
            if fault == 1 {
                // Panics are bugs: quarantined on the first attempt.
                prop_assert_eq!(q.attempts, 1);
                prop_assert!(matches!(&q.error, CellError::Panic { message }
                    if *message == format!("injected panic in cell {i}")));
            } else {
                // Deadlocks are budget trips: retried with escalating
                // budgets, then quarantined.
                prop_assert_eq!(q.attempts, MAX_ATTEMPTS);
                prop_assert_eq!(q.error.kind(), "deadlock");
            }
        }
        let j = Journal::open(&path).unwrap();
        prop_assert_eq!(j.records().len(), faults.len(), "every cell outcome is journaled");
        for (i, &fault) in faults.iter().enumerate() {
            let name = format!("cell{i}");
            let rec = j.lookup(&name, fnv1a_64(name.as_bytes())).expect("journaled");
            if fault == 0 {
                prop_assert_eq!(rec.attempts, 1);
                prop_assert_eq!(rec.stats().unwrap(), Some(stats_with_cycles(i as u64)));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Stats to stand in for a simulation result: a committed golden
/// snapshot with its cycle count replaced, so every cell is distinct.
fn stats_with_cycles(cycles: u64) -> RunStats {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sn_memside.json");
    let mut stats = RunStats::from_canonical_json(&std::fs::read_to_string(path).unwrap())
        .expect("committed snapshot parses");
    stats.cycles = cycles;
    stats
}

/// A journaled sweep with an injected panicking cell, driven through the
/// shared journaled cell runner: siblings complete, the failure lands in
/// the journal as a typed record, and a resume re-executes only the
/// failed cell, continuing its attempt count.
#[test]
fn resume_reruns_only_the_failed_cell() {
    let path = tmp_path("rerun-failed");
    let executions = AtomicUsize::new(0);
    let run_pass = |opts: SweepOptions, panic_on: Option<&str>| {
        let cells = ["a", "b", "c", "d"]
            .into_iter()
            .zip(0u64..)
            .map(|(name, cycles)| {
                let key = CellKey {
                    name: name.to_string(),
                    desc: name.to_string(),
                };
                (key, (name, cycles))
            })
            .collect();
        quiet_panics(|| {
            run_journaled(cells, &opts, |&(name, cycles), _| {
                executions.fetch_add(1, Ordering::Relaxed);
                if Some(name) == panic_on {
                    panic!("injected panic in {name}");
                }
                Ok(stats_with_cycles(cycles))
            })
        })
    };

    // First pass: cell "c" panics; the other three complete and are
    // journaled alongside the typed failure record, and the sweep reports
    // exactly the failed cell.
    let failure = run_pass(
        SweepOptions {
            journal: Some(path.clone()),
            ..SweepOptions::none()
        },
        Some("c"),
    )
    .expect_err("a panicking cell is quarantined");
    assert_eq!(executions.load(Ordering::Relaxed), 4);
    assert_eq!(failure.completed, 3);
    assert_eq!(failure.quarantined.len(), 1);
    assert_eq!(failure.quarantined[0].cell, "c");
    assert_eq!(failure.quarantined[0].attempts, 1, "panics are not retried");
    let j = Journal::open(&path).unwrap();
    assert_eq!(j.records().len(), 4, "every cell outcome is journaled");
    let failed = j
        .lookup("c", sac_bench::journal::fnv1a_64(b"c"))
        .expect("failure recorded");
    assert_eq!(
        failed.outcome,
        RecordOutcome::Quarantined {
            kind: "panic".to_string(),
            error: "cell panicked: injected panic in c".to_string(),
        }
    );

    // Resume: only the quarantined cell re-executes, and its new completed
    // record supersedes the quarantine.
    executions.store(0, Ordering::Relaxed);
    let stats = run_pass(
        SweepOptions {
            resume: Some(path.clone()),
            ..SweepOptions::none()
        },
        None,
    )
    .expect("the resumed sweep completes");
    assert_eq!(
        executions.load(Ordering::Relaxed),
        1,
        "resume re-executes only the failed cell"
    );
    let cycles: Vec<u64> = stats.iter().map(|s| s.cycles).collect();
    assert_eq!(cycles, [0, 1, 2, 3], "replayed and re-run cells, in order");
    let j = Journal::open(&path).unwrap();
    let rec = j.lookup("c", sac_bench::journal::fnv1a_64(b"c")).unwrap();
    assert_eq!(
        rec.outcome,
        RecordOutcome::Completed {
            stats_json: stats_with_cycles(2).to_canonical_json(),
        }
    );
    assert_eq!(rec.attempts, 2, "the resume continues the attempt count");
    std::fs::remove_file(&path).unwrap();
}

/// Retry escalation through a real simulation: SN memory-side trips a
/// 50-cycle watchdog on its first two attempts, clears the 200-cycle
/// window of the third, and the escalated run's canonical stats are
/// byte-identical to an unwatched run's — the window decides only when
/// to abort, never what a completing run computes. A 20-cycle window
/// still trips at 80 cycles, so that cell is quarantined after
/// `MAX_ATTEMPTS`.
#[test]
fn retry_escalation_clears_a_tight_watchdog() {
    let params = TraceParams {
        total_accesses: 20_000,
        ..TraceParams::standard()
    };
    let p = profiles::by_name("SN").unwrap();
    let org = LlcOrgKind::MemorySide;
    let with_window = |watchdog_cycles: u64| {
        let mut cfg = sac_bench::experiment_config();
        cfg.watchdog_cycles = watchdog_cycles;
        cfg
    };
    let unwatched = run_benchmark(
        &with_window(u64::MAX),
        &p,
        &params,
        &[org],
        &SweepOptions::none(),
    )
    .expect("an unwatched run completes");

    let path = tmp_path("escalation");
    let opts = SweepOptions {
        journal: Some(path.clone()),
        ..SweepOptions::none()
    };
    let escalated = run_benchmark(&with_window(50), &p, &params, &[org], &opts)
        .expect("escalation clears the watchdog without quarantining the cell");
    assert_eq!(
        escalated.stats(org).to_canonical_json(),
        unwatched.stats(org).to_canonical_json()
    );
    let j = Journal::open(&path).unwrap();
    assert_eq!(j.records().len(), 1);
    assert_eq!(j.records()[0].attempts, 3, "completed on the third attempt");
    assert!(matches!(
        j.records()[0].outcome,
        RecordOutcome::Completed { .. }
    ));

    let failure = run_benchmark(&with_window(20), &p, &params, &[org], &opts)
        .err()
        .expect("a 20-cycle window trips on every attempt");
    assert_eq!(failure.quarantined.len(), 1);
    assert_eq!(failure.quarantined[0].attempts, MAX_ATTEMPTS);
    assert_eq!(failure.quarantined[0].error.kind(), "deadlock");
    std::fs::remove_file(&path).unwrap();
}

/// Interrupt-and-resume at the `run_profiles` level: truncating the
/// journal (as a mid-run SIGKILL would) and resuming yields canonical
/// stats byte-identical to the uninterrupted run's.
#[test]
fn resume_from_truncated_journal_is_byte_identical() {
    let cfg = sac_bench::experiment_config();
    let params = TraceParams {
        total_accesses: 8_000,
        ..TraceParams::quick()
    };
    let profs = vec![profiles::by_name("SN").unwrap()];
    let orgs = [LlcOrgKind::MemorySide, LlcOrgKind::Sac];
    let path = tmp_path("truncated-resume");

    let fresh = run_profiles(
        &cfg,
        &profs,
        &params,
        &orgs,
        &SweepOptions {
            journal: Some(path.clone()),
            ..SweepOptions::none()
        },
    )
    .unwrap();
    let reference: Vec<String> = orgs
        .iter()
        .map(|&o| fresh[0].stats(o).to_canonical_json())
        .collect();

    // Simulate a kill mid-run twice over: drop the second record entirely,
    // and tear the remaining line in half.
    let text = std::fs::read_to_string(&path).unwrap();
    let first_line_len = text.lines().next().unwrap().len();
    std::fs::write(&path, &text[..first_line_len + 1 + first_line_len / 2]).unwrap();
    assert_eq!(
        Journal::open(&path).unwrap().records().len(),
        1,
        "torn tail is dropped, intact prefix survives"
    );

    let resumed = run_profiles(
        &cfg,
        &profs,
        &params,
        &orgs,
        &SweepOptions {
            resume: Some(path.clone()),
            ..SweepOptions::none()
        },
    )
    .unwrap();
    for (i, &org) in orgs.iter().enumerate() {
        assert_eq!(
            resumed[0].stats(org).to_canonical_json(),
            reference[i],
            "{}: resumed stats must be byte-identical",
            org.label()
        );
    }
    // The re-run cell was journaled again; the replayed one was not.
    assert_eq!(Journal::open(&path).unwrap().records().len(), 2);

    // A stale config hash must force a re-run rather than replaying stats
    // from a different experiment.
    let mut other = cfg.clone();
    other.watchdog_cycles += 1;
    assert_ne!(
        cell_config_hash(&cfg, &params, "SN", LlcOrgKind::Sac),
        cell_config_hash(&other, &params, "SN", LlcOrgKind::Sac)
    );
    std::fs::remove_file(&path).unwrap();
}

/// A `--resume` of a quarantined cell continues the journaled
/// attempt/backoff sequence instead of restarting it from zero, whatever
/// kind the quarantine record carries, in the figure sweeps and the golden
/// sweep alike.
#[test]
fn resume_continues_attempt_counts_for_quarantined_cells() {
    let cfg = sac_bench::experiment_config();
    let params = TraceParams {
        total_accesses: 12_000,
        ..TraceParams::quick()
    };
    let p = profiles::by_name("SN").unwrap();
    let orgk = LlcOrgKind::MemorySide;
    let figure_sweep = |opts: &SweepOptions| {
        run_benchmark(&cfg, &p, &params, &[orgk], opts)
            .unwrap()
            .stats(orgk)
            .to_canonical_json()
    };
    let case = golden::suite()
        .into_iter()
        .find(|c| c.name == "sn_memside")
        .unwrap();
    let golden_sweep = |opts: &SweepOptions| {
        golden::run_sweep(std::slice::from_ref(&case), opts, Duration::ZERO)
            .unwrap()
            .remove(0)
    };
    // Each input: cell name, input description, the sweep entry point it
    // resumes through (`run_benchmark` for the figure sweeps,
    // `golden::run_sweep` for `golden_sweep`), and its uninterrupted result.
    type Sweep<'a> = &'a dyn Fn(&SweepOptions) -> String;
    let inputs: [(String, String, Sweep, String); 2] = [
        (
            format!("{}/{}", p.name, orgk.label()),
            cell_config_desc(&cfg, &params, p.name, orgk),
            &figure_sweep,
            figure_sweep(&SweepOptions::none()),
        ),
        (
            case.name.to_string(),
            case.config_desc(),
            &golden_sweep,
            case.run(),
        ),
    ];

    for (name, desc, sweep, fresh) in &inputs {
        let hash = fnv1a_64(desc.as_bytes());
        // Seed a journal that says this cell was quarantined after 2
        // attempts (as an interrupted earlier sweep would have recorded).
        // `cancelled` and `checkpoint` are no longer emitted, but older
        // journals carry them; the kind is an opaque string, so such a
        // record resumes like any other.
        for kind in ["deadlock", "cancelled", "checkpoint"] {
            let jpath = tmp_path(&format!("attempts-{kind}-{}", fnv1a_64(name.as_bytes())));
            let mut j = Journal::create(&jpath).unwrap();
            j.append(JournalRecord {
                cell: name.clone(),
                config_hash: hash,
                config: Some(desc.clone()),
                mode: None,
                attempts: 2,
                outcome: RecordOutcome::Quarantined {
                    kind: kind.to_string(),
                    error: "seeded by test".to_string(),
                },
            })
            .unwrap();
            drop(j);

            let opts = SweepOptions {
                resume: Some(jpath.clone()),
                ..SweepOptions::none()
            };
            // The watchdog window only decides when to abort, never what
            // a completing run computes, so the escalated retry stays
            // identical.
            assert_eq!(&sweep(&opts), fresh, "{name}/{kind}");
            let back = Journal::open(&jpath).unwrap();
            let rec = back.lookup(name, hash).expect("the retry was journaled");
            assert!(
                matches!(rec.outcome, RecordOutcome::Completed { .. }),
                "{name}/{kind}"
            );
            assert_eq!(
                rec.attempts, 3,
                "{name}/{kind}: 2 journaled attempts + 1 fresh attempt: escalation resumed, not reset"
            );
            std::fs::remove_file(&jpath).unwrap();
        }
    }
}
