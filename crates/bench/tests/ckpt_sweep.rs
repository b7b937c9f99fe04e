//! Sweep-level checkpoint/resume wiring tests.
//!
//! The engine-level property — restore-then-run is byte-identical to an
//! uninterrupted run — is proven by `crates/sim/tests/ckpt_identity.rs`.
//! These tests prove the *plumbing above it*: a sweep with `--state-dir`
//! finds an interrupted cell's snapshot under the documented name,
//! resumes from it, produces byte-identical statistics, and consumes the
//! snapshot; a corrupt snapshot falls back to a full run instead of
//! failing the cell; and a `--resume` of a quarantined cell continues the
//! journaled attempt/backoff sequence instead of restarting it from
//! zero, whatever kind the quarantine record carries, in the figure
//! sweeps and the golden sweep alike.

use mcgpu_sim::{SimBuilder, SimError, Simulator};
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::{LlcOrgKind, MachineConfig, ObsConfig};
use sac_bench::journal::{cell_config_desc, fnv1a_64};
use sac_bench::{
    experiment_config, golden, run_benchmark, state, Journal, JournalRecord, RecordOutcome,
    SweepOptions,
};
use std::path::PathBuf;
use std::time::Duration;

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sac-ckpt-sweep-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn test_params() -> TraceParams {
    TraceParams {
        total_accesses: 12_000,
        ..TraceParams::quick()
    }
}

/// Run a cell to a mid-kernel cycle cut (simulating a `SIGKILL`) and
/// return the interrupted simulator plus its workload.
fn interrupt_cell(
    cfg: &MachineConfig,
    bench: &str,
    orgk: LlcOrgKind,
    obs: ObsConfig,
    cut: u64,
) -> (Simulator, Workload) {
    let wl = generate(cfg, &profiles::by_name(bench).unwrap(), &test_params());
    let mut sim = SimBuilder::new(cfg.clone())
        .organization(orgk)
        .observability(obs)
        .max_cycles(cut)
        .build()
        .unwrap();
    match sim.run(&wl) {
        Err(SimError::CycleLimit { .. }) => {}
        other => panic!("expected the cycle cut to interrupt the run, got {other:?}"),
    }
    assert_eq!(sim.cycle(), cut);
    (sim, wl)
}

#[test]
fn interrupted_cell_resumes_from_snapshot_byte_identically() {
    let cfg = experiment_config();
    let p = profiles::by_name("SN").unwrap();
    let orgk = LlcOrgKind::Sac;
    let fresh = run_benchmark(&cfg, &p, &test_params(), &[orgk], &SweepOptions::none()).unwrap();

    // Simulate a kill mid-cell: snapshot an interrupted run at the exact
    // path the sweep derives for this cell.
    let dir = tdir("resume");
    let name = format!("{}/{}", p.name, orgk.label());
    let hash = fnv1a_64(cell_config_desc(&cfg, &test_params(), p.name, orgk).as_bytes());
    let snap = state::cell_snapshot_path(&dir, &name, hash);
    let (victim, wl) = interrupt_cell(&cfg, p.name, orgk, ObsConfig::off(), 1500);
    victim.write_checkpoint(&snap, &wl).unwrap();

    let opts = SweepOptions {
        state_dir: Some(dir.clone()),
        ..SweepOptions::none()
    };
    let resumed = run_benchmark(&cfg, &p, &test_params(), &[orgk], &opts).unwrap();
    assert_eq!(
        resumed.stats(orgk).to_canonical_json(),
        fresh.stats(orgk).to_canonical_json(),
        "mid-cell resume must be byte-identical to the uninterrupted run"
    );
    assert!(
        !snap.exists(),
        "a completed cell's snapshot is superseded and removed"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_snapshot_falls_back_to_a_full_run() {
    let cfg = experiment_config();
    let p = profiles::by_name("SN").unwrap();
    let orgk = LlcOrgKind::MemorySide;
    let fresh = run_benchmark(&cfg, &p, &test_params(), &[orgk], &SweepOptions::none()).unwrap();

    let dir = tdir("corrupt");
    let name = format!("{}/{}", p.name, orgk.label());
    let hash = fnv1a_64(cell_config_desc(&cfg, &test_params(), p.name, orgk).as_bytes());
    let snap = state::cell_snapshot_path(&dir, &name, hash);
    std::fs::write(&snap, b"not a snapshot at all").unwrap();

    let opts = SweepOptions {
        state_dir: Some(dir.clone()),
        ..SweepOptions::none()
    };
    let resumed = run_benchmark(&cfg, &p, &test_params(), &[orgk], &opts)
        .expect("a corrupt snapshot must cost a re-run, not the cell");
    assert_eq!(
        resumed.stats(orgk).to_canonical_json(),
        fresh.stats(orgk).to_canonical_json()
    );
    assert!(!snap.exists(), "the dead snapshot is cleaned up");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_continues_attempt_counts_for_quarantined_cells() {
    let cfg = experiment_config();
    let p = profiles::by_name("SN").unwrap();
    let orgk = LlcOrgKind::MemorySide;
    let figure_sweep = |opts: &SweepOptions| {
        run_benchmark(&cfg, &p, &test_params(), &[orgk], opts)
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
            cell_config_desc(&cfg, &test_params(), p.name, orgk),
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
        // `cancelled` is no longer emitted, but older journals carry it;
        // the kind is an opaque string, so such a record resumes like any
        // other.
        for kind in ["deadlock", "cancelled"] {
            let dir = tdir(&format!("attempts-{kind}-{}", fnv1a_64(name.as_bytes())));
            let jpath = dir.join("journal.jsonl");
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
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
