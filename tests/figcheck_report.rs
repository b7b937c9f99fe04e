//! Figcheck report regression + determinism harness.
//!
//! Three claims are pinned here, all at the byte level of the canonical
//! `mcgpu-figcheck-v1` report:
//!
//! 1. **Run-to-run determinism** — two independent suite sweeps produce
//!    identical reports, and a journaled sweep replayed with `resume`
//!    (the path the CI kill/resume job exercises with a real SIGKILL in
//!    `scripts/ci_figcheck.sh`) reproduces the same bytes without
//!    re-simulating a single cell.
//! 2. **Thread-count independence** — the golden metric table built on a
//!    1-thread pool equals the one built on a 4-thread pool, so the
//!    verdicts cannot depend on sweep scheduling.
//! 3. **Golden snapshot** — the report of the 8-case golden suite scored
//!    against `expectations/golden_smoke.json` matches the committed
//!    snapshot `tests/golden/figcheck_golden.json` byte-for-byte.
//!
//! To regenerate the snapshot after an *intended* model or expectation
//! change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test figcheck_report
//! ```

use mcgpu_trace::{profiles, TraceParams};
use mcgpu_types::{ExpectationSet, LlcOrgKind};
use sac_bench::{figcheck, run_profiles, SweepOptions};
use std::path::PathBuf;

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// A small two-benchmark (one SP, one MP) expectation set whose observed
/// values cover speedups, harmonic means, local fractions, bandwidth and
/// working sets — enough surface that a nondeterministic measurement
/// would change the report bytes.
const SUITE_SET: &str = r#"{
  "schema": "mcgpu-expect-v1",
  "source": "determinism fixture",
  "expectations": [
    {
      "id": "fix/SN/sm-beats-mem",
      "figure": "fig08",
      "severity": "shape",
      "check": {
        "kind": "ordering",
        "left": {"metric": "speedup", "bench": "SN", "org": "SM-side"},
        "right": {"metric": "speedup", "bench": "SN", "org": "memory-side"},
        "min_ratio": 1.0
      },
      "note": ""
    },
    {
      "id": "fix/hmean/sp-sm",
      "figure": "fig08",
      "severity": "magnitude",
      "check": {
        "kind": "band",
        "value": {"metric": "hmean_speedup", "group": "SP", "org": "SM-side"},
        "lo": 0.0,
        "hi": 100.0
      },
      "note": ""
    },
    {
      "id": "fix/SRAD/local-fraction",
      "figure": "fig09",
      "severity": "magnitude",
      "check": {
        "kind": "band",
        "value": {"metric": "local_fraction", "bench": "SRAD", "org": "SAC"},
        "lo": 0.0,
        "hi": 1.0
      },
      "note": ""
    },
    {
      "id": "fix/SN/bw-total",
      "figure": "fig10",
      "severity": "magnitude",
      "check": {
        "kind": "band",
        "value": {"metric": "bw_total", "bench": "SN", "org": "SM-side"},
        "lo": 0.0,
        "hi": 100.0
      },
      "note": ""
    },
    {
      "id": "fix/SN/working-set",
      "figure": "fig11",
      "severity": "magnitude",
      "check": {
        "kind": "band",
        "value": {"metric": "working_set_mb", "bench": "SN", "window": 1000},
        "lo": 0.0,
        "hi": 1000.0
      },
      "note": ""
    },
    {
      "id": "fix/SN/false-shared",
      "figure": "table04",
      "severity": "magnitude",
      "check": {
        "kind": "band",
        "value": {"metric": "measured_mb", "bench": "SN", "field": "false_shared_mb"},
        "lo": 0.0,
        "hi": 1000.0
      },
      "note": ""
    }
  ]
}"#;

fn suite_report(opts: &SweepOptions) -> String {
    let cfg = sac_bench::experiment_config();
    let params = TraceParams {
        total_accesses: 15_000,
        ..TraceParams::quick()
    };
    let profs = ["SN", "SRAD"].map(|n| profiles::by_name(n).expect("known benchmark"));
    let rows =
        run_profiles(&cfg, &profs, &params, &LlcOrgKind::ALL, opts).expect("sweep completes");
    let metrics = figcheck::suite_metrics(&cfg, &rows);
    let set = ExpectationSet::parse(SUITE_SET).expect("fixture parses");
    figcheck::evaluate(&set, &metrics, "test").to_canonical_json()
}

#[test]
fn suite_report_is_byte_deterministic_across_runs_and_resume() {
    let first = suite_report(&SweepOptions::none());
    let second = suite_report(&SweepOptions::none());
    assert_eq!(first, second, "two independent sweeps drifted");

    // Journal a third run, then replay it via `resume`: every cell comes
    // back from the journal (nothing is re-simulated) and the report
    // bytes must still match.
    let journal =
        std::env::temp_dir().join(format!("figcheck-journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let journaled = suite_report(&SweepOptions {
        journal: Some(journal.clone()),
        ..SweepOptions::none()
    });
    assert_eq!(first, journaled, "journaled sweep drifted");
    let resumed = suite_report(&SweepOptions {
        resume: Some(journal.clone()),
        ..SweepOptions::none()
    });
    assert_eq!(first, resumed, "resumed sweep drifted");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn golden_report_thread_independent_and_matches_snapshot() {
    let set_text = std::fs::read_to_string(manifest_path("expectations/golden_smoke.json"))
        .expect("read expectations/golden_smoke.json");
    let set = ExpectationSet::parse(&set_text).expect("golden_smoke parses");

    let serial = figcheck::evaluate(&set, &figcheck::golden_metrics(1), "golden");
    let parallel = figcheck::evaluate(&set, &figcheck::golden_metrics(4), "golden");
    let json = serial.to_canonical_json();
    assert_eq!(
        json,
        parallel.to_canonical_json(),
        "golden report depends on sweep thread count"
    );

    let path = manifest_path("tests/golden/figcheck_golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect(
        "missing tests/golden/figcheck_golden.json; run UPDATE_GOLDEN=1 cargo test --test figcheck_report",
    );
    if expected != json {
        let drift = expected
            .lines()
            .zip(json.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        match drift {
            Some((i, (e, a))) => panic!(
                "figcheck_golden.json drifted at line {}:\n  expected: {e}\n  actual:   {a}",
                i + 1
            ),
            None => panic!("figcheck_golden.json drifted (length changed)"),
        }
    }

    // The committed snapshot is also expected to be green: the golden
    // smoke expectations are calibrated to pass at golden volume, so a
    // shape regression fails the golden test too, not just CI's figcheck
    // job.
    assert!(
        !serial.gates(),
        "golden smoke expectations report a shape regression:\n{}",
        figcheck::scorecard(&serial)
    );
}
