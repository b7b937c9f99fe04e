//! Observability inertness: golden byte-identity with observability ON.
//!
//! The observability layer's contract is that it is strictly read-only —
//! enabling it must not perturb the simulation by a single cycle. This
//! suite proves that at the strongest level available: every golden case
//! re-runs with full observability (histograms + timeline + trace sink)
//! and its `RunStats::to_canonical_json` must be **byte-identical to the
//! committed pre-observability snapshot** under `tests/golden/`. There is
//! deliberately no `UPDATE_GOLDEN` path here: if this test fails, the
//! observer leaked into the simulation and the observer is what must be
//! fixed, never the snapshots.

use mcgpu_types::{LlcOrgKind, ObsConfig};
use sac_bench::golden::{suite, Case};
use sac_bench::{run_one_observed, sweep};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Run a golden case with the given observability config, returning the
/// stats JSON and the report.
fn run_case_observed(c: &Case, obs: ObsConfig) -> (String, Option<mcgpu_sim::ObsReport>) {
    let (cfg, wl) = c.inputs();
    let (stats, report) = run_one_observed(&cfg, &wl, c.org, obs);
    (stats.to_canonical_json(), report)
}

#[test]
fn observed_runs_match_committed_goldens_byte_for_byte() {
    let dir = golden_dir();
    // Full observability, with an epoch window small enough that the
    // timeline sampler actually fires many times mid-run.
    let obs = ObsConfig::trace().with_epoch_window(1000);
    let results = sweep::map(suite(), move |c| {
        let (json, report) = run_case_observed(&c, obs);
        (c.name, json, report)
    });
    for (name, json, report) in results {
        let path = dir.join(format!("{name}.json"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        assert_eq!(
            json, expected,
            "{name}: RunStats changed under observability — the observer \
             fed back into the simulation"
        );
        let report = report.expect("observability was enabled");
        assert!(
            report.total_histogram().count() > 0,
            "{name}: observer recorded nothing"
        );
        assert!(
            report.trace_json.is_some(),
            "{name}: trace level produces a trace"
        );
        assert!(
            !report.timeline.is_empty(),
            "{name}: timeline has at least the trailing epoch"
        );
    }
}

#[test]
fn metrics_level_is_equally_inert() {
    // The cheaper level takes different code paths (no trace sink); pin it
    // on the two organizations with the most controller activity.
    let dir = golden_dir();
    for case in suite() {
        if !matches!(case.org, LlcOrgKind::Sac | LlcOrgKind::Dynamic) {
            continue;
        }
        let (json, report) = run_case_observed(&case, ObsConfig::metrics());
        let expected =
            std::fs::read_to_string(dir.join(format!("{}.json", case.name))).expect("snapshot");
        assert_eq!(
            json, expected,
            "{}: metrics level perturbed the run",
            case.name
        );
        let report = report.expect("observability was enabled");
        assert!(report.trace_json.is_none(), "metrics level has no trace");
    }
}

#[test]
fn observed_histograms_are_consistent_with_run_stats() {
    // The histograms count exactly the retired read responses: one
    // recording per responses_by_origin increment, split the same way.
    let case = suite().into_iter().find(|c| c.name == "sn_sac").unwrap();
    let (cfg, wl) = case.inputs();
    let (stats, report) = run_one_observed(&cfg, &wl, case.org, ObsConfig::metrics());
    let report = report.expect("observability was enabled");
    for (i, origin) in mcgpu_types::ResponseOrigin::ALL.into_iter().enumerate() {
        assert_eq!(
            report.class_histogram(origin).count(),
            stats.responses_by_origin[i],
            "class {} count must equal the engine's response counter",
            origin.label()
        );
    }
    assert_eq!(
        report.total_histogram().count(),
        stats.responses_by_origin.iter().sum::<u64>()
    );
}
