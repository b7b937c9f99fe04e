//! Golden-stats regression harness.
//!
//! Runs a small fixed suite of (benchmark, organization, machine-variant)
//! simulations through the parallel sweep runner, serializes each
//! [`mcgpu_sim::RunStats`] to canonical JSON, and compares it byte-for-byte
//! against the committed snapshot under `tests/golden/`, which must also
//! parse as JSON. Any behavioural drift in the simulator — intended or
//! not — fails here first.
//!
//! The three SAC cases stay memory-side at golden volume (no decision,
//! `overhead_cycles` 0). SAC's drain and flush are checked by the recorded
//! outputs in `results/` (the quick ablations, Fig. 13 and Fig. 15, the
//! resilience report and `obs_bfs_sac.json`) and by
//! `crates/sim/tests/organization_behaviors.rs`.
//!
//! The case definitions live in `sac_bench::golden`, shared with the
//! `golden_sweep` binary the CI kill/resume job drives, so a resumed
//! journaled sweep reproduces exactly the snapshots checked here.
//!
//! To regenerate the snapshots after an *intended* model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! then commit the diff under `tests/golden/` together with the change
//! that caused it.

use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{json, LlcOrgKind, MachineConfig};
use sac_bench::golden::suite;
use sac_bench::{run_one, sweep};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn golden_stats_match_committed_snapshots() {
    let cases = suite();
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();

    // The whole suite rides the same parallel runner the figure harnesses
    // use, so this test also exercises fan-out + input-order collection.
    let actual = sweep::map(cases, |c| (c.name, c.run()));

    let mut failures = Vec::new();
    for (name, json) in actual {
        if let Err(e) = json::parse(&json) {
            failures.push(format!("{name}: snapshot is not valid JSON: {e}"));
        }
        let path = dir.join(format!("{name}.json"));
        if update {
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, &json).expect("write snapshot");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == json => {}
            Ok(expected) => {
                let drift = expected
                    .lines()
                    .zip(json.lines())
                    .enumerate()
                    .find(|(_, (e, a))| e != a);
                failures.push(match drift {
                    Some((i, (e, a))) => {
                        format!("{name}: drift at line {}: expected `{e}`, got `{a}`", i + 1)
                    }
                    None => format!("{name}: snapshot length differs"),
                });
            }
            Err(_) => failures.push(format!(
                "{name}: missing snapshot {} (run UPDATE_GOLDEN=1 cargo test --test golden)",
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "golden-stats drift:\n  {}\n\nIf the change is intended, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden and commit the snapshot diff.",
        failures.join("\n  ")
    );
}

/// The serializer itself must be injective enough for the harness: two
/// different stats never serialize identically (spot-checked on the fields
/// the simulator actually varies).
#[test]
fn canonical_json_distinguishes_runs() {
    let cfg = MachineConfig::experiment_baseline();
    let params = TraceParams {
        total_accesses: 5_000,
        ..TraceParams::quick()
    };
    let profile = profiles::by_name("SN").expect("profile");
    let wl = generate(&cfg, &profile, &params);
    let a = run_one(&cfg, &wl, LlcOrgKind::MemorySide).to_canonical_json();
    let b = run_one(&cfg, &wl, LlcOrgKind::SmSide).to_canonical_json();
    assert_ne!(a, b);
    // And the same run twice is byte-identical.
    let a2 = run_one(&cfg, &wl, LlcOrgKind::MemorySide).to_canonical_json();
    assert_eq!(a, a2);
}
