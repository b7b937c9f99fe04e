//! Property test pinning the `CellError` taxonomy across the journal
//! boundary: every variant's machine-readable `kind()` string, its
//! message and the attempt count must serialize into a quarantined
//! journal record and reload from disk unchanged. A `--resume` reads the
//! kind back as an opaque string and re-runs the cell whatever it says.

use mcgpu_sim::{ConservationReport, DeadlockSnapshot, SimError};
use proptest::prelude::*;
use sac_bench::sweep::CellError;
use sac_bench::{Journal, JournalRecord, RecordOutcome};
use std::path::PathBuf;

/// Every taxonomy variant, with arbitrary payloads where they exist.
fn cell_error_strategy() -> impl Strategy<Value = CellError> {
    prop_oneof![
        any::<u64>().prop_map(|n| CellError::Panic {
            // Exercise the escaping path: quotes, newlines, backslashes.
            message: format!("boom #{n}: \"quoted\"\n\\tail"),
        }),
        any::<u64>().prop_map(|limit| CellError::Sim(SimError::CycleLimit { limit })),
        (any::<u64>(), any::<u64>()).prop_map(|(cycle, window)| {
            CellError::Sim(SimError::Deadlock {
                cycle,
                window,
                snapshot: Box::<DeadlockSnapshot>::default(),
            })
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(cycle, in_flight, accounted)| {
            CellError::Sim(SimError::InvariantViolation {
                cycle,
                report: Box::new(ConservationReport {
                    in_flight,
                    accounted,
                    ..ConservationReport::default()
                }),
            })
        }),
        any::<u64>().prop_map(|n| {
            CellError::Sim(SimError::Config(mcgpu_types::ConfigError::new(format!(
                "rejected input {n}"
            ))))
        }),
    ]
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sac-cell-error-roundtrip-{tag}-{}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// kind → journal → disk → reload is the identity on the kind string,
    /// the message and the attempt count.
    #[test]
    fn taxonomy_round_trips_through_the_journal(
        err in cell_error_strategy(),
        attempts in 1u32..=5,
        case in 0u64..1_000_000,
    ) {
        let kind = err.kind();
        let message = err.to_string();

        let path = tmp_path(&format!("{case}"));
        let mut j = Journal::create(&path).unwrap();
        j.append(JournalRecord {
            cell: "PROP/cell".to_string(),
            config_hash: case,
            config: Some(format!("prop-desc-{case}")),
            mode: None,
            attempts,
            outcome: RecordOutcome::Quarantined {
                kind: kind.to_string(),
                error: message.clone(),
            },
        })
        .unwrap();

        let back = Journal::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let rec = back
            .lookup_verified("PROP/cell", case, &format!("prop-desc-{case}"))
            .expect("record survives reload");
        prop_assert_eq!(rec.attempts, attempts);
        let RecordOutcome::Quarantined { kind: k2, error: e2 } = &rec.outcome else {
            panic!("outcome class changed across the journal");
        };
        // The wire strings survive byte-for-byte.
        prop_assert_eq!(k2.as_str(), kind);
        prop_assert_eq!(e2.as_str(), message.as_str());
    }
}
