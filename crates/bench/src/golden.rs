//! The fixed golden-stats suite, shared between the byte-exact regression
//! test (`tests/golden.rs`) and the `golden_sweep` binary the CI
//! kill/resume job drives. One definition of the cases guarantees the
//! journaled sweep reproduces exactly the snapshots the test checks.

use crate::{sweep, Attempt, CellError, CellKey, SimCell, SweepFailure, SweepOptions};
use mcgpu_sim::RunStats;
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig};
use std::time::Duration;

/// One golden case: a machine variant, a benchmark, and an organization.
pub struct Case {
    /// Snapshot file stem under `tests/golden/`.
    pub name: &'static str,
    /// Benchmark profile name.
    pub bench: &'static str,
    /// LLC organization.
    pub org: LlcOrgKind,
    /// Run with hardware coherence instead of the software default.
    pub hardware_coherence: bool,
    /// Run with sectored caches.
    pub sectored: bool,
}

const fn case(name: &'static str, bench: &'static str, org: LlcOrgKind) -> Case {
    Case {
        name,
        bench,
        org,
        hardware_coherence: false,
        sectored: false,
    }
}

/// The fixed suite. Kept small enough for every-PR CI (quick trace volume)
/// while covering each organization, both coherence schemes, and sectored
/// caches. At this volume the SAC cases record no decision and stay
/// memory-side throughout.
pub fn suite() -> Vec<Case> {
    vec![
        case("sn_memside", "SN", LlcOrgKind::MemorySide),
        case("sn_smside", "SN", LlcOrgKind::SmSide),
        case("sn_sac", "SN", LlcOrgKind::Sac),
        case("cfd_static", "CFD", LlcOrgKind::StaticHalf),
        case("cfd_dynamic", "CFD", LlcOrgKind::Dynamic),
        case("srad_sac", "SRAD", LlcOrgKind::Sac),
        Case {
            hardware_coherence: true,
            ..case("rn_smside_hwcoh", "RN", LlcOrgKind::SmSide)
        },
        Case {
            sectored: true,
            ..case("gemm_sac_sectored", "GEMM", LlcOrgKind::Sac)
        },
    ]
}

impl Case {
    /// The machine variant this case runs on.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::experiment_baseline();
        if self.hardware_coherence {
            cfg.coherence = CoherenceKind::Hardware;
        }
        if self.sectored {
            cfg.sectored = true;
        }
        cfg
    }

    /// The trace volume every golden case uses.
    pub fn params() -> TraceParams {
        TraceParams {
            total_accesses: 15_000,
            ..TraceParams::quick()
        }
    }

    /// The machine and the generated workload this case runs. Every
    /// caller builds a golden case's inputs here.
    pub fn inputs(&self) -> (MachineConfig, Workload) {
        let cfg = self.config();
        let profile = profiles::by_name(self.bench).expect("known benchmark");
        let wl = generate(&cfg, &profile, &Self::params());
        (cfg, wl)
    }

    /// Run the case and serialize its stats to canonical JSON.
    ///
    /// # Panics
    /// Panics on any simulation error (golden cases are known-good).
    pub fn run(&self) -> String {
        self.try_run().expect("golden case completes")
    }

    /// Run the case, returning typed errors instead of panicking.
    ///
    /// # Errors
    /// [`CellError`] on any simulation failure.
    pub fn try_run(&self) -> Result<String, CellError> {
        let (cfg, wl) = self.inputs();
        let stats = SimCell::new(&cfg, &wl, self.org).attempt(Attempt::cycle(0))?;
        Ok(stats.to_canonical_json())
    }

    /// Full canonical configuration description; its hash keys the case's
    /// journal record and the description is stored as the collision
    /// guard (see [`crate::cell_config_hash`]).
    pub fn config_desc(&self) -> String {
        crate::cell_config_desc(&self.config(), &Self::params(), self.bench, self.org)
    }
}

/// Run `cases` as journaled sweep cells through the shared runner
/// ([`crate::run_journaled`]), returning each case's canonical stats JSON
/// in input order. This is the `golden_sweep` binary's sweep. `stall`
/// sleeps before every attempt that runs, which gives a kill/resume drill
/// a window to interrupt the sweep; it cannot change any result.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined case.
pub fn run_sweep(
    cases: &[Case],
    opts: &SweepOptions,
    stall: Duration,
) -> Result<Vec<String>, SweepFailure> {
    let inputs = sweep::map(cases.iter().collect(), Case::inputs);
    let cells = cases
        .iter()
        .zip(&inputs)
        .map(|(c, (cfg, wl))| {
            let key = CellKey {
                name: c.name.to_string(),
                desc: c.config_desc(),
            };
            (key, SimCell::new(cfg, wl, c.org))
        })
        .collect();
    let stats = crate::run_journaled(cells, opts, |cell, a| {
        std::thread::sleep(stall);
        cell.attempt(a)
    })?;
    Ok(stats.iter().map(RunStats::to_canonical_json).collect())
}
