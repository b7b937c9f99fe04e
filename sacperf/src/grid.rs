//! The four benchmark workloads, each a fixed grid of cells.
//!
//! A cell is one (machine, benchmark profile, LLC organization) triple.
//! A workload hands its whole grid to the `sac_bench::sweep` pool at once
//! (a closed batch). The seed argument is fed into `TraceParams::seed`;
//! everything else is fixed here. README.md says why each grid was chosen.

use mcgpu_trace::{profiles, BenchmarkProfile, TraceParams};
use mcgpu_types::{LlcOrgKind, MachineConfig, TopologyKind};

/// The seed the figures and the golden snapshots use. Golden-byte and
/// expectation checks apply at this seed only.
pub const DEFAULT_SEED: u64 = 0x5ac_c0de;

/// A seed kept out of all tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 0x2023_0617;

/// Trace volume of `figsuite` and `fast_dse`: the volume
/// `expectations/sac_isca23.json` is calibrated for (`figcheck --quick`).
const FIGURE_ACCESSES: usize = 150_000;
/// Trace volume of `scaleout16`. Host cost on the 16-chip mesh grows
/// faster than volume, so the cells stay short enough to repeat in a run.
const SCALEOUT_ACCESSES: usize = 30_000;
/// Trace volume of `sparse_compute`.
const SPARSE_ACCESSES: usize = 8_000;
/// Cycles a compute-bound kernel spends between accesses in
/// `sparse_compute` (the Table-4 profiles issue back to back: 0 or 1).
const SPARSE_COMPUTE_GAP: u32 = 2_000;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 16 Table-4 profiles x 5 organizations on the 4-chip ring.
    FigSuite,
    /// SN and SRAD x {memory-side, SAC} on the 16-chip 2-D mesh.
    ScaleOut16,
    /// Compute-bound and alternating profiles x 5 organizations on the
    /// 4-chip ring.
    SparseCompute,
    /// The fast-mode estimator over 16 profiles x 5 orgs x 3 machines.
    FastDse,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::FigSuite,
        WorkloadKind::ScaleOut16,
        WorkloadKind::SparseCompute,
        WorkloadKind::FastDse,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::FigSuite => "figsuite",
            WorkloadKind::ScaleOut16 => "scaleout16",
            WorkloadKind::SparseCompute => "sparse_compute",
            WorkloadKind::FastDse => "fast_dse",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Which engine tier evaluates a grid's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SimBuilder::build` + `Simulator::run`.
    Cycle,
    /// `sac_bench::fastmode::run_fast`.
    Fast,
}

/// One cell of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the grid, used as the span cell id.
    pub id: u32,
    /// Index into [`Grid::machines`].
    pub machine: usize,
    /// Index into [`Grid::profiles`].
    pub profile: usize,
    /// LLC organization.
    pub org: LlcOrgKind,
}

/// A workload's grid: every machine x profile x organization.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Engine tier.
    pub engine: Engine,
    /// Machines, each with a short label.
    pub machines: Vec<(&'static str, MachineConfig)>,
    /// Benchmark profiles (possibly with modified kernel behaviour).
    pub profiles: Vec<BenchmarkProfile>,
    /// Organizations.
    pub orgs: Vec<LlcOrgKind>,
    /// Trace volume and seed.
    pub params: TraceParams,
}

fn machine(topology: TopologyKind, chips: usize) -> MachineConfig {
    let mut cfg = MachineConfig::experiment_baseline();
    cfg.topology = topology;
    cfg.chips = chips;
    cfg
}

fn params(total_accesses: usize, seed: u64) -> TraceParams {
    TraceParams {
        total_accesses,
        seed,
        ..TraceParams::standard()
    }
}

fn profile(name: &str) -> BenchmarkProfile {
    profiles::by_name(name).expect("Table-4 profile")
}

impl Grid {
    /// The grid of workload `kind` with trace seed `seed`.
    pub fn new(kind: WorkloadKind, seed: u64) -> Grid {
        let ring4 = ("ring4", machine(TopologyKind::Ring, 4));
        match kind {
            WorkloadKind::FigSuite => Grid {
                engine: Engine::Cycle,
                machines: vec![ring4],
                profiles: profiles::all_profiles(),
                orgs: LlcOrgKind::ALL.to_vec(),
                params: params(FIGURE_ACCESSES, seed),
            },
            WorkloadKind::ScaleOut16 => Grid {
                engine: Engine::Cycle,
                machines: vec![("mesh16", machine(TopologyKind::Mesh2D, 16))],
                profiles: vec![profile("SN"), profile("SRAD")],
                orgs: vec![LlcOrgKind::MemorySide, LlcOrgKind::Sac],
                params: params(SCALEOUT_ACCESSES, seed),
            },
            WorkloadKind::SparseCompute => {
                // SN compute-bound in every kernel; BFS alternating its
                // dense K1 with a compute-bound K2 (the Fig. 12 phases).
                let mut sn = profile("SN");
                for k in &mut sn.kernels {
                    k.compute_gap = SPARSE_COMPUTE_GAP;
                }
                let mut bfs = profile("BFS");
                bfs.kernels[1].compute_gap = SPARSE_COMPUTE_GAP;
                Grid {
                    engine: Engine::Cycle,
                    machines: vec![ring4],
                    profiles: vec![sn, bfs],
                    orgs: LlcOrgKind::ALL.to_vec(),
                    params: params(SPARSE_ACCESSES, seed),
                }
            }
            WorkloadKind::FastDse => Grid {
                engine: Engine::Fast,
                machines: vec![
                    ring4,
                    ("ring8", machine(TopologyKind::Ring, 8)),
                    ("mesh16", machine(TopologyKind::Mesh2D, 16)),
                ],
                profiles: profiles::all_profiles(),
                orgs: LlcOrgKind::ALL.to_vec(),
                params: params(FIGURE_ACCESSES, seed),
            },
        }
    }

    /// Every (machine, profile) pair, in the order traces are generated.
    pub fn traces(&self) -> Vec<(usize, usize)> {
        (0..self.machines.len())
            .flat_map(|m| (0..self.profiles.len()).map(move |p| (m, p)))
            .collect()
    }

    /// Index into [`Grid::traces`] of a (machine, profile) pair.
    pub fn trace_index(&self, machine: usize, profile: usize) -> usize {
        machine * self.profiles.len() + profile
    }

    /// Every cell, machine-major, then profile, then organization.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for (machine, profile) in self.traces() {
            for &org in &self.orgs {
                out.push(Cell {
                    id: out.len() as u32,
                    machine,
                    profile,
                    org,
                });
            }
        }
        out
    }

    /// The machine whose cells form complete figure data (all 16 Table-4
    /// profiles x all 5 organizations on the 4-chip ring) — what
    /// `expectations/sac_isca23.json` scores — if the grid has one.
    pub fn figure_machine(&self) -> Option<usize> {
        let complete =
            self.profiles.len() == profiles::all_profiles().len() && self.orgs == LlcOrgKind::ALL;
        self.machines
            .iter()
            .position(|(_, c)| c.topology == TopologyKind::Ring && c.chips == 4)
            .filter(|_| complete)
    }
}
