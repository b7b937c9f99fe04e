//! The locality profile a `Workload` memoizes for fast mode.
//!
//! `run_fast` reads the profile through `Workload::kernel_profiles`, which
//! runs the profile pass once per workload and L1 geometry, so every
//! organization swept over one trace shares one pass. These tests pin
//! what sharing must not change: a result on a shared workload equals the
//! same cell on a fresh one, whatever geometry filled the memo first and
//! however many sweep threads share it.

use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::{LlcOrgKind, MachineConfig, TopologyKind};
use proptest::prelude::*;
use sac_bench::fastmode::{profile_workload, run_fast};
use sac_bench::sweep;
use std::borrow::Cow;
use std::sync::Arc;

/// The machines of the `fast_dse` benchmark grid: 4- and 8-chip rings and
/// the 16-chip mesh.
fn machines() -> [(&'static str, MachineConfig); 3] {
    let machine = |topology, chips| {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.topology = topology;
        cfg.chips = chips;
        cfg
    };
    [
        ("ring4", machine(TopologyKind::Ring, 4)),
        ("ring8", machine(TopologyKind::Ring, 8)),
        ("mesh16", machine(TopologyKind::Mesh2D, 16)),
    ]
}

fn workload(cfg: &MachineConfig, bench: &str, accesses: usize) -> Workload {
    let params = TraceParams {
        total_accesses: accesses,
        ..TraceParams::quick()
    };
    generate(
        cfg,
        &profiles::by_name(bench).expect("Table-4 profile"),
        &params,
    )
}

fn json(cfg: &MachineConfig, wl: &Workload, org: LlcOrgKind) -> String {
    run_fast(cfg, wl, org).to_canonical_json()
}

/// The five organizations run on one workload give, each, the bytes of
/// the same organization run on a freshly generated workload.
#[test]
fn shared_profile_equals_fresh_on_the_fast_dse_machines() {
    for (label, cfg) in machines() {
        for bench in ["SN", "SRAD", "BFS", "GEMM"] {
            let shared = workload(&cfg, bench, 15_000);
            for org in LlcOrgKind::ALL {
                let fresh = workload(&cfg, bench, 15_000);
                assert_eq!(
                    json(&cfg, &shared, org),
                    json(&cfg, &fresh, org),
                    "{label} {bench} {org}"
                );
            }
        }
    }
}

/// L1 geometries as (bytes per cluster, ways): 8 KiB to the experiment
/// machine's 256 KiB, so 64 to 2048 lines. Every one holds a whole number
/// of sets at every drawn associativity.
const L1_BYTES: [u64; 5] = [8 << 10, 12 << 10, 64 << 10, 192 << 10, 256 << 10];
const L1_WAYS: [usize; 5] = [1, 2, 4, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fill the memo under one geometry of a `fast_dse` machine, then run
    /// one cell under a machine whose L1 size, associativity, sectoring or
    /// sector count may differ: the result must equal that cell on a clone
    /// (a clone's memo is empty), and the memo must still answer for the
    /// first machine. Generated addresses are line-aligned, so a sector
    /// granule changes only which L1 set a line maps to; small first L1s
    /// make that show in the profile.
    #[test]
    fn memo_is_keyed_by_the_l1_geometry(
        machine in 0usize..3,
        bench in 0usize..16,
        accesses in 2_000usize..8_000,
        first_l1 in (0usize..5, 0usize..5, any::<bool>()),
        l1_bytes in (any::<bool>(), 0usize..5),
        l1_ways in (any::<bool>(), 0usize..5),
        sectored in any::<bool>(),
        sectors in (any::<bool>(), 0u32..4),
        org in 0usize..5,
    ) {
        let mut base = machines()[machine].1.clone();
        (base.l1_bytes_per_cluster, base.l1_assoc) = (L1_BYTES[first_l1.0], L1_WAYS[first_l1.1]);
        base.sectored = first_l1.2;
        let wl = generate(
            &base,
            &profiles::all_profiles().swap_remove(bench),
            &TraceParams {
                total_accesses: accesses,
                ..TraceParams::quick()
            },
        );
        let org = LlcOrgKind::ALL[org];
        let first = json(&base, &wl, org);

        // Each L1 field keeps the first value or takes a drawn one.
        let mut varied = base.clone();
        if l1_bytes.0 {
            varied.l1_bytes_per_cluster = L1_BYTES[l1_bytes.1];
        }
        if l1_ways.0 {
            varied.l1_assoc = L1_WAYS[l1_ways.1];
        }
        varied.sectored = sectored;
        if sectors.0 {
            varied.sectors_per_line = 1 << sectors.1;
        }
        varied.validate().expect("a valid machine");
        let clone = wl.clone();
        prop_assert_eq!(json(&varied, &wl, org), json(&varied, &clone, org));
        // The clone started with an empty memo, so `varied` filled it.
        prop_assert!(matches!(clone.kernel_profiles(&varied), Cow::Borrowed(_)));
        prop_assert_eq!(
            &*wl.kernel_profiles(&varied),
            profile_workload(&varied, &wl).as_slice()
        );

        prop_assert_eq!(json(&base, &wl, org), first);
        let memo = wl.kernel_profiles(&base);
        prop_assert!(matches!(memo, Cow::Borrowed(_)));
        prop_assert!(std::ptr::eq(memo.as_ptr(), wl.kernel_profiles(&base).as_ptr()));
    }
}

/// Five organizations over three shared workloads, on 1 and on 4 sweep
/// threads: with 4, several cells of one trace race to fill its memo.
#[test]
fn shared_workloads_give_the_same_bytes_on_1_and_4_threads() {
    let cfg = machines()[0].1.clone();
    let run = |jobs: usize| {
        let cells: Vec<(Arc<Workload>, LlcOrgKind)> = ["SN", "SRAD", "CFD"]
            .into_iter()
            .flat_map(|bench| {
                let wl = Arc::new(workload(&cfg, bench, 15_000));
                LlcOrgKind::ALL.map(|org| (Arc::clone(&wl), org))
            })
            .collect();
        sweep::map_with_jobs(jobs, cells, |(wl, org)| json(&cfg, &wl, org))
    };
    assert_eq!(run(1), run(4));
}
