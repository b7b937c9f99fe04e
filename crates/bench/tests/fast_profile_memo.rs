//! The locality profile a `Workload` memoizes for fast mode.
//!
//! `run_fast` reads the profile through `Workload::kernel_profiles`, which
//! runs the profile pass once per workload and L1 geometry, so every
//! organization swept over one trace shares one pass. These tests pin
//! what sharing must not change: a result on a shared workload equals the
//! same cell on a fresh one, whatever geometry filled the memo first and
//! however many sweep threads share it. Callers that race a fill under its
//! geometry claim its tasks and then borrow the one published profile; a
//! caller under another geometry gets the uncached profile; and the fill's
//! task state is gone once the profile is published.

use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::{LlcOrgKind, MachineConfig, TopologyKind};
use proptest::prelude::*;
use sac_bench::fastmode::{profile_workload, run_fast};
use sac_bench::sweep;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The five organizations over six shared 16-chip-mesh workloads (16
/// tasks per phase), on 1, 2, 4 and 16 sweep threads: every cell's first
/// call races the others of its trace for the fill, each gets the bytes of
/// the serial sweep, and every caller borrows the one published profile.
#[test]
fn racing_callers_share_one_published_profile() {
    let cfg = machines()[2].1.clone();
    let run = |jobs: usize| {
        let workloads: Vec<Arc<Workload>> = ["SN", "SRAD", "CFD", "BFS", "GEMM", "RN"]
            .map(|bench| Arc::new(workload(&cfg, bench, 40_000)))
            .into();
        let cells: Vec<(Arc<Workload>, LlcOrgKind)> = workloads
            .iter()
            .flat_map(|wl| LlcOrgKind::ALL.map(|org| (Arc::clone(wl), org)))
            .collect();
        let out = sweep::map_with_jobs(jobs, cells, |(wl, org)| {
            let profiles = wl.kernel_profiles(&cfg);
            assert!(matches!(profiles, Cow::Borrowed(_)), "{jobs} threads");
            (profiles.as_ptr() as usize, json(&cfg, &wl, org))
        });
        for (wl, cells) in workloads.iter().zip(out.chunks(LlcOrgKind::ALL.len())) {
            assert!(!wl.holds_profile_fill(), "{jobs} threads");
            let memo = wl.kernel_profiles(&cfg);
            for &(profiles, _) in cells {
                assert!(
                    std::ptr::eq(profiles as *const _, memo.as_ptr()),
                    "{jobs} threads"
                );
            }
        }
        out.into_iter().map(|(_, json)| json).collect::<Vec<_>>()
    };
    let serial = run(1);
    for jobs in [2, 4, 16] {
        assert_eq!(run(jobs), serial, "{jobs} threads");
    }
}

/// A machine with the 16-chip mesh's geometry but a smaller L1.
fn small_l1(cfg: &MachineConfig) -> MachineConfig {
    let mut other = cfg.clone();
    (other.l1_bytes_per_cluster, other.l1_assoc) = (8 << 10, 2);
    other.validate().expect("a valid machine");
    other
}

/// A call under another L1 geometry, made while a fill under the first
/// geometry is under way, gets the uncached profile of its own geometry
/// and leaves the fill to its caller: the memo then answers for the first
/// geometry. Repeated on fresh clones until the second call has found the
/// fill under way at least once.
#[test]
fn another_geometry_racing_the_fill_gets_the_uncached_profile() {
    let cfg = machines()[2].1.clone();
    let other = small_l1(&cfg);
    let base = workload(&cfg, "SRAD", 150_000);
    let first = profile_workload(&cfg, &base);
    let uncached = profile_workload(&other, &base);
    let mut raced = 0;
    for _ in 0..20 {
        let wl = base.clone();
        let filled = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let filler = scope.spawn(|| {
                let profiles = wl.kernel_profiles(&cfg);
                filled.store(true, Ordering::Release);
                assert!(matches!(profiles, Cow::Borrowed(_)));
                profiles.as_ptr() as usize
            });
            while !wl.holds_profile_fill() && !filled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            raced += usize::from(!filled.load(Ordering::Acquire));
            let profiles = wl.kernel_profiles(&other);
            assert!(matches!(profiles, Cow::Owned(_)));
            assert_eq!(&*profiles, uncached.as_slice());
            let published = filler.join().expect("the fill completes");
            let memo = wl.kernel_profiles(&cfg);
            assert!(std::ptr::eq(published as *const _, memo.as_ptr()));
            assert_eq!(&*memo, first.as_slice());
        });
        if raced >= 3 {
            break;
        }
    }
    assert!(
        raced > 0,
        "the second geometry never found the fill under way"
    );
}

/// The fill's task state (claim counters, parts, buckets) lives only
/// until the profile is published: a workload holds none before its first
/// call and none once it has returned, and a call under another geometry
/// leaves none either.
#[test]
fn a_published_profile_leaves_no_fill_state() {
    for (label, cfg) in machines() {
        let wl = workload(&cfg, "SN", 15_000);
        assert!(!wl.holds_profile_fill(), "{label}");
        wl.kernel_profiles(&cfg);
        assert!(!wl.holds_profile_fill(), "{label}");
        assert!(matches!(wl.kernel_profiles(&small_l1(&cfg)), Cow::Owned(_)));
        assert!(!wl.holds_profile_fill(), "{label}");
    }
}
