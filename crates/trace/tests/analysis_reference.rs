//! Exactness of the Table 4 and Fig. 11 trace analyses against the
//! hash-based analyses they replaced.
//!
//! `reference_characterize` and `reference_working_set_curve` below are
//! test-only copies of `mcgpu_trace::characterize` and
//! `mcgpu_trace::working_set_curve` as they were before the footprint
//! tables: per-line and per-page sharer masks in hash maps, one hash set of
//! lines cleared per window, and divisions for line and page indices. The
//! reference classifies a line from the layout's pool sizes, so it does not
//! share `AddressLayout::classify` with the code under test. `Table4Row`
//! and the whole curve must be equal, bit for bit, on generated Table-4
//! traces (drawn profiles, chip counts, page sizes, input scales and
//! window lengths) and on hand-built workloads whose addresses lie beyond
//! the layout or whose kernels are empty.

use mcgpu_trace::{
    characterize, generate, profiles, working_set_curve, AddressLayout, KernelTrace,
    SharingBreakdown, SharingClass, Table4Row, TraceParams, Workload,
};
use mcgpu_types::{AccessKind, Address, MachineConfig, MemAccess};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// `characterize` before the footprint tables, kept as the reference.
fn reference_characterize(cfg: &MachineConfig, wl: &Workload) -> Table4Row {
    let lines_per_page = cfg.page_size / cfg.line_size;
    let mut line_sharers: HashMap<u64, u64> = HashMap::new();
    let mut page_sharers: HashMap<u64, u64> = HashMap::new();
    for k in &wl.kernels {
        for (flat, stream) in k.per_cluster.iter().enumerate() {
            let chip = 1u64 << (flat / cfg.clusters_per_chip);
            for a in stream.iter() {
                let line = a.addr.line(cfg.line_size).index();
                *line_sharers.entry(line).or_default() |= chip;
                *page_sharers.entry(line / lines_per_page).or_default() |= chip;
            }
        }
    }
    let mut true_lines = 0u64;
    let mut false_lines = 0u64;
    for (&line, &mask) in &line_sharers {
        if mask.count_ones() >= 2 {
            true_lines += 1;
        } else if page_sharers[&(line / lines_per_page)].count_ones() >= 2 {
            false_lines += 1;
        }
    }
    let scale = cfg.scale.capacity as f64;
    let mb = |lines: u64| lines as f64 * cfg.line_size as f64 * scale / (1u64 << 20) as f64;
    Table4Row {
        name: wl.name.clone(),
        ctas: wl.profile.ctas,
        footprint_mb: page_sharers.len() as f64 * cfg.page_size as f64 * scale
            / (1u64 << 20) as f64,
        true_shared_mb: mb(true_lines),
        false_shared_mb: mb(false_lines),
    }
}

/// The sharing class of byte address `byte` from the layout's pool sizes:
/// the pools lie non-shared, falsely shared, truly shared in address
/// order, and everything past the falsely-shared pool classifies as truly
/// shared.
fn reference_classify(layout: &AddressLayout, byte: u64) -> SharingClass {
    let true_base = layout.footprint_bytes() - layout.true_bytes();
    if byte < true_base - layout.false_bytes() {
        SharingClass::NonShared
    } else if byte < true_base {
        SharingClass::FalseShared
    } else {
        SharingClass::TrueShared
    }
}

/// `working_set_curve` before the footprint tables, kept as the reference.
fn reference_working_set_curve(
    cfg: &MachineConfig,
    wl: &Workload,
    windows: &[usize],
) -> Vec<(usize, SharingBreakdown)> {
    let stream: Vec<u64> = wl
        .merged_stream()
        .map(|(_, a)| a.addr.line(cfg.line_size).index())
        .collect();
    let line_mb = cfg.line_size as f64 / (1u64 << 20) as f64;
    let mut seen = HashSet::new();
    windows
        .iter()
        .map(|&w| {
            let w = w.max(1);
            let mut sums = SharingBreakdown::default();
            let mut num_windows = 0usize;
            for chunk in stream.chunks(w) {
                seen.clear();
                let mut counts = [0u64; 3];
                for &line in chunk {
                    if seen.insert(line) {
                        let idx = match reference_classify(&wl.layout, line * cfg.line_size) {
                            SharingClass::TrueShared => 0,
                            SharingClass::FalseShared => 1,
                            SharingClass::NonShared => 2,
                        };
                        counts[idx] += 1;
                    }
                }
                sums.true_mb += counts[0] as f64 * line_mb;
                sums.false_mb += counts[1] as f64 * line_mb;
                sums.non_mb += counts[2] as f64 * line_mb;
                num_windows += 1;
            }
            if num_windows > 0 {
                sums.true_mb /= num_windows as f64;
                sums.false_mb /= num_windows as f64;
                sums.non_mb /= num_windows as f64;
            }
            (w, sums)
        })
        .collect()
}

/// Page sizes drawn: from 16 lines a page to 512.
const PAGE_SIZES: [u64; 4] = [2 << 10, 4 << 10, 8 << 10, 64 << 10];

/// A valid experiment-scale machine of `chips` with page size
/// `PAGE_SIZES[page]`.
fn machine(chips: usize, page: usize) -> MachineConfig {
    let mut cfg = MachineConfig::experiment_baseline();
    cfg.chips = chips;
    cfg.page_size = PAGE_SIZES[page];
    cfg.validate().expect("a valid machine");
    cfg
}

/// One to four window lengths in accesses, 0 included (a window of one).
fn windows() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..60_000, 1..5)
}

/// Both analyses agree with their references on `wl`.
fn assert_matches(cfg: &MachineConfig, wl: &Workload, windows: &[usize]) {
    assert_eq!(characterize(cfg, wl), reference_characterize(cfg, wl));
    assert_eq!(
        working_set_curve(cfg, wl, windows),
        reference_working_set_curve(cfg, wl, windows)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated Table-4 traces.
    #[test]
    fn generated_traces_match_the_reference(
        machine_args in (2usize..=16, 0usize..4),
        profile in 0usize..16,
        input_scale in 0.25f64..8.0,
        accesses in 1_000usize..40_000,
        seed in any::<u64>(),
        windows in windows(),
    ) {
        let (chips, page) = machine_args;
        let cfg = machine(chips, page);
        let params = TraceParams {
            total_accesses: accesses,
            seed,
            ..TraceParams::quick()
        }
        .with_input_scale(input_scale);
        let wl = generate(&cfg, &profiles::all_profiles().swap_remove(profile), &params);
        assert_matches(&cfg, &wl, &windows);
    }

    /// Hand-built kernels over a layout of a few pages: about half the
    /// lines lie past its footprint, some far past it, and some kernels
    /// (or every kernel) are empty.
    #[test]
    fn hand_built_workloads_match_the_reference(
        machine_args in (2usize..=16, 1usize..=3, 0usize..4),
        kernels in hand_built_kernels(),
        empty in proptest::collection::vec(any::<bool>(), 4),
        windows in windows(),
    ) {
        let (chips, clusters, page) = machine_args;
        let mut cfg = machine(chips, page);
        cfg.clusters_per_chip = clusters;
        let wl = hand_built(&cfg, &kernels, &empty);
        assert_matches(&cfg, &wl, &windows);
    }
}

/// Hand-built kernels: per kernel, accesses drawn as (cluster, line,
/// offset, write, far).
type HandBuiltKernels = Vec<Vec<(u64, u64, u64, bool, u8)>>;

fn hand_built_kernels() -> impl Strategy<Value = HandBuiltKernels> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<u64>(),
                0u64..128,
                any::<bool>(),
                0u8..16,
            ),
            0..600,
        ),
        0..5,
    )
}

/// A workload of `kernels` on `cfg` over a layout of a few pages: lines
/// fall in twice the layout's footprint, and one access in sixteen lies
/// far past it. Kernel `k` keeps no access where `empty[k]` is set.
fn hand_built(cfg: &MachineConfig, kernels: &HandBuiltKernels, empty: &[bool]) -> Workload {
    let layout = AddressLayout::new(cfg, 1, 1, 1);
    let in_layout = layout.total_pages() * (cfg.page_size / cfg.line_size);
    let profile = profiles::by_name("SN").expect("Table-4 profile");
    let behavior = profile.kernels[0];
    let flat_clusters = cfg.chips * cfg.clusters_per_chip;
    let kernels = kernels
        .iter()
        .zip(empty)
        .map(|(accesses, &empty)| {
            let mut streams = vec![Vec::new(); flat_clusters];
            for &(cluster, line, offset, write, far) in accesses.iter().filter(|_| !empty) {
                // Lines in [0, 2 · in_layout): half beyond the layout.
                let mut addr = (line % (2 * in_layout)) * cfg.line_size + offset;
                if far == 0 {
                    addr |= 1 << 45;
                }
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                streams[(cluster % flat_clusters as u64) as usize].push(MemAccess {
                    addr: Address::new(addr),
                    kind,
                });
            }
            KernelTrace {
                per_cluster: streams.into_iter().map(Arc::from).collect(),
                behavior,
            }
        })
        .collect();
    Workload::new("hand-built".to_string(), layout, kernels, profile)
}
