//! Exactness of fast mode's locality profile against the pass it
//! replaced.
//!
//! `reference_profile` below is a test-only copy of the profile pass
//! (`mcgpu_trace::analysis::profile_workload`, reached here through the
//! uncached `fastmode::profile_workload`) as it was before the per-chip
//! first/last-kernel maps and the flat L1 filter: an L1 kept as one `Vec`
//! per set, cumulative footprints kept as hash sets merged at each kernel
//! boundary, and per-kernel sets rebuilt every kernel. The whole
//! `Vec<KernelProfile>` of both passes must be equal on generated Table-4
//! traces (random compute gaps, chip counts, sectoring, L1 geometries and
//! page sizes) and on hand-built workloads whose addresses lie beyond the
//! layout or that only write. Neither the trace generator nor the pass
//! reads the fabric topology, so every machine keeps the ring.
//!
//! The pass runs as per-chip tasks in two phases
//! (`mcgpu_trace::analysis::ProfileTasks`), which a workload's memo lets
//! several callers claim in any order; the last property runs them in
//! drawn orders and checks that the order cannot change the profile.

use mcgpu_trace::analysis::ProfileTasks;
use mcgpu_trace::{
    generate, profiles, AddressLayout, KernelTrace, LocalityGeometry, TraceParams, Workload,
};
use mcgpu_types::{AccessKind, Address, MachineConfig, MemAccess};
use proptest::prelude::*;
use sac::KernelProfile;
use sac_bench::fastmode::profile_workload;
use std::collections::HashSet;
use std::sync::Arc;

/// The L1 filter before the flat tag array, kept as the reference.
struct ReferenceL1 {
    /// Per set: resident line indices, least recently used first.
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl ReferenceL1 {
    fn new(cfg: &MachineConfig) -> Self {
        let lines = (cfg.l1_bytes_per_cluster / cfg.line_size).max(1) as usize;
        let ways = cfg.l1_assoc.clamp(1, lines);
        ReferenceL1 {
            sets: vec![Vec::with_capacity(ways); (lines / ways).max(1)],
            ways,
        }
    }

    fn access(&mut self, line: u64, kind: AccessKind) -> bool {
        let set_idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let l = set.remove(pos);
            set.push(l);
            return true;
        }
        if kind == AccessKind::Read {
            if set.len() == self.ways {
                set.remove(0);
            }
            set.push(line);
        }
        false
    }
}

/// The profile pass before the first/last-kernel maps, kept as the
/// reference.
fn reference_profile(cfg: &MachineConfig, wl: &Workload) -> Vec<KernelProfile> {
    let chips = cfg.chips;
    let granule = if cfg.sectored {
        cfg.line_size / u64::from(cfg.sectors_per_line)
    } else {
        cfg.line_size
    };
    let mut l1s: Vec<ReferenceL1> = (0..chips * cfg.clusters_per_chip)
        .map(|_| ReferenceL1::new(cfg))
        .collect();
    let mut ever_homed: Vec<HashSet<u64>> = vec![HashSet::new(); chips];
    let mut ever_local: Vec<HashSet<u64>> = vec![HashSet::new(); chips];
    let mut out = Vec::with_capacity(wl.kernels.len());
    for kernel in &wl.kernels {
        let mut p = KernelProfile {
            local_accesses: vec![0; chips],
            remote_accesses: vec![0; chips],
            distinct_local: vec![0; chips],
            distinct_remote: vec![0; chips],
            homed_accesses: vec![0; chips],
            distinct_homed: vec![0; chips],
            prior_homed: vec![0; chips],
            prior_local: vec![0; chips],
            cum_distinct_homed: vec![0; chips],
            cum_distinct_local: vec![0; chips],
            ..KernelProfile::default()
        };
        let mut seen_local: Vec<HashSet<u64>> = vec![HashSet::new(); chips];
        let mut seen_remote: Vec<HashSet<u64>> = vec![HashSet::new(); chips];
        let mut seen_homed: Vec<HashSet<u64>> = vec![HashSet::new(); chips];
        let slots = 1 + u64::from(kernel.behavior.compute_gap);
        for (flat, stream) in kernel.per_cluster.iter().enumerate() {
            let requester = flat / cfg.clusters_per_chip;
            p.issue_cycles = p.issue_cycles.max(stream.len() as u64 * slots);
            let l1 = &mut l1s[flat];
            for acc in stream.iter() {
                let g = acc.addr.raw() / granule;
                p.l1_accesses += 1;
                let hit = l1.access(g, acc.kind);
                if hit {
                    p.l1_hits += 1;
                }
                let reaches_llc = acc.kind == AccessKind::Write || !hit;
                if !reaches_llc {
                    continue;
                }
                let home = wl
                    .layout
                    .natural_home(acc.addr.page(cfg.page_size))
                    .map_or(requester, |c| c.index());
                if acc.kind == AccessKind::Write {
                    p.writes += 1;
                } else {
                    p.reads += 1;
                }
                p.homed_accesses[home] += 1;
                if ever_homed[home].contains(&g) {
                    p.prior_homed[home] += 1;
                }
                if seen_homed[home].insert(g) {
                    p.distinct_homed[home] += 1;
                }
                if home == requester {
                    p.local_accesses[requester] += 1;
                    if ever_local[requester].contains(&g) {
                        p.prior_local[requester] += 1;
                    }
                    if seen_local[requester].insert(g) {
                        p.distinct_local[requester] += 1;
                    }
                } else {
                    p.remote_accesses[requester] += 1;
                    if seen_remote[requester].insert(g) {
                        p.distinct_remote[requester] += 1;
                    }
                }
            }
        }
        for c in 0..chips {
            ever_homed[c].extend(seen_homed[c].iter().copied());
            ever_local[c].extend(seen_local[c].iter().copied());
            p.cum_distinct_homed[c] = ever_homed[c].len() as u64;
            p.cum_distinct_local[c] = ever_local[c].len() as u64;
        }
        out.push(p);
    }
    out
}

/// L1 geometries as (bytes per cluster, ways): the experiment machine's
/// 64 sets, 192 and 24 sets (not powers of two), and a small cache of 32
/// sets that evicts on most misses.
const L1_GEOMETRIES: [(u64, usize); 4] =
    [(64 << 10, 8), (192 << 10, 8), (12 << 10, 4), (8 << 10, 2)];

/// A valid experiment-scale machine of `chips`, sectored where the CRD's
/// presence vector allows it, with one of [`L1_GEOMETRIES`] and 4 KiB or
/// 64 KiB pages.
fn machine(chips: usize, sectored: bool, l1: usize, big_pages: bool) -> MachineConfig {
    let mut cfg = MachineConfig::experiment_baseline();
    cfg.chips = chips;
    cfg.sectored = sectored && chips as u64 * u64::from(cfg.sectors_per_line) <= 128;
    (cfg.l1_bytes_per_cluster, cfg.l1_assoc) = L1_GEOMETRIES[l1];
    if big_pages {
        cfg.page_size = 64 << 10;
    }
    cfg.validate().expect("a valid machine");
    cfg
}

/// 2–16 chips, or (one draw in sixteen) the 64 chips `validate` allows.
fn chips() -> impl Strategy<Value = usize> {
    (2usize..=17).prop_map(|c| if c == 17 { 64 } else { c })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated Table-4 traces with every kernel's compute gap redrawn.
    #[test]
    fn generated_traces_match_the_reference(
        machine_args in (chips(), any::<bool>(), 0usize..4, any::<bool>()),
        profile in 0usize..16,
        accesses in 1_000usize..40_000,
        seed in any::<u64>(),
        gaps in proptest::collection::vec(0u32..3_000, 8),
    ) {
        let (chips, sectored, l1, big_pages) = machine_args;
        let cfg = machine(chips, sectored, l1, big_pages);
        let mut p = profiles::all_profiles().swap_remove(profile);
        for (k, gap) in p.kernels.iter_mut().zip(gaps.iter().cycle()) {
            k.compute_gap = *gap;
        }
        let params = TraceParams {
            total_accesses: accesses,
            seed,
            ..TraceParams::quick()
        };
        let wl = generate(&cfg, &p, &params);
        prop_assert_eq!(profile_workload(&cfg, &wl), reference_profile(&cfg, &wl));
    }

    /// Hand-built kernels over a layout of a few pages: about half the
    /// lines lie past its footprint (no natural home, so the requester is
    /// the home), some far past it, and some workloads only write.
    #[test]
    fn hand_built_workloads_match_the_reference(
        machine_args in (2usize..=16, 1usize..=3, any::<bool>(), 0usize..4, any::<bool>()),
        write_only in any::<bool>(),
        gap in 0u32..100,
        kernels in hand_built_kernels(),
    ) {
        let (chips, clusters, sectored, l1, big_pages) = machine_args;
        let mut cfg = machine(chips, sectored, l1, big_pages);
        cfg.clusters_per_chip = clusters;
        let wl = hand_built(&cfg, write_only, gap, &kernels);
        prop_assert_eq!(profile_workload(&cfg, &wl), reference_profile(&cfg, &wl));
    }

    /// The two phases' tasks run in drawn orders: a drawn prefix of a
    /// permutation of the phase-1 tasks, then a permutation of the phase-2
    /// tasks (each runs the phase-1 tasks it reads that have not run, in
    /// chip order). The assembled profile must equal the reference on
    /// generated traces and on hand-built workloads with lines beyond the
    /// layout, writes only or both.
    #[test]
    fn task_order_cannot_change_the_profile(
        machine_args in (2usize..=16, 1usize..=3, any::<bool>(), 0usize..4, any::<bool>()),
        source in 0usize..3,
        generated in (0usize..16, 1_000usize..20_000, any::<u64>()),
        kernels in hand_built_kernels(),
        order in (
            proptest::collection::vec(any::<u64>(), 16),
            0usize..=16,
            proptest::collection::vec(any::<u64>(), 16),
        ),
    ) {
        let (chips, clusters, sectored, l1, big_pages) = machine_args;
        let mut cfg = machine(chips, sectored, l1, big_pages);
        let wl = if source == 0 {
            let (profile, accesses, seed) = generated;
            let params = TraceParams {
                total_accesses: accesses,
                seed,
                ..TraceParams::quick()
            };
            generate(&cfg, &profiles::all_profiles().swap_remove(profile), &params)
        } else {
            cfg.clusters_per_chip = clusters;
            hand_built(&cfg, source == 2, 0, &kernels)
        };
        let (requester_keys, prefix, home_keys) = order;
        let tasks = ProfileTasks::new(&LocalityGeometry::of(&cfg), &wl);
        for chip in permutation(&requester_keys[..chips]).into_iter().take(prefix) {
            tasks.run_requester_task(&wl, chip);
        }
        for chip in permutation(&home_keys[..chips]) {
            tasks.run_home_task(&wl, chip);
        }
        prop_assert_eq!(tasks.assemble(&wl), reference_profile(&cfg, &wl));
    }
}

/// The order that sorts `keys`: a permutation of `0..keys.len()`.
fn permutation(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    order
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
        1..5,
    )
}

/// A workload of `kernels` on `cfg` over a layout of a few pages: lines
/// fall in twice the layout's footprint, and one access in sixteen lies
/// far past it. Every kernel has compute gap `gap`.
fn hand_built(
    cfg: &MachineConfig,
    write_only: bool,
    gap: u32,
    kernels: &HandBuiltKernels,
) -> Workload {
    let layout = AddressLayout::new(cfg, 1, 1, 1);
    let in_layout = layout.total_pages() * (cfg.page_size / cfg.line_size);
    let mut profile = profiles::by_name("SN").expect("Table-4 profile");
    profile.kernels[0].compute_gap = gap;
    let behavior = profile.kernels[0];
    let flat_clusters = cfg.chips * cfg.clusters_per_chip;
    let kernels = kernels
        .iter()
        .map(|accesses| {
            let mut streams = vec![Vec::new(); flat_clusters];
            for &(cluster, line, offset, write, far) in accesses {
                // Lines in [0, 2 · in_layout): half beyond the layout.
                let mut addr = (line % (2 * in_layout)) * cfg.line_size + offset;
                if far == 0 {
                    addr |= 1 << 45;
                }
                let kind = if write || write_only {
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
