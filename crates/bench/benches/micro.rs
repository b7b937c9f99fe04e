//! Criterion micro-benchmarks for the performance-critical primitives of
//! the simulator and for SAC's runtime components (the EAB model and the
//! CRD, which the paper argues are lightweight enough for hardware).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcgpu_cache::{CacheConfig, DataHome, SetAssocCache};
use mcgpu_mem::interleave;
use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{ChipId, LineAddr, LlcOrgKind, MachineConfig};
use sac::eab::{ArchBandwidth, EabInputs, EabModel};
use sac::Crd;

fn bench_cache(c: &mut Criterion) {
    let mut cache = SetAssocCache::new(CacheConfig::llc_slice(256 << 10, 16, 128));
    let mut i = 0u64;
    c.bench_function("llc_slice_lookup_fill", |b| {
        b.iter(|| {
            let line = LineAddr(i % 40_000);
            i = i.wrapping_add(97);
            if cache.lookup(black_box(line), None, false) != mcgpu_cache::LookupOutcome::Hit {
                cache.fill(line, None, DataHome::Local, false);
            }
        })
    });
}

fn bench_interleave(c: &mut Criterion) {
    let mut i = 0u64;
    c.bench_function("pae_slice_index", |b| {
        b.iter(|| {
            i = i.wrapping_add(4097);
            black_box(interleave::slice_index(LineAddr(i), 16))
        })
    });
}

fn bench_eab(c: &mut Criterion) {
    let model = EabModel::new(ArchBandwidth {
        b_intra: 4096.0,
        b_inter: 192.0,
        b_llc: 4000.0,
        b_mem: 437.5,
    });
    let inputs = EabInputs {
        r_local: 0.6,
        llc_hit_memory_side: 0.55,
        llc_hit_sm_side: 0.4,
        lsu_memory_side: 0.8,
        lsu_sm_side: 0.9,
    };
    c.bench_function("eab_decide", |b| {
        b.iter(|| model.decide(black_box(&inputs), 0.05))
    });
}

fn bench_crd(c: &mut Criterion) {
    let mut crd = Crd::paper_default(128);
    let mut i = 0u64;
    c.bench_function("crd_observe", |b| {
        b.iter(|| {
            i = i.wrapping_add(31);
            crd.observe(LineAddr(i % 4096), None, ChipId((i % 4) as u8))
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let cfg = MachineConfig::experiment_baseline();
    let p = profiles::by_name("SN").expect("profile");
    let params = TraceParams {
        total_accesses: 20_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &p, &params);
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    for org in [LlcOrgKind::MemorySide, LlcOrgKind::Sac] {
        group.bench_function(format!("sn_20k_{}", org.label()), |b| {
            b.iter(|| {
                SimBuilder::new(cfg.clone())
                    .organization(org)
                    .build()
                    .expect("valid machine configuration")
                    .run(black_box(&wl))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// Per-cycle cost of the engine's tick loop, including the flat sharer
/// directory (hardware coherence stresses it on every write) and the
/// pooled slice MSHRs. Reported as whole short runs; divide by
/// `stats.cycles` for a per-cycle figure.
fn bench_cycle_loop(c: &mut Criterion) {
    let mut cfg = MachineConfig::experiment_baseline();
    cfg.coherence = mcgpu_types::CoherenceKind::Hardware;
    let p = profiles::by_name("RN").expect("profile");
    let params = TraceParams {
        total_accesses: 20_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &p, &params);
    let mut group = c.benchmark_group("cycle_loop");
    group.sample_size(10);
    group.bench_function("rn_20k_smside_hwcoh", |b| {
        b.iter(|| {
            SimBuilder::new(cfg.clone())
                .organization(LlcOrgKind::SmSide)
                .build()
                .expect("valid machine configuration")
                .run(black_box(&wl))
                .unwrap()
        })
    });
    group.finish();
}

/// Per-launch cost of loading a kernel's streams into every cluster. With
/// `Arc`-shared traces this is 32 reference-count bumps, not 32 deep
/// copies of the access data.
fn bench_kernel_launch(c: &mut Criterion) {
    use mcgpu_sim::cluster::Cluster;
    use mcgpu_types::ClusterId;

    let cfg = MachineConfig::experiment_baseline();
    let p = profiles::by_name("SN").expect("profile");
    let params = TraceParams {
        total_accesses: 100_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &p, &params);
    let kernel = &wl.kernels[0];
    let mut clusters: Vec<Cluster> = (0..cfg.chips * cfg.clusters_per_chip)
        .map(|i| {
            Cluster::new(
                &cfg,
                ClusterId::new(
                    ChipId((i / cfg.clusters_per_chip) as u8),
                    i % cfg.clusters_per_chip,
                ),
            )
        })
        .collect();
    c.bench_function("kernel_launch_32_clusters", |b| {
        b.iter(|| {
            for (i, cl) in clusters.iter_mut().enumerate() {
                cl.load_kernel(kernel.per_cluster[i].clone(), 0);
            }
        })
    });
}

/// The two-tier engine on a sparse phase: one cell timed on the cycle
/// engine and in the analytic fast mode. Long compute gaps leave the
/// memory system idle for thousands of cycles, which the engine's
/// next-event skipping jumps over (its byte identity with stepping every
/// cycle is proven by the `mcgpu-sim` differential tests; this group only
/// tracks the speed of it).
fn bench_two_tier(c: &mut Criterion) {
    let cfg = MachineConfig::experiment_baseline();
    let mut p = profiles::by_name("SN").expect("profile");
    for k in &mut p.kernels {
        k.compute_gap = 50_000;
    }
    let params = TraceParams {
        total_accesses: 1_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &p, &params);
    let mut group = c.benchmark_group("two_tier_sparse");
    group.sample_size(10);
    group.bench_function("sn_1k", |b| {
        b.iter(|| {
            SimBuilder::new(cfg.clone())
                .organization(LlcOrgKind::Sac)
                .build()
                .expect("valid machine configuration")
                .run(black_box(&wl))
                .unwrap()
        })
    });
    group.bench_function("sn_1k_fast_mode", |b| {
        b.iter(|| sac_bench::fastmode::run_fast(black_box(&cfg), &wl, LlcOrgKind::Sac))
    });
    group.finish();
}

/// Fan-out overhead of the sweep runner itself (pool dispatch + in-order
/// collection), measured on jobs that do no work.
fn bench_sweep_overhead(c: &mut Criterion) {
    c.bench_function("sweep_map_64_trivial_jobs", |b| {
        b.iter(|| sac_bench::sweep::map(black_box((0u64..64).collect()), |i| i.wrapping_mul(3)))
    });
}

fn bench_tracegen(c: &mut Criterion) {
    let cfg = MachineConfig::experiment_baseline();
    let p = profiles::by_name("CFD").expect("profile");
    let params = TraceParams {
        total_accesses: 50_000,
        ..TraceParams::quick()
    };
    let mut group = c.benchmark_group("tracegen");
    group.sample_size(20);
    group.bench_function("cfd_50k", |b| {
        b.iter(|| generate(black_box(&cfg), &p, &params))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_interleave,
    bench_eab,
    bench_crd,
    bench_simulator,
    bench_cycle_loop,
    bench_kernel_launch,
    bench_two_tier,
    bench_sweep_overhead,
    bench_tracegen
);
criterion_main!(benches);
