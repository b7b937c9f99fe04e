//! Perf-baseline emitter: times the engine's primitives (slice
//! lookup/fill, PAE indexing, EAB, CRD) and whole cells with plain
//! `Instant` loops and writes a canonical `mcgpu-bench-v1` document, so
//! the repo carries a `BENCH_sac.json` trajectory that future
//! optimization PRs can compare against with numbers instead of
//! adjectives.
//!
//! This is the repo's one micro-benchmark harness. Each primitive is
//! calibrated with a short probe run, then timed for enough iterations to
//! cover the target interval.
//!
//! Flags:
//! - `--out PATH` — where to write the JSON document (default
//!   `BENCH_sac.json`).
//! - `--target-ms N` — per-bench measurement interval (default 200).
//! - `--check PATH` — after sampling, compare each sample against the
//!   `mcgpu-bench-v1` document at PATH and exit 1 if any sample both
//!   sides know regressed by more than `--tolerance` (default 0.20).
//!   New samples are reported but never gate.

use mcgpu_cache::{CacheConfig, DataHome, SetAssocCache};
use mcgpu_mem::interleave;
use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::json::CanonicalWriter;
use mcgpu_types::{ChipId, LineAddr, LlcOrgKind, MachineConfig, TopologyKind};
use sac::eab::{ArchBandwidth, EabInputs, EabModel};
use sac::Crd;
use sac_bench::arg_value;
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Sample {
    name: &'static str,
    iters: u64,
    total_ns: u64,
}

impl Sample {
    fn ns_per_iter(&self) -> f64 {
        self.total_ns as f64 / self.iters as f64
    }
}

/// Time `f` for roughly `target` of wall clock: probe with doubling
/// iteration counts until the loop is measurable, extrapolate the count
/// that covers `target`, then take the best of three measured passes.
/// Scheduler noise only ever adds time, so the minimum is the stable
/// estimator — it keeps the `--check` regression gate from tripping on
/// a loaded runner.
fn measure(name: &'static str, target: Duration, mut f: impl FnMut()) -> Sample {
    let mut probe_iters = 1u64;
    let probe = loop {
        let t = Instant::now();
        for _ in 0..probe_iters {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed >= Duration::from_millis(5) || elapsed >= target {
            break elapsed;
        }
        probe_iters *= 2;
    };
    let per_iter = probe.as_nanos().max(1) as f64 / probe_iters as f64;
    let iters = ((target.as_nanos() as f64 / per_iter) as u64).clamp(1, 1 << 32);
    let total_ns = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
        })
        .min()
        .expect("three passes");
    let s = Sample {
        name,
        iters,
        total_ns,
    };
    eprintln!(
        "  {:32} {:>14.1} ns/iter  ({} iters)",
        s.name,
        s.ns_per_iter(),
        s.iters
    );
    s
}

fn main() {
    sac_bench::reject_unknown_flags(&["--jobs", "--out", "--target-ms", "--check", "--tolerance"]);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_sac.json".to_string());
    let target = Duration::from_millis(arg_value("--target-ms").unwrap_or(200));
    eprintln!(
        "perf baseline (target {} ms per bench):",
        target.as_millis()
    );

    let mut samples = Vec::new();

    // llc_slice_lookup_fill — the hot path of every simulated access.
    {
        let mut cache = SetAssocCache::new(CacheConfig::llc_slice(256 << 10, 16, 128));
        let mut i = 0u64;
        samples.push(measure("llc_slice_lookup_fill", target, || {
            let line = LineAddr(i % 40_000);
            i = i.wrapping_add(97);
            if cache.lookup(black_box(line), None, false) != mcgpu_cache::LookupOutcome::Hit {
                cache.fill(line, None, DataHome::Local, false);
            }
        }));
    }

    // pae_slice_index — the page-address-entropy interleaving hash.
    {
        let mut i = 0u64;
        samples.push(measure("pae_slice_index", target, || {
            i = i.wrapping_add(4097);
            black_box(interleave::slice_index(LineAddr(i), 16));
        }));
    }

    // eab_decide — SAC's per-kernel analytical organization choice.
    {
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
        samples.push(measure("eab_decide", target, || {
            black_box(model.decide(black_box(&inputs), 0.05));
        }));
    }

    // crd_observe — the cacheline reuse detector's per-access update.
    {
        let mut crd = Crd::paper_default(128);
        let mut i = 0u64;
        samples.push(measure("crd_observe", target, || {
            i = i.wrapping_add(31);
            crd.observe(LineAddr(i % 4096), None, ChipId((i % 4) as u8));
        }));
    }

    // End-to-end 20k-access SN simulations: two organizations on the
    // 4-chip ring, and memory-side on the 16-chip mesh, whose saturated
    // multi-hop fabric keeps deep transit backlogs at intermediate chips.
    {
        let ring4 = MachineConfig::experiment_baseline();
        let mut mesh16 = ring4.clone();
        mesh16.topology = TopologyKind::Mesh2D;
        mesh16.chips = 16;
        let p = profiles::by_name("SN").expect("profile");
        let params = TraceParams {
            total_accesses: 20_000,
            ..TraceParams::quick()
        };
        for (name, cfg, org) in [
            (
                "end_to_end_sn_20k_memory_side",
                &ring4,
                LlcOrgKind::MemorySide,
            ),
            ("end_to_end_sn_20k_sac", &ring4, LlcOrgKind::Sac),
            (
                "end_to_end_sn_20k_mesh16_memory_side",
                &mesh16,
                LlcOrgKind::MemorySide,
            ),
        ] {
            let wl = generate(cfg, &p, &params);
            samples.push(measure(name, target, || {
                SimBuilder::new(cfg.clone())
                    .organization(org)
                    .build()
                    .expect("valid machine configuration")
                    .run(black_box(&wl))
                    .unwrap();
            }));
        }
    }

    // NN memory-side at the figure-sweep volume: its dense trace keeps
    // the cluster MSHR files near their 256-entry limit and hundreds of
    // fetches pending at each slice, which the 20k SN cells above never
    // reach. A return to scanning the MSHR tables fails `--check` here.
    {
        let cfg = MachineConfig::experiment_baseline();
        let params = TraceParams {
            total_accesses: 150_000,
            ..TraceParams::standard()
        };
        let wl = generate(&cfg, &profiles::by_name("NN").expect("profile"), &params);
        samples.push(measure("end_to_end_nn_150k_memory_side", target, || {
            SimBuilder::new(cfg.clone())
                .organization(LlcOrgKind::MemorySide)
                .build()
                .expect("valid machine configuration")
                .run(black_box(&wl))
                .unwrap();
        }));
    }

    // Tick loop under hardware coherence (stresses the sharer directory).
    {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.coherence = mcgpu_types::CoherenceKind::Hardware;
        let p = profiles::by_name("RN").expect("profile");
        let params = TraceParams {
            total_accesses: 20_000,
            ..TraceParams::quick()
        };
        let wl = generate(&cfg, &p, &params);
        samples.push(measure("cycle_loop_rn_20k_smside_hwcoh", target, || {
            SimBuilder::new(cfg.clone())
                .organization(LlcOrgKind::SmSide)
                .build()
                .expect("valid machine configuration")
                .run(black_box(&wl))
                .unwrap();
        }));
    }

    // Kernel launch: loading one kernel's streams into all 32 clusters.
    {
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
        samples.push(measure("kernel_launch_32_clusters", target, || {
            for (i, cl) in clusters.iter_mut().enumerate() {
                cl.load_kernel(kernel.per_cluster[i].clone(), 0);
            }
        }));
    }

    // Two-tier engine on a sparse phase: the same cell on the cycle
    // engine and in the analytic fast mode. Sparse = long compute gaps
    // between memory instructions (no Table 4 profile has a gap above 1
    // cycle, so this is a synthetic variant) — exactly the phases
    // next-event skipping exists for, so a return of the skip cap or of
    // the quiescent-only gate fails the `--check` gate here.
    {
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
        samples.push(measure("sparse_sn_1k", target, || {
            SimBuilder::new(cfg.clone())
                .organization(LlcOrgKind::Sac)
                .build()
                .expect("valid machine configuration")
                .run(black_box(&wl))
                .unwrap();
        }));
        samples.push(measure("sparse_sn_1k_fast_mode", target, || {
            black_box(sac_bench::fastmode::run_fast(
                black_box(&cfg),
                &wl,
                LlcOrgKind::Sac,
            ));
        }));
    }

    // The BFS cell of the `sparse_compute` benchmark workload: a dense K1
    // alternating with a K2 at a 2,000-cycle compute gap (the Fig. 12
    // phases), 8k accesses on the 4-chip ring. `sparse_sn_1k` is nearly
    // all skipped cycles; this cell still ticks through its dense kernel
    // and the short latency windows of its sparse one, so it follows the
    // cost of each remaining tick.
    {
        let cfg = MachineConfig::experiment_baseline();
        let mut p = profiles::by_name("BFS").expect("profile");
        p.kernels[1].compute_gap = 2_000;
        let params = TraceParams {
            total_accesses: 8_000,
            ..TraceParams::standard()
        };
        let wl = generate(&cfg, &p, &params);
        samples.push(measure("sparse_bfs_alt_8k", target, || {
            SimBuilder::new(cfg.clone())
                .organization(LlcOrgKind::Sac)
                .build()
                .expect("valid machine configuration")
                .run(black_box(&wl))
                .unwrap();
        }));
    }

    // Sweep-runner dispatch overhead on trivial jobs.
    samples.push(measure("sweep_map_64_trivial_jobs", target, || {
        sac_bench::sweep::map(black_box((0u64..64).collect()), |i| i.wrapping_mul(3));
    }));

    // Trace generation for a mixed-sharing workload.
    {
        let cfg = MachineConfig::experiment_baseline();
        let p = profiles::by_name("CFD").expect("profile");
        let params = TraceParams {
            total_accesses: 50_000,
            ..TraceParams::quick()
        };
        samples.push(measure("tracegen_cfd_50k", target, || {
            generate(black_box(&cfg), &p, &params);
        }));
    }

    let mut w = CanonicalWriter::new();
    w.open();
    w.str_field("schema", "mcgpu-bench-v1");
    w.u64_field("target_ms", target.as_millis() as u64);
    w.u64_field("jobs", sac_bench::sweep::jobs() as u64);
    w.array_field("benches", samples.len(), |w, i| {
        let s = &samples[i];
        w.open();
        w.str_field("name", s.name);
        w.u64_field("iters", s.iters);
        w.u64_field("total_ns", s.total_ns);
        w.f64_field("ns_per_iter", s.ns_per_iter());
        w.close();
    });
    w.close();
    std::fs::write(&out, w.finish()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("  wrote {out}");

    if let Some(baseline) = arg_value::<String>("--check") {
        let tolerance = arg_value("--tolerance").unwrap_or(0.20);
        std::process::exit(check_against(&samples, &baseline, tolerance));
    }
}

/// Compare fresh samples against a committed `mcgpu-bench-v1` baseline:
/// any sample present in both that got more than `tolerance` slower is a
/// regression. Returns the process exit code (1 on regression). Samples
/// only one side knows are reported but never gate — adding a bench must
/// not fail the job that adds it.
fn check_against(samples: &[Sample], baseline_path: &str, tolerance: f64) -> i32 {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let doc = mcgpu_types::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let Some(benches) = doc.get("benches").and_then(|b| b.as_array()) else {
        eprintln!("baseline {baseline_path} has no benches array");
        std::process::exit(1);
    };
    let mut base = std::collections::BTreeMap::new();
    for b in benches {
        if let (Some(name), Some(ns)) = (
            b.get("name").and_then(|v| v.as_str()),
            b.get("ns_per_iter").and_then(|v| v.as_f64()),
        ) {
            base.insert(name.to_string(), ns);
        }
    }
    let mut regressions = Vec::new();
    eprintln!(
        "checking against {baseline_path} (tolerance {:.0}%):",
        tolerance * 100.0
    );
    for s in samples {
        let Some(&was) = base.get(s.name) else {
            eprintln!("  {:32} new sample (no baseline; not gated)", s.name);
            continue;
        };
        let now = s.ns_per_iter();
        let ratio = now / was;
        let verdict = if ratio > 1.0 + tolerance {
            regressions.push(format!(
                "{} {:.1} -> {:.1} ns ({:+.0}%)",
                s.name,
                was,
                now,
                (ratio - 1.0) * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "  {:32} {:>10.1} -> {:>10.1} ns  ({:+6.1}%)  {verdict}",
            s.name,
            was,
            now,
            (ratio - 1.0) * 100.0
        );
    }
    if regressions.is_empty() {
        eprintln!("  no sample regressed more than {:.0}%", tolerance * 100.0);
        0
    } else {
        eprintln!(
            "perf regression (> {:.0}%):\n  {}",
            tolerance * 100.0,
            regressions.join("\n  ")
        );
        1
    }
}
