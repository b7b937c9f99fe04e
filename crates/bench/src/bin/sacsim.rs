//! Ad-hoc experiment CLI.
//!
//! ```text
//! sacsim [--bench NAME] [--org ORG] [--accesses N] [--input-scale X]
//!        [--chips N] [--topology ring|full|mesh2d]
//!        [--hw-coherence] [--sectored] [--json] [--jobs N] [--list-orgs]
//!        [--mode cycle|fast] [--list-modes]
//!        [--watchdog-cycles N] [--journal PATH] [--resume PATH]
//!        [--obs] [--obs-window N] [--obs-out PATH] [--trace-out PATH]
//! ```
//!
//! ORG is any token or label from the LLC-organization registry
//! (`--list-orgs` prints them), or `all`. Prints the full run statistics;
//! `--org all` fans every organization out over the sweep pool and prints
//! a comparison table; `--json` prints the canonical golden-stat JSON
//! instead (single organization only).
//!
//! Machine shape: `--chips N` sets the chip count (default 4) and
//! `--topology` the inter-chip fabric (default `ring`; `full` and `mesh`
//! are accepted aliases of `fully-connected` and `mesh2d`). The combined
//! configuration is validated up front, so an over-wide machine or an
//! unknown label fails fast instead of quarantining sweep cells.
//!
//! Engine tier: `--mode cycle` (default) simulates every cycle, jumping
//! the clock over cycles in which nothing can move; `--mode fast`
//! evaluates cells with the analytic locality estimator instead (no cycle
//! simulation, so `--obs*` and `--trace-out` are rejected with it).
//! `--list-modes` prints the registry.
//!
//! Robustness knobs: `--watchdog-cycles N` sets the forward-progress
//! watchdog window (`MCGPU_WATCHDOG_CYCLES` works too; `18446744073709551615`
//! = `u64::MAX` disables it). `--journal PATH` records every finished cell
//! to an append-only JSONL run journal; after an interruption,
//! `--resume PATH` replays completed cells byte-identically and re-runs
//! only missing or quarantined ones. The cell is the unit of recovery: an
//! interrupted cell re-runs from cycle 0.
//!
//! Observability (single organization only; strictly read-only, so the
//! printed statistics stay byte-identical): `--obs` records latency
//! histograms and the epoch timeline, `--obs-window N` sets the timeline
//! window in cycles (default 10000), `--obs-out PATH` writes the canonical
//! observability JSON, and `--trace-out PATH` writes a Chrome `trace_event`
//! JSON (load in `chrome://tracing` or Perfetto). `--obs-out`/`--trace-out`
//! imply `--obs`; `--trace-out` raises the level to `trace`.

use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{CoherenceKind, EngineMode, LlcOrgKind, ObsConfig, ResponseOrigin, TopologyKind};
use sac_bench::{arg_value, exit_on_quarantine, run_benchmark, SweepOptions};

fn main() {
    if std::env::args().any(|a| a == "--list-orgs") {
        println!("{:8} {:12} summary", "token", "label");
        for d in &mcgpu_sim::org::REGISTRY {
            println!("{:8} {:12} {}", d.token, d.kind.label(), d.summary);
        }
        return;
    }
    if std::env::args().any(|a| a == "--list-modes") {
        println!("{:8} summary", "token");
        for d in &mcgpu_types::ENGINE_MODES {
            println!("{:8} {}", d.token, d.summary);
        }
        return;
    }
    let bench = arg_value("--bench").unwrap_or_else(|| "BFS".to_string());
    let org = match arg_value::<String>("--org").as_deref() {
        None => Some(LlcOrgKind::MemorySide),
        Some("all") => None,
        Some(other) => match mcgpu_sim::org::org_by_token(other) {
            Some(kind) => Some(kind),
            None => {
                let known: Vec<String> = mcgpu_sim::org::REGISTRY
                    .iter()
                    .map(|d| format!("{} ({})", d.token, d.kind.label()))
                    .collect();
                eprintln!(
                    "unknown organization {other}; known: {}, or `all` (see --list-orgs)",
                    known.join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let mut cfg = sac_bench::experiment_config();
    if std::env::args().any(|a| a == "--hw-coherence") {
        cfg.coherence = CoherenceKind::Hardware;
    }
    if std::env::args().any(|a| a == "--sectored") {
        cfg.sectored = true;
    }
    if let Some(n) = arg_value("--watchdog-cycles") {
        // Validated by MachineConfig::validate() when the simulator is
        // built; 0 is rejected there with a typed ConfigError.
        cfg.watchdog_cycles = n;
    }
    if let Some(v) = arg_value::<String>("--chips") {
        match v.parse::<usize>() {
            Ok(n) => cfg.chips = n,
            Err(_) => {
                eprintln!("--chips needs an unsigned integer, got `{v}`");
                std::process::exit(2);
            }
        }
    }
    if let Some(v) = arg_value::<String>("--topology") {
        match TopologyKind::from_label(&v) {
            Some(k) => cfg.topology = k,
            None => {
                let known: Vec<&str> = TopologyKind::ALL.iter().map(|t| t.label()).collect();
                eprintln!("unknown topology `{v}`; known: {}", known.join(", "));
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid machine configuration: {e}");
        std::process::exit(2);
    }
    let mut params = TraceParams::standard();
    if let Some(n) = arg_value("--accesses") {
        params.total_accesses = n;
    }
    if let Some(x) = arg_value("--input-scale") {
        params = params.with_input_scale(x);
    }

    let Some(profile) = profiles::by_name(&bench) else {
        eprintln!(
            "unknown benchmark {bench}; known: {:?}",
            profiles::all_profiles()
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
        );
        std::process::exit(2);
    };
    let opts = SweepOptions::from_args();

    let trace_out = arg_value::<String>("--trace-out");
    let obs_out = arg_value::<String>("--obs-out");
    let obs_requested =
        std::env::args().any(|a| a == "--obs") || obs_out.is_some() || trace_out.is_some();

    // The fast tier has no cycles, so there is nothing to observe or
    // trace — reject the combination up front instead of silently running
    // the wrong engine.
    if opts.mode == EngineMode::Fast && obs_requested {
        eprintln!("--mode fast has no cycle engine to observe; drop --obs/--obs-out/--trace-out or use --mode cycle");
        std::process::exit(2);
    }

    let Some(org) = org else {
        if obs_requested {
            eprintln!("--obs/--obs-out/--trace-out need a single --org, not `all`");
            std::process::exit(2);
        }
        // --org all: fan every organization out over the sweep pool and
        // print a comparison table relative to the memory-side baseline.
        let rows = exit_on_quarantine(run_benchmark(
            &cfg,
            &profile,
            &params,
            &LlcOrgKind::ALL,
            &opts,
        ));
        let mem_cycles = rows.runs[0].1.cycles;
        println!(
            "benchmark: {} ({} accesses, input x{}) on {} chips, {} fabric\n",
            bench,
            rows.workload.total_accesses(),
            params.input_scale,
            cfg.chips,
            cfg.topology.label()
        );
        println!(
            "{:12} {:>10} {:>10} {:>9} {:>9} {:>9}",
            "organization", "cycles", "acc/cyc", "speedup", "LLC miss", "local"
        );
        for (org, s) in &rows.runs {
            println!(
                "{:12} {:>10} {:>10.3} {:>8.2}x {:>9.3} {:>9.3}",
                org.label(),
                s.cycles,
                s.perf(),
                mem_cycles as f64 / s.cycles as f64,
                s.llc_miss_rate(),
                s.llc_local_fraction
            );
        }
        return;
    };
    let (stats, report, total_accesses) = if obs_requested {
        // Direct single-simulator path: observe this one run.
        let mut obs = if trace_out.is_some() {
            ObsConfig::trace()
        } else {
            ObsConfig::metrics()
        };
        if let Some(w) = arg_value("--obs-window") {
            obs = obs.with_epoch_window(w);
        }
        let wl = generate(&cfg, &profile, &params);
        let total = wl.total_accesses();
        let mut sim = SimBuilder::new(cfg.clone())
            .organization(org)
            .observability(obs)
            .build()
            .unwrap_or_else(|e| {
                eprintln!("{bench}/{org}: {e}");
                std::process::exit(1);
            });
        let stats = sim.run(&wl).unwrap_or_else(|e| {
            eprintln!("{bench}/{org}: {e}");
            std::process::exit(1);
        });
        let report = sim.take_obs_report();
        (stats, report, total)
    } else {
        let rows = exit_on_quarantine(run_benchmark(&cfg, &profile, &params, &[org], &opts));
        let total = rows.workload.total_accesses();
        (rows.stats(org).clone(), None, total)
    };
    let stats = &stats;
    if let Some(r) = &report {
        if let Some(path) = &obs_out {
            std::fs::write(path, r.to_canonical_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        if let Some(path) = &trace_out {
            let trace = r.trace_json.as_deref().expect("trace level was requested");
            std::fs::write(path, trace).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
    }
    if std::env::args().any(|a| a == "--json") {
        print!("{}", stats.to_canonical_json());
        return;
    }

    println!(
        "benchmark          : {} ({} accesses, input x{})",
        bench, total_accesses, params.input_scale
    );
    println!(
        "machine            : {} chips, {} fabric",
        cfg.chips,
        cfg.topology.label()
    );
    println!("organization       : {}", org.label());
    println!("cycles             : {}", stats.cycles);
    println!("performance        : {:.3} accesses/cycle", stats.perf());
    println!("L1 miss rate       : {:.3}", stats.l1.miss_rate());
    println!("LLC miss rate      : {:.3}", stats.llc_miss_rate());
    println!("LLC local fraction : {:.3}", stats.llc_local_fraction);
    println!(
        "effective LLC bw   : {:.3} responses/cycle",
        stats.effective_llc_bandwidth()
    );
    for o in ResponseOrigin::ALL {
        println!(
            "  from {:10}    : {:.3}/cycle",
            o.label(),
            stats.response_rate(o)
        );
    }
    println!(
        "ring traffic       : {:.1} B/cycle",
        stats.ring_bytes as f64 / stats.cycles as f64
    );
    println!(
        "DRAM reads/writes  : {} / {}",
        stats.dram_reads, stats.dram_writes
    );
    println!("overhead cycles    : {}", stats.overhead_cycles);
    if !stats.sac_history.is_empty() {
        println!("SAC decisions:");
        for (i, r) in stats.sac_history.iter().enumerate() {
            println!("  kernel {i}: {} (EAB mem {:.0} vs sm {:.0}, R_local {:.2}, hitM {:.2}, hitS {:.2})",
                r.mode, r.eab_memory_side, r.eab_sm_side,
                r.inputs.r_local, r.inputs.llc_hit_memory_side, r.inputs.llc_hit_sm_side);
        }
    }
    if let Some(r) = &report {
        println!(
            "latency (cycles)   : {:>10} {:>9} {:>7} {:>7} {:>7}",
            "class", "count", "p50", "p90", "p99"
        );
        for o in ResponseOrigin::ALL {
            let h = r.class_histogram(o);
            println!(
                "  {:>18} {:>9} {:>7} {:>7} {:>7}",
                o.label(),
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99)
            );
        }
        println!(
            "timeline           : {} epoch(s) of {} cycles",
            r.timeline.len(),
            r.epoch_window
        );
        if let Some(path) = &obs_out {
            println!("obs report         : wrote {path}");
        }
        if let Some(path) = &trace_out {
            println!("event trace        : wrote {path}");
        }
    }
}
