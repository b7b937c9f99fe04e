//! Behavioural tests of the five LLC organizations at the simulator level.

use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig, ObsConfig};

fn cfg() -> MachineConfig {
    MachineConfig::experiment_baseline()
}

fn params(n: usize) -> TraceParams {
    TraceParams {
        total_accesses: n,
        ..TraceParams::quick()
    }
}

#[test]
fn static_llc_pins_half_capacity_per_pool() {
    // Under the static organization, a sharing-heavy workload must end up
    // with close to a 50/50 local/remote split — the way partition caps
    // both pools.
    let c = cfg();
    let wl = generate(&c, &profiles::by_name("CFD").unwrap(), &params(60_000));
    let s = SimBuilder::new(c)
        .organization(LlcOrgKind::StaticHalf)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert!(
        (0.35..=0.75).contains(&s.llc_local_fraction),
        "static split drifted to {}",
        s.llc_local_fraction
    );
}

#[test]
fn memory_side_never_caches_remote_data() {
    let c = cfg();
    for bench in ["SN", "SRAD", "NN"] {
        let wl = generate(&c, &profiles::by_name(bench).unwrap(), &params(40_000));
        let s = SimBuilder::new(c.clone())
            .organization(LlcOrgKind::MemorySide)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .unwrap();
        assert!(
            s.llc_local_fraction > 0.999,
            "{bench}: {}",
            s.llc_local_fraction
        );
    }
}

#[test]
fn sac_pays_reconfiguration_overhead_only_when_switching() {
    let c = cfg();
    // SN switches to SM-side: drain + flush overhead accrues.
    let wl = generate(&c, &profiles::by_name("SN").unwrap(), &params(120_000));
    let switching = SimBuilder::new(c.clone())
        .organization(LlcOrgKind::Sac)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert!(switching
        .sac_history
        .iter()
        .any(|r| r.mode == sac::LlcMode::SmSide));
    assert!(switching.overhead_cycles > 0);

    // SRAD stays memory-side: only kernel-boundary costs remain, which are
    // much smaller than a reconfiguring run's.
    let wl = generate(&c, &profiles::by_name("SRAD").unwrap(), &params(120_000));
    let staying = SimBuilder::new(c)
        .organization(LlcOrgKind::Sac)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert!(staying
        .sac_history
        .iter()
        .all(|r| r.mode == sac::LlcMode::MemorySide));
    assert!(
        staying.overhead_cycles < switching.overhead_cycles,
        "no-switch overhead {} should undercut switch overhead {}",
        staying.overhead_cycles,
        switching.overhead_cycles
    );
}

#[test]
fn hardware_coherence_changes_traffic_not_work() {
    let c_sw = cfg();
    let mut c_hw = cfg();
    c_hw.coherence = CoherenceKind::Hardware;
    let wl = generate(&c_sw, &profiles::by_name("RN").unwrap(), &params(60_000));
    let sw = SimBuilder::new(c_sw)
        .organization(LlcOrgKind::SmSide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    let hw = SimBuilder::new(c_hw)
        .organization(LlcOrgKind::SmSide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert_eq!(sw.reads + sw.writes, hw.reads + hw.writes);
    // Hardware coherence avoids the bulk kernel-boundary flush.
    assert!(hw.overhead_cycles <= sw.overhead_cycles);
}

#[test]
fn timeline_tiles_the_run_and_sums_to_run_stats() {
    let c = cfg();
    let wl = generate(&c, &profiles::by_name("BS").unwrap(), &params(40_000));
    let mut sim = SimBuilder::new(c)
        .organization(LlcOrgKind::MemorySide)
        .observability(ObsConfig::metrics().with_epoch_window(2_000))
        .build()
        .expect("valid machine configuration");
    let s = sim.run(&wl).unwrap();
    let timeline = sim.take_obs_report().unwrap().timeline;
    assert_eq!(timeline.first().unwrap().start_cycle, 0);
    assert_eq!(timeline.last().unwrap().end_cycle, s.cycles);
    for w in timeline.windows(2) {
        assert_eq!(w[1].start_cycle, w[0].end_cycle, "epochs are contiguous");
    }
    assert!(timeline.iter().all(|e| e.start_cycle < e.end_cycle));
    let reads: u64 = timeline.iter().map(|e| e.reads).sum();
    let writes: u64 = timeline.iter().map(|e| e.writes).sum();
    assert_eq!((reads, writes), (s.reads, s.writes));
    assert!(timeline.iter().all(|e| e.active_clusters <= 32));
}

#[test]
fn per_kernel_stats_cover_the_whole_run() {
    let c = cfg();
    let p = profiles::by_name("BFS").unwrap();
    let wl = generate(&c, &p, &params(60_000));
    let s = SimBuilder::new(c)
        .organization(LlcOrgKind::MemorySide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert_eq!(s.kernels.len(), p.total_kernels());
    let kernel_cycles: u64 = s.kernels.iter().map(|k| k.cycles).sum();
    assert_eq!(kernel_cycles, s.cycles, "kernel cycles partition the run");
    let kernel_work: u64 = s.kernels.iter().map(|k| k.accesses).sum();
    assert_eq!(kernel_work, s.reads + s.writes);
}

#[test]
fn dram_traffic_scales_with_misses() {
    // The SM-side organization's higher miss rate must show up as more
    // DRAM reads on a thrashing workload.
    let c = cfg();
    let wl = generate(&c, &profiles::by_name("STEN").unwrap(), &params(80_000));
    let mem = SimBuilder::new(c.clone())
        .organization(LlcOrgKind::MemorySide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    let sm = SimBuilder::new(c)
        .organization(LlcOrgKind::SmSide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert!(sm.llc_miss_rate() > mem.llc_miss_rate());
    assert!(
        sm.dram_reads + sm.dram_writes > mem.dram_reads + mem.dram_writes,
        "more misses must cost more DRAM traffic"
    );
}

#[test]
fn sm_side_reduces_ring_bytes_per_access_for_false_sharing() {
    // BS is pure false sharing: under SM-side, repeated slot accesses are
    // served locally, so total ring bytes drop versus memory-side. Shrink
    // the input so the sliding hot window actually revisits lines — at full
    // scale the pool is streamed nearly touch-once and the two
    // organizations move the same data (no reuse for SM-side to capture).
    let c = cfg();
    let p = TraceParams {
        input_scale: 0.25,
        ..params(80_000)
    };
    let wl = generate(&c, &profiles::by_name("BS").unwrap(), &p);
    let mem = SimBuilder::new(c.clone())
        .organization(LlcOrgKind::MemorySide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    let sm = SimBuilder::new(c)
        .organization(LlcOrgKind::SmSide)
        .build()
        .expect("valid machine configuration")
        .run(&wl)
        .unwrap();
    assert!(
        (sm.ring_bytes as f64) < 0.8 * mem.ring_bytes as f64,
        "SM-side should move clearly less data across the ring: {} vs {}",
        sm.ring_bytes,
        mem.ring_bytes
    );
}
