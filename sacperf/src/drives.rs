//! Standalone layer drives, run in the traced run only.
//!
//! Each drive calls one crate's public API directly, fed with the
//! workload's own generated traces and machine shape, so a layer's cost
//! per operation is measured apart from the engine that normally calls
//! it. Each drive also checks that its layer conserved the work it was
//! given.

use crate::exec::{run_cell, CellResult, Traces};
use crate::grid::{Engine, Grid};
use crate::spans::{SpanId, Tracer};
use mcgpu_cache::{CacheConfig, DataHome, LookupOutcome, SetAssocCache};
use mcgpu_mem::{interleave, DramRequest, MemoryPartition};
use mcgpu_noc::{Crossbar, FabricNetwork, SendError};
use mcgpu_trace::Workload;
use mcgpu_types::packet::{REQ_HEADER_BYTES, RSP_HEADER_BYTES, WRITE_PAYLOAD_BYTES};
use mcgpu_types::{ChipId, ClusterId, LineAddr, MachineConfig, MemAccess, Request, RequestId};
use sac::{estimate_cell, ArchBandwidth, Crd, EabInputs, EabModel, KernelProfile, SacConfig};
use sac_bench::fastmode;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Accesses fed to the drives, taken in equal shares from the start of
/// each trace of the grid's first machine.
const DRIVE_ACCESSES: usize = 40_000;
/// Per-link injection queue depth the engine gives the fabric.
const FABRIC_QUEUE: usize = 32;
/// Per-port queue depth the engine gives each crossbar.
const PORT_QUEUE: usize = 32;
/// Requests kept queued per DRAM channel to hold it at saturation.
const DRAM_BACKLOG: usize = 16;
/// Minimum host time of a drive over very cheap calls, for a stable
/// per-call figure.
const MIN_TIMED_S: f64 = 0.05;
/// Cycle budget after which a drive declares its layer wedged.
const DRIVE_CYCLE_LIMIT: u64 = 50_000_000;

/// One access of the drive stream.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// Requesting chip.
    src: usize,
    /// Home chip of the page.
    home: usize,
    line: LineAddr,
    write: bool,
}

/// What the drives measured.
#[derive(Debug, Clone, Default)]
pub struct DriveMetrics {
    /// Host ns per fabric packet delivered.
    pub fabric_ns_per_packet: f64,
    /// High-water mark of `FabricNetwork::len`.
    pub fabric_backlog_peak: u64,
    /// `SendError::Full` results per `try_send` attempt.
    pub fabric_full_ratio: f64,
    /// Host ns per crossbar packet delivered.
    pub xbar_ns_per_packet: f64,
    /// Rejected pushes per push attempt.
    pub xbar_full_ratio: f64,
    /// Host ns per LLC-slice lookup (plus fill on a miss).
    pub cache_ns_per_access: f64,
    /// Hits per lookup in the slice replay.
    pub cache_hit_ratio: f64,
    /// Host ns per DRAM request served.
    pub dram_ns_per_request: f64,
    /// Bytes a saturated memory partition accepts per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Host ns per PAE index computation.
    pub pae_ns_per_index: f64,
    /// Host ns per `Crd::observe`.
    pub crd_ns_per_observe: f64,
    /// Host ns per `EabModel::decide`.
    pub eab_ns_per_decide: f64,
    /// Host ns per `estimate_cell`.
    pub estimate_ns_per_cell: f64,
    /// Host seconds in `profile_workload` over the drive traces.
    pub fast_profile_s: f64,
    /// Host seconds in `run_fast` over every cell of a cycle grid.
    pub fast_run_s: Option<f64>,
    /// Conservation failures, one message each.
    pub failures: Vec<String>,
}

fn stream(cfg: &MachineConfig, workloads: &[Arc<Workload>]) -> Vec<Access> {
    let mut out = Vec::new();
    let share = DRIVE_ACCESSES / workloads.len().max(1);
    for wl in workloads {
        for (flat, acc) in wl.merged_stream().take(share) {
            let src = flat / cfg.clusters_per_chip;
            let home = wl
                .layout
                .natural_home(acc.addr.page(cfg.page_size))
                .map_or(src, |c| c.index());
            out.push(Access {
                src,
                home,
                line: acc.addr.line(cfg.line_size),
                write: acc.kind.is_write(),
            });
        }
    }
    out
}

/// Nanoseconds per operation of `pass`, which performs `ops` operations
/// on fresh state from `setup` (untimed) and is repeated until at least
/// [`MIN_TIMED_S`] of timed work has passed.
fn ns_per_op<S>(ops: usize, mut setup: impl FnMut() -> S, mut pass: impl FnMut(S)) -> f64 {
    let (mut timed, mut passes) = (0.0, 0u64);
    while passes == 0 || timed < MIN_TIMED_S {
        let state = setup();
        let t = Instant::now();
        pass(state);
        timed += t.elapsed().as_secs_f64();
        passes += 1;
    }
    timed * 1e9 / (passes as f64 * ops.max(1) as f64)
}

/// Inject the workload's chip-to-chip traffic into a bare fabric: each
/// remote access sends its request towards the home chip and its response
/// back, every source injecting until `SendError::Full`.
fn drive_fabric(cfg: &MachineConfig, accesses: &[Access], m: &mut DriveMetrics) {
    let mut queues: Vec<VecDeque<(ChipId, u64)>> = vec![VecDeque::new(); cfg.chips];
    for a in accesses.iter().filter(|a| a.src != a.home) {
        let (req, rsp) = if a.write {
            (REQ_HEADER_BYTES + WRITE_PAYLOAD_BYTES, RSP_HEADER_BYTES)
        } else {
            (REQ_HEADER_BYTES, RSP_HEADER_BYTES + cfg.line_size)
        };
        queues[a.src].push_back((ChipId(a.home as u8), req));
        queues[a.home].push_back((ChipId(a.src as u8), rsp));
    }
    let total: usize = queues.iter().map(VecDeque::len).sum();
    let t = Instant::now();
    let mut fabric: FabricNetwork<u32> = FabricNetwork::new(cfg, FABRIC_QUEUE);
    let (mut attempts, mut full, mut peak, mut delivered) = (0u64, 0u64, 0usize, 0usize);
    let mut arrived = Vec::new();
    let mut now = 0;
    while delivered < total && now < DRIVE_CYCLE_LIMIT {
        for (chip, q) in queues.iter_mut().enumerate() {
            while let Some(&(to, bytes)) = q.front() {
                attempts += 1;
                match fabric.try_send(ChipId(chip as u8), to, 0, bytes) {
                    Ok(()) => {
                        q.pop_front();
                    }
                    Err(SendError::Full(_)) => {
                        full += 1;
                        break;
                    }
                    Err(SendError::NoRoute(_)) => {
                        m.failures
                            .push(format!("fabric: no route {chip} -> {to:?}"));
                        return;
                    }
                }
            }
        }
        peak = peak.max(fabric.len());
        fabric.tick(now);
        for chip in ChipId::all(cfg.chips) {
            fabric.pop_arrivals_into(chip, now, &mut arrived);
            delivered += arrived.len();
            arrived.clear();
        }
        now += 1;
    }
    m.fabric_ns_per_packet = t.elapsed().as_secs_f64() * 1e9 / total.max(1) as f64;
    m.fabric_backlog_peak = peak as u64;
    m.fabric_full_ratio = full as f64 / attempts.max(1) as f64;
    if delivered != total {
        m.failures
            .push(format!("fabric: delivered {delivered} of {total} packets"));
    }
}

/// Push each chip's homed requests through a request crossbar built like
/// the engine's (one port per LLC slice), injecting until a push is
/// refused each cycle.
fn drive_crossbar(cfg: &MachineConfig, accesses: &[Access], m: &mut DriveMetrics) {
    let t = Instant::now();
    let (mut attempts, mut rejected, mut total, mut delivered) = (0u64, 0u64, 0usize, 0usize);
    for chip in 0..cfg.chips {
        let mut xbar: Crossbar<u32> = Crossbar::new(
            cfg.slices_per_chip,
            cfg.llc_slice_gbs,
            cfg.noc_bisection_gbs,
            cfg.noc_latency,
            PORT_QUEUE,
        );
        let mut q: VecDeque<(usize, u64)> = accesses
            .iter()
            .filter(|a| a.home == chip)
            .map(|a| {
                let port = interleave::slice_index(a.line, cfg.slices_per_chip);
                let bytes = if a.write {
                    REQ_HEADER_BYTES + WRITE_PAYLOAD_BYTES
                } else {
                    REQ_HEADER_BYTES
                };
                (port, bytes)
            })
            .collect();
        total += q.len();
        let mut now = 0;
        while (!q.is_empty() || !xbar.is_empty()) && now < DRIVE_CYCLE_LIMIT {
            while let Some(&(port, bytes)) = q.front() {
                attempts += 1;
                if xbar.try_push(port, 0, bytes).is_err() {
                    rejected += 1;
                    break;
                }
                q.pop_front();
            }
            xbar.tick(now);
            for port in 0..xbar.ports() {
                while xbar.pop_ready(port, now).is_some() {
                    delivered += 1;
                }
            }
            now += 1;
        }
    }
    m.xbar_ns_per_packet = t.elapsed().as_secs_f64() * 1e9 / total.max(1) as f64;
    m.xbar_full_ratio = rejected as f64 / attempts.max(1) as f64;
    if delivered != total {
        m.failures.push(format!(
            "crossbar: delivered {delivered} of {total} packets"
        ));
    }
}

/// Replay the stream through the LLC slices it maps to under the
/// memory-side organization: home chip, then `interleave::slice_index`.
fn drive_cache(cfg: &MachineConfig, accesses: &[Access], m: &mut DriveMetrics) {
    let geometry = CacheConfig::llc_slice(cfg.llc_slice_bytes(), cfg.llc_assoc, cfg.line_size);
    let mut hits = 0u64;
    let fresh_slices = || -> Vec<SetAssocCache> {
        (0..cfg.chips * cfg.slices_per_chip)
            .map(|_| SetAssocCache::new(geometry.clone()))
            .collect()
    };
    m.cache_ns_per_access = ns_per_op(accesses.len(), fresh_slices, |mut slices| {
        hits = 0;
        for a in accesses {
            let s =
                a.home * cfg.slices_per_chip + interleave::slice_index(a.line, cfg.slices_per_chip);
            let cache = &mut slices[s];
            if cache.lookup(a.line, None, a.write) == LookupOutcome::Hit {
                hits += 1;
            } else {
                black_box(cache.fill(a.line, None, DataHome::Local, a.write));
            }
        }
    });
    m.cache_hit_ratio = hits as f64 / accesses.len().max(1) as f64;
}

/// Hold each chip's memory partition at saturation with its homed
/// requests until all are served.
fn drive_dram(cfg: &MachineConfig, accesses: &[Access], m: &mut DriveMetrics) {
    let t = Instant::now();
    let (mut served, mut total, mut bytes, mut cycles) = (0usize, 0usize, 0u64, 0u64);
    let mut ready = Vec::new();
    for chip in 0..cfg.chips {
        let mut part = MemoryPartition::new(
            cfg.channels_per_chip,
            cfg.dram_channel_gbs,
            cfg.dram_latency,
            cfg.line_size,
        );
        let mut q = accesses
            .iter()
            .filter(|a| a.home == chip)
            .enumerate()
            .peekable();
        let backlog = DRAM_BACKLOG * cfg.channels_per_chip;
        let mut now = 0;
        while (q.peek().is_some() || !part.is_empty()) && now < DRIVE_CYCLE_LIMIT {
            while part.len() < backlog {
                let Some((i, a)) = q.next() else { break };
                let base = a.line.base(cfg.line_size);
                part.push(DramRequest {
                    request: Request {
                        id: RequestId(i as u64),
                        origin: ClusterId::default(),
                        access: if a.write {
                            MemAccess::write(base)
                        } else {
                            MemAccess::read(base)
                        },
                        home: ChipId(chip as u8),
                    },
                    from_local_slice: true,
                    slice: None,
                });
                total += 1;
            }
            part.tick(now);
            part.pop_ready_into(now, &mut ready);
            served += ready.len();
            ready.clear();
            now += 1;
        }
        bytes += part.accepted_bytes();
        cycles += now;
    }
    m.dram_ns_per_request = t.elapsed().as_secs_f64() * 1e9 / served.max(1) as f64;
    m.dram_bytes_per_cycle = bytes as f64 / cycles.max(1) as f64;
    if served != total {
        m.failures
            .push(format!("dram: served {served} of {total} requests"));
    }
}

/// The PAE hashes: slice, channel and bank index of every line.
fn drive_pae(cfg: &MachineConfig, accesses: &[Access], m: &mut DriveMetrics) {
    m.pae_ns_per_index = ns_per_op(
        3 * accesses.len(),
        || (),
        |()| {
            for a in accesses {
                black_box(interleave::slice_index(
                    black_box(a.line),
                    cfg.slices_per_chip,
                ));
                black_box(interleave::channel_index(
                    black_box(a.line),
                    cfg.channels_per_chip,
                ));
                black_box(interleave::bank_index(black_box(a.line), 16));
            }
        },
    );
}

/// One CRD per home chip observing every access it homes. Returns the
/// mean predicted SM-side hit rate.
fn drive_crd(cfg: &MachineConfig, accesses: &[Access], m: &mut DriveMetrics) -> f64 {
    let sets = cfg.policy_ctx().llc_sets_per_chip;
    let mut predicted = 0.0;
    let fresh_crds = || -> Vec<Crd> {
        (0..cfg.chips)
            .map(|_| Crd::for_chips(cfg.chips, sets, cfg.sectored))
            .collect()
    };
    m.crd_ns_per_observe = ns_per_op(accesses.len(), fresh_crds, |mut crds| {
        for a in accesses {
            black_box(crds[a.home].observe(a.line, None, ChipId(a.src as u8)));
        }
        predicted = crds.iter().map(Crd::predicted_hit_rate).sum::<f64>() / cfg.chips as f64;
    });
    predicted
}

/// `EabModel::decide` over inputs taken from the kernel profiles (local
/// fraction), the slice replay (memory-side hit rate) and the CRD
/// (SM-side hit rate), and `estimate_cell` for every organization of
/// every profile.
fn drive_sac(
    cfg: &MachineConfig,
    profiles: &[Vec<KernelProfile>],
    sm_side_hit: f64,
    m: &mut DriveMetrics,
) {
    let sac_cfg = SacConfig::for_machine(cfg);
    let model = EabModel::new(ArchBandwidth::from_config(cfg));
    let inputs: Vec<EabInputs> = profiles
        .iter()
        .flatten()
        .map(|k| EabInputs {
            r_local: k.r_local(),
            llc_hit_memory_side: m.cache_hit_ratio,
            llc_hit_sm_side: sm_side_hit,
            lsu_memory_side: 1.0,
            lsu_sm_side: 1.0,
        })
        .collect();
    m.eab_ns_per_decide = ns_per_op(
        inputs.len(),
        || (),
        |()| {
            for i in &inputs {
                black_box(model.decide(black_box(i), sac_cfg.theta));
            }
        },
    );
    let orgs = mcgpu_types::LlcOrgKind::ALL;
    m.estimate_ns_per_cell = ns_per_op(
        profiles.len() * orgs.len(),
        || (),
        |()| {
            for p in profiles {
                for org in orgs {
                    black_box(estimate_cell(cfg, &sac_cfg, org, black_box(p)));
                }
            }
        },
    );
}

/// Run every drive on the grid's first machine and its traces, each in a
/// span under `parent`. For a cycle grid, also time `run_fast` over every
/// cell; for a fast grid, run the first cell through the cycle engine so
/// the engine layer is measured on every workload.
pub fn run_drives(
    grid: &Grid,
    traces: &Traces,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (DriveMetrics, Option<CellResult>) {
    let cfg = &grid.machines[0].1;
    let primary: Vec<Arc<Workload>> = (0..grid.profiles.len())
        .map(|p| Arc::clone(&traces.workloads[grid.trace_index(0, p)]))
        .collect();
    let accesses = stream(cfg, &primary);
    let mut m = DriveMetrics::default();
    tracer.span(parent, "mcgpu-noc", "fabric_drive", None, |_| {
        drive_fabric(cfg, &accesses, &mut m)
    });
    tracer.span(parent, "mcgpu-noc", "crossbar_drive", None, |_| {
        drive_crossbar(cfg, &accesses, &mut m)
    });
    tracer.span(parent, "mcgpu-cache", "slice_replay", None, |_| {
        drive_cache(cfg, &accesses, &mut m)
    });
    tracer.span(parent, "mcgpu-mem", "dram_drive", None, |_| {
        drive_dram(cfg, &accesses, &mut m)
    });
    tracer.span(parent, "mcgpu-mem", "pae_drive", None, |_| {
        drive_pae(cfg, &accesses, &mut m)
    });
    let (sm_side_hit, _) = tracer.span(parent, "sac", "crd_drive", None, |_| {
        drive_crd(cfg, &accesses, &mut m)
    });
    let (profiles, secs) = tracer.span(parent, "sac-bench", "profile_workload", None, |_| {
        primary
            .iter()
            .map(|wl| fastmode::profile_workload(cfg, wl))
            .collect::<Vec<_>>()
    });
    m.fast_profile_s = secs;
    tracer.span(parent, "sac", "eab_estimate_drive", None, |_| {
        drive_sac(cfg, &profiles, sm_side_hit, &mut m)
    });
    let engine_cell = match grid.engine {
        Engine::Cycle => {
            let (_, secs) = tracer.span(parent, "sac-bench", "run_fast_drive", None, |id| {
                for c in grid.cells() {
                    let wl = &traces.workloads[grid.trace_index(c.machine, c.profile)];
                    tracer.span(id, "sac-bench", "run_fast", Some(c.id), |_| {
                        black_box(fastmode::run_fast(&grid.machines[c.machine].1, wl, c.org))
                    });
                }
            });
            m.fast_run_s = Some(secs);
            None
        }
        Engine::Fast => {
            let mut cycle = grid.clone();
            cycle.engine = Engine::Cycle;
            Some(run_cell(&cycle, traces, &cycle.cells()[0], tracer, parent))
        }
    };
    (m, engine_cell)
}
