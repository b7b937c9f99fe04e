//! The per-cycle datapath pipeline: issue, request crossbars, LLC slices,
//! the memory bypass, DRAM partitions, response delivery, the inter-chip
//! fabric, and the per-cycle controller phase.
//!
//! Each phase visits only the members that can act: the clusters the
//! issue schedule marks due, and the crossbar ports, slice service pipes,
//! DRAM channels, bypass and egress pipes and fabric links in their
//! owners' active sets, always in ascending index order (DESIGN.md,
//! "Active sets").

use super::Simulator;
use crate::org::{LlcOrg, Pause, RouteMode};
use crate::packet::{FabricPayload, FillAction, ReqEnvelope, ReqStage, RspEnvelope};
use mcgpu_cache::{DataHome, LookupOutcome};
use mcgpu_mem::{interleave, DramRequest};
use mcgpu_types::{
    AccessKind, ChipId, LineAddr, MemAccess, Request, RequestId, Response, ResponseOrigin,
};
use sac::LlcMode;

/// Fabric egress queue bound (requests waiting to leave the chip).
const PENDING_FABRIC_LIMIT: usize = 64;
/// LLC occupancy sampling period in cycles (Fig. 9).
pub(super) const OCC_SAMPLE_PERIOD: u64 = 256;

impl Simulator {
    #[inline]
    fn slice_of(&self, line: LineAddr) -> usize {
        interleave::slice_index(line, self.cfg.slices_per_chip)
    }

    fn sector_of(&self, access: &MemAccess) -> Option<mcgpu_types::SectorId> {
        self.cfg.sectored.then(|| {
            LineAddr::sector_of(access.addr, self.cfg.line_size, self.cfg.sectors_per_line)
        })
    }

    pub(super) fn tick(&mut self, allow_issue: bool) {
        self.cycle += 1;
        let now = self.cycle;
        if self.reference {
            for chip in &mut self.chips {
                chip.wake_all();
            }
            self.fabric.wake_all();
        }
        self.apply_due_faults(now);
        let issuing = allow_issue && self.pause == Pause::Running;

        if issuing {
            self.issue_phase();
        }

        // Request network.
        for c in 0..self.chips.len() {
            // Fabric-delivered requests re-enter the crossbar.
            while let Some(env) = self.chips[c].pending_req.front().copied() {
                let port = self.slice_of(env.req.access.addr.line(self.cfg.line_size));
                let bytes = env.wire_bytes();
                if self.chips[c].xbar_req.try_push(port, env, bytes).is_err() {
                    break;
                }
                self.chips[c].pending_req.pop_front();
            }
            let chip = &mut self.chips[c];
            chip.xbar_req.tick(now);
            let mut from = 0;
            while let Some(port) = chip.xbar_req.next_active_port(from) {
                from = port + 1;
                while chip.slices[port].service.can_push() {
                    let Some(env) = chip.xbar_req.pop_ready(port, now) else {
                        break;
                    };
                    chip.push_to_slice(port, env);
                }
            }
        }

        // LLC slices.
        for c in 0..self.chips.len() {
            let mut from = 0;
            while let Some(s) = self.chips[c].active_slices.next_from(from) {
                from = s + 1;
                self.chips[c].slices[s].service.tick(now);
                while let Some(env) = self.chips[c].slices[s].service.pop_ready(now) {
                    self.process_at_slice(c, s, env);
                }
                if self.chips[c].slices[s].service.is_dormant() {
                    self.chips[c].active_slices.remove(s);
                }
            }
        }

        // Bypass path into memory (SM-side remote misses).
        for chip in self.chips.iter_mut().filter(|chip| chip.bypass_active) {
            chip.bypass_to_mem.tick(now);
            while let Some(env) = chip.bypass_to_mem.pop_ready(now) {
                chip.memory.push(DramRequest {
                    request: env.req,
                    from_local_slice: false,
                    slice: None,
                });
            }
            chip.bypass_active = !chip.bypass_to_mem.is_dormant();
        }

        // Memory partitions.
        for c in 0..self.chips.len() {
            self.chips[c].memory.tick(now);
            let mut done = std::mem::take(&mut self.dram_scratch);
            self.chips[c].memory.pop_ready_into(now, &mut done);
            for d in done.drain(..) {
                self.process_mem_completion(c, d);
            }
            self.dram_scratch = done;
        }

        // Response network and delivery.
        for c in 0..self.chips.len() {
            while let Some(env) = self.chips[c].pending_rsp.front().copied() {
                let port = env.rsp.dest.index as usize;
                let bytes = env.wire_bytes(self.cfg.line_size);
                if self.chips[c].xbar_rsp.try_push(port, env, bytes).is_err() {
                    break;
                }
                self.chips[c].pending_rsp.pop_front();
            }
            self.chips[c].xbar_rsp.tick(now);
            let mut delivered = std::mem::take(&mut self.rsp_scratch);
            self.chips[c]
                .xbar_rsp
                .pop_all_ready_into(now, &mut delivered);
            for env in delivered.drain(..) {
                self.deliver_response(c, env);
            }
            self.rsp_scratch = delivered;
        }

        // Inter-chip fabric.
        self.fabric_phase(now);

        // Controllers and sampling.
        self.controller_phase(now);
        if now.is_multiple_of(OCC_SAMPLE_PERIOD) {
            self.sample_occupancy(1);
        }
        // Observability timeline (read-only; snapshot is built before the
        // observer is borrowed mutably).
        let obs_due = self
            .obs
            .as_deref()
            .is_some_and(|o| now.is_multiple_of(o.epoch_window()));
        if obs_due {
            let snap = self.machine_snapshot();
            if let Some(o) = self.obs.as_deref_mut() {
                o.sample_epoch(&snap);
            }
        }
    }

    fn issue_phase(&mut self) {
        self.sched.refresh(&mut self.chips, self.reference);
        if self.reference {
            self.sched.assert_running_values(&self.chips);
        }
        self.sched.begin_phase();
        let mode = self.org.route_mode();
        let profiling = self.org.sac().is_some_and(|s| s.is_profiling());
        let n_clusters = self.cfg.clusters_per_chip;
        // Round-robin arbitration: rotate which cluster gets first claim on
        // the cycle's NoC injection bandwidth, as a real allocator would.
        // A fixed priority order starves high-index clusters and produces
        // artificial straggler tails at kernel ends.
        let rotation = (self.cycle as usize) % n_clusters;
        // Distributed CTA scheduling issues work in bounded waves: no
        // cluster may run further ahead of the slowest cluster than one
        // wave of CTAs. This bounds the drift between the clusters' shared
        // working-set phases (and the end-of-kernel straggler tail), as the
        // hardware CTA scheduler does. The schedule leaves clusters beyond
        // the bound out of the due set.
        for c in 0..self.chips.len() {
            for (lo, hi) in [(rotation, n_clusters), (0, rotation)] {
                let mut from = lo;
                while let Some(cl) = self.sched.next_ready(c, from).filter(|&cl| cl < hi) {
                    from = cl + 1;
                    let f = c * n_clusters + cl;
                    let reads = self.sched.before_visit(f, &mut self.chips[c].clusters[cl]);
                    self.issue_cluster(c, cl, mode, profiling);
                    self.sched
                        .after_visit(f, &self.chips[c].clusters[cl], reads);
                }
            }
        }
    }

    /// Let cluster `cl` of chip `c` issue, and inject the request its L1
    /// miss produced, or defer it under backpressure.
    fn issue_cluster(&mut self, c: usize, cl: usize, mode: RouteMode, profiling: bool) {
        let chip_id = ChipId(c as u8);
        let Some((acc, needs_request)) = self.chips[c].clusters[cl].issue() else {
            return;
        };
        let line = acc.addr.line(self.cfg.line_size);
        let home = self
            .page_table
            .home_of(acc.addr.page(self.cfg.page_size), chip_id);
        if !needs_request {
            // Cluster-MSHR merge: a real L1 miss (observable by the
            // profiling counters) that needs no new network request.
            // It completes with the in-flight fill, so it counts as
            // a memory-side hit for the profiled hit rate.
            if profiling {
                let sector = self.sector_of(&acc);
                let slice = self.slice_of(line);
                let spc = self.cfg.slices_per_chip;
                let sac = self.org.sac_mut().expect("profiling implies sac");
                sac.collector_mut().observe_request(
                    chip_id,
                    home,
                    line,
                    sector,
                    home.index() * spc + slice,
                    c * spc + slice,
                );
                sac.collector_mut().observe_memside_llc(true);
            }
            return;
        }
        let req = Request {
            id: RequestId(self.next_id),
            origin: self.chips[c].clusters[cl].id(),
            access: acc,
            home,
        };
        let slice = self.slice_of(line);
        let (port_chip, stage) = match mode {
            RouteMode::MemorySide => (home, ReqStage::ToHomeSlice),
            RouteMode::SmSide => (chip_id, ReqStage::ToLocalSlice),
            RouteMode::Tiered if home == chip_id => (chip_id, ReqStage::ToHomeSlice),
            RouteMode::Tiered => (chip_id, ReqStage::ToLocalSlice),
        };
        let env = ReqEnvelope { req, stage };
        let injected = if port_chip == chip_id {
            self.chips[c]
                .xbar_req
                .try_push(slice, env, env.wire_bytes())
                .is_ok()
        } else if self.chips[c].pending_fabric.len() < PENDING_FABRIC_LIMIT {
            self.chips[c]
                .pending_fabric
                .push_back(FabricPayload::Req(env));
            true
        } else {
            false
        };
        if injected {
            self.next_id += 1;
            self.in_flight += 1;
            self.max_in_flight = self.max_in_flight.max(self.in_flight);
            let now = self.cycle;
            if let Some(o) = self.obs.as_deref_mut() {
                o.note_issue(now);
            }
            if profiling {
                let sector = self.sector_of(&acc);
                let spc = self.cfg.slices_per_chip;
                let sac = self.org.sac_mut().expect("profiling implies sac");
                sac.collector_mut().observe_request(
                    chip_id,
                    home,
                    line,
                    sector,
                    home.index() * spc + slice,
                    c * spc + slice,
                );
            }
        } else {
            self.chips[c].clusters[cl].defer(acc);
        }
    }

    /// Handle a request arriving at slice `s` of chip `c`.
    fn process_at_slice(&mut self, c: usize, s: usize, env: ReqEnvelope) {
        let chip_id = ChipId(c as u8);
        let line = env.req.access.addr.line(self.cfg.line_size);
        let sector = self.sector_of(&env.req.access);
        let requester = env.req.origin.chip;
        let is_write = env.req.access.kind.is_write();
        let profiling = self.org.sac().is_some_and(|sc| sc.is_profiling());

        // A disabled (fused-off) slice holds nothing: every request misses
        // straight through to memory without touching the cache array.
        let outcome = if self.chips[c].slices[s].disabled {
            LookupOutcome::Miss
        } else {
            self.chips[c].slices[s].cache.lookup(line, sector, is_write)
        };
        let hit = outcome == LookupOutcome::Hit;

        if profiling && env.stage == ReqStage::ToHomeSlice {
            // A slice-MSHR merge is bandwidth-equivalent to a hit (the data
            // arrives without further DRAM or ring traffic), so it counts
            // as one for the profiled memory-side hit rate — otherwise the
            // measured rate is biased low relative to the CRD's prediction,
            // which observes the full (unmerged) request stream.
            let merged_would_hit = !hit && self.chips[c].slices[s].pending.contains(line.index());
            if let Some(sac) = self.org.sac_mut() {
                sac.collector_mut()
                    .observe_memside_llc(hit || merged_would_hit);
            }
        }

        match env.stage {
            // Memory-side role: this is the home chip's slice.
            ReqStage::ToHomeSlice => {
                debug_assert_eq!(chip_id, env.req.home);
                if is_write {
                    if hit {
                        self.absorb_write();
                    } else if self.try_merge_at_slice(c, s, line, env) {
                        // Slice MSHR hit: the store rides the in-flight fetch.
                    } else {
                        // Fetch-on-write: the 32 B coalesced store cannot
                        // dirty a line that is not resident; read the line
                        // from (local) memory first.
                        self.begin_fetch(c, s, line);
                        self.chips[c].memory.push(DramRequest {
                            request: env.req,
                            from_local_slice: true,
                            slice: Some(s as u16),
                        });
                    }
                } else if hit {
                    let origin = if requester == chip_id {
                        ResponseOrigin::LocalLlc
                    } else {
                        ResponseOrigin::RemoteLlc
                    };
                    self.emit_response(c, env.req, origin);
                } else if self.try_merge_at_slice(c, s, line, env) {
                    // Slice MSHR hit: merged onto the in-flight fetch.
                } else {
                    self.begin_fetch(c, s, line);
                    self.chips[c].memory.push(DramRequest {
                        request: env.req,
                        from_local_slice: true,
                        slice: Some(s as u16),
                    });
                }
            }
            // SM-side role (or the L1.5 level of the tiered organizations):
            // this is the requesting chip's slice.
            ReqStage::ToLocalSlice => {
                debug_assert_eq!(chip_id, requester);
                let home = env.req.home;
                if is_write {
                    if hit {
                        self.coherence_on_write(c, line);
                        self.absorb_write();
                    } else {
                        // Fetch-on-write: pull the line from its home (local
                        // memory, or across the ring for remote data) before
                        // dirtying the local replica.
                        self.coherence_on_write(c, line);
                        let forward_to_home =
                            home != chip_id && self.org.route_mode() == RouteMode::Tiered;
                        if !forward_to_home && self.try_merge_at_slice(c, s, line, env) {
                            // Slice MSHR hit: rides the in-flight fetch.
                        } else if home == chip_id {
                            self.begin_fetch(c, s, line);
                            self.chips[c].memory.push(DramRequest {
                                request: env.req,
                                from_local_slice: true,
                                slice: Some(s as u16),
                            });
                        } else if forward_to_home {
                            // The tiered organizations write remote data
                            // through to the home slice instead of
                            // replicating written lines locally.
                            self.push_fabric(
                                c,
                                FabricPayload::Req(ReqEnvelope {
                                    req: env.req,
                                    stage: ReqStage::ToHomeSlice,
                                }),
                            );
                        } else {
                            self.begin_fetch(c, s, line);
                            self.push_fabric(
                                c,
                                FabricPayload::Req(ReqEnvelope {
                                    req: env.req,
                                    stage: ReqStage::ToHomeMemBypass,
                                }),
                            );
                        }
                    }
                } else if hit {
                    self.emit_response(c, env.req, ResponseOrigin::LocalLlc);
                } else if self.try_merge_at_slice(c, s, line, env) {
                    // Slice MSHR hit: merged onto the in-flight fetch.
                } else {
                    self.begin_fetch(c, s, line);
                    match self.org.route_mode() {
                        RouteMode::SmSide | RouteMode::MemorySide => {
                            // (MemorySide can momentarily see ToLocalSlice
                            // envelopes right after a SAC revert drain; they
                            // are treated as SM-side leftovers.)
                            if home == chip_id {
                                self.chips[c].memory.push(DramRequest {
                                    request: env.req,
                                    from_local_slice: true,
                                    slice: Some(s as u16),
                                });
                            } else {
                                self.push_fabric(
                                    c,
                                    FabricPayload::Req(ReqEnvelope {
                                        req: env.req,
                                        stage: ReqStage::ToHomeMemBypass,
                                    }),
                                );
                            }
                        }
                        RouteMode::Tiered => {
                            debug_assert_ne!(home, chip_id, "local-homed goes ToHomeSlice");
                            self.push_fabric(
                                c,
                                FabricPayload::Req(ReqEnvelope {
                                    req: env.req,
                                    stage: ReqStage::ToHomeSlice,
                                }),
                            );
                        }
                    }
                }
            }
            ReqStage::ToHomeMemBypass => {
                unreachable!("bypass requests go straight to memory, not to a slice")
            }
        }
    }

    /// Merge `env` onto an outstanding line fetch at slice `s` of chip `c`,
    /// if one exists (slice MSHR). Returns `true` when merged.
    fn try_merge_at_slice(&mut self, c: usize, s: usize, line: LineAddr, env: ReqEnvelope) -> bool {
        self.chips[c].slices[s].pending.merge(line.index(), env)
    }

    /// Register an outstanding fetch for `line` at slice `s` of chip `c`.
    fn begin_fetch(&mut self, c: usize, s: usize, line: LineAddr) {
        self.chips[c].slices[s].pending.begin(line.index());
    }

    /// The line arrived at slice `s` of chip `c`: complete all merged
    /// waiters. `origin_override` carries the true data origin when the
    /// fill came over the ring; `None` derives local/remote memory relative
    /// to this chip (fills from this chip's own partition).
    fn drain_merged(
        &mut self,
        c: usize,
        s: usize,
        line: LineAddr,
        origin_override: Option<ResponseOrigin>,
    ) {
        let Some(mut waiters) = self.chips[c].slices[s].pending.take(line.index()) else {
            return;
        };
        let chip_id = ChipId(c as u8);
        for env in waiters.drain(..) {
            if env.req.access.kind.is_write() {
                // Dirty the just-filled line and absorb the store (unless
                // the slice was fused off, in which case nothing is filled).
                let sector = self.sector_of(&env.req.access);
                if !self.chips[c].slices[s].disabled {
                    self.chips[c].slices[s]
                        .cache
                        .fill(line, sector, DataHome::Local, true);
                }
                self.absorb_write();
            } else {
                let origin = origin_override.unwrap_or(if env.req.origin.chip == chip_id {
                    ResponseOrigin::LocalMem
                } else {
                    ResponseOrigin::RemoteMem
                });
                self.emit_response(c, env.req, origin);
            }
        }
        self.chips[c].slices[s].pending.recycle(waiters);
    }

    /// A write reached its destination cache: it is complete.
    fn absorb_write(&mut self) {
        self.writes_done += 1;
        self.in_flight -= 1;
    }

    /// Deal with a dirty eviction from chip `c`'s LLC.
    fn handle_eviction(&mut self, c: usize, ev: Option<mcgpu_cache::Eviction>) {
        let Some(ev) = ev else { return };
        if !ev.dirty {
            return;
        }
        match ev.home {
            DataHome::Local => self.chips[c].memory.push_writeback(ev.line),
            DataHome::Remote => {
                let page = ev.line.page(self.cfg.line_size, self.cfg.page_size);
                let home = self
                    .page_table
                    .lookup(page)
                    .expect("cached lines have mapped pages");
                self.push_fabric(
                    c,
                    FabricPayload::Writeback {
                        line: ev.line,
                        home,
                    },
                );
            }
        }
    }

    /// Handle a completed DRAM access at chip `c` (a read miss, or a
    /// fetch-on-write).
    fn process_mem_completion(&mut self, c: usize, d: DramRequest) {
        let chip_id = ChipId(c as u8);
        let is_write = d.request.access.kind.is_write();
        // Fill the slice the miss came from (memory-side, or SM-side local).
        if d.from_local_slice {
            if let Some(s) = d.slice {
                // A slice disabled while this fetch was in flight no longer
                // allocates; the data still answers the merged requesters.
                if !self.chips[c].slices[s as usize].disabled {
                    let line = d.request.access.addr.line(self.cfg.line_size);
                    let sector = self.sector_of(&d.request.access);
                    let ev = self.chips[c].slices[s as usize].cache.fill(
                        line,
                        sector,
                        DataHome::Local,
                        is_write,
                    );
                    self.handle_eviction(c, ev);
                }
            }
            if let Some(s) = d.slice {
                let line = d.request.access.addr.line(self.cfg.line_size);
                self.drain_merged(c, s as usize, line, None);
            }
            if is_write {
                // The fetch-on-write completed; the store is absorbed here.
                self.absorb_write();
                return;
            }
        }
        let origin = if d.request.origin.chip == chip_id {
            ResponseOrigin::LocalMem
        } else {
            ResponseOrigin::RemoteMem
        };
        self.emit_response(c, d.request, origin);
    }

    /// Create and route a response from chip `c` towards the requester
    /// (a read's data, or a remote fetch-on-write's line).
    fn emit_response(&mut self, c: usize, req: Request, origin: ResponseOrigin) {
        let chip_id = ChipId(c as u8);
        let requester = req.origin.chip;
        debug_assert!(
            req.access.kind == AccessKind::Read || requester != chip_id,
            "local writes absorb at slices or memory, never via responses"
        );
        // Local responses never replicate; remote responses replicate (or
        // not) exactly as the organization dictates.
        let fill = if requester == chip_id {
            FillAction::None
        } else {
            self.org.remote_fill_action()
        };
        let env = RspEnvelope {
            rsp: Response {
                id: req.id,
                dest: req.origin,
                access: req.access,
                origin,
            },
            fill,
        };
        if requester == chip_id {
            self.chips[c].pending_rsp.push_back(env);
        } else {
            self.push_fabric(c, FabricPayload::Rsp(env));
        }
    }

    /// Deliver a response to its SM cluster on chip `c`.
    fn deliver_response(&mut self, c: usize, env: RspEnvelope) {
        debug_assert_eq!(env.rsp.dest.chip.index(), c);
        let cl = env.rsp.dest.index as usize;
        let f = c * self.cfg.clusters_per_chip + cl;
        let cluster = &mut self.chips[c].clusters[cl];
        let was_parked = cluster.parked();
        let merged = cluster.complete_read(&env.rsp.access);
        self.sched.after_response(f, cluster, merged, was_parked);
        let idx = ResponseOrigin::ALL
            .iter()
            .position(|&o| o == env.rsp.origin)
            .expect("known origin");
        self.responses_by_origin[idx] += 1;
        self.in_flight -= 1;
        let now = self.cycle;
        if let Some(o) = self.obs.as_deref_mut() {
            o.note_response(c, idx, env.rsp.id.0, now);
        }
    }

    /// Queue a payload for the inter-chip fabric (bounded; requests check the
    /// bound before issue, internal traffic may exceed it briefly).
    pub(super) fn push_fabric(&mut self, c: usize, payload: FabricPayload) {
        self.chips[c].pending_fabric.push_back(payload);
    }

    fn fabric_dest(&self, p: &FabricPayload, from: ChipId) -> ChipId {
        let d = match p {
            FabricPayload::Req(env) => env.req.home,
            FabricPayload::Rsp(env) => env.rsp.dest.chip,
            FabricPayload::Writeback { home, .. } => *home,
            FabricPayload::Inval { target, .. } => *target,
        };
        debug_assert_ne!(d, from, "ring payloads must cross chips");
        d
    }

    fn fabric_phase(&mut self, now: u64) {
        let line_size = self.cfg.line_size;
        // Egress: retry, drain pending into the egress pipe, pipe into the fabric.
        for c in 0..self.chips.len() {
            let from = ChipId(c as u8);
            if let Some(p) = self.chips[c].fabric_retry.take() {
                let dest = self.fabric_dest(&p, from);
                let bytes = p.wire_bytes(line_size);
                if let Err(e) = self.fabric.try_send(from, dest, p, bytes) {
                    self.chips[c].fabric_retry = Some(e.into_payload());
                }
            }
            while let Some(p) = self.chips[c].pending_fabric.front() {
                let bytes = p.wire_bytes(line_size);
                let p = *p;
                if self.chips[c].push_egress(p, bytes).is_err() {
                    break;
                }
                self.chips[c].pending_fabric.pop_front();
            }
            if !self.chips[c].egress_active {
                continue;
            }
            self.chips[c].fabric_egress.tick(now);
            while self.chips[c].fabric_retry.is_none() {
                let Some(p) = self.chips[c].fabric_egress.pop_ready(now) else {
                    break;
                };
                let dest = self.fabric_dest(&p, from);
                let bytes = p.wire_bytes(line_size);
                if let Err(e) = self.fabric.try_send(from, dest, p, bytes) {
                    self.chips[c].fabric_retry = Some(e.into_payload());
                }
            }
            self.chips[c].egress_active = !self.chips[c].fabric_egress.is_dormant();
        }

        self.fabric.tick(now);

        // Arrivals.
        for c in 0..self.chips.len() {
            let chip_id = ChipId(c as u8);
            let mut arrivals = std::mem::take(&mut self.fabric_scratch);
            self.fabric.pop_arrivals_into(chip_id, now, &mut arrivals);
            for p in arrivals.drain(..) {
                match p {
                    FabricPayload::Req(env) => match env.stage {
                        ReqStage::ToHomeSlice => self.chips[c].pending_req.push_back(env),
                        ReqStage::ToHomeMemBypass => self.chips[c].push_bypass(env),
                        ReqStage::ToLocalSlice => {
                            unreachable!("local-slice requests never ride the ring")
                        }
                    },
                    FabricPayload::Rsp(env) => {
                        let is_write = env.rsp.access.kind.is_write();
                        if env.fill == FillAction::FillLocalSlice {
                            let line = env.rsp.access.addr.line(self.cfg.line_size);
                            let sector = self.sector_of(&env.rsp.access);
                            let s = self.slice_of(line);
                            if !self.chips[c].slices[s].disabled {
                                let ev = self.chips[c].slices[s].cache.fill(
                                    line,
                                    sector,
                                    DataHome::Remote,
                                    is_write,
                                );
                                self.handle_eviction(c, ev);
                                self.directory_fill(c, line);
                            }
                            self.drain_merged(c, s, line, Some(env.rsp.origin));
                        }
                        if is_write {
                            // A completed remote fetch-on-write: the store
                            // is absorbed into the (now dirty) local replica.
                            self.absorb_write();
                        } else {
                            self.chips[c].pending_rsp.push_back(env);
                        }
                    }
                    FabricPayload::Writeback { line, home } => {
                        debug_assert_eq!(home, chip_id);
                        self.chips[c].memory.push_writeback(line);
                    }
                    FabricPayload::Inval { line, target } => {
                        debug_assert_eq!(target, chip_id);
                        let s = self.slice_of(line);
                        self.chips[c].slices[s].cache.invalidate(line);
                    }
                }
            }
            self.fabric_scratch = arrivals;
        }
    }

    /// The per-cycle controller phase, after the datapath phases: Dynamic
    /// re-balances its way split on its epoch grid, and SAC steps its §3.6
    /// reconfiguration sequence. The other organizations have no
    /// controller.
    fn controller_phase(&mut self, now: u64) {
        match self.org {
            LlcOrg::Dynamic(_) => self.rebalance_ways(now),
            LlcOrg::Sac(_) => self.sac_phase(now),
            LlcOrg::MemorySide | LlcOrg::SmSide | LlcOrg::StaticHalf { .. } => {}
        }
    }

    /// Let the Dynamic controller compare the epoch's ring and DRAM
    /// traffic, and repartition every slice when it moves a way.
    fn rebalance_ways(&mut self, now: u64) {
        let (ring_bytes, mem_bytes) = (self.fabric.bytes_sent(), self.mem_bytes_total());
        let LlcOrg::Dynamic(ctl) = &mut self.org else {
            return;
        };
        if ctl.maybe_adjust(now, ring_bytes, mem_bytes).is_some() {
            self.apply_partitioning();
        }
    }

    /// SAC's §3.6 sequence, Running → SacDrain → SacFlush → Running. A
    /// decision for SM-side, or the divergence monitor, pauses issue to
    /// drain; at quiescence a switch into SM-side writes back every dirty
    /// line and waits for that traffic to drain too. Each paused cycle is
    /// reconfiguration overhead.
    fn sac_phase(&mut self, now: u64) {
        let work_done = self.sched.reads() + self.writes_done;
        // Quiescence walks every chip; only a paused machine reads it.
        let paused = self.pause != Pause::Running;
        let quiescent = paused && self.machine_quiescent();
        let LlcOrg::Sac(sac) = &mut self.org else {
            return;
        };
        let (next, writeback_dirty) = match self.pause {
            Pause::Running => {
                let decided_sm = sac.tick(now).is_some_and(|r| r.mode == LlcMode::SmSide);
                // Graceful degradation: feed the divergence monitor the
                // machine's completed-work count; it requests a drain when
                // a running SM-side decision stops holding up.
                let diverged = sac.observe_progress(now, work_done);
                ((decided_sm || diverged).then_some(Pause::SacDrain), false)
            }
            // §3.6: write back and invalidate *dirty* lines; clean
            // home-slice contents remain valid under SM-side routing (same
            // slice hash).
            Pause::SacDrain if quiescent => {
                if sac.drain_complete(now) {
                    (Some(Pause::SacFlush), true)
                } else {
                    (Some(Pause::Running), false)
                }
            }
            Pause::SacFlush if quiescent => {
                sac.flush_complete();
                (Some(Pause::Running), false)
            }
            Pause::SacDrain | Pause::SacFlush => (None, false),
        };
        if writeback_dirty {
            self.start_llc_dirty_writeback();
        }
        // Every transition above leaves the current state.
        if let Some(p) = next {
            if let Some(o) = self.obs.as_deref_mut() {
                o.note_pause(now, p.label());
            }
            self.pause = p;
        }
        if paused {
            self.overhead_cycles += 1;
        }
    }
}
