//! Per-chip hardware: clusters, NoCs, LLC slices, memory partition.

use crate::cluster::Cluster;
use crate::mshr::MshrTable;
use crate::packet::{FabricPayload, ReqEnvelope, RspEnvelope};
use mcgpu_cache::{CacheConfig, SetAssocCache};
use mcgpu_mem::MemoryPartition;
use mcgpu_noc::Crossbar;
use mcgpu_types::{earliest_event, AccessKind, ActiveSet, ChipId, ClusterId, MachineConfig, Pipe};
use std::collections::VecDeque;

/// Queue depth of each crossbar output port and the ring egress.
const PORT_QUEUE: usize = 32;
/// Queue depth in front of each LLC slice.
const SLICE_QUEUE: usize = 48;

/// Slice MSHRs: outstanding line fetches with the requests merged onto
/// them, in an `MshrTable` of `(line index, waiters)` with a recycled
/// waiter-list pool. A slice under dense traffic holds hundreds of fetches
/// in flight, and the table makes every lookup O(1). Completed entries
/// return their `Vec` to the pool, so steady-state operation does not
/// allocate.
#[derive(Debug, Default)]
pub struct PendingFetches {
    table: MshrTable<Vec<ReqEnvelope>>,
    spare: Vec<Vec<ReqEnvelope>>,
}

impl PendingFetches {
    /// Whether a fetch for `line` is outstanding.
    pub fn contains(&self, line: u64) -> bool {
        self.table.contains(line)
    }

    /// Merge `env` onto the outstanding fetch for `line`, if one exists.
    pub fn merge(&mut self, line: u64, env: ReqEnvelope) -> bool {
        if let Some(waiters) = self.table.get_mut(line) {
            waiters.push(env);
            true
        } else {
            false
        }
    }

    /// Register a new outstanding fetch for `line` with no waiters yet (the
    /// initiating request rides the memory path itself).
    ///
    /// # Panics
    /// Panics when a fetch for `line` is already outstanding: its fill
    /// would complete only one of the two entries.
    pub fn begin(&mut self, line: u64) {
        let waiters = self.spare.pop().unwrap_or_default();
        assert!(
            self.table.insert(line, waiters),
            "fetch for line {line:#x} begun twice"
        );
    }

    /// Complete the fetch for `line`, returning its merged waiters. Give
    /// the `Vec` back via [`recycle`](PendingFetches::recycle) once drained.
    pub fn take(&mut self, line: u64) -> Option<Vec<ReqEnvelope>> {
        self.table.remove(line)
    }

    /// Return a drained waiter list to the pool.
    pub fn recycle(&mut self, mut waiters: Vec<ReqEnvelope>) {
        waiters.clear();
        self.spare.push(waiters);
    }

    /// Total requests waiting on outstanding fetches.
    pub fn waiting(&self) -> usize {
        self.table.entries().iter().map(|(_, w)| w.len()).sum()
    }

    /// Whether no fetch is outstanding.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The outstanding fetches in table order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[(u64, Vec<ReqEnvelope>)] {
        self.table.entries()
    }
}

/// One LLC slice: the cache array behind a bandwidth/latency service pipe.
#[derive(Debug)]
pub struct LlcSlice {
    /// The cache array.
    pub cache: SetAssocCache,
    /// Service pipe modelling slice lookup bandwidth (`B_LLC / N`) and
    /// latency.
    pub service: Pipe<ReqEnvelope>,
    /// Slice MSHRs: requests merged onto an in-flight line fetch, keyed by
    /// line index. An entry is inserted when the fetch is initiated and
    /// drained when the line arrives.
    pub pending: PendingFetches,
    /// Fused off by fault injection: the slice no longer holds or allocates
    /// lines (every lookup misses, fills are dropped), but its service pipe
    /// and MSHRs keep draining so no request is lost.
    pub disabled: bool,
    line_size: u64,
}

impl LlcSlice {
    fn new(cfg: &MachineConfig) -> Self {
        let mut ccfg = CacheConfig::llc_slice(cfg.llc_slice_bytes(), cfg.llc_assoc, cfg.line_size);
        if cfg.sectored {
            ccfg = ccfg.with_sectors(cfg.sectors_per_line);
        }
        LlcSlice {
            cache: SetAssocCache::new(ccfg),
            service: Pipe::new(cfg.llc_slice_gbs, cfg.llc_latency, Some(SLICE_QUEUE)),
            pending: PendingFetches::default(),
            disabled: false,
            line_size: cfg.line_size,
        }
    }

    /// Bytes a request charges against the slice's lookup bandwidth: a full
    /// line for reads (data array read-out), the coalesced sector for
    /// writes.
    pub fn charge_bytes(&self, env: &ReqEnvelope) -> u64 {
        match env.req.access.kind {
            AccessKind::Read => self.line_size,
            AccessKind::Write => mcgpu_types::packet::WRITE_PAYLOAD_BYTES,
        }
    }
}

/// One GPU chip of the multi-chip package.
///
/// Its slice service pipes, fabric egress and memory bypass are pushed
/// only through the crate-private `push_to_slice`, `push_egress` and
/// `push_bypass`, which keep track of which of them may act: the
/// engine's per-cycle loops visit only those.
#[derive(Debug)]
pub struct Chip {
    /// This chip's id.
    pub id: ChipId,
    /// SM clusters with their private L1s.
    pub clusters: Vec<Cluster>,
    /// Request network: SM clusters (+ ring ingress) → LLC slices.
    pub xbar_req: Crossbar<ReqEnvelope>,
    /// Response network: slices/memory (+ ring ingress) → SM clusters.
    pub xbar_rsp: Crossbar<RspEnvelope>,
    /// The LLC slices.
    pub slices: Vec<LlcSlice>,
    /// The chip's memory partition.
    pub memory: MemoryPartition,
    /// NoC leg carrying traffic towards the inter-chip links.
    pub fabric_egress: Pipe<FabricPayload>,
    /// Payloads waiting to enter `fabric_egress`.
    pub pending_fabric: VecDeque<FabricPayload>,
    /// Payload that left `fabric_egress` but found the fabric link full.
    pub fabric_retry: Option<FabricPayload>,
    /// Requests (from the ring) waiting to enter `xbar_req`.
    pub pending_req: VecDeque<ReqEnvelope>,
    /// Responses waiting to enter `xbar_rsp`.
    pub pending_rsp: VecDeque<RspEnvelope>,
    /// SM-side bypass path: ring → memory controller (Fig. 6, path 4).
    pub bypass_to_mem: Pipe<ReqEnvelope>,
    /// Slices whose service pipe is not [dormant](Pipe::is_dormant): a
    /// push adds the slice and a visit that leaves the pipe dormant removes
    /// it. Derived state, like the two flags below.
    pub(crate) active_slices: ActiveSet,
    /// Whether `fabric_egress` may be non-dormant.
    pub(crate) egress_active: bool,
    /// Whether `bypass_to_mem` may be non-dormant.
    pub(crate) bypass_active: bool,
}

impl Chip {
    /// Build one chip of the configured machine.
    pub fn new(cfg: &MachineConfig, id: ChipId) -> Self {
        let clusters = (0..cfg.clusters_per_chip)
            .map(|i| Cluster::new(cfg, ClusterId::new(id, i)))
            .collect();
        let slices = (0..cfg.slices_per_chip)
            .map(|_| LlcSlice::new(cfg))
            .collect();
        // Request ports feed the slices at slice intake bandwidth; response
        // ports share the bisection evenly over clusters.
        let req_port_gbs = cfg.llc_slice_gbs;
        let rsp_port_gbs = cfg.noc_bisection_gbs / cfg.clusters_per_chip as f64;
        Chip {
            id,
            clusters,
            xbar_req: Crossbar::new(
                cfg.slices_per_chip,
                req_port_gbs,
                cfg.noc_bisection_gbs,
                cfg.noc_latency,
                PORT_QUEUE,
            ),
            xbar_rsp: Crossbar::new(
                cfg.clusters_per_chip,
                rsp_port_gbs,
                cfg.noc_bisection_gbs,
                cfg.noc_latency,
                PORT_QUEUE,
            ),
            slices,
            memory: MemoryPartition::new(
                cfg.channels_per_chip,
                cfg.dram_channel_gbs,
                cfg.dram_latency,
                cfg.line_size,
            ),
            fabric_egress: Pipe::new(cfg.egress_gbs(id), 4, Some(PORT_QUEUE)),
            pending_fabric: VecDeque::new(),
            fabric_retry: None,
            pending_req: VecDeque::new(),
            pending_rsp: VecDeque::new(),
            bypass_to_mem: Pipe::latency_only(8),
            active_slices: ActiveSet::full(cfg.slices_per_chip),
            egress_active: true,
            bypass_active: true,
        }
    }

    /// Queue `env` at slice `s`'s service pipe, charged
    /// [`LlcSlice::charge_bytes`].
    ///
    /// # Panics
    /// Panics when the pipe's queue is full: the caller checks `can_push`.
    pub(crate) fn push_to_slice(&mut self, s: usize, env: ReqEnvelope) {
        let charge = self.slices[s].charge_bytes(&env);
        self.slices[s]
            .service
            .try_push(env, charge)
            .expect("caller checked can_push");
        self.active_slices.insert(s);
    }

    /// Queue `payload` of `bytes` on the fabric egress pipe.
    ///
    /// # Errors
    /// Returns the payload when the egress queue is full.
    pub(crate) fn push_egress(
        &mut self,
        payload: FabricPayload,
        bytes: u64,
    ) -> Result<(), FabricPayload> {
        self.fabric_egress.try_push(payload, bytes)?;
        self.egress_active = true;
        Ok(())
    }

    /// Queue a request that arrived over the fabric on the bypass path to
    /// memory.
    pub(crate) fn push_bypass(&mut self, env: ReqEnvelope) {
        let bytes = env.wire_bytes();
        self.bypass_to_mem
            .try_push(env, bytes)
            .expect("bypass pipe is unbounded");
        self.bypass_active = true;
    }

    /// Mark every pipe on the chip active (slice services, egress, bypass,
    /// crossbar ports, DRAM channels). Visiting a dormant pipe is a no-op,
    /// so this never changes results; the differential tests call it every
    /// cycle to make the engine visit everything.
    pub(crate) fn wake_all(&mut self) {
        self.active_slices.fill();
        self.egress_active = true;
        self.bypass_active = true;
        self.xbar_req.wake_all();
        self.xbar_rsp.wake_all();
        self.memory.wake_all();
    }

    /// Whether every queue, pipe, network and memory channel on this chip
    /// is empty (used for drain detection).
    pub fn is_quiescent(&self) -> bool {
        self.xbar_req.is_empty()
            && self.xbar_rsp.is_empty()
            && self
                .slices
                .iter()
                .all(|s| s.service.is_empty() && s.pending.is_empty())
            && self.memory.is_empty()
            && self.fabric_egress.is_empty()
            && self.pending_fabric.is_empty()
            && self.fabric_retry.is_none()
            && self.pending_req.is_empty()
            && self.pending_rsp.is_empty()
            && self.bypass_to_mem.is_empty()
    }

    /// The next cycle after `now` at which this chip's datapath can move:
    /// `now + 1` while a ring-side queue (`pending_req`, `pending_rsp`,
    /// `pending_fabric`) or the retry slot holds a payload, else the
    /// earliest next event of its crossbars, slice service pipes, memory
    /// partition, ring egress and bypass pipe. Slice MSHRs are not events
    /// of their own: they wait on a fill that one of those pipes carries.
    pub fn next_event(&self, now: u64) -> u64 {
        if !self.pending_req.is_empty()
            || !self.pending_rsp.is_empty()
            || !self.pending_fabric.is_empty()
            || self.fabric_retry.is_some()
        {
            return now + 1;
        }
        // Memory and the response side first: on sparse phases they are
        // the likeliest to act next cycle, which ends the scan early.
        fn pipe_event<T>(active: bool, pipe: &Pipe<T>, now: u64) -> u64 {
            if active {
                pipe.next_event(now)
            } else {
                u64::MAX
            }
        }
        earliest_event(
            now,
            std::iter::once_with(|| self.memory.next_event(now))
                .chain(std::iter::once_with(|| {
                    pipe_event(self.egress_active, &self.fabric_egress, now)
                }))
                .chain(std::iter::once_with(|| self.xbar_rsp.next_event(now)))
                .chain(
                    self.active_slices
                        .iter()
                        .map(|s| self.slices[s].service.next_event(now)),
                )
                .chain(std::iter::once_with(|| self.xbar_req.next_event(now)))
                .chain(std::iter::once_with(|| {
                    pipe_event(self.bypass_active, &self.bypass_to_mem, now)
                })),
        )
    }

    /// Aggregate LLC statistics over this chip's slices.
    pub fn llc_stats(&self) -> mcgpu_cache::CacheStats {
        let mut s = mcgpu_cache::CacheStats::default();
        for slice in &self.slices {
            s.merge(slice.cache.stats());
        }
        s
    }

    /// Aggregate L1 statistics over this chip's clusters.
    pub fn l1_stats(&self) -> mcgpu_cache::CacheStats {
        let mut s = mcgpu_cache::CacheStats::default();
        for c in &self.clusters {
            s.merge(c.l1_stats());
        }
        s
    }

    /// LLC occupancy by home across all slices `(local, remote, capacity)`.
    pub fn llc_occupancy(&self) -> (usize, usize, usize) {
        let mut local = 0;
        let mut remote = 0;
        let mut cap = 0;
        for s in &self.slices {
            let (l, r) = s.cache.occupancy_by_home();
            local += l;
            remote += r;
            cap += s.cache.config().capacity_lines();
        }
        (local, remote, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_matches_configuration() {
        let cfg = MachineConfig::experiment_baseline();
        let chip = Chip::new(&cfg, ChipId(2));
        assert_eq!(chip.clusters.len(), cfg.clusters_per_chip);
        assert_eq!(chip.slices.len(), cfg.slices_per_chip);
        assert_eq!(chip.memory.num_channels(), cfg.channels_per_chip);
        assert_eq!(chip.xbar_req.ports(), cfg.slices_per_chip);
        assert_eq!(chip.xbar_rsp.ports(), cfg.clusters_per_chip);
        assert!(chip.is_quiescent());
    }

    #[test]
    fn slice_charges_line_for_reads() {
        let cfg = MachineConfig::experiment_baseline();
        let chip = Chip::new(&cfg, ChipId(0));
        let read = ReqEnvelope {
            req: mcgpu_types::Request {
                id: mcgpu_types::RequestId(1),
                origin: ClusterId::new(ChipId(0), 0),
                access: mcgpu_types::MemAccess::read(0u64),
                home: ChipId(0),
            },
            stage: crate::packet::ReqStage::ToHomeSlice,
        };
        assert_eq!(chip.slices[0].charge_bytes(&read), cfg.line_size);
        let write = ReqEnvelope {
            req: mcgpu_types::Request {
                access: mcgpu_types::MemAccess::write(0u64),
                ..read.req
            },
            ..read
        };
        assert_eq!(chip.slices[0].charge_bytes(&write), 32);
    }
}
