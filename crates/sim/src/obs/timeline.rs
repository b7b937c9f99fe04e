//! Per-epoch time-series recorder.
//!
//! The engine snapshots the machine every `epoch_window` cycles (plus one
//! trailing partial epoch at run end) into a [`MachineSnapshot`]; the
//! [`EpochRecorder`] differences consecutive snapshots into
//! [`EpochSample`] rows so a Fig.-12-style time-varying plot (activity,
//! link utilization, LLC hit rate, SAC controller state) comes from one
//! run instead of a sweep.

/// Read-only point-in-time view of the machine, built by the engine.
///
/// Counter fields are cumulative since cycle 0; the recorder turns them
/// into per-epoch deltas. Gauge fields (`in_flight`, queue depths, CRD
/// occupancy) are instantaneous.
#[derive(Debug, Clone, Default)]
pub struct MachineSnapshot {
    /// Cycle the snapshot was taken at.
    pub cycle: u64,
    /// Cumulative read requests issued.
    pub reads: u64,
    /// Cumulative write requests issued.
    pub writes: u64,
    /// Requests currently in flight.
    pub in_flight: u64,
    /// SM clusters that still have accesses to issue.
    pub active_clusters: u64,
    /// Cumulative bytes accepted by the inter-chip ring.
    pub ring_bytes: u64,
    /// Cumulative packets delivered by the ring.
    pub ring_delivered: u64,
    /// Cumulative bytes accepted by the intra-chip crossbars (request +
    /// response planes, all chips).
    pub noc_bytes: u64,
    /// Cumulative crossbar injection rejections (back-pressure events).
    pub noc_rejected: u64,
    /// Cumulative bytes served by DRAM (reads + writebacks).
    pub dram_bytes: u64,
    /// Cumulative DRAM read requests completed.
    pub dram_reads: u64,
    /// Cumulative DRAM write requests completed.
    pub dram_writes: u64,
    /// Requests currently queued at DRAM controllers (all chips).
    pub dram_queue: u64,
    /// Requests currently queued or in service at LLC slices (all chips).
    pub slice_queue: u64,
    /// Cumulative LLC accesses (all chips).
    pub llc_accesses: u64,
    /// Cumulative LLC hits (all chips).
    pub llc_hits: u64,
    /// Cumulative L1 accesses (all clusters).
    pub l1_accesses: u64,
    /// Cumulative L1 hits (all clusters).
    pub l1_hits: u64,
    /// Current routing-mode label of the LLC organization.
    pub route_mode: &'static str,
    /// Current pause-state label from the engine.
    pub pause: &'static str,
    /// Current controller-state label (SAC orgs only; `"-"` otherwise).
    pub controller: &'static str,
    /// Cumulative SAC decisions taken (kernel records completed).
    pub sac_decisions: u64,
    /// Requests observed by the SAC profiling window so far.
    pub sac_window_requests: u64,
    /// Valid blocks currently held in the CRDs (SAC orgs only).
    pub crd_occupied: u64,
    /// Total CRD block capacity (0 when the org has no CRDs).
    pub crd_capacity: u64,
    /// Per-chip gauges and counters.
    pub chips: Vec<ChipSample>,
}

/// Per-chip slice of a [`MachineSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ChipSample {
    /// Cumulative bytes served by this chip's DRAM.
    pub dram_served: u64,
    /// Requests currently queued at this chip (DRAM + LLC slices).
    pub queue: u64,
    /// Cumulative LLC accesses on this chip.
    pub llc_accesses: u64,
    /// Cumulative LLC hits on this chip.
    pub llc_hits: u64,
    /// Cumulative bytes this chip injected into the ring.
    pub ring_sent_bytes: u64,
}

/// One row of the epoch timeline: deltas over `[start_cycle, end_cycle)`
/// plus instantaneous gauges and labels sampled at `end_cycle`.
#[derive(Debug, Clone, Default)]
pub struct EpochSample {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Cycle the epoch was sampled at (exclusive end).
    pub end_cycle: u64,
    /// Read requests issued during the epoch.
    pub reads: u64,
    /// Write requests issued during the epoch.
    pub writes: u64,
    /// Bytes accepted by the ring during the epoch.
    pub ring_bytes: u64,
    /// Packets delivered by the ring during the epoch.
    pub ring_delivered: u64,
    /// Bytes accepted by the crossbars during the epoch.
    pub noc_bytes: u64,
    /// Crossbar rejections during the epoch.
    pub noc_rejected: u64,
    /// Bytes served by DRAM during the epoch.
    pub dram_bytes: u64,
    /// DRAM reads completed during the epoch.
    pub dram_reads: u64,
    /// DRAM writes completed during the epoch.
    pub dram_writes: u64,
    /// LLC accesses during the epoch.
    pub llc_accesses: u64,
    /// LLC hits during the epoch.
    pub llc_hits: u64,
    /// L1 accesses during the epoch.
    pub l1_accesses: u64,
    /// L1 hits during the epoch.
    pub l1_hits: u64,
    /// Requests in flight at sample time.
    pub in_flight: u64,
    /// Active SM clusters at sample time.
    pub active_clusters: u64,
    /// DRAM queue depth at sample time.
    pub dram_queue: u64,
    /// LLC slice queue depth at sample time.
    pub slice_queue: u64,
    /// SAC profiling-window requests observed so far.
    pub sac_window_requests: u64,
    /// Valid CRD blocks at sample time.
    pub crd_occupied: u64,
    /// CRD block capacity.
    pub crd_capacity: u64,
    /// Routing-mode label at sample time.
    pub route_mode: &'static str,
    /// Pause-state label at sample time.
    pub pause: &'static str,
    /// Controller-state label at sample time.
    pub controller: &'static str,
    /// Cumulative SAC decisions taken by sample time.
    pub sac_decisions: u64,
}

impl EpochSample {
    /// LLC hit rate over the epoch (0 when the LLC saw no accesses).
    pub fn llc_hit_rate(&self) -> f64 {
        if self.llc_accesses == 0 {
            0.0
        } else {
            self.llc_hits as f64 / self.llc_accesses as f64
        }
    }

    /// Cycles covered by the epoch.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// Differences consecutive [`MachineSnapshot`]s into [`EpochSample`] rows.
#[derive(Debug, Default)]
pub struct EpochRecorder {
    prev: MachineSnapshot,
    samples: Vec<EpochSample>,
}

impl EpochRecorder {
    /// A recorder with an all-zero baseline at cycle 0.
    pub fn new() -> Self {
        EpochRecorder::default()
    }

    /// Record one epoch ending at `snap.cycle`. A snapshot that does not
    /// advance past the previous baseline (e.g. the trailing sample when
    /// the run ended exactly on an epoch boundary) is ignored.
    pub fn record(&mut self, snap: &MachineSnapshot) {
        if snap.cycle <= self.prev.cycle && !self.samples.is_empty() {
            return;
        }
        let p = &self.prev;
        self.samples.push(EpochSample {
            epoch: self.samples.len() as u64,
            start_cycle: p.cycle,
            end_cycle: snap.cycle,
            reads: snap.reads - p.reads,
            writes: snap.writes - p.writes,
            ring_bytes: snap.ring_bytes - p.ring_bytes,
            ring_delivered: snap.ring_delivered - p.ring_delivered,
            noc_bytes: snap.noc_bytes - p.noc_bytes,
            noc_rejected: snap.noc_rejected - p.noc_rejected,
            dram_bytes: snap.dram_bytes - p.dram_bytes,
            dram_reads: snap.dram_reads - p.dram_reads,
            dram_writes: snap.dram_writes - p.dram_writes,
            llc_accesses: snap.llc_accesses - p.llc_accesses,
            llc_hits: snap.llc_hits - p.llc_hits,
            l1_accesses: snap.l1_accesses - p.l1_accesses,
            l1_hits: snap.l1_hits - p.l1_hits,
            in_flight: snap.in_flight,
            active_clusters: snap.active_clusters,
            dram_queue: snap.dram_queue,
            slice_queue: snap.slice_queue,
            sac_window_requests: snap.sac_window_requests,
            crd_occupied: snap.crd_occupied,
            crd_capacity: snap.crd_capacity,
            route_mode: snap.route_mode,
            pause: snap.pause,
            controller: snap.controller,
            sac_decisions: snap.sac_decisions,
        });
        self.prev = snap.clone();
    }

    /// The recorded timeline so far.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// The baseline snapshot the next epoch will be differenced against
    /// (the previous sample's snapshot, or all-zero before the first).
    pub fn baseline(&self) -> &MachineSnapshot {
        &self.prev
    }

    /// Consume the recorder, returning the timeline.
    pub fn into_samples(self) -> Vec<EpochSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycle: u64, reads: u64) -> MachineSnapshot {
        MachineSnapshot {
            cycle,
            reads,
            route_mode: "memory-side",
            pause: "running",
            controller: "-",
            ..MachineSnapshot::default()
        }
    }

    #[test]
    fn deltas_are_per_epoch() {
        let mut r = EpochRecorder::new();
        r.record(&snap(10_000, 100));
        r.record(&snap(20_000, 250));
        let s = r.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].start_cycle, s[0].end_cycle, s[0].reads),
            (0, 10_000, 100)
        );
        assert_eq!(
            (s[1].start_cycle, s[1].end_cycle, s[1].reads),
            (10_000, 20_000, 150)
        );
        assert_eq!(s[1].epoch, 1);
    }

    #[test]
    fn non_advancing_trailing_sample_is_ignored() {
        let mut r = EpochRecorder::new();
        r.record(&snap(10_000, 100));
        r.record(&snap(10_000, 100));
        assert_eq!(r.samples().len(), 1);
    }

    #[test]
    fn hit_rate_handles_zero_accesses() {
        let s = EpochSample::default();
        assert_eq!(s.llc_hit_rate(), 0.0);
    }
}
