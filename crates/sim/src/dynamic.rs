//! The Dynamic LLC partitioning heuristic (Milic et al., MICRO 2017).
//!
//! Starting from a half-local / half-remote way split, the controller
//! periodically compares the bandwidth drawn from the local memory
//! partitions (outgoing local memory bandwidth) against the bandwidth
//! arriving over the inter-chip links, and shifts one way towards whichever
//! side is the bottleneck: more remote ways cache more remote data locally
//! and relieve the inter-chip links; more local ways relieve local memory.

/// Epoch-based way-split controller for the Dynamic LLC organization.
#[derive(Debug, Clone)]
pub struct DynamicCtl {
    epoch_cycles: u64,
    next_epoch: u64,
    assoc: usize,
    local_ways: usize,
    last_ring_bytes: u64,
    last_mem_bytes: u64,
    adjustments: u64,
}

impl DynamicCtl {
    /// Create a controller for caches of `assoc` ways, starting half/half,
    /// re-evaluating every `epoch_cycles`.
    ///
    /// # Panics
    /// Panics if `assoc < 2` (both pools need at least one way).
    pub fn new(assoc: usize, epoch_cycles: u64) -> Self {
        assert!(assoc >= 2, "dynamic partitioning needs at least 2 ways");
        DynamicCtl {
            epoch_cycles,
            next_epoch: epoch_cycles,
            assoc,
            local_ways: assoc / 2,
            last_ring_bytes: 0,
            last_mem_bytes: 0,
            adjustments: 0,
        }
    }

    /// Ways currently reserved for local data.
    pub fn local_ways(&self) -> usize {
        self.local_ways
    }

    /// Number of epoch adjustments performed.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// The next cycle at which [`maybe_adjust`](DynamicCtl::maybe_adjust)
    /// can act; before this cycle it is a pure no-op. Feeds the engine's
    /// next-event scan.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Evaluate at cycle `now` given the machine-wide cumulative ring bytes
    /// and local-memory bytes. Returns the new local-way count when the
    /// split changed.
    pub fn maybe_adjust(&mut self, now: u64, ring_bytes: u64, mem_bytes: u64) -> Option<usize> {
        if now < self.next_epoch {
            return None;
        }
        self.next_epoch = now + self.epoch_cycles;
        let ring_delta = ring_bytes.saturating_sub(self.last_ring_bytes);
        let mem_delta = mem_bytes.saturating_sub(self.last_mem_bytes);
        self.last_ring_bytes = ring_bytes;
        self.last_mem_bytes = mem_bytes;

        let before = self.local_ways;
        // Inter-chip pressure dominating: grow the remote pool; local-memory
        // pressure dominating: grow the local pool. A 25% hysteresis band
        // avoids oscillation.
        if ring_delta as f64 > mem_delta as f64 * 1.25 && self.local_ways > 1 {
            self.local_ways -= 1;
        } else if mem_delta as f64 > ring_delta as f64 * 1.25 && self.local_ways < self.assoc - 1 {
            self.local_ways += 1;
        }
        if self.local_ways != before {
            self.adjustments += 1;
            Some(self.local_ways)
        } else {
            None
        }
    }

    /// Reset measurement state at a kernel boundary (the way split is kept —
    /// the design adapts continuously across kernels).
    pub fn new_kernel(&mut self, now: u64, ring_bytes: u64, mem_bytes: u64) {
        self.next_epoch = now + self.epoch_cycles;
        self.last_ring_bytes = ring_bytes;
        self.last_mem_bytes = mem_bytes;
    }

    /// Serialize the controller state into a checkpoint payload.
    pub fn save(&self, e: &mut mcgpu_types::Enc) {
        e.put_u64(self.epoch_cycles);
        e.put_u64(self.next_epoch);
        e.put_usize(self.assoc);
        e.put_usize(self.local_ways);
        e.put_u64(self.last_ring_bytes);
        e.put_u64(self.last_mem_bytes);
        e.put_u64(self.adjustments);
    }

    /// Deserialize a controller saved by [`DynamicCtl::save`].
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input, or when the
    /// saved way split is out of range for the saved associativity.
    pub fn load(d: &mut mcgpu_types::Dec<'_>) -> mcgpu_types::CkptResult<Self> {
        let epoch_cycles = d.get_u64()?;
        let next_epoch = d.get_u64()?;
        let assoc = d.get_usize()?;
        let local_ways = d.get_usize()?;
        if assoc < 2 || local_ways == 0 || local_ways >= assoc {
            return Err(mcgpu_types::CkptError::Decode(format!(
                "invalid dynamic way split: {local_ways} local of {assoc} ways"
            )));
        }
        Ok(DynamicCtl {
            epoch_cycles,
            next_epoch,
            assoc,
            local_ways,
            last_ring_bytes: d.get_u64()?,
            last_mem_bytes: d.get_u64()?,
            adjustments: d.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_half_half() {
        let c = DynamicCtl::new(16, 1000);
        assert_eq!(c.local_ways(), 8);
    }

    #[test]
    fn ring_pressure_grows_remote_pool() {
        let mut c = DynamicCtl::new(16, 1000);
        // Heavy ring traffic, light memory traffic.
        assert_eq!(c.maybe_adjust(1000, 1_000_000, 100), Some(7));
        assert_eq!(c.maybe_adjust(2000, 2_000_000, 200), Some(6));
        assert_eq!(c.local_ways(), 6);
    }

    #[test]
    fn memory_pressure_grows_local_pool() {
        let mut c = DynamicCtl::new(16, 1000);
        assert_eq!(c.maybe_adjust(1000, 100, 1_000_000), Some(9));
        assert_eq!(c.local_ways(), 9);
    }

    #[test]
    fn clamped_to_leave_one_way_each() {
        let mut c = DynamicCtl::new(4, 100);
        for e in 1..20u64 {
            c.maybe_adjust(e * 100, e * 1_000_000, 0);
        }
        assert_eq!(c.local_ways(), 1);
        let mut c = DynamicCtl::new(4, 100);
        for e in 1..20u64 {
            c.maybe_adjust(e * 100, 0, e * 1_000_000);
        }
        assert_eq!(c.local_ways(), 3);
    }

    #[test]
    fn balanced_traffic_holds_steady() {
        let mut c = DynamicCtl::new(16, 1000);
        assert_eq!(c.maybe_adjust(1000, 1000, 1000), None);
        assert_eq!(c.maybe_adjust(2000, 2100, 2000), None, "within hysteresis");
        assert_eq!(c.local_ways(), 8);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn epoch_gating() {
        let mut c = DynamicCtl::new(16, 1000);
        assert_eq!(c.maybe_adjust(500, 1_000_000, 0), None, "too early");
        assert!(c.maybe_adjust(1000, 1_000_000, 0).is_some());
    }
}
