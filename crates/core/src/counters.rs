//! The profiling performance counters (§3.4, Fig. 7).
//!
//! SAC's hardware counters collect the workload-dependent EAB inputs during
//! the profiling window: per-slice request counters for both configurations
//! (→ LSU), total/local request counters (→ `R_local`), the existing LLC
//! hit counters (→ memory-side hit rate) and the [`Crd`] (→ predicted
//! SM-side hit rate). [`ProfileCollector`] aggregates all of them and emits
//! the [`EabInputs`].

use crate::crd::Crd;
use crate::eab::EabInputs;
use mcgpu_types::{ChipId, LineAddr, SectorId};

/// LLC Slice Uniformity (§3.3):
/// `LSU = (1/N) Σ_i R_i / max_j R_j` — 1.0 for a uniform distribution,
/// `1/N` when all requests hit a single slice, and 1.0 (by convention) when
/// there are no requests at all.
pub fn lsu(slice_requests: &[u64]) -> f64 {
    let n = slice_requests.len();
    if n == 0 {
        return 1.0;
    }
    let max = *slice_requests.iter().max().expect("non-empty");
    if max == 0 {
        return 1.0;
    }
    let sum: u64 = slice_requests.iter().sum();
    sum as f64 / (max as f64 * n as f64)
}

/// Aggregates the profiling-window counters of all chips and produces the
/// EAB model inputs.
///
/// The caller (the simulator's SAC runtime) feeds it one event per L1 miss
/// observed while running the memory-side configuration:
/// [`observe_request`](ProfileCollector::observe_request) with the flat
/// slice indices the request maps to under each configuration, and
/// [`observe_memside_llc`](ProfileCollector::observe_memside_llc) with the
/// actual memory-side LLC lookup outcome.
#[derive(Debug, Clone)]
pub struct ProfileCollector {
    crds: Vec<Crd>,
    mem_side_slices: Vec<u64>,
    sm_side_slices: Vec<u64>,
    total_requests: u64,
    local_requests: u64,
    memside_accesses: u64,
    memside_hits: u64,
}

impl ProfileCollector {
    /// Create a collector for `chips` chips with `total_slices` LLC slices
    /// machine-wide, each per-chip LLC having `llc_sets_per_chip` sets
    /// (for CRD set sampling). `sectored` selects the larger CRD blocks.
    pub fn new(
        chips: usize,
        total_slices: usize,
        llc_sets_per_chip: usize,
        sectored: bool,
    ) -> Self {
        ProfileCollector {
            crds: (0..chips)
                .map(|_| Crd::for_chips(chips, llc_sets_per_chip, sectored))
                .collect(),
            mem_side_slices: vec![0; total_slices],
            sm_side_slices: vec![0; total_slices],
            total_requests: 0,
            local_requests: 0,
            memside_accesses: 0,
            memside_hits: 0,
        }
    }

    /// Record one L1-miss request during profiling.
    ///
    /// * `requester` / `home` — the requesting chip and the page's home chip;
    /// * `line` / `sector` — the accessed line (drives the home chip's CRD);
    /// * `mem_side_slice` — flat index of the slice the request maps to
    ///   under the memory-side configuration (a slice of `home`);
    /// * `sm_side_slice` — flat index under the SM-side configuration
    ///   (a slice of `requester`).
    pub fn observe_request(
        &mut self,
        requester: ChipId,
        home: ChipId,
        line: LineAddr,
        sector: Option<SectorId>,
        mem_side_slice: usize,
        sm_side_slice: usize,
    ) {
        self.total_requests += 1;
        if requester == home {
            self.local_requests += 1;
        }
        self.mem_side_slices[mem_side_slice] += 1;
        self.sm_side_slices[sm_side_slice] += 1;
        self.crds[home.index()].observe(line, sector, requester);
    }

    /// Record the outcome of one actual memory-side LLC lookup.
    pub fn observe_memside_llc(&mut self, hit: bool) {
        self.memside_accesses += 1;
        if hit {
            self.memside_hits += 1;
        }
    }

    /// Requests observed so far.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// CRD occupancy across all chips as `(valid blocks, block capacity)`
    /// (observability gauge).
    pub fn crd_occupancy(&self) -> (u64, u64) {
        self.crds.iter().fold((0, 0), |(o, c), crd| {
            (o + crd.occupied(), c + crd.capacity())
        })
    }

    /// The aggregated EAB inputs for the window so far.
    pub fn inputs(&self) -> EabInputs {
        let r_local = if self.total_requests == 0 {
            1.0
        } else {
            self.local_requests as f64 / self.total_requests as f64
        };
        let hit_mem = if self.memside_accesses == 0 {
            0.0
        } else {
            self.memside_hits as f64 / self.memside_accesses as f64
        };
        // Weight each chip's CRD prediction by its sampled request count.
        let (mut hits, mut reqs) = (0u64, 0u64);
        for crd in &self.crds {
            hits += crd.hits();
            reqs += crd.requests();
        }
        let hit_sm = if reqs == 0 {
            hit_mem
        } else {
            hits as f64 / reqs as f64
        };
        EabInputs {
            r_local,
            llc_hit_memory_side: hit_mem,
            llc_hit_sm_side: hit_sm,
            lsu_memory_side: lsu(&self.mem_side_slices),
            lsu_sm_side: lsu(&self.sm_side_slices),
        }
        .clamped()
    }

    /// Reset the rate counters but keep the CRD directory contents warm:
    /// used at the profiling window's midpoint so both the measured
    /// memory-side hit rate and the CRD's predicted SM-side hit rate
    /// reflect warm caches.
    pub fn reset_counters_only(&mut self) {
        for crd in &mut self.crds {
            crd.reset_counters();
        }
        self.mem_side_slices.fill(0);
        self.sm_side_slices.fill(0);
        self.total_requests = 0;
        self.local_requests = 0;
        self.memside_accesses = 0;
        self.memside_hits = 0;
    }

    /// Reset all counters and CRDs (new profiling window).
    pub fn reset(&mut self) {
        for crd in &mut self.crds {
            crd.reset();
        }
        self.mem_side_slices.fill(0);
        self.sm_side_slices.fill(0);
        self.total_requests = 0;
        self.local_requests = 0;
        self.memside_accesses = 0;
        self.memside_hits = 0;
    }

    /// Serialize the full collector state (CRDs included) into a
    /// checkpoint payload.
    pub fn save(&self, e: &mut mcgpu_types::Enc) {
        e.put_seq_len(self.crds.len());
        for crd in &self.crds {
            crd.save(e);
        }
        for counters in [&self.mem_side_slices, &self.sm_side_slices] {
            e.put_seq_len(counters.len());
            for &c in counters {
                e.put_u64(c);
            }
        }
        e.put_u64(self.total_requests);
        e.put_u64(self.local_requests);
        e.put_u64(self.memside_accesses);
        e.put_u64(self.memside_hits);
    }

    /// Deserialize a collector saved by [`ProfileCollector::save`].
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input.
    pub fn load(d: &mut mcgpu_types::Dec<'_>) -> mcgpu_types::CkptResult<Self> {
        let n = d.get_seq_len()?;
        let mut crds = Vec::with_capacity(n);
        for _ in 0..n {
            crds.push(Crd::load(d)?);
        }
        let mut slice_counters = [Vec::new(), Vec::new()];
        for counters in &mut slice_counters {
            let n = d.get_seq_len()?;
            counters.reserve(n);
            for _ in 0..n {
                counters.push(d.get_u64()?);
            }
        }
        let [mem_side_slices, sm_side_slices] = slice_counters;
        Ok(ProfileCollector {
            crds,
            mem_side_slices,
            sm_side_slices,
            total_requests: d.get_u64()?,
            local_requests: d.get_u64()?,
            memside_accesses: d.get_u64()?,
            memside_hits: d.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsu_bounds() {
        assert_eq!(lsu(&[]), 1.0);
        assert_eq!(lsu(&[0, 0, 0]), 1.0);
        assert!((lsu(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        // All requests to one of four slices: LSU = 1/4.
        assert!((lsu(&[8, 0, 0, 0]) - 0.25).abs() < 1e-12);
        // Intermediate case.
        let v = lsu(&[4, 2, 2, 0]);
        assert!(v > 0.25 && v < 1.0);
    }

    #[test]
    fn r_local_is_tracked() {
        let mut pc = ProfileCollector::new(4, 16, 64, false);
        for i in 0..10u64 {
            let home = if i < 7 { ChipId(0) } else { ChipId(1) };
            pc.observe_request(ChipId(0), home, LineAddr(i), None, 0, 0);
        }
        let inputs = pc.inputs();
        assert!((inputs.r_local - 0.7).abs() < 1e-12);
    }

    #[test]
    fn memside_hit_rate_is_measured() {
        let mut pc = ProfileCollector::new(4, 16, 64, false);
        for i in 0..10 {
            pc.observe_memside_llc(i < 6);
        }
        assert!((pc.inputs().llc_hit_memory_side - 0.6).abs() < 1e-12);
    }

    #[test]
    fn lsu_differs_between_configs() {
        let mut pc = ProfileCollector::new(2, 8, 64, false);
        // Memory-side: all requests pile on slice 0 (a hot shared line at
        // one home). SM-side: spread over both chips' slices.
        for i in 0..8u64 {
            pc.observe_request(
                ChipId((i % 2) as u8),
                ChipId(0),
                LineAddr(1),
                None,
                0,
                (i % 8) as usize,
            );
        }
        let inputs = pc.inputs();
        assert!(inputs.lsu_sm_side > inputs.lsu_memory_side);
    }

    #[test]
    fn reset_zeroes_state() {
        let mut pc = ProfileCollector::new(4, 16, 64, false);
        pc.observe_request(ChipId(0), ChipId(1), LineAddr(1), None, 4, 0);
        pc.observe_memside_llc(true);
        pc.reset();
        assert_eq!(pc.total_requests(), 0);
        let i = pc.inputs();
        assert_eq!(i.r_local, 1.0);
        assert_eq!(i.llc_hit_memory_side, 0.0);
    }

    #[test]
    fn empty_collector_gives_neutral_inputs() {
        let pc = ProfileCollector::new(4, 64, 128, false);
        let i = pc.inputs();
        assert_eq!(i.r_local, 1.0);
        assert_eq!(i.lsu_memory_side, 1.0);
        assert_eq!(i.lsu_sm_side, 1.0);
    }
}
