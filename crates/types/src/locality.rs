//! Per-kernel locality profiles: the trace summary fast mode prices.
//!
//! `mcgpu_trace::analysis::profile_workload` extracts one
//! [`KernelProfile`] per kernel launch, a `Workload` memoizes them, and
//! `sac::estimate` turns them into a cell estimate for each LLC
//! organization.

/// Locality profile of one kernel launch, extracted from the trace after
/// an L1 filter. All access counts are post-L1 (what the LLC layer sees);
/// vectors are indexed by chip. "Granule" is a cache line, or a sector on
/// sectored machines (a re-access to an untouched sector of a resident
/// line is a sector miss, not a hit).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelProfile {
    /// Issue-bound cycle floor: the longest cluster stream's slots,
    /// `len · (1 + compute_gap)`.
    pub issue_cycles: u64,
    /// L1-level accesses machine-wide (pre-filter).
    pub l1_accesses: u64,
    /// L1 hits machine-wide.
    pub l1_hits: u64,
    /// Post-L1 reads machine-wide.
    pub reads: u64,
    /// Post-L1 writes machine-wide.
    pub writes: u64,
    /// Per requesting chip: post-L1 accesses to lines homed on that chip.
    pub local_accesses: Vec<u64>,
    /// Per requesting chip: post-L1 accesses to lines homed elsewhere.
    pub remote_accesses: Vec<u64>,
    /// Per requesting chip: distinct locally-homed granules it touched.
    pub distinct_local: Vec<u64>,
    /// Per requesting chip: distinct remotely-homed granules it touched.
    pub distinct_remote: Vec<u64>,
    /// Per home chip: post-L1 accesses homed on that chip (from any chip).
    pub homed_accesses: Vec<u64>,
    /// Per home chip: distinct granules homed on that chip that were
    /// touched.
    pub distinct_homed: Vec<u64>,
    /// Per home chip: accesses this kernel to granules that chip's slices
    /// already saw in an *earlier* kernel (cross-kernel reuse home slices
    /// can serve).
    pub prior_homed: Vec<u64>,
    /// Per requesting chip: accesses to locally-homed granules the chip
    /// itself touched in an earlier kernel (the reuse that survives a
    /// boundary replica drop).
    pub prior_local: Vec<u64>,
    /// Per home chip: cumulative distinct granules homed there, through
    /// the end of this kernel (residency pressure for the capacity term).
    pub cum_distinct_homed: Vec<u64>,
    /// Per requesting chip: cumulative distinct locally-homed granules it
    /// touched, through the end of this kernel.
    pub cum_distinct_local: Vec<u64>,
}

impl KernelProfile {
    /// Total post-L1 accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of post-L1 accesses homed on the requesting chip.
    pub fn r_local(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 1.0;
        }
        self.local_accesses.iter().sum::<u64>() as f64 / total as f64
    }

    /// Total distinct lines touched (each line is homed on exactly one
    /// chip, so the per-home counts partition the set).
    pub fn distinct_lines(&self) -> u64 {
        self.distinct_homed.iter().sum()
    }
}
