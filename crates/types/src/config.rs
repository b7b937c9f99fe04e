//! Machine configuration (Table 3 of the paper) and design-space scaling.
//!
//! All bandwidths are stored in GB/s. The simulated GPU clock is 1 GHz, so
//! **1 GB/s equals exactly 1 byte/cycle** — the simulator consumes these
//! values directly as per-cycle byte budgets.

use crate::error::ConfigError;
use crate::ids::ChipId;

/// The five LLC organizations compared in the paper's evaluation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcOrgKind {
    /// Baseline: each slice caches data of the local memory partition on
    /// behalf of all chips (Fig. 3a).
    MemorySide,
    /// Two-NoC SM-side organization: each chip's slices cache whatever its
    /// own SMs access, local or remote (Fig. 3b).
    SmSide,
    /// The L1.5 "Static LLC" of Arunkumar et al.: half the capacity caches
    /// local data, half caches remote data.
    StaticHalf,
    /// The Dynamic LLC of Milic et al.: the local/remote way split adapts at
    /// run time to balance local-memory vs inter-chip bandwidth.
    Dynamic,
    /// Sharing-Aware Caching: per-kernel choice between `MemorySide` and
    /// `SmSide` driven by the EAB model.
    Sac,
}

impl LlcOrgKind {
    /// All five organizations, in the paper's presentation order.
    pub const ALL: [LlcOrgKind; 5] = [
        LlcOrgKind::MemorySide,
        LlcOrgKind::SmSide,
        LlcOrgKind::StaticHalf,
        LlcOrgKind::Dynamic,
        LlcOrgKind::Sac,
    ];

    /// Short label used in reports and figure output.
    pub fn label(self) -> &'static str {
        match self {
            LlcOrgKind::MemorySide => "memory-side",
            LlcOrgKind::SmSide => "SM-side",
            LlcOrgKind::StaticHalf => "static",
            LlcOrgKind::Dynamic => "dynamic",
            LlcOrgKind::Sac => "SAC",
        }
    }

    /// Inverse of [`LlcOrgKind::label`], for reading journals and CLI args.
    pub fn from_label(label: &str) -> Option<LlcOrgKind> {
        LlcOrgKind::ALL.into_iter().find(|o| o.label() == label)
    }

    /// Canonical CLI token (`--org <token>`).
    pub fn token(self) -> &'static str {
        match self {
            LlcOrgKind::MemorySide => "mem",
            LlcOrgKind::SmSide => "sm",
            LlcOrgKind::StaticHalf => "static",
            LlcOrgKind::Dynamic => "dynamic",
            LlcOrgKind::Sac => "sac",
        }
    }

    /// One-line description for `sacsim --list-orgs`.
    pub fn summary(self) -> &'static str {
        match self {
            LlcOrgKind::MemorySide => {
                "baseline: slices cache the local partition's data for all chips"
            }
            LlcOrgKind::SmSide => "two-NoC SM-side: slices cache whatever the local SMs access",
            LlcOrgKind::StaticHalf => "L1.5 static split: half the ways local, half remote",
            LlcOrgKind::Dynamic => {
                "dynamic way split adapting to local-memory vs inter-chip pressure"
            }
            LlcOrgKind::Sac => "SAC: per-kernel memory-side/SM-side choice driven by the EAB model",
        }
    }

    /// Resolve a CLI token (or a display label) to its organization.
    /// Tokens are the canonical spelling; labels are accepted so journal
    /// files and `--org SAC` keep working.
    pub fn from_token(token: &str) -> Option<LlcOrgKind> {
        LlcOrgKind::ALL
            .into_iter()
            .find(|o| o.token() == token || o.label() == token)
    }
}

impl std::fmt::Display for LlcOrgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Coherence protocol for SM-side-capable configurations (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherenceKind {
    /// Software-managed: flush + invalidate at kernel boundaries (baseline).
    #[default]
    Software,
    /// Hardware directory: sharers tracked at the home partition; a write
    /// invalidates all remote copies.
    Hardware,
}

/// The slice of a [`MachineConfig`] that sizes the LLC organizations'
/// controllers: the Dynamic way split and the SAC profiling counters.
///
/// Extracted once at simulator-build time ([`MachineConfig::policy_ctx`]) so
/// a controller carries only the structural facts it depends on, never the
/// full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyCtx {
    /// Number of chips in the machine.
    pub chips: usize,
    /// LLC associativity (ways per set) — the domain of a way split.
    pub llc_assoc: usize,
    /// Total LLC slices machine-wide.
    pub total_slices: usize,
    /// LLC sets per chip (capacity ÷ ways ÷ line size).
    pub llc_sets_per_chip: usize,
    /// Whether the LLC tracks per-sector validity.
    pub sectored: bool,
}

/// Inter-chip fabric topology connecting the package's GPU chips.
///
/// The structural facts (neighbor sets, canonical link list, degrees) live
/// here on [`MachineConfig`] so that validation and fault plans agree with
/// the behavioral implementation in `mcgpu-noc` without a dependency
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// Bidirectional ring (the paper's Table 3 machine).
    #[default]
    Ring,
    /// Every chip pair is directly linked.
    FullyConnected,
    /// 2D mesh on a `rows x cols` grid (balanced factorization of the chip
    /// count, row-major chip placement).
    Mesh2D,
}

impl TopologyKind {
    /// All topologies, in presentation order.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Ring,
        TopologyKind::FullyConnected,
        TopologyKind::Mesh2D,
    ];

    /// Short label used in reports, figure output and CLI args.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Ring => "ring",
            TopologyKind::FullyConnected => "full",
            TopologyKind::Mesh2D => "mesh2d",
        }
    }

    /// Inverse of [`TopologyKind::label`], with a few CLI-friendly aliases.
    pub fn from_label(label: &str) -> Option<TopologyKind> {
        match label {
            "ring" => Some(TopologyKind::Ring),
            "full" | "fully-connected" | "all-to-all" => Some(TopologyKind::FullyConnected),
            "mesh2d" | "mesh" => Some(TopologyKind::Mesh2D),
            _ => None,
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Memory interface generation (Fig. 14 "memory interface" sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryInterface {
    /// GDDR5-class: 0.9 TB/s aggregate.
    Gddr5,
    /// GDDR6-class: 1.75 TB/s aggregate (baseline).
    #[default]
    Gddr6,
    /// HBM2-class: 2.8 TB/s aggregate.
    Hbm2,
}

impl MemoryInterface {
    /// Aggregate DRAM bandwidth of the whole machine, in GB/s.
    pub fn total_gbs(self) -> f64 {
        match self {
            MemoryInterface::Gddr5 => 900.0,
            MemoryInterface::Gddr6 => 1750.0,
            MemoryInterface::Hbm2 => 2800.0,
        }
    }

    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            MemoryInterface::Gddr5 => "GDDR5",
            MemoryInterface::Gddr6 => "GDDR6",
            MemoryInterface::Hbm2 => "HBM2",
        }
    }
}

/// Uniform down-scaling of the simulated machine so full figure sweeps run in
/// minutes instead of days.
///
/// * `topology` divides unit counts (SM clusters, LLC slices, DRAM channels
///   per chip) and aggregate bandwidths (NoC bisection, inter-chip links) —
///   per-unit bandwidths are unchanged, so every bandwidth *ratio* the
///   paper's EAB argument rests on is preserved.
/// * `capacity` divides storage capacities (LLC) and, in `mcgpu-trace`,
///   workload footprints — so every working-set ÷ capacity ratio is
///   preserved. L1 capacity is scaled by `capacity / topology` so the total
///   L1 : LLC ratio per chip is also preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScaleFactor {
    /// Divisor for unit counts and aggregate bandwidths.
    pub topology: u32,
    /// Divisor for capacities and workload footprints.
    pub capacity: u32,
}

impl ScaleFactor {
    /// No scaling: the exact Table 3 machine.
    pub const UNIT: ScaleFactor = ScaleFactor {
        topology: 1,
        capacity: 1,
    };

    /// The default scale used by the experiment harness: 8 SM clusters,
    /// 4 LLC slices and 2 DRAM channels per chip; capacities and footprints
    /// divided by 16.
    pub const EXPERIMENT: ScaleFactor = ScaleFactor {
        topology: 4,
        capacity: 16,
    };
}

impl Default for ScaleFactor {
    fn default() -> Self {
        ScaleFactor::UNIT
    }
}

/// Full machine configuration (Table 3 plus latency parameters).
///
/// Construct with [`MachineConfig::paper_baseline`] (unscaled Table 3) or
/// [`MachineConfig::experiment_baseline`] (scaled for fast sweeps) and adjust
/// fields before calling [`MachineConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of GPU chips (Table 3: 4).
    pub chips: usize,
    /// SM clusters per chip; one cluster is two SMs sharing a NoC port.
    pub clusters_per_chip: usize,
    /// LLC slices per chip.
    pub slices_per_chip: usize,
    /// DRAM channels per chip (one memory partition per chip).
    pub channels_per_chip: usize,

    /// Cache line size in bytes (128).
    pub line_size: u64,
    /// Memory page size in bytes (4 KiB, first-touch allocated).
    pub page_size: u64,
    /// Sectors per cache line when `sectored` is set (4).
    pub sectors_per_line: u32,
    /// Whether caches are sectored (Fig. 14 sweep; baseline: conventional).
    pub sectored: bool,

    /// Private L1 capacity per SM cluster, bytes.
    pub l1_bytes_per_cluster: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// LLC capacity per chip, bytes (4 MiB).
    pub llc_bytes_per_chip: u64,
    /// LLC associativity.
    pub llc_assoc: usize,

    /// Intra-chip NoC bisection bandwidth per chip, GB/s (4 TB/s).
    pub noc_bisection_gbs: f64,
    /// Per-LLC-slice bandwidth, GB/s (16 TB/s ÷ 64 slices = 250).
    pub llc_slice_gbs: f64,
    /// Per-DRAM-channel bandwidth, GB/s (1.75 TB/s ÷ 32 = 54.6875).
    pub dram_channel_gbs: f64,
    /// Inter-chip bandwidth per adjacent chip pair, per direction, GB/s.
    /// Baseline: 3 links × 64 GB/s bidirectional = 96 GB/s per direction.
    pub interchip_pair_gbs: f64,
    /// Physical links per adjacent pair in the ring (3).
    pub links_per_pair: usize,
    /// Inter-chip fabric topology (Table 3: a 4-chip ring).
    pub topology: TopologyKind,

    /// One-way intra-chip NoC traversal latency, cycles.
    pub noc_latency: u64,
    /// LLC access latency, cycles.
    pub llc_latency: u64,
    /// DRAM access latency, cycles.
    pub dram_latency: u64,
    /// One-way inter-chip hop latency, cycles.
    pub link_latency: u64,

    /// Outstanding-miss registers per SM cluster.
    pub mshrs_per_cluster: usize,

    /// Coherence protocol for SM-side configurations.
    pub coherence: CoherenceKind,
    /// Memory interface generation (adjusts `dram_channel_gbs`).
    pub memory_interface: MemoryInterface,
    /// Scale applied relative to Table 3.
    pub scale: ScaleFactor,

    /// Forward-progress watchdog window, cycles: the engine reports a
    /// deadlock if no request retires and no queue drains for this many
    /// consecutive cycles. `u64::MAX` disables the watchdog entirely.
    pub watchdog_cycles: u64,
}

impl MachineConfig {
    /// The unscaled Table 3 baseline.
    pub fn paper_baseline() -> Self {
        MachineConfig {
            chips: 4,
            clusters_per_chip: 32,
            slices_per_chip: 16,
            channels_per_chip: 8,
            line_size: 128,
            page_size: 4096,
            sectors_per_line: 4,
            sectored: false,
            l1_bytes_per_cluster: 256 << 10, // 2 SMs x 128 KB
            l1_assoc: 8,
            llc_bytes_per_chip: 4 << 20,
            llc_assoc: 16,
            noc_bisection_gbs: 4096.0,
            llc_slice_gbs: 250.0,
            dram_channel_gbs: 1750.0 / 32.0,
            interchip_pair_gbs: 96.0,
            links_per_pair: 3,
            topology: TopologyKind::Ring,
            noc_latency: 20,
            llc_latency: 90,
            dram_latency: 250,
            link_latency: 80,
            mshrs_per_cluster: 64,
            coherence: CoherenceKind::Software,
            memory_interface: MemoryInterface::Gddr6,
            scale: ScaleFactor::UNIT,
            watchdog_cycles: 1_000_000,
        }
    }

    /// The scaled baseline used by the experiment harness
    /// ([`ScaleFactor::EXPERIMENT`]).
    pub fn experiment_baseline() -> Self {
        Self::paper_baseline().scaled(ScaleFactor::EXPERIMENT)
    }

    /// Apply a [`ScaleFactor`], producing a smaller machine with identical
    /// bandwidth and capacity ratios (see [`ScaleFactor`] docs).
    ///
    /// # Panics
    /// Panics if scaling would reduce any unit count below one.
    pub fn scaled(mut self, scale: ScaleFactor) -> Self {
        let t = scale.topology as usize;
        let c = scale.capacity as u64;
        assert!(t >= 1 && c >= 1, "scale factors must be >= 1");
        assert!(
            self.clusters_per_chip >= t && self.slices_per_chip >= t && self.channels_per_chip >= t,
            "topology scale too large for machine"
        );
        self.clusters_per_chip /= t;
        self.slices_per_chip /= t;
        self.channels_per_chip = (self.channels_per_chip / t).max(1);
        self.noc_bisection_gbs /= t as f64;
        self.interchip_pair_gbs /= t as f64;
        self.llc_bytes_per_chip /= c;
        // Keep total-L1 : LLC per chip constant: clusters shrank by t, so the
        // per-cluster L1 only shrinks by c / t.
        self.l1_bytes_per_cluster = self.l1_bytes_per_cluster * t as u64 / c;
        // Keep the chip's total outstanding-miss capability (and hence its
        // latency-tolerance : bandwidth ratio) constant: fewer clusters each
        // get proportionally more MSHRs.
        self.mshrs_per_cluster *= t;
        self.scale = scale;
        self
    }

    /// Override the memory interface, rescaling per-channel DRAM bandwidth.
    pub fn with_memory_interface(mut self, iface: MemoryInterface) -> Self {
        let baseline_total = MemoryInterface::Gddr6.total_gbs();
        let factor = iface.total_gbs() / baseline_total;
        self.dram_channel_gbs = (1750.0 / 32.0) * factor;
        self.memory_interface = iface;
        self
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.chips < 2 {
            return Err(ConfigError::new("need at least 2 chips"));
        }
        if self.chips > 64 {
            return Err(ConfigError::new(
                "sharer tracking supports at most 64 chips",
            ));
        }
        // The CRD packs one presence bit per chip (per sector when
        // sectored) into a 128-bit field.
        let presence_bits = self.chips as u64
            * if self.sectored {
                self.sectors_per_line as u64
            } else {
                1
            };
        if presence_bits > 128 {
            return Err(ConfigError::new(format!(
                "CRD presence vector needs {presence_bits} bits (chips x sectors), limit is 128"
            )));
        }
        if !self.line_size.is_power_of_two() || !self.page_size.is_power_of_two() {
            return Err(ConfigError::new(
                "line and page sizes must be powers of two",
            ));
        }
        if self.page_size < self.line_size {
            return Err(ConfigError::new("page size must be >= line size"));
        }
        if self.slices_per_chip == 0 || self.clusters_per_chip == 0 || self.channels_per_chip == 0 {
            return Err(ConfigError::new("unit counts must be positive"));
        }
        if self.l1_assoc == 0 || self.llc_assoc == 0 {
            return Err(ConfigError::new("cache associativities must be positive"));
        }
        // Zero is a multiple of every set size, so the whole-number-of-sets
        // checks below would pass an empty cache.
        if self.l1_bytes_per_cluster == 0 || self.llc_bytes_per_chip == 0 {
            return Err(ConfigError::new("cache capacities must be positive"));
        }
        if self.mshrs_per_cluster == 0 || self.links_per_pair == 0 {
            return Err(ConfigError::new(
                "MSHRs and links per pair must be positive",
            ));
        }
        for (name, gbs) in [
            ("NoC bisection", self.noc_bisection_gbs),
            ("LLC slice", self.llc_slice_gbs),
            ("DRAM channel", self.dram_channel_gbs),
            ("inter-chip pair", self.interchip_pair_gbs),
        ] {
            if !gbs.is_finite() || gbs <= 0.0 {
                return Err(ConfigError::new(format!(
                    "{name} bandwidth must be finite and positive (got {gbs})"
                )));
            }
        }
        if !self
            .llc_bytes_per_chip
            .is_multiple_of(self.slices_per_chip as u64)
        {
            return Err(ConfigError::new(
                "LLC capacity must divide evenly over slices",
            ));
        }
        let slice_bytes = self.llc_bytes_per_chip / self.slices_per_chip as u64;
        let set_bytes = self.llc_assoc as u64 * self.line_size;
        if !slice_bytes.is_multiple_of(set_bytes) {
            return Err(ConfigError::new(
                "LLC slice must hold a whole number of sets",
            ));
        }
        if !self
            .l1_bytes_per_cluster
            .is_multiple_of(self.l1_assoc as u64 * self.line_size)
        {
            return Err(ConfigError::new("L1 must hold a whole number of sets"));
        }
        if self.sectors_per_line == 0
            || !self.line_size.is_multiple_of(self.sectors_per_line as u64)
        {
            return Err(ConfigError::new("sectors must divide the line size"));
        }
        if self.watchdog_cycles == 0 {
            return Err(ConfigError::new(
                "watchdog window must be positive (use u64::MAX to disable)",
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Derived quantities.
    // ------------------------------------------------------------------

    /// Total LLC capacity of the machine, bytes.
    pub fn total_llc_bytes(&self) -> u64 {
        self.llc_bytes_per_chip * self.chips as u64
    }

    /// LLC slice capacity, bytes.
    pub fn llc_slice_bytes(&self) -> u64 {
        self.llc_bytes_per_chip / self.slices_per_chip as u64
    }

    /// Total LLC slices in the machine.
    pub fn total_slices(&self) -> usize {
        self.chips * self.slices_per_chip
    }

    /// The slice of this configuration that sizes the LLC organizations'
    /// controllers (see [`PolicyCtx`]).
    pub fn policy_ctx(&self) -> PolicyCtx {
        PolicyCtx {
            chips: self.chips,
            llc_assoc: self.llc_assoc,
            total_slices: self.total_slices(),
            llc_sets_per_chip: (self.llc_bytes_per_chip / (self.llc_assoc as u64 * self.line_size))
                as usize,
            sectored: self.sectored,
        }
    }

    /// Total DRAM bandwidth, GB/s.
    pub fn total_dram_gbs(&self) -> f64 {
        self.dram_channel_gbs * (self.chips * self.channels_per_chip) as f64
    }

    /// Raw LLC bandwidth per chip, GB/s (`B_LLC` of the EAB model).
    pub fn llc_gbs_per_chip(&self) -> f64 {
        self.llc_slice_gbs * self.slices_per_chip as f64
    }

    /// Intra-chip NoC bandwidth per chip, GB/s (`B_intra`).
    pub fn intra_gbs_per_chip(&self) -> f64 {
        self.noc_bisection_gbs
    }

    /// Inter-chip bandwidth available to one chip per direction, GB/s
    /// (`B_inter`): the mean chip degree, `2 x links / chips`, times the
    /// per-pair bandwidth (exactly two ring neighbours on any ring).
    pub fn inter_gbs_per_chip(&self) -> f64 {
        2.0 * self.num_links() as f64 / self.chips as f64 * self.interchip_pair_gbs
    }

    /// DRAM bandwidth per chip (one memory partition), GB/s (`B_mem`).
    pub fn mem_gbs_per_chip(&self) -> f64 {
        self.dram_channel_gbs * self.channels_per_chip as f64
    }

    // ------------------------------------------------------------------
    // Inter-chip topology (structure; behavior lives in `mcgpu-noc`).
    // ------------------------------------------------------------------

    /// Mesh grid dimensions `(rows, cols)` for [`TopologyKind::Mesh2D`]:
    /// the most balanced factorization of the chip count with
    /// `rows <= cols`, chips placed row-major (chip `i` at row `i / cols`,
    /// column `i % cols`).
    pub fn mesh_dims(&self) -> (usize, usize) {
        let n = self.chips.max(1);
        let mut rows = 1;
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                rows = d;
            }
            d += 1;
        }
        (rows, n / rows)
    }

    /// The ordered neighbor list of `chip` under the configured topology.
    /// The order is the fabric's deterministic slot order; for the ring it
    /// is `[clockwise, counter-clockwise]` (both slots point at the same
    /// chip on a 2-chip ring — two parallel links).
    pub fn neighbor_list(&self, chip: ChipId) -> Vec<ChipId> {
        let n = self.chips;
        let i = chip.index();
        match self.topology {
            TopologyKind::Ring => {
                vec![ChipId(((i + 1) % n) as u8), ChipId(((i + n - 1) % n) as u8)]
            }
            TopologyKind::FullyConnected => (0..n)
                .filter(|&j| j != i)
                .map(|j| ChipId(j as u8))
                .collect(),
            TopologyKind::Mesh2D => {
                let (rows, cols) = self.mesh_dims();
                let (r, c) = (i / cols, i % cols);
                let mut out = Vec::with_capacity(4);
                if r > 0 {
                    out.push(ChipId(((r - 1) * cols + c) as u8));
                }
                if r + 1 < rows {
                    out.push(ChipId(((r + 1) * cols + c) as u8));
                }
                if c > 0 {
                    out.push(ChipId((r * cols + c - 1) as u8));
                }
                if c + 1 < cols {
                    out.push(ChipId((r * cols + c + 1) as u8));
                }
                out
            }
        }
    }

    /// Whether `a` and `b` are directly linked under the configured
    /// topology: `b` is in `a`'s [`neighbor_list`](Self::neighbor_list)
    /// (so false for `a == b` and for chips outside the machine).
    pub fn is_adjacent(&self, a: ChipId, b: ChipId) -> bool {
        a.index() < self.chips && self.neighbor_list(a).contains(&b)
    }

    /// The canonical undirected link list of the configured topology. The
    /// index of a pair in this list is its [`MachineConfig::link_index`];
    /// the ring lists link `i` as `(i, (i+1) mod n)`, so a 2-chip ring has
    /// two parallel `{0, 1}` links.
    pub fn link_pairs(&self) -> Vec<(ChipId, ChipId)> {
        let n = self.chips;
        match self.topology {
            TopologyKind::Ring => (0..n)
                .map(|i| (ChipId(i as u8), ChipId(((i + 1) % n) as u8)))
                .collect(),
            TopologyKind::FullyConnected => {
                let mut out = Vec::with_capacity(n * (n - 1) / 2);
                for a in 0..n {
                    for b in (a + 1)..n {
                        out.push((ChipId(a as u8), ChipId(b as u8)));
                    }
                }
                out
            }
            TopologyKind::Mesh2D => {
                let (_, cols) = self.mesh_dims();
                let mut out = Vec::new();
                for i in 0..n {
                    if i % cols + 1 < cols {
                        out.push((ChipId(i as u8), ChipId((i + 1) as u8)));
                    }
                    if i + cols < n {
                        out.push((ChipId(i as u8), ChipId((i + cols) as u8)));
                    }
                }
                out
            }
        }
    }

    /// Number of undirected links in the configured topology.
    pub fn num_links(&self) -> usize {
        self.link_pairs().len()
    }

    /// Index of the undirected link `{a, b}` in the canonical link list,
    /// or `None` when the chips are not directly linked. For the ring this
    /// reproduces the legacy fault-path indexing: link `i` connects chip
    /// `i` to `(i+1) mod n`, with the wrap pair `{0, n-1}` at index `n-1`.
    pub fn link_index(&self, a: ChipId, b: ChipId) -> Option<usize> {
        if !self.is_adjacent(a, b) {
            return None;
        }
        match self.topology {
            TopologyKind::Ring => {
                let (lo, hi) = if a.index() < b.index() {
                    (a.index(), b.index())
                } else {
                    (b.index(), a.index())
                };
                Some(if lo == 0 && hi == self.chips - 1 {
                    hi
                } else {
                    lo
                })
            }
            _ => {
                let key = if a.index() < b.index() {
                    (a, b)
                } else {
                    (b, a)
                };
                self.link_pairs().iter().position(|&p| p == key)
            }
        }
    }

    /// Number of fabric links attached to `chip` (2 on any ring, including
    /// the two parallel links of a 2-chip ring).
    pub fn chip_degree(&self, chip: ChipId) -> usize {
        self.neighbor_list(chip).len()
    }

    /// The largest per-chip degree (the fabric port count the NoC physical
    /// model provisions for).
    pub fn max_chip_degree(&self) -> usize {
        ChipId::all(self.chips)
            .map(|c| self.chip_degree(c))
            .max()
            .unwrap_or(0)
    }

    /// Inter-chip bisection bandwidth of the configured topology per
    /// direction, GB/s: the minimum link capacity crossing a balanced cut.
    pub fn bisection_gbs(&self) -> f64 {
        let n = self.chips;
        let links_cut = match self.topology {
            TopologyKind::Ring => 2,
            TopologyKind::FullyConnected => (n / 2) * n.div_ceil(2),
            TopologyKind::Mesh2D => {
                let (rows, cols) = self.mesh_dims();
                if cols >= 2 {
                    rows
                } else {
                    cols
                }
            }
        };
        links_cut as f64 * self.interchip_pair_gbs
    }

    /// Egress bandwidth of one chip into the fabric, GB/s: its degree
    /// times the per-pair bandwidth (`2 x interchip_pair_gbs` on the ring).
    pub fn egress_gbs(&self, chip: ChipId) -> f64 {
        self.chip_degree(chip) as f64 * self.interchip_pair_gbs
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table3() {
        let c = MachineConfig::paper_baseline();
        c.validate().unwrap();
        assert_eq!(c.chips, 4);
        assert_eq!(c.chips * c.clusters_per_chip * 2, 256); // 256 SMs
        assert_eq!(c.total_llc_bytes(), 16 << 20); // 16 MB LLC
        assert_eq!(c.total_slices(), 64);
        assert!((c.total_dram_gbs() - 1750.0).abs() < 1e-9);
        assert!((c.llc_gbs_per_chip() * 4.0 - 16000.0).abs() < 1e-9); // 16 TB/s
        assert!((c.inter_gbs_per_chip() - 192.0).abs() < 1e-9);
    }

    #[test]
    fn topology_labels_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::from_label(kind.label()), Some(kind));
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!(TopologyKind::from_label("mesh"), Some(TopologyKind::Mesh2D));
        assert_eq!(TopologyKind::from_label("torus"), None);
    }

    #[test]
    fn mesh_dims_are_balanced() {
        let mut c = MachineConfig::paper_baseline();
        c.topology = TopologyKind::Mesh2D;
        for (chips, dims) in [
            (4, (2, 2)),
            (8, (2, 4)),
            (16, (4, 4)),
            (6, (2, 3)),
            (5, (1, 5)),
        ] {
            c.chips = chips;
            assert_eq!(c.mesh_dims(), dims, "chips={chips}");
        }
    }

    #[test]
    fn ring_helpers_match_legacy_ring_semantics() {
        let mut c = MachineConfig::paper_baseline();
        for chips in [2usize, 3, 4, 8] {
            c.chips = chips;
            assert_eq!(c.num_links(), chips);
            assert_eq!(c.inter_gbs_per_chip(), 2.0 * c.interchip_pair_gbs);
            for chip in ChipId::all(chips) {
                let i = chip.index();
                let (cw, ccw) = ((i + 1) % chips, (i + chips - 1) % chips);
                assert_eq!(
                    c.neighbor_list(chip),
                    vec![ChipId(cw as u8), ChipId(ccw as u8)]
                );
                assert_eq!(c.chip_degree(chip), 2);
                assert!((c.egress_gbs(chip) - 2.0 * c.interchip_pair_gbs).abs() < 1e-12);
            }
            // Legacy fault-path link indexing: link i = {i, i+1 mod n},
            // wrap pair at index n-1.
            for i in 0..chips {
                let a = ChipId(i as u8);
                let b = ChipId(((i + 1) % chips) as u8);
                let expect = {
                    let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
                    if lo == 0 && hi == chips - 1 {
                        hi
                    } else {
                        lo
                    }
                };
                assert_eq!(c.link_index(a, b), Some(expect));
                assert_eq!(c.link_index(b, a), Some(expect));
            }
        }
        c.chips = 4;
        assert_eq!(c.link_index(ChipId(0), ChipId(2)), None);
        assert_eq!(c.link_index(ChipId(1), ChipId(1)), None);
    }

    #[test]
    fn link_pairs_and_link_index_agree_across_topologies() {
        let mut c = MachineConfig::paper_baseline();
        for kind in TopologyKind::ALL {
            c.topology = kind;
            for chips in [2usize, 3, 4, 6, 8, 16] {
                c.chips = chips;
                let pairs = c.link_pairs();
                // Adjacency is exactly membership in the link list, over
                // every ordered pair and one chip outside the machine.
                for a in ChipId::all(chips + 1) {
                    for b in ChipId::all(chips + 1) {
                        let linked = pairs.contains(&(a, b)) || pairs.contains(&(b, a));
                        assert_eq!(
                            c.is_adjacent(a, b),
                            linked,
                            "{kind} chips={chips} {a:?}-{b:?}"
                        );
                    }
                }
                // The 2-chip ring lists its pair twice; both map to link 1.
                if kind != TopologyKind::Ring || chips > 2 {
                    for (idx, &(a, b)) in pairs.iter().enumerate() {
                        assert_eq!(c.link_index(a, b), Some(idx));
                        assert_eq!(c.link_index(b, a), Some(idx));
                    }
                }
                // Degree/link handshake: sum of degrees == 2 x links.
                let degree_sum: usize = ChipId::all(chips).map(|ch| c.chip_degree(ch)).sum();
                assert_eq!(degree_sum, 2 * pairs.len(), "{kind} chips={chips}");
                assert!(c.max_chip_degree() >= 1);
            }
        }
    }

    #[test]
    fn fully_connected_and_mesh_structure() {
        let mut c = MachineConfig::paper_baseline();
        c.topology = TopologyKind::FullyConnected;
        c.chips = 4;
        assert_eq!(c.num_links(), 6);
        assert!(c.is_adjacent(ChipId(0), ChipId(2)));
        assert_eq!(
            c.neighbor_list(ChipId(1)),
            vec![ChipId(0), ChipId(2), ChipId(3)]
        );
        assert!((c.bisection_gbs() - 4.0 * c.interchip_pair_gbs).abs() < 1e-12);

        c.topology = TopologyKind::Mesh2D;
        // 2x2 mesh: a 4-cycle, no diagonal links.
        assert_eq!(c.num_links(), 4);
        assert!(!c.is_adjacent(ChipId(0), ChipId(3)));
        assert!(c.is_adjacent(ChipId(0), ChipId(1)));
        assert!(c.is_adjacent(ChipId(0), ChipId(2)));
        // 2x4 mesh: corner degree 2, edge degree 3.
        c.chips = 8;
        assert_eq!(c.chip_degree(ChipId(0)), 2);
        assert_eq!(c.chip_degree(ChipId(1)), 3);
        assert_eq!(c.max_chip_degree(), 3);
        assert!((c.bisection_gbs() - 2.0 * c.interchip_pair_gbs).abs() < 1e-12);
    }

    #[test]
    fn validation_bounds_chip_count_by_presence_bits() {
        let mut c = MachineConfig::paper_baseline();
        c.chips = 16;
        c.validate().unwrap();
        c.chips = 65;
        assert!(c.validate().is_err());
        // Sectored CRD packs chips x sectors presence bits into 128.
        c.chips = 64;
        c.sectored = true;
        c.sectors_per_line = 4;
        assert!(c.validate().is_err());
        c.chips = 32;
        c.validate().unwrap();
    }

    #[test]
    fn scaling_preserves_ratios() {
        let base = MachineConfig::paper_baseline();
        let s = base.clone().scaled(ScaleFactor::EXPERIMENT);
        s.validate().unwrap();
        // Bandwidth ratios.
        let r0 = base.intra_gbs_per_chip() / base.inter_gbs_per_chip();
        let r1 = s.intra_gbs_per_chip() / s.inter_gbs_per_chip();
        assert!((r0 - r1).abs() < 1e-9);
        // Demand/bandwidth: clusters per chip vs bisection.
        let d0 = base.clusters_per_chip as f64 / base.noc_bisection_gbs;
        let d1 = s.clusters_per_chip as f64 / s.noc_bisection_gbs;
        assert!((d0 - d1).abs() < 1e-9);
        // L1-total : LLC ratio per chip.
        let l0 = (base.clusters_per_chip as u64 * base.l1_bytes_per_cluster) as f64
            / base.llc_bytes_per_chip as f64;
        let l1 = (s.clusters_per_chip as u64 * s.l1_bytes_per_cluster) as f64
            / s.llc_bytes_per_chip as f64;
        assert!((l0 - l1).abs() < 1e-9);
    }

    #[test]
    fn memory_interfaces_rescale_channels() {
        let c = MachineConfig::paper_baseline().with_memory_interface(MemoryInterface::Hbm2);
        assert!((c.total_dram_gbs() - 2800.0).abs() < 1e-6);
        let c = MachineConfig::paper_baseline().with_memory_interface(MemoryInterface::Gddr5);
        assert!((c.total_dram_gbs() - 900.0).abs() < 1e-6);
    }

    #[test]
    fn ring_adjacency() {
        let c = MachineConfig::paper_baseline();
        assert!(c.is_adjacent(ChipId(0), ChipId(1)));
        assert!(!c.is_adjacent(ChipId(0), ChipId(2)));
        assert!(c.is_adjacent(ChipId(0), ChipId(3)));
        assert!(c.is_adjacent(ChipId(3), ChipId(0)));
        assert!(!c.is_adjacent(ChipId(1), ChipId(1)));
    }

    #[test]
    fn two_chip_ring() {
        let mut c = MachineConfig::paper_baseline();
        c.chips = 2;
        c.validate().unwrap();
        assert!(c.is_adjacent(ChipId(0), ChipId(1)));
        assert!(c.is_adjacent(ChipId(1), ChipId(0)));
        assert!(!c.is_adjacent(ChipId(0), ChipId(0)));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = MachineConfig::paper_baseline();
        c.page_size = 64; // < line size
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_baseline();
        c.chips = 1;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_baseline();
        c.sectors_per_line = 3;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_baseline();
        c.l1_bytes_per_cluster = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_baseline();
        c.llc_bytes_per_chip = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_baseline();
        c.watchdog_cycles = 0;
        assert!(c.validate().is_err());
        c.watchdog_cycles = u64::MAX; // disabled, still valid
        assert!(c.validate().is_ok());
    }

    #[test]
    fn llc_org_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            LlcOrgKind::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(LlcOrgKind::Sac.to_string(), "SAC");
        for org in LlcOrgKind::ALL {
            assert_eq!(LlcOrgKind::from_label(org.label()), Some(org));
        }
        assert_eq!(LlcOrgKind::from_label("bogus"), None);
    }

    #[test]
    fn tokens_and_labels_both_resolve() {
        assert_eq!(LlcOrgKind::from_token("mem"), Some(LlcOrgKind::MemorySide));
        assert_eq!(
            LlcOrgKind::from_token("memory-side"),
            Some(LlcOrgKind::MemorySide)
        );
        assert_eq!(LlcOrgKind::from_token("sac"), Some(LlcOrgKind::Sac));
        assert_eq!(LlcOrgKind::from_token("SAC"), Some(LlcOrgKind::Sac));
        assert_eq!(LlcOrgKind::from_token("bogus"), None);
    }
}
