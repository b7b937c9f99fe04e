//! The synthetic trace generator.

use crate::analysis::{profile_workload, LocalityGeometry, ProfileMemo};
use crate::layout::AddressLayout;
use crate::profiles::{BenchmarkProfile, KernelBehavior};
use mcgpu_types::{AccessKind, ChipId, KernelProfile, MachineConfig, MemAccess};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Arc;

/// Parameters controlling trace volume and reproducibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Total memory accesses generated machine-wide for the whole workload.
    pub total_accesses: usize,
    /// RNG seed; identical parameters and seed give identical traces.
    pub seed: u64,
    /// Input-set scale (Fig. 13): multiplies all pool sizes. 1.0 is the
    /// default input.
    pub input_scale: f64,
}

impl TraceParams {
    /// The volume used by the figure harnesses.
    pub fn standard() -> Self {
        TraceParams {
            total_accesses: 600_000,
            seed: 0x5ac_c0de,
            input_scale: 1.0,
        }
    }

    /// A small volume for unit tests and doc examples.
    pub fn quick() -> Self {
        TraceParams {
            total_accesses: 40_000,
            seed: 0x5ac_c0de,
            input_scale: 1.0,
        }
    }

    /// Scale the input set (Fig. 13 sweeps ×8 … ÷32).
    pub fn with_input_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.input_scale = scale;
        self
    }
}

impl Default for TraceParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// The access streams of one kernel invocation.
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// Per-cluster access streams, indexed by flat cluster id
    /// (`chip * clusters_per_chip + cluster`). The streams are shared
    /// (`Arc`) so loading a kernel into a simulator — or into several
    /// simulators sweeping organizations in parallel — never copies the
    /// access data.
    pub per_cluster: Vec<Arc<[MemAccess]>>,
    /// The behaviour this kernel was generated from (the simulator reads
    /// `compute_gap` from here).
    pub behavior: KernelBehavior,
}

impl KernelTrace {
    /// Total accesses in this kernel across all clusters.
    pub fn len(&self) -> usize {
        self.per_cluster.iter().map(|v| v.len()).sum()
    }

    /// Whether the kernel performs no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A complete generated workload: kernel sequence plus its address layout.
///
/// A workload also memoizes fast mode's locality profile
/// ([`Workload::kernel_profiles`]), so every organization swept over one
/// trace shares one profile pass. The memo is not invalidated: do not
/// edit `layout` or `kernels` after `kernel_profiles` has run (edit a
/// clone instead; a clone starts with an empty memo).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: String,
    /// The page-aligned pool layout the addresses were drawn from.
    pub layout: AddressLayout,
    /// Kernel invocations in execution order.
    pub kernels: Vec<KernelTrace>,
    /// The profile this workload was generated from.
    pub profile: BenchmarkProfile,
    locality: ProfileMemo,
}

impl Workload {
    /// A workload of `kernels` over `layout`, with an empty profile memo.
    pub fn new(
        name: String,
        layout: AddressLayout,
        kernels: Vec<KernelTrace>,
        profile: BenchmarkProfile,
    ) -> Self {
        Workload {
            name,
            layout,
            kernels,
            profile,
            locality: ProfileMemo::default(),
        }
    }

    /// Fast mode's per-kernel locality profile under `cfg`'s L1 geometry
    /// ([`profile_workload`]). The first call computes and memoizes it;
    /// later calls under an equal [`LocalityGeometry`] borrow the memo,
    /// whatever else of the machine differs (the organization, the LLC,
    /// the fabric). A call under another geometry computes that profile
    /// afresh and leaves the memo as it is. A call that finds the first
    /// fill under way under its geometry joins it: it claims the pass's
    /// unclaimed [`ProfileTasks`](crate::analysis::ProfileTasks) and waits
    /// only for tasks another call holds. The tasks' state is dropped once
    /// the profile is published.
    pub fn kernel_profiles(&self, cfg: &MachineConfig) -> Cow<'_, [KernelProfile]> {
        let geometry = LocalityGeometry::of(cfg);
        match self.locality.get_or_fill(&geometry, self) {
            Some(profiles) => Cow::Borrowed(profiles),
            None => Cow::Owned(profile_workload(&geometry, self)),
        }
    }

    /// Whether this workload holds the task state of a profile fill
    /// ([`Workload::kernel_profiles`]): from the first call until the
    /// profile is published, and after a fill whose every caller panicked
    /// (the next call resumes it).
    pub fn holds_profile_fill(&self) -> bool {
        self.locality.holds_fill()
    }

    /// Total accesses across all kernels.
    pub fn total_accesses(&self) -> usize {
        self.kernels.iter().map(|k| k.len()).sum()
    }

    /// Interleave all clusters' streams round-robin into one machine-order
    /// stream (approximates temporal order): kernel by kernel, one access
    /// per cluster per step. Used by the working-set analysis.
    pub fn merged_stream(&self) -> impl Iterator<Item = (usize, MemAccess)> + '_ {
        self.kernels.iter().flat_map(MergedKernel::new)
    }
}

/// Round-robin interleaver over one kernel's per-cluster streams, yielding
/// `(flat_cluster, access)` pairs.
struct MergedKernel<'a> {
    kernel: &'a KernelTrace,
    step: usize,
    cluster: usize,
    remaining: usize,
}

impl<'a> MergedKernel<'a> {
    fn new(kernel: &'a KernelTrace) -> Self {
        MergedKernel {
            kernel,
            step: 0,
            cluster: 0,
            remaining: kernel.len(),
        }
    }
}

impl Iterator for MergedKernel<'_> {
    type Item = (usize, MemAccess);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let c = self.cluster;
            let s = self.step;
            self.cluster += 1;
            if self.cluster == self.kernel.per_cluster.len() {
                self.cluster = 0;
                self.step += 1;
            }
            if let Some(&a) = self.kernel.per_cluster[c].get(s) {
                self.remaining -= 1;
                return Some((c, a));
            }
        }
    }
}

/// Streaming state over one pool with block-level reuse: visit a block of
/// [`STREAM_BLOCK`] lines `rounds` times, then advance to the next block.
#[derive(Debug, Clone)]
struct StreamState {
    pos: u64,
    offset: u64,
    round: u32,
    rounds: u32,
    span: u64,
}

/// Lines per stream block. Revisiting a block gives controllable L1 and LLC
/// temporal locality.
const STREAM_BLOCK: u64 = 128;

impl StreamState {
    fn new(start: u64, span: u64, rounds: u32) -> Self {
        StreamState {
            pos: start,
            offset: 0,
            round: 0,
            rounds: rounds.max(1),
            span: span.max(1),
        }
    }

    fn next_index(&mut self) -> u64 {
        let idx = self.pos + self.offset;
        self.offset += 1;
        if self.offset == STREAM_BLOCK {
            self.offset = 0;
            self.round += 1;
            if self.round == self.rounds {
                self.round = 0;
                self.pos = (self.pos + STREAM_BLOCK) % self.span;
            }
        }
        idx % self.span
    }
}

/// Generate the workload for `profile` on machine `cfg`.
///
/// Pool sizes come from Table 4, divided by the machine's capacity scale and
/// multiplied by `params.input_scale`; access behaviour comes from the
/// profile's [`KernelBehavior`]s. The generation is deterministic in
/// `params.seed`.
pub fn generate(cfg: &MachineConfig, profile: &BenchmarkProfile, params: &TraceParams) -> Workload {
    let cap_scale = cfg.scale.capacity as f64;
    let mb =
        |paper_mb: f64| ((paper_mb * params.input_scale / cap_scale) * (1u64 << 20) as f64) as u64;
    let layout = AddressLayout::new(
        cfg,
        mb(profile.non_shared_mb()),
        mb(profile.false_shared_mb),
        mb(profile.true_shared_mb),
    );

    let clusters = cfg.chips * cfg.clusters_per_chip;
    let sequences = profile.repeats as usize;
    let accesses_per_sequence = params.total_accesses / sequences;

    let mut kernels = Vec::with_capacity(profile.total_kernels());
    for rep in 0..sequences {
        for (ki, behavior) in profile.kernels.iter().enumerate() {
            let kernel_total = (accesses_per_sequence as f64 * behavior.weight) as usize;
            let per_cluster_n = (kernel_total / clusters).max(1);
            let mut per_cluster = Vec::with_capacity(clusters);
            for chip in 0..cfg.chips {
                for cl in 0..cfg.clusters_per_chip {
                    per_cluster.push(Arc::<[MemAccess]>::from(generate_cluster_stream(
                        cfg,
                        &layout,
                        behavior,
                        ChipId(chip as u8),
                        cl,
                        per_cluster_n,
                        params
                            .seed
                            .wrapping_add((rep * 31 + ki) as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((chip * cfg.clusters_per_chip + cl) as u64),
                    )));
                }
            }
            kernels.push(KernelTrace {
                per_cluster,
                behavior: *behavior,
            });
        }
    }

    Workload::new(profile.name.to_string(), layout, kernels, profile.clone())
}

fn generate_cluster_stream(
    cfg: &MachineConfig,
    layout: &AddressLayout,
    b: &KernelBehavior,
    chip: ChipId,
    cluster: usize,
    n: usize,
    seed: u64,
) -> Vec<MemAccess> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let clusters_per_chip = cfg.clusters_per_chip as u64;

    // Distributed CTA scheduling (§4): contiguous CTA ranges per chip, so a
    // chip's clusters jointly stream over the chip's non-shared and
    // false-shared pools in disjoint segments.
    let non_span = layout.non_lines_per_chip();
    let non_seg = (non_span / clusters_per_chip).max(STREAM_BLOCK);
    let mut non = StreamState::new(cluster as u64 * non_seg, non_span, b.block_rounds);

    // All clusters of a chip work on the same sliding window of the chip's
    // falsely-shared slots (inter-CTA shared structures): the first cluster
    // to touch a line misses, its siblings then hit the LLC — locally under
    // an SM-side organization, across the ring under a memory-side one,
    // which is exactly the Fig. 5b false-sharing asymmetry.
    let false_span = layout.false_slots_per_chip();
    let false_hot = ((false_span as f64 * b.true_hot_frac) as u64).clamp(1, false_span);

    // The truly-shared pool is divided into one segment per chip; the
    // segment's chip accesses it most (and first-touches it, becoming its
    // home), while other chips read it with probability `true_remote_frac`.
    // Within a segment, a hot window of `true_hot_frac` of the segment
    // slides once across it during the kernel; the window position is a
    // function of kernel progress, so clusters (bounded in drift by the CTA
    // wave scheduler) access the same window concurrently.
    let chips = cfg.chips as u64;
    let true_lines = layout.true_lines();
    let seg = (true_lines / chips).max(1);
    let hot = ((seg as f64 * b.true_hot_frac) as u64).clamp(1, seg);

    let mut out = Vec::with_capacity(n);
    for step in 0..n {
        let r: f64 = rng.gen();
        let addr = if r < b.f_true && true_lines > 0 {
            let owner = if chips > 1 && rng.gen::<f64>() < b.true_remote_frac {
                let mut o = rng.gen_range(0..chips - 1);
                if o >= chip.index() as u64 {
                    o += 1;
                }
                o
            } else {
                chip.index() as u64
            };
            let progress = step as f64 / n as f64;
            let wstart = (progress * seg as f64) as u64;
            let idx = owner * seg + (wstart + rng.gen_range(0..hot)) % seg;
            layout.true_shared_addr(idx)
        } else if r < b.f_true + b.f_false {
            let progress = step as f64 / n as f64;
            let start = (progress * false_span as f64) as u64;
            let idx = (start + rng.gen_range(0..false_hot)) % false_span;
            layout.false_shared_addr(chip, idx)
        } else {
            layout.non_shared_addr(chip, non.next_index())
        };
        let kind = if rng.gen::<f64>() < b.write_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        out.push(MemAccess { addr, kind });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use mcgpu_types::LineAddr;

    fn cfg() -> MachineConfig {
        MachineConfig::experiment_baseline()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = profiles::by_name("RN").unwrap();
        let a = generate(&cfg(), &p, &TraceParams::quick());
        let b = generate(&cfg(), &p, &TraceParams::quick());
        assert_eq!(a.total_accesses(), b.total_accesses());
        assert_eq!(a.kernels[0].per_cluster[3], b.kernels[0].per_cluster[3]);
    }

    #[test]
    fn different_seeds_differ() {
        let p = profiles::by_name("RN").unwrap();
        let a = generate(&cfg(), &p, &TraceParams::quick());
        let mut params = TraceParams::quick();
        params.seed ^= 0xdead_beef;
        let b = generate(&cfg(), &p, &params);
        assert_ne!(a.kernels[0].per_cluster[0], b.kernels[0].per_cluster[0]);
    }

    #[test]
    fn volume_is_close_to_requested() {
        let p = profiles::by_name("CFD").unwrap();
        let params = TraceParams::quick();
        let wl = generate(&cfg(), &p, &params);
        let total = wl.total_accesses();
        assert!(
            total as f64 > params.total_accesses as f64 * 0.7
                && total as f64 <= params.total_accesses as f64 * 1.3,
            "total {total}"
        );
        assert_eq!(wl.kernels.len(), p.total_kernels());
    }

    #[test]
    fn bs_never_touches_true_pool() {
        let c = cfg();
        let p = profiles::by_name("BS").unwrap();
        let wl = generate(&c, &p, &TraceParams::quick());
        for k in &wl.kernels {
            for cl in &k.per_cluster {
                for a in cl.iter() {
                    let class = wl.layout.classify(a.addr.line(c.line_size));
                    assert_ne!(class, crate::SharingClass::TrueShared);
                }
            }
        }
    }

    #[test]
    fn non_shared_streams_stay_on_own_chip() {
        let c = cfg();
        let p = profiles::by_name("BP").unwrap(); // f_false == 0
        let wl = generate(&c, &p, &TraceParams::quick());
        // Collect the non-shared lines touched by each chip; they must be
        // disjoint across chips.
        let mut per_chip: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        for k in &wl.kernels {
            for (flat, cl) in k.per_cluster.iter().enumerate() {
                let chip = flat / c.clusters_per_chip;
                for a in cl.iter() {
                    let line = a.addr.line(c.line_size);
                    if wl.layout.classify(line) == crate::SharingClass::NonShared {
                        per_chip[chip].insert(line.index());
                    }
                }
            }
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(per_chip[i].is_disjoint(&per_chip[j]), "chips {i} and {j}");
            }
        }
    }

    #[test]
    fn true_pool_is_shared_by_all_chips() {
        let c = cfg();
        let p = profiles::by_name("SRAD").unwrap(); // f_true = 0.5, hot = 1.0
                                                    // Enough volume that each truly-shared line is touched several
                                                    // times (the pool has ~15k lines).
        let params = TraceParams {
            total_accesses: 250_000,
            ..TraceParams::quick()
        };
        let wl = generate(&c, &p, &params);
        let mut sharers: std::collections::HashMap<u64, u8> = Default::default();
        for k in &wl.kernels {
            for (flat, cl) in k.per_cluster.iter().enumerate() {
                let chip = (flat / c.clusters_per_chip) as u8;
                for a in cl.iter() {
                    let line = a.addr.line(c.line_size);
                    if wl.layout.classify(line) == crate::SharingClass::TrueShared {
                        *sharers.entry(line.index()).or_default() |= 1 << chip;
                    }
                }
            }
        }
        let multi = sharers.values().filter(|&&m| m.count_ones() >= 2).count();
        assert!(
            multi as f64 > sharers.len() as f64 * 0.5,
            "most truly-shared lines are touched by several chips ({multi}/{})",
            sharers.len()
        );
    }

    #[test]
    fn input_scale_grows_footprint() {
        let c = cfg();
        let p = profiles::by_name("RN").unwrap();
        let small = generate(&c, &p, &TraceParams::quick().with_input_scale(0.25));
        let big = generate(&c, &p, &TraceParams::quick().with_input_scale(4.0));
        assert!(big.layout.true_bytes() > 8 * small.layout.true_bytes());
    }

    #[test]
    fn merged_stream_covers_everything() {
        let p = profiles::by_name("SN").unwrap();
        let wl = generate(&cfg(), &p, &TraceParams::quick());
        assert_eq!(wl.merged_stream().count(), wl.total_accesses());
    }

    #[test]
    fn writes_roughly_match_fraction() {
        let c = cfg();
        let p = profiles::by_name("SRAD").unwrap();
        let wl = generate(&c, &p, &TraceParams::quick());
        let (mut w, mut t) = (0usize, 0usize);
        for (_, a) in wl.merged_stream() {
            t += 1;
            if a.kind.is_write() {
                w += 1;
            }
        }
        let expected = p.kernels[0].write_frac;
        let frac = w as f64 / t as f64;
        assert!(
            (frac - expected).abs() < 0.05,
            "write frac {frac} vs {expected}"
        );
        let _ = LineAddr(0); // silence unused import in some cfgs
    }
}
