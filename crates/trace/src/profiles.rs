//! The 16 benchmark profiles of Table 4.
//!
//! Each profile records the *measured* characteristics the paper publishes
//! (suite, CTA count, footprint, truly- and falsely-shared megabytes) plus
//! the behavioural knobs our generator needs to reproduce the benchmark's
//! sharing dynamics: what fraction of accesses hit each pool, how large the
//! *active* truly-shared window is (Fig. 11's per-window working sets), L1
//! locality, write fraction, compute intensity, and the kernel sequence
//! (BFS alternates a memory-side-preferred and an SM-side-preferred kernel,
//! Fig. 12).

/// Which LLC organization the benchmark prefers in the paper (Table 4 split:
/// top half SM-side, bottom half memory-side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preference {
    /// SM-side preferred ("SP" in Fig. 1).
    SmSide,
    /// Memory-side preferred ("MP" in Fig. 1).
    MemorySide,
}

impl Preference {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Preference::SmSide => "SP",
            Preference::MemorySide => "MP",
        }
    }
}

/// Behaviour of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelBehavior {
    /// Share of the workload's total accesses executed by this kernel.
    pub weight: f64,
    /// Fraction of accesses to the truly-shared pool.
    pub f_true: f64,
    /// Fraction of accesses to the falsely-shared pool (the rest go to the
    /// chip's non-shared stream).
    pub f_false: f64,
    /// Fraction of truly-shared accesses that target *another chip's*
    /// segment of the pool. The truly-shared pool is divided into per-chip
    /// segments (the segment's chip first-touches it, becoming its home);
    /// every segment is also read by other chips, which is what makes the
    /// lines truly shared. SP benchmarks share intensively (high values);
    /// MP benchmarks mostly work on their own halo region (low values), so
    /// their request mix stays local-dominated as in the paper's Fig. 10.
    pub true_remote_frac: f64,
    /// Fraction of a truly-shared segment that is *hot* at any instant. The
    /// hot window slides over the segment during the kernel, so small
    /// values give a small per-time-window truly-shared working set (SP
    /// benchmarks); 1.0 means the whole segment is accessed uniformly (MP
    /// streaming).
    pub true_hot_frac: f64,
    /// Times a stream block is revisited before advancing (L1 locality).
    pub block_rounds: u32,
    /// Fraction of accesses that are writes.
    pub write_frac: f64,
    /// Compute cycles between successive memory instructions per cluster.
    pub compute_gap: u32,
}

impl KernelBehavior {
    /// Fraction of accesses to the non-shared stream.
    pub fn f_non(&self) -> f64 {
        (1.0 - self.f_true - self.f_false).max(0.0)
    }
}

/// A Table 4 benchmark with its generator parameterization.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name as in Table 4.
    pub name: &'static str,
    /// Originating suite.
    pub suite: &'static str,
    /// Number of CTAs (Table 4).
    pub ctas: u32,
    /// Total footprint in MB at paper scale (Table 4).
    pub footprint_mb: f64,
    /// Truly-shared data in MB at paper scale (Table 4).
    pub true_shared_mb: f64,
    /// Falsely-shared data in MB at paper scale (Table 4).
    pub false_shared_mb: f64,
    /// Published preference (top/bottom half of Table 4).
    pub preference: Preference,
    /// Kernel sequence, replayed `repeats` times.
    pub kernels: Vec<KernelBehavior>,
    /// How many times the kernel sequence runs.
    pub repeats: u32,
}

impl BenchmarkProfile {
    /// Non-shared MB at paper scale (footprint minus shared pools).
    pub fn non_shared_mb(&self) -> f64 {
        (self.footprint_mb - self.true_shared_mb - self.false_shared_mb).max(0.0)
    }

    /// Total kernel invocations (`kernels.len() * repeats`).
    pub fn total_kernels(&self) -> usize {
        self.kernels.len() * self.repeats as usize
    }
}

#[allow(clippy::too_many_arguments)]
fn k(
    weight: f64,
    f_true: f64,
    f_false: f64,
    true_remote_frac: f64,
    true_hot_frac: f64,
    block_rounds: u32,
    write_frac: f64,
    compute_gap: u32,
) -> KernelBehavior {
    KernelBehavior {
        weight,
        f_true,
        f_false,
        true_remote_frac,
        true_hot_frac,
        block_rounds,
        write_frac,
        compute_gap,
    }
}

/// All 16 profiles in Table 4 order (SM-side preferred first).
pub fn all_profiles() -> Vec<BenchmarkProfile> {
    vec![
        // ---------------- SM-side preferred (top half) ----------------
        BenchmarkProfile {
            name: "RN",
            suite: "Tango",
            ctas: 512,
            footprint_mb: 21.0,
            true_shared_mb: 11.0,
            false_shared_mb: 4.0,
            preference: Preference::SmSide,
            kernels: vec![k(1.0, 0.45, 0.25, 0.70, 0.25, 3, 0.10, 0)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "AN",
            suite: "Tango",
            ctas: 1024,
            footprint_mb: 20.0,
            true_shared_mb: 9.0,
            false_shared_mb: 3.0,
            preference: Preference::SmSide,
            kernels: vec![k(1.0, 0.40, 0.25, 0.70, 0.25, 3, 0.10, 0)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "SN",
            suite: "Tango",
            ctas: 512,
            footprint_mb: 18.0,
            true_shared_mb: 2.0,
            false_shared_mb: 13.0,
            preference: Preference::SmSide,
            kernels: vec![k(1.0, 0.15, 0.55, 0.70, 0.30, 3, 0.15, 0)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "CFD",
            suite: "Rodinia",
            ctas: 4031,
            footprint_mb: 97.0,
            true_shared_mb: 9.0,
            false_shared_mb: 33.0,
            preference: Preference::SmSide,
            kernels: vec![k(1.0, 0.30, 0.40, 0.70, 0.25, 3, 0.15, 0)],
            repeats: 3,
        },
        BenchmarkProfile {
            name: "BFS",
            suite: "Rodinia",
            ctas: 1954,
            footprint_mb: 37.0,
            true_shared_mb: 10.0,
            false_shared_mb: 14.0,
            preference: Preference::SmSide,
            // K1 streams the whole truly-shared frontier (memory-side
            // preferred); K2 works on a small hot frontier with heavy false
            // sharing (SM-side preferred). Fig. 12.
            kernels: vec![
                k(0.45, 0.45, 0.04, 0.25, 1.0, 3, 0.40, 0),
                k(0.55, 0.30, 0.45, 0.70, 0.22, 3, 0.15, 0),
            ],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "3DC",
            suite: "Polybench",
            ctas: 2048,
            footprint_mb: 98.0,
            true_shared_mb: 17.0,
            false_shared_mb: 38.0,
            preference: Preference::SmSide,
            // Atypical (§5.3): small gap between the organizations.
            kernels: vec![k(1.0, 0.20, 0.30, 0.50, 0.35, 2, 0.20, 1)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "BS",
            suite: "Nvidia SDK",
            ctas: 480,
            footprint_mb: 76.0,
            true_shared_mb: 0.0,
            false_shared_mb: 56.0,
            preference: Preference::SmSide,
            // Pure false sharing, no truly-shared data; atypical (§5.3).
            kernels: vec![k(1.0, 0.0, 0.55, 0.0, 0.1, 2, 0.25, 1)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "BT",
            suite: "Rodinia",
            ctas: 48096,
            footprint_mb: 31.0,
            true_shared_mb: 4.0,
            false_shared_mb: 19.0,
            preference: Preference::SmSide,
            kernels: vec![k(1.0, 0.20, 0.45, 0.70, 0.25, 3, 0.20, 0)],
            repeats: 3,
        },
        // --------------- memory-side preferred (bottom half) -----------
        BenchmarkProfile {
            name: "SRAD",
            suite: "Rodinia",
            ctas: 65536,
            footprint_mb: 753.0,
            true_shared_mb: 30.0,
            false_shared_mb: 3.0,
            preference: Preference::MemorySide,
            kernels: vec![k(1.0, 0.45, 0.04, 0.25, 1.0, 3, 0.40, 0)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "GEMM",
            suite: "Polybench",
            ctas: 2048,
            footprint_mb: 174.0,
            true_shared_mb: 14.0,
            false_shared_mb: 21.0,
            preference: Preference::MemorySide,
            kernels: vec![k(1.0, 0.45, 0.05, 0.25, 1.0, 3, 0.32, 0)],
            repeats: 1,
        },
        BenchmarkProfile {
            name: "LUD",
            suite: "Rodinia",
            ctas: 131068,
            footprint_mb: 317.0,
            true_shared_mb: 38.0,
            false_shared_mb: 51.0,
            preference: Preference::MemorySide,
            kernels: vec![k(1.0, 0.45, 0.06, 0.25, 1.0, 3, 0.35, 0)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "STEN",
            suite: "Parboil",
            ctas: 1024,
            footprint_mb: 205.0,
            true_shared_mb: 18.0,
            false_shared_mb: 17.0,
            preference: Preference::MemorySide,
            kernels: vec![k(1.0, 0.45, 0.05, 0.25, 1.0, 3, 0.35, 0)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "3MM",
            suite: "Polybench",
            ctas: 4096,
            footprint_mb: 109.0,
            true_shared_mb: 12.0,
            false_shared_mb: 7.0,
            preference: Preference::MemorySide,
            kernels: vec![k(1.0, 0.45, 0.04, 0.25, 1.0, 3, 0.32, 0)],
            repeats: 1,
        },
        BenchmarkProfile {
            name: "BP",
            suite: "Rodinia",
            ctas: 65536,
            footprint_mb: 76.0,
            true_shared_mb: 4.0,
            false_shared_mb: 0.0,
            preference: Preference::MemorySide,
            // Atypical (§5.3): almost no sharing at all.
            kernels: vec![k(1.0, 0.15, 0.0, 0.25, 0.8, 2, 0.20, 1)],
            repeats: 2,
        },
        BenchmarkProfile {
            name: "DWT",
            suite: "Rodinia",
            ctas: 91373,
            footprint_mb: 207.0,
            true_shared_mb: 3.0,
            false_shared_mb: 10.0,
            preference: Preference::MemorySide,
            // Atypical (§5.3): tiny shared pools, streaming non-shared.
            kernels: vec![k(1.0, 0.10, 0.10, 0.25, 0.8, 2, 0.25, 1)],
            repeats: 3,
        },
        BenchmarkProfile {
            name: "NN",
            suite: "Tango",
            ctas: 60000,
            footprint_mb: 1388.0,
            true_shared_mb: 154.0,
            false_shared_mb: 0.0,
            preference: Preference::MemorySide,
            kernels: vec![k(1.0, 0.45, 0.0, 0.20, 1.0, 3, 0.28, 0)],
            repeats: 1,
        },
    ]
}

/// Look up a profile by its Table 4 name (case-sensitive).
pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
    all_profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_benchmarks_split_evenly() {
        let all = all_profiles();
        assert_eq!(all.len(), 16);
        for pref in [Preference::SmSide, Preference::MemorySide] {
            let count = all.iter().filter(|p| p.preference == pref).count();
            assert_eq!(count, 8, "{pref:?}");
        }
    }

    #[test]
    fn table4_data_matches_paper() {
        let nn = by_name("NN").unwrap();
        assert_eq!(nn.ctas, 60000);
        assert_eq!(nn.footprint_mb, 1388.0);
        assert_eq!(nn.true_shared_mb, 154.0);
        let bs = by_name("BS").unwrap();
        assert_eq!(bs.true_shared_mb, 0.0);
        assert_eq!(bs.false_shared_mb, 56.0);
        assert!(by_name("NOPE").is_none());
    }

    #[test]
    fn kernel_fractions_are_sane() {
        for p in all_profiles() {
            let total_weight: f64 = p.kernels.iter().map(|b| b.weight).sum();
            assert!((total_weight - 1.0).abs() < 1e-9, "{}", p.name);
            for b in &p.kernels {
                assert!(b.f_true + b.f_false <= 1.0 + 1e-9, "{}", p.name);
                assert!(b.f_non() >= -1e-9);
                assert!((0.0..=1.0).contains(&b.write_frac));
                assert!(b.true_hot_frac > 0.0 && b.true_hot_frac <= 1.0);
                assert!(b.block_rounds >= 1);
            }
            assert!(p.non_shared_mb() >= 0.0, "{}", p.name);
            assert!(p.total_kernels() >= 1);
        }
    }

    #[test]
    fn bfs_alternates_two_kernels() {
        let bfs = by_name("BFS").unwrap();
        assert_eq!(bfs.kernels.len(), 2);
        assert_eq!(bfs.total_kernels(), 4);
        // K1 streams (hot = 1.0), K2 has a small hot window.
        assert!(bfs.kernels[0].true_hot_frac > bfs.kernels[1].true_hot_frac);
    }
}
