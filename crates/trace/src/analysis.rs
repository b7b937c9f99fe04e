//! Trace analyses regenerating Table 4 and Fig. 11.

use crate::generate::Workload;
use crate::layout::SharingClass;
use mcgpu_types::{LineMap, LineSet, MachineConfig};

/// Sharing-classified working-set sizes in MB (at machine scale).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SharingBreakdown {
    /// Distinct truly-shared megabytes.
    pub true_mb: f64,
    /// Distinct falsely-shared megabytes.
    pub false_mb: f64,
    /// Distinct non-shared megabytes.
    pub non_mb: f64,
}

impl SharingBreakdown {
    /// Total megabytes across all classes.
    pub fn total_mb(&self) -> f64 {
        self.true_mb + self.false_mb + self.non_mb
    }

    /// Scale to paper-equivalent megabytes (undo the machine's capacity
    /// scaling) for side-by-side comparison with the published figures.
    pub fn to_paper_scale(&self, cfg: &MachineConfig) -> SharingBreakdown {
        let s = cfg.scale.capacity as f64;
        SharingBreakdown {
            true_mb: self.true_mb * s,
            false_mb: self.false_mb * s,
            non_mb: self.non_mb * s,
        }
    }
}

/// A regenerated row of Table 4, measured from the trace itself (not from
/// the layout): a line is truly shared iff ≥ 2 chips accessed it, falsely
/// shared iff one chip accessed it but its page was accessed by ≥ 2 chips.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: String,
    /// CTA count (from the profile; CTAs are a scheduling concept the
    /// generator folds into per-chip stream segments).
    pub ctas: u32,
    /// Measured footprint in paper-equivalent MB.
    pub footprint_mb: f64,
    /// Measured truly-shared MB (paper equivalent).
    pub true_shared_mb: f64,
    /// Measured falsely-shared MB (paper equivalent).
    pub false_shared_mb: f64,
}

/// Measure the sharing character of a workload from its accesses (Table 4).
/// Sharers are tracked as one bit per chip, which covers the 64 chips
/// [`MachineConfig::validate`] allows.
pub fn characterize(cfg: &MachineConfig, wl: &Workload) -> Table4Row {
    let lines_per_page = cfg.page_size / cfg.line_size;
    let mut line_sharers: LineMap<u64> = LineMap::default();
    let mut page_sharers: LineMap<u64> = LineMap::default();
    let clusters_per_chip = cfg.clusters_per_chip;
    for k in &wl.kernels {
        for (flat, stream) in k.per_cluster.iter().enumerate() {
            let chip = 1u64 << (flat / clusters_per_chip);
            for a in stream.iter() {
                let line = a.addr.line(cfg.line_size).index();
                *line_sharers.entry(line).or_default() |= chip;
                *page_sharers.entry(line / lines_per_page).or_default() |= chip;
            }
        }
    }
    let mut true_lines = 0u64;
    let mut false_lines = 0u64;
    for (&line, &mask) in &line_sharers {
        if mask.count_ones() >= 2 {
            true_lines += 1;
        } else if page_sharers[&(line / lines_per_page)].count_ones() >= 2 {
            false_lines += 1;
        }
    }
    let scale = cfg.scale.capacity as f64;
    let mb = |lines: u64| lines as f64 * cfg.line_size as f64 * scale / (1u64 << 20) as f64;
    Table4Row {
        name: wl.name.clone(),
        ctas: wl.profile.ctas,
        footprint_mb: page_sharers.len() as f64 * cfg.page_size as f64 * scale
            / (1u64 << 20) as f64,
        true_shared_mb: mb(true_lines),
        false_shared_mb: mb(false_lines),
    }
}

/// Fig. 11: for each window length (in accesses), the mean per-window
/// working set, broken down by sharing class.
///
/// The paper's x-axis is cycles; the harness converts using the measured
/// issue rate (accesses/cycle) of the simulated run.
pub fn working_set_curve(
    cfg: &MachineConfig,
    wl: &Workload,
    windows: &[usize],
) -> Vec<(usize, SharingBreakdown)> {
    let stream: Vec<u64> = wl
        .merged_stream()
        .map(|(_, a)| a.addr.line(cfg.line_size).index())
        .collect();
    let line_mb = cfg.line_size as f64 / (1u64 << 20) as f64;
    let mut seen = LineSet::default();

    windows
        .iter()
        .map(|&w| {
            let w = w.max(1);
            let mut sums = SharingBreakdown::default();
            let mut num_windows = 0usize;
            for chunk in stream.chunks(w) {
                seen.clear();
                let mut counts = [0u64; 3];
                for &line in chunk {
                    if seen.insert(line) {
                        let class = wl.layout.classify(mcgpu_types::LineAddr(line));
                        let idx = match class {
                            SharingClass::TrueShared => 0,
                            SharingClass::FalseShared => 1,
                            SharingClass::NonShared => 2,
                        };
                        counts[idx] += 1;
                    }
                }
                sums.true_mb += counts[0] as f64 * line_mb;
                sums.false_mb += counts[1] as f64 * line_mb;
                sums.non_mb += counts[2] as f64 * line_mb;
                num_windows += 1;
            }
            if num_windows > 0 {
                sums.true_mb /= num_windows as f64;
                sums.false_mb /= num_windows as f64;
                sums.non_mb /= num_windows as f64;
            }
            (w, sums)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, TraceParams};
    use crate::profiles;
    use std::collections::{BTreeSet, HashMap};

    fn cfg() -> MachineConfig {
        MachineConfig::experiment_baseline()
    }

    #[test]
    fn characterize_matches_table4_shape() {
        let c = cfg();
        let params = TraceParams {
            total_accesses: 150_000,
            ..TraceParams::quick()
        };
        // SRAD: large truly-shared pool streamed in full.
        let srad = characterize(
            &c,
            &generate(&c, &profiles::by_name("SRAD").unwrap(), &params),
        );
        // BS: no truly-shared data at all.
        let bs = characterize(
            &c,
            &generate(&c, &profiles::by_name("BS").unwrap(), &params),
        );
        assert!(
            srad.true_shared_mb > 10.0,
            "SRAD true-shared {:.1} MB",
            srad.true_shared_mb
        );
        assert!(
            bs.true_shared_mb < 2.0,
            "BS true-shared {}",
            bs.true_shared_mb
        );
        assert!(
            bs.false_shared_mb > 5.0,
            "BS false-shared {}",
            bs.false_shared_mb
        );
    }

    #[test]
    fn characterize_counts_sharers_beyond_eight_chips() {
        let mut c = cfg();
        c.chips = 16;
        let params = TraceParams {
            total_accesses: 40_000,
            ..TraceParams::quick()
        };
        let wl = generate(&c, &profiles::by_name("SRAD").unwrap(), &params);
        // Recount with explicit sets of chips.
        let lines_per_page = c.page_size / c.line_size;
        let mut line_chips: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        let mut page_chips: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        for k in &wl.kernels {
            for (flat, stream) in k.per_cluster.iter().enumerate() {
                let chip = flat / c.clusters_per_chip;
                for a in stream.iter() {
                    let line = a.addr.line(c.line_size).index();
                    line_chips.entry(line).or_default().insert(chip);
                    page_chips
                        .entry(line / lines_per_page)
                        .or_default()
                        .insert(chip);
                }
            }
        }
        assert!(line_chips
            .values()
            .any(|chips| chips.len() >= 2 && chips.iter().any(|&chip| chip >= 8)));
        let true_lines = line_chips.values().filter(|chips| chips.len() >= 2).count();
        let false_lines = line_chips
            .iter()
            .filter(|(line, chips)| {
                chips.len() < 2 && page_chips[&(*line / lines_per_page)].len() >= 2
            })
            .count();
        let mb = |lines: usize| {
            lines as f64 * c.line_size as f64 * c.scale.capacity as f64 / (1u64 << 20) as f64
        };
        let row = characterize(&c, &wl);
        assert_eq!(row.true_shared_mb, mb(true_lines));
        assert_eq!(row.false_shared_mb, mb(false_lines));
    }

    #[test]
    fn working_set_grows_with_window() {
        let c = cfg();
        let wl = generate(
            &c,
            &profiles::by_name("CFD").unwrap(),
            &TraceParams::quick(),
        );
        let curve = working_set_curve(&c, &wl, &[500, 5_000, 20_000]);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].1.total_mb() < curve[1].1.total_mb());
        assert!(curve[1].1.total_mb() <= curve[2].1.total_mb() + 1e-9);
    }

    #[test]
    fn sp_has_smaller_true_window_than_mp() {
        let c = cfg();
        let params = TraceParams {
            total_accesses: 120_000,
            ..TraceParams::quick()
        };
        let rn = generate(&c, &profiles::by_name("RN").unwrap(), &params);
        let srad = generate(&c, &profiles::by_name("SRAD").unwrap(), &params);
        let w = 10_000;
        let rn_ws = &working_set_curve(&c, &rn, &[w])[0].1;
        let srad_ws = &working_set_curve(&c, &srad, &[w])[0].1;
        assert!(
            srad_ws.true_mb > 2.0 * rn_ws.true_mb,
            "SRAD window true WS {:.3} MB vs RN {:.3} MB",
            srad_ws.true_mb,
            rn_ws.true_mb
        );
    }

    #[test]
    fn paper_scale_multiplies_by_capacity() {
        let c = cfg();
        let b = SharingBreakdown {
            true_mb: 1.0,
            false_mb: 2.0,
            non_mb: 3.0,
        };
        let p = b.to_paper_scale(&c);
        assert_eq!(p.true_mb, c.scale.capacity as f64);
        assert_eq!(p.total_mb(), 6.0 * c.scale.capacity as f64);
    }
}
