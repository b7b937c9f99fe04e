//! Regenerates Table 3: the simulated baseline configuration, at paper
//! scale and at the experiment scale used by the figure harnesses.
//!
//! The table is closed-form text rendered in microseconds, so it is
//! printed directly; the sweep flags (`--journal`, `--resume`, `--jobs`)
//! are ignored.

use mcgpu_types::MachineConfig;
use std::fmt::Write as _;

fn render_cfg(label: &str, c: &MachineConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {label} ==");
    let _ = writeln!(out, "  chips                  : {}", c.chips);
    let _ = writeln!(
        out,
        "  SMs                    : {} per chip, {} total",
        c.clusters_per_chip * 2,
        c.chips * c.clusters_per_chip * 2
    );
    let _ = writeln!(
        out,
        "  SM clusters            : {} per chip",
        c.clusters_per_chip
    );
    let _ = writeln!(
        out,
        "  GPU frequency          : 1 GHz (1 GB/s == 1 B/cycle)"
    );
    let _ = writeln!(
        out,
        "  inter-chip bandwidth   : {:.0} GB/s per chip pair per direction ({} links/pair)",
        c.interchip_pair_gbs, c.links_per_pair
    );
    let _ = writeln!(
        out,
        "  LLC bandwidth          : {} slices x {:.0} GB/s = {:.0} GB/s total",
        c.total_slices(),
        c.llc_slice_gbs,
        c.llc_slice_gbs * c.total_slices() as f64
    );
    let _ = writeln!(
        out,
        "  DRAM bandwidth         : {} channels, {:.2} TB/s total ({})",
        c.chips * c.channels_per_chip,
        c.total_dram_gbs() / 1000.0,
        c.memory_interface.label()
    );
    let _ = writeln!(
        out,
        "  L1 data cache          : {} KiB per cluster, {}-way",
        c.l1_bytes_per_cluster >> 10,
        c.l1_assoc
    );
    let _ = writeln!(
        out,
        "  LLC capacity           : {} B lines, {} KiB per chip, {} KiB total, {}-way",
        c.line_size,
        c.llc_bytes_per_chip >> 10,
        c.total_llc_bytes() >> 10,
        c.llc_assoc
    );
    let _ = writeln!(
        out,
        "  page size / allocation : {} B, first-touch",
        c.page_size
    );
    let _ = writeln!(
        out,
        "  CTA allocation         : distributed CTA scheduling (bounded wave)"
    );
    let _ = writeln!(out, "  coherence              : {:?}", c.coherence);
    let _ = writeln!(out, "  MSHRs per cluster      : {}", c.mshrs_per_cluster);
    let _ = writeln!(
        out,
        "  scale                  : topology /{}, capacity /{}",
        c.scale.topology, c.scale.capacity
    );
    let _ = writeln!(out);
    out
}

fn main() {
    print!(
        "{}",
        render_cfg("Table 3 (paper baseline)", &MachineConfig::paper_baseline())
    );
    print!(
        "{}",
        render_cfg(
            "Experiment baseline (scaled; all ratios preserved)",
            &sac_bench::experiment_config(),
        )
    );
}
