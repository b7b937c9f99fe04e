//! Regenerates the §3.6 overhead analysis: SAC's per-chip storage (620 B
//! conventional / 812 B sectored), how the CRD's presence vector scales
//! with the chip count (the scale-out axis), and the NoC area/power
//! comparison (SM-side two-NoC vs memory-side vs SAC bypassing).
//!
//! The report is closed-form text rendered in microseconds, so it is
//! printed directly. It takes no flags; any flag exits 2.

use mcgpu_noc::NocPhysical;
use mcgpu_types::MachineConfig;
use sac::overhead::HardwareOverhead;
use sac::Crd;
use std::fmt::Write as _;

fn render_storage() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== SAC per-chip storage (Table 3 baseline, 16 slices/chip) =="
    );
    for (label, o) in [
        ("conventional", HardwareOverhead::paper_conventional()),
        ("sectored", HardwareOverhead::paper_sectored()),
    ] {
        let _ = writeln!(
            out,
            "{label:13}: CRD {} B + LSU counters {} B + scalar counters {} B = {} B  (paper: {})",
            o.crd_bytes(),
            o.lsu_counter_bytes(),
            o.scalar_counter_bytes(),
            o.total_bytes(),
            if o.crd_bytes() == 544 {
                "620 B"
            } else {
                "812 B"
            }
        );
    }
    out
}

fn render_crd_scaling() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== CRD storage vs chip count (presence bits = chips x sectors) =="
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>14} {:>10}",
        "chips", "conventional", "sectored"
    );
    for chips in [4usize, 8, 16] {
        let conv = Crd::for_chips(chips, 128, false).storage_bytes();
        let sect = Crd::for_chips(chips, 128, true).storage_bytes();
        let _ = writeln!(out, "{chips:>6} | {conv:>12} B {sect:>8} B");
    }
    let _ = writeln!(
        out,
        "(per chip; the sharer vector widens with the machine, 4x under sectoring)"
    );
    out
}

fn render_noc() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== NoC physical model (DSENT-lite, calibrated to the paper's deltas) =="
    );
    let m = NocPhysical::new(&MachineConfig::paper_baseline());
    let mem = m.memory_side();
    let (a_sm, p_sm) = m.sm_side().relative_to(&mem);
    let (a_sac, p_sac) = m.sac().relative_to(&mem);
    let _ = writeln!(
        out,
        "SM-side two-NoC vs memory-side : area {:+.0}%  power {:+.0}%   (paper: +18% / +21%)",
        (a_sm - 1.0) * 100.0,
        (p_sm - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "SAC bypassing vs memory-side   : area {:+.1}%  power {:+.1}%   (paper: +1.9% / +1.6%)",
        (a_sac - 1.0) * 100.0,
        (p_sac - 1.0) * 100.0
    );
    let (p_save, a_save) = m.sac_savings_vs_sm_side();
    let _ = writeln!(
        out,
        "SAC savings vs SM-side         : power -{:.0}%  area -{:.0}%   (paper: -21% / -18%)",
        p_save * 100.0,
        a_save * 100.0
    );
    out
}

fn main() {
    sac_bench::reject_unknown_flags(&[]);
    print!(
        "{}{}{}",
        render_storage(),
        render_crd_scaling(),
        render_noc()
    );
}
