//! Scheduled hardware-fault application and the degraded-bandwidth refresh
//! that keeps SAC's EAB model honest about the surviving machine.

use super::Simulator;
use mcgpu_types::{ChipId, FaultKind};
use sac::eab::ArchBandwidth;

impl Simulator {
    /// Apply every fault event whose cycle has been reached.
    pub(super) fn apply_due_faults(&mut self, now: u64) {
        let mut any = false;
        while let Some(e) = self.fault_plan.pop_due(now) {
            self.apply_fault(e.kind);
            any = true;
        }
        if any {
            self.refresh_sac_arch();
        }
    }

    /// Index of the physical link pair joining fabric-adjacent `a` and `b`
    /// in [`Simulator::link_factor`] (the topology's canonical link list).
    fn pair_index(&self, a: ChipId, b: ChipId) -> usize {
        self.cfg
            .link_index(a, b)
            .expect("fault plans are validated against the topology")
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDegrade { a, b, factor } => {
                self.fabric.degrade_link(a, b, factor);
                let p = self.pair_index(a, b);
                self.link_factor[p] = factor;
            }
            FaultKind::LinkFail { a, b } => {
                self.fabric.fail_link(a, b);
                let p = self.pair_index(a, b);
                self.link_factor[p] = 0.0;
            }
            FaultKind::DramThrottle { chip, factor } => {
                self.chips[chip.index()].memory.throttle(factor);
                self.dram_factor[chip.index()] = factor;
            }
            FaultKind::DramFail { chip, channel } => {
                self.chips[chip.index()].memory.fail_channel(channel);
            }
            FaultKind::LlcSliceDisable { chip, slice } => {
                self.disable_slice(chip.index(), slice);
            }
        }
    }

    /// Fuse off one LLC slice: write its dirty lines back home, invalidate
    /// everything, and stop it from caching. The slice's service pipe and
    /// MSHRs keep working so queued requests and outstanding fetches drain
    /// normally — they simply miss from now on.
    fn disable_slice(&mut self, c: usize, s: usize) {
        let dirty = self.chips[c].slices[s].cache.flush_all();
        for line in dirty {
            self.writeback_to_home(c, line);
        }
        self.chips[c].slices[s].disabled = true;
    }

    /// Re-derive the effective architectural bandwidths from the surviving
    /// hardware and hand them to the SAC controller, so its EAB decisions
    /// reason about the machine as it now is. A no-op for organizations
    /// other than SAC.
    fn refresh_sac_arch(&mut self) {
        let base = ArchBandwidth::from_config(&self.cfg);
        let n = self.cfg.chips as f64;
        let link_mean = self.link_factor.iter().sum::<f64>() / self.link_factor.len().max(1) as f64;
        let mem_mean = self
            .chips
            .iter()
            .zip(&self.dram_factor)
            .map(|(chip, throttle)| {
                throttle * chip.memory.live_channels() as f64 / chip.memory.num_channels() as f64
            })
            .sum::<f64>()
            / n;
        let llc_mean = self
            .chips
            .iter()
            .map(|chip| {
                chip.slices.iter().filter(|s| !s.disabled).count() as f64 / chip.slices.len() as f64
            })
            .sum::<f64>()
            / n;
        if let Some(sac) = self.org.sac_mut() {
            sac.update_arch(ArchBandwidth {
                b_intra: base.b_intra,
                b_inter: base.b_inter * link_mean,
                b_llc: base.b_llc * llc_mean,
                b_mem: base.b_mem * mem_mean,
            });
        }
    }
}
