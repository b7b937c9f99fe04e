//! Kernel-boundary sequencing: software/hardware coherence actions, the
//! organization's boundary decision, and the post-kernel drain (§2.1, §3.6,
//! §4).

use super::{SimError, Simulator};
use crate::org::BoundaryAction;
use crate::packet::FabricPayload;
use mcgpu_cache::DataHome;
use mcgpu_types::{CoherenceKind, LineAddr};

impl Simulator {
    /// Write back every dirty LLC line while keeping contents resident
    /// (SAC memory-side → SM-side reconfiguration).
    pub(super) fn start_llc_dirty_writeback(&mut self) {
        for c in 0..self.chips.len() {
            for s in 0..self.cfg.slices_per_chip {
                let dirty = self.chips[c].slices[s].cache.writeback_all_dirty();
                for line in dirty {
                    self.writeback_to_home(c, line);
                }
            }
        }
    }

    /// Write back and invalidate every dirty LLC line (software-coherence
    /// kernel boundaries for SM-side contents).
    fn start_llc_flush(&mut self) {
        for c in 0..self.chips.len() {
            for s in 0..self.cfg.slices_per_chip {
                let dirty = self.chips[c].slices[s].cache.flush_all();
                for line in dirty {
                    self.writeback_to_home(c, line);
                }
            }
        }
    }

    /// Send `line`'s data back to its home: the local partition directly,
    /// or a writeback packet across the ring.
    pub(super) fn writeback_to_home(&mut self, c: usize, line: LineAddr) {
        let page = line.page(self.cfg.line_size, self.cfg.page_size);
        let home = self
            .page_table
            .lookup(page)
            .expect("cached lines have mapped pages");
        if home.index() == c {
            self.chips[c].memory.push_writeback(line);
        } else {
            self.push_fabric(c, FabricPayload::Writeback { line, home });
        }
    }

    /// Kernel-boundary software coherence (§2.1, §4) and SAC revert (§3.6).
    ///
    /// Sequencing matters: the organization's boundary action is read
    /// *before* SAC's `end_kernel` (SAC reverts its mode there, and the
    /// action must reflect the mode the kernel actually ran in), the drain
    /// runs next, and SAC is told the drain finished last.
    pub(super) fn kernel_boundary(&mut self) -> Result<(), SimError> {
        let boundary_start = self.cycle;
        // L1s are invalidated under both coherence schemes (write-through,
        // so no traffic).
        for chip in &mut self.chips {
            for cluster in &mut chip.clusters {
                cluster.flush_l1();
            }
        }

        match self.org.boundary_action(self.cfg.coherence) {
            BoundaryAction::None => {}
            BoundaryAction::FlushAllDirty => self.start_llc_flush(),
            BoundaryAction::FlushRemoteDirty => {
                // Only the remote pool replicates; its dirty lines are
                // written back home and the pool is invalidated.
                for c in 0..self.chips.len() {
                    for s in 0..self.cfg.slices_per_chip {
                        let dirty = self.chips[c].slices[s].cache.flush_home(DataHome::Remote);
                        for line in dirty {
                            self.writeback_to_home(c, line);
                        }
                    }
                }
            }
            BoundaryAction::DropRemoteReplicas => {
                // The directory kept replicas coherent during the kernel;
                // remote replicas are dropped without bulk writeback
                // traffic, which is why reconfiguration is cheaper (§5.6).
                for chip in &mut self.chips {
                    for slice in &mut chip.slices {
                        slice.cache.flush_home(DataHome::Remote);
                    }
                }
            }
        }
        if self.cfg.coherence == CoherenceKind::Hardware {
            self.directory.clear();
        }

        // SAC reverts to memory-side; the flush above already ran if the
        // coherence scheme required it, and draining happens below together
        // with the flush traffic.
        if let Some(sac) = self.org.sac_mut() {
            sac.end_kernel();
        }

        // Let all writebacks and invalidations drain. Injected faults can
        // wedge this drain too (e.g. a partitioned ring holding a remote
        // writeback), so it runs under the same watchdog as the main loop.
        while !self.machine_quiescent() {
            self.tick(false);
            self.check_progress()?;
        }
        let now = self.cycle;
        if let Some(sac) = self.org.sac_mut() {
            sac.drain_complete(now);
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.note_boundary(boundary_start, now);
        }
        Ok(())
    }
}
