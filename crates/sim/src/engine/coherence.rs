//! Hardware coherence: the chip-granularity sharer directory and the
//! write-invalidation protocol (§5.6).

use super::Simulator;
use crate::packet::FabricPayload;
use mcgpu_types::{ChipId, CoherenceKind, LineAddr};

/// Chip-granularity sharer directory for hardware coherence, stored as a
/// flat word-per-line bitmask table indexed by line index (one bit per
/// chip, up to the 64-chip configuration limit). The table grows on demand
/// to the highest line ever filled and is reset with a `memset` at kernel
/// boundaries, so the per-access path is one bounds check and one word
/// load — no hashing, no per-kernel reallocation.
///
/// # `set`/`fill` asymmetry
/// [`fill`](SharerDirectory::fill) grows the table so a replica is always
/// tracked, while [`set`](SharerDirectory::set) deliberately no-ops on
/// untracked lines (matching the map-based behaviour where a write to an
/// absent entry is a no-op): a line no chip replicated has no sharer set to
/// replace, and inventing one would make the owner appear as a sharer of a
/// line that was never filled. The contract is pinned by the unit tests
/// below.
#[derive(Debug, Default)]
pub(super) struct SharerDirectory {
    masks: Vec<u64>,
}

impl SharerDirectory {
    /// Sharer mask for `line` (`0` = untracked).
    pub(super) fn mask(&self, line: u64) -> u64 {
        self.masks.get(line as usize).copied().unwrap_or(0)
    }

    /// Replace the sharer set of a tracked `line` with `mask`. Untracked
    /// lines stay untracked (matching the map-based behaviour where a write
    /// to an absent entry is a no-op).
    pub(super) fn set(&mut self, line: u64, mask: u64) {
        if let Some(m) = self.masks.get_mut(line as usize) {
            *m = mask;
        }
    }

    /// Record chip `c` as holding a replica of `line`.
    pub(super) fn fill(&mut self, line: u64, c: usize) {
        let idx = line as usize;
        if idx >= self.masks.len() {
            // Amortized growth: doubling keeps the number of grows
            // logarithmic in the footprint while tracking it closely.
            self.masks.resize((idx + 1).max(self.masks.len() * 2), 0);
        }
        self.masks[idx] |= 1u64 << c;
    }

    /// Drop all sharer state, keeping the table's capacity.
    pub(super) fn clear(&mut self) {
        self.masks.fill(0);
    }

    /// Serialize the sharer table into a checkpoint payload.
    pub(super) fn save(&self, e: &mut mcgpu_types::Enc) {
        e.put_seq_len(self.masks.len());
        for &m in &self.masks {
            e.put_u64(m);
        }
    }

    /// Deserialize a table saved by [`SharerDirectory::save`].
    pub(super) fn load(d: &mut mcgpu_types::Dec<'_>) -> mcgpu_types::CkptResult<Self> {
        let n = d.get_seq_len()?;
        let mut masks = Vec::with_capacity(n);
        for _ in 0..n {
            masks.push(d.get_u64()?);
        }
        Ok(SharerDirectory { masks })
    }
}

impl Simulator {
    /// Hardware coherence: a write at chip `c` invalidates all other chips'
    /// replicas of `line` (§5.6).
    pub(super) fn coherence_on_write(&mut self, c: usize, line: LineAddr) {
        if self.cfg.coherence != CoherenceKind::Hardware {
            return;
        }
        let mask = self.directory.mask(line.index());
        if mask == 0 {
            return;
        }
        let owner_bit = 1u64 << c;
        let others = mask & !owner_bit;
        self.directory.set(line.index(), owner_bit);
        if others == 0 {
            return;
        }
        for b in 0..self.cfg.chips {
            if others & (1u64 << b) != 0 {
                self.push_fabric(
                    c,
                    FabricPayload::Inval {
                        line,
                        target: ChipId(b as u8),
                    },
                );
            }
        }
    }

    /// Record a replica fill for the hardware-coherence directory.
    pub(super) fn directory_fill(&mut self, c: usize, line: LineAddr) {
        if self.cfg.coherence == CoherenceKind::Hardware {
            self.directory.fill(line.index(), c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SharerDirectory;

    #[test]
    fn set_is_a_no_op_on_untracked_lines() {
        let mut dir = SharerDirectory::default();
        // No fill has happened: the table is empty and `set` must not grow
        // it or invent a sharer.
        dir.set(7, 0b0001);
        assert_eq!(dir.mask(7), 0, "untracked line gained a sharer set");

        // Even with the table grown past the line by another fill, a line
        // that was never filled reads as untracked — but `set` now lands in
        // allocated storage and takes effect. The contract is about table
        // coverage, not fill history per line.
        dir.fill(9, 2);
        dir.set(7, 0b0001);
        assert_eq!(dir.mask(7), 0b0001, "covered line must accept a set");
    }

    #[test]
    fn fill_grows_and_accumulates_sharers() {
        let mut dir = SharerDirectory::default();
        dir.fill(3, 0);
        dir.fill(3, 2);
        assert_eq!(dir.mask(3), 0b0101);
        // Beyond-the-end reads stay untracked rather than panicking.
        assert_eq!(dir.mask(1_000_000), 0);
        // `set` replaces (not ORs) the mask of a tracked line.
        dir.set(3, 0b0010);
        assert_eq!(dir.mask(3), 0b0010);
    }

    #[test]
    fn clear_keeps_capacity_but_drops_all_sharers() {
        let mut dir = SharerDirectory::default();
        for line in 0..64 {
            dir.fill(line, (line % 4) as usize);
        }
        dir.clear();
        for line in 0..64 {
            assert_eq!(dir.mask(line), 0);
        }
        // Cleared lines are still covered by the table, so `set` sticks.
        dir.set(5, 0b1000);
        assert_eq!(dir.mask(5), 0b1000);
    }
}
