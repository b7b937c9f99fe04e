//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a cycle-stamped schedule of hardware degradation
//! events — inter-chip link lane drops and failures, DRAM channel throttle
//! and failure, LLC slice fuse-off — that the simulation engine applies as
//! the clock passes each event's cycle. Plans are plain data validated
//! against a [`MachineConfig`], so the same plan replays identically on
//! every run: fault experiments are as deterministic as fault-free ones.

use crate::config::MachineConfig;
use crate::error::ConfigError;
use crate::ids::ChipId;

/// One kind of hardware degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The inter-chip link pair between adjacent chips `a` and `b` loses
    /// lanes: both directions keep only `factor` (in `(0, 1)`) of their
    /// configured bandwidth.
    LinkDegrade {
        /// One endpoint of the link.
        a: ChipId,
        /// The other (fabric-adjacent) endpoint.
        b: ChipId,
        /// Remaining fraction of the configured bandwidth.
        factor: f64,
    },
    /// The inter-chip link pair between adjacent chips `a` and `b` fails
    /// outright in both directions; links never recover. Packets queued or
    /// in flight on it return to their sender, and traffic detours over
    /// surviving links: the long way around a ring, a breadth-first
    /// shortest live path on mesh and fully-connected fabrics. A
    /// destination left with no live path is refused as unroutable.
    LinkFail {
        /// One endpoint of the link.
        a: ChipId,
        /// The other (fabric-adjacent) endpoint.
        b: ChipId,
    },
    /// Every DRAM channel of `chip`'s memory partition keeps only `factor`
    /// (in `(0, 1)`) of its bandwidth — a thermally throttled stack.
    DramThrottle {
        /// The chip whose partition throttles.
        chip: ChipId,
        /// Remaining fraction of the configured per-channel bandwidth.
        factor: f64,
    },
    /// One DRAM channel of `chip`'s partition fails; its queued traffic is
    /// re-issued to the surviving channels.
    DramFail {
        /// The chip whose partition loses a channel.
        chip: ChipId,
        /// Index of the failed channel within the partition.
        channel: usize,
    },
    /// One LLC slice of `chip` is disabled (fused off): dirty lines are
    /// written back, then the slice stops allocating and every lookup
    /// misses through to memory.
    LlcSliceDisable {
        /// The chip losing a slice.
        chip: ChipId,
        /// Index of the disabled slice within the chip.
        slice: usize,
    },
}

/// A [`FaultKind`] scheduled at an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Cycle at which the fault takes effect (applied at the start of the
    /// first tick with `now >= cycle`).
    pub cycle: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic, cycle-ordered schedule of [`FaultEvent`]s.
///
/// # Example
/// ```
/// use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
/// use mcgpu_types::{ChipId, MachineConfig};
///
/// let plan = FaultPlan::new(vec![FaultEvent {
///     cycle: 10_000,
///     kind: FaultKind::LinkDegrade { a: ChipId(0), b: ChipId(1), factor: 0.25 },
/// }]);
/// plan.validate(&MachineConfig::paper_baseline()).unwrap();
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Events sorted by cycle (stable: same-cycle events keep their order).
    events: Vec<FaultEvent>,
    /// Index of the first not-yet-applied event.
    cursor: usize,
}

impl FaultPlan {
    /// Build a plan from events in any order; they are sorted by cycle,
    /// same-cycle events keeping their given order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.cycle);
        FaultPlan { events, cursor: 0 }
    }

    /// A plan with no events.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// All events, in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events not yet handed out by [`FaultPlan::pop_due`].
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Cycle of the next not-yet-applied event, if any. This is the fault
    /// plan's contribution to the engine's next-event scan: the clock
    /// must never jump past a scheduled fault.
    pub fn next_due(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.cycle)
    }

    /// Whether the plan has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Hand out the next event whose cycle has been reached, advancing the
    /// plan. Call repeatedly each cycle until it returns `None`.
    pub fn pop_due(&mut self, now: u64) -> Option<FaultEvent> {
        let e = *self.events.get(self.cursor)?;
        if e.cycle <= now {
            self.cursor += 1;
            Some(e)
        } else {
            None
        }
    }

    /// Check every event against the machine: endpoints must exist,
    /// link endpoints must be adjacent in the configured topology, factors
    /// must lie in `(0, 1)`,
    /// and channel/slice indices must be in range.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] naming the first invalid event.
    pub fn validate(&self, cfg: &MachineConfig) -> Result<(), ConfigError> {
        let chip_ok = |c: ChipId| c.index() < cfg.chips;
        let adjacent = |a: ChipId, b: ChipId| cfg.is_adjacent(a, b);
        let fraction = |f: f64| f.is_finite() && f > 0.0 && f < 1.0;
        for (i, e) in self.events.iter().enumerate() {
            let bad = |what: &str| {
                Err(ConfigError::new(format!(
                    "fault event {i} (cycle {}): {what}",
                    e.cycle
                )))
            };
            match e.kind {
                FaultKind::LinkDegrade { a, b, factor } => {
                    if !adjacent(a, b) {
                        return bad("link endpoints must be distinct fabric-adjacent chips");
                    }
                    if !fraction(factor) {
                        return bad("degrade factor must be in (0, 1)");
                    }
                }
                FaultKind::LinkFail { a, b } => {
                    if !adjacent(a, b) {
                        return bad("link endpoints must be distinct fabric-adjacent chips");
                    }
                }
                FaultKind::DramThrottle { chip, factor } => {
                    if !chip_ok(chip) {
                        return bad("chip index out of range");
                    }
                    if !fraction(factor) {
                        return bad("throttle factor must be in (0, 1)");
                    }
                }
                FaultKind::DramFail { chip, channel } => {
                    if !chip_ok(chip) {
                        return bad("chip index out of range");
                    }
                    if channel >= cfg.channels_per_chip {
                        return bad("channel index out of range");
                    }
                }
                FaultKind::LlcSliceDisable { chip, slice } => {
                    if !chip_ok(chip) {
                        return bad("chip index out of range");
                    }
                    if slice >= cfg.slices_per_chip {
                        return bad("slice index out of range");
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    #[test]
    fn events_are_sorted_and_popped_in_cycle_order() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                cycle: 500,
                kind: FaultKind::DramThrottle {
                    chip: ChipId(1),
                    factor: 0.5,
                },
            },
            FaultEvent {
                cycle: 100,
                kind: FaultKind::LinkFail {
                    a: ChipId(0),
                    b: ChipId(1),
                },
            },
        ]);
        assert_eq!(plan.remaining(), 2);
        assert!(plan.pop_due(99).is_none());
        let first = plan.pop_due(100).unwrap();
        assert_eq!(first.cycle, 100);
        assert!(plan.pop_due(100).is_none(), "second event is not due yet");
        let second = plan.pop_due(1_000).unwrap();
        assert_eq!(second.cycle, 500);
        assert_eq!(plan.remaining(), 0);
        assert!(plan.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn same_cycle_events_all_pop() {
        let mk = |chip| FaultEvent {
            cycle: 7,
            kind: FaultKind::DramThrottle {
                chip: ChipId(chip),
                factor: 0.5,
            },
        };
        let mut plan = FaultPlan::new(vec![mk(0), mk(1), mk(2)]);
        let mut n = 0;
        while plan.pop_due(7).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn validate_accepts_sane_plans() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                cycle: 0,
                kind: FaultKind::LinkDegrade {
                    a: ChipId(3),
                    b: ChipId(0),
                    factor: 0.1,
                },
            },
            FaultEvent {
                cycle: 1,
                kind: FaultKind::DramFail {
                    chip: ChipId(2),
                    channel: 7,
                },
            },
            FaultEvent {
                cycle: 2,
                kind: FaultKind::LlcSliceDisable {
                    chip: ChipId(0),
                    slice: 15,
                },
            },
        ]);
        plan.validate(&cfg()).unwrap();
    }

    #[test]
    fn validate_rejects_bad_events() {
        let link = |a, b| {
            FaultPlan::new(vec![FaultEvent {
                cycle: 0,
                kind: FaultKind::LinkFail {
                    a: ChipId(a),
                    b: ChipId(b),
                },
            }])
        };
        assert!(link(0, 2).validate(&cfg()).is_err(), "not adjacent");
        assert!(link(0, 0).validate(&cfg()).is_err(), "self link");
        assert!(link(0, 9).validate(&cfg()).is_err(), "no such chip");

        // Adjacency follows the configured topology: 0-2 is a real link on
        // an all-to-all fabric and on a 2x2 mesh (vertical neighbor), but
        // the mesh has no 0-3 diagonal.
        let mut full = cfg();
        full.topology = crate::TopologyKind::FullyConnected;
        link(0, 2).validate(&full).unwrap();
        let mut mesh = cfg();
        mesh.topology = crate::TopologyKind::Mesh2D;
        link(0, 2).validate(&mesh).unwrap();
        assert!(link(0, 3).validate(&mesh).is_err(), "no diagonal mesh link");

        let throttle = FaultPlan::new(vec![FaultEvent {
            cycle: 0,
            kind: FaultKind::DramThrottle {
                chip: ChipId(0),
                factor: 1.5,
            },
        }]);
        assert!(throttle.validate(&cfg()).is_err(), "factor out of range");

        let slice = FaultPlan::new(vec![FaultEvent {
            cycle: 0,
            kind: FaultKind::LlcSliceDisable {
                chip: ChipId(0),
                slice: 16,
            },
        }]);
        assert!(slice.validate(&cfg()).is_err(), "slice out of range");
    }
}
