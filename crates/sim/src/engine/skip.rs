//! Next-event skipping: the engine's only run path.
//!
//! Before every tick of the main loop the engine asks each component for
//! the next cycle at which it could act and, when all of them lie more
//! than one cycle ahead, jumps the clock to one cycle before the earliest
//! so the next real [`tick`] executes that event at exactly the cycle the
//! stepped loop would have. Most skipped cycles are *latency windows*: a
//! few requests in flight, each only ageing inside a fixed-latency pipe.
//!
//! The contract is *byte identity*: a skipping run produces the same
//! [`RunStats`](crate::stats::RunStats) and the same observability report
//! as stepping every cycle, and stops at the same cycle when a budget cuts
//! it short. The scan therefore stops at every cycle where the stepped
//! loop does anything at all, however small:
//!
//! * **Datapath** — [`Chip::next_event`](crate::chip::Chip::next_event) and
//!   [`FabricNetwork::next_event`](mcgpu_noc::FabricNetwork::next_event),
//!   built from [`Pipe::next_event`](mcgpu_types::Pipe::next_event): a
//!   waiting item or a refilling bandwidth budget acts next cycle, an
//!   in-flight item at its ready cycle, and an empty saturated pipe never.
//! * **Clusters** — an eligible cluster (within the CTA wave-lead bound)
//!   with stream left issues when its gap countdown expires, or at once
//!   when it holds a deferred access. A cluster that has consumed its
//!   stream, or is parked on a full MSHR file, only waits for responses,
//!   which are datapath events. The issue schedule knows the earliest of
//!   these without a scan. Every eligible cluster still drains its gap
//!   counter, which is simulation state: the jump adds the skipped issue
//!   phases to the schedule's count, and each cluster replays its
//!   countdown when next visited or frozen. A parked cluster's skipped
//!   calls would have changed nothing.
//! * **Fault plan** — the next scheduled hardware fault.
//! * **Organization** — [`LlcOrg::next_event`] bounds when the
//!   organization's controller can next act (SAC profiling deadlines,
//!   divergence-monitor expiry, Dynamic epoch boundaries), assuming no
//!   datapath event until then.
//! * **Sampling grid** — the observability epoch window.
//! * **Guard grid** — the conservation-audit period.
//! * **Watchdog** — the forward-progress deadline, so a wedged machine
//!   reports [`SimError::Deadlock`](super::SimError::Deadlock) at exactly
//!   the stepped cycle.
//! * **Cycle budget** — `max_cycles`, so `CycleLimit` fires identically.
//!
//! Why a window is exact: until the earliest event no item leaves a pipe
//! and no budget changes, so no request retires, no cache line moves and
//! the watchdog's progress signature is frozen; the controller sees the same
//! inputs at every skipped cycle. LLC occupancy is sampled every
//! [`OCC_SAMPLE_PERIOD`] cycles, but with the caches frozen every skipped
//! sample adds the same `f64` pair, so the jump replays them by adding
//! that pair once per skipped grid point — the stepped loop's sequence of
//! additions, bit for bit.
//!
//! [`tick`]: Simulator::tick
//! [`LlcOrg::next_event`]: crate::org::LlcOrg::next_event

use super::tick::OCC_SAMPLE_PERIOD;
use super::Simulator;
use crate::org::Pause;
use mcgpu_types::earliest_event;

/// Smallest multiple of `period` strictly greater than `now`. Returns
/// `u64::MAX` for a zero period (no such grid).
fn next_on_grid(now: u64, period: u64) -> u64 {
    if period == 0 {
        return u64::MAX;
    }
    now.saturating_add(period - now % period)
}

impl Simulator {
    /// Jump the clock to one cycle before the earliest next event when
    /// that lies more than one cycle ahead, counting the skipped issue
    /// phases and replaying the skipped occupancy samples. Called from the
    /// main run loop before each tick.
    pub(super) fn skip_to_next_event(&mut self) {
        // A paused machine is draining for SAC, which counts overhead
        // every cycle.
        if self.pause != Pause::Running {
            return;
        }
        let now = self.cycle;
        let soon = now + 1;

        // Datapath first, cheapest checks first: a busy cycle leaves at
        // the first component that acts next cycle.
        let mut event = self.fabric.next_event(now);
        if event <= soon {
            return;
        }
        event = event.min(earliest_event(
            now,
            self.chips.iter().map(|chip| chip.next_event(now)),
        ));
        if event <= soon {
            return;
        }
        // The wave-lead bound and the due clusters are frozen for the
        // whole jump: a cluster's progress moves only when it issues and
        // its completion only when a response arrives, both events here.
        self.sched.refresh(&mut self.chips, false);
        event = event.min(self.sched.next_issue_event(now));

        // Scheduled hardware faults.
        if let Some(due) = self.fault_plan.next_due() {
            event = event.min(due.max(soon));
        }

        // The organization's next possible action.
        event = event.min(self.org.next_event(now).max(soon));

        // Sampling grid: observability epochs.
        if let Some(o) = self.obs.as_deref() {
            event = event.min(next_on_grid(now, o.epoch_window()));
        }

        // Guard grid: the conservation audit.
        if self.audit_period != 0 {
            event = event.min(next_on_grid(now, self.audit_period));
        }

        // The forward-progress watchdog: the stepped loop aborts with
        // `Deadlock` once `cycle - watchdog_cycle >= watchdog_window`, and
        // the progress signature is frozen until the next datapath event,
        // so the jump may not pass the deadline cycle.
        if self.watchdog_window != u64::MAX {
            let deadline = self.watchdog_cycle.saturating_add(self.watchdog_window);
            event = event.min(deadline.max(soon));
        }

        // The cycle budget: `CycleLimit` must trigger at the same cycle.
        event = event.min(self.max_cycles.max(soon));

        if event <= soon {
            return;
        }
        let last = event - 1;
        let jumped = last - now;
        self.sched.skip_phases(jumped);
        self.sample_occupancy(last / OCC_SAMPLE_PERIOD - now / OCC_SAMPLE_PERIOD);
        self.cycle = last;
        self.skip_jumps += 1;
        self.skipped_cycles += jumped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_arithmetic() {
        // Next multiple of 256 strictly after `now`.
        assert_eq!(next_on_grid(0, 256), 256);
        assert_eq!(next_on_grid(255, 256), 256);
        assert_eq!(next_on_grid(256, 256), 512);
        // Saturates instead of overflowing.
        assert_eq!(next_on_grid(u64::MAX - 1, 256), u64::MAX);
        // Degenerate period.
        assert_eq!(next_on_grid(7, 0), u64::MAX);
    }
}
