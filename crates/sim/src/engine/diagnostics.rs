//! Runtime diagnostics: the forward-progress watchdog, request-conservation
//! audit, and the deadlock snapshot they report.

use super::Simulator;
use crate::cluster::Cluster;
use crate::packet::FabricPayload;
use mcgpu_types::ConfigError;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run exceeded the configured cycle budget (livelock guard).
    CycleLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// The forward-progress watchdog fired: no request retired anywhere in
    /// the machine for a whole watchdog window. Carries a diagnostic
    /// snapshot of where the in-flight work is stuck.
    Deadlock {
        /// Cycle at which the watchdog gave up.
        cycle: u64,
        /// The progress-free window length that triggered it.
        window: u64,
        /// Where the stuck work sits, per chip.
        snapshot: Box<DeadlockSnapshot>,
    },
    /// The request-conservation audit failed: the engine's in-flight
    /// counter disagrees with the number of request-carrying entries found
    /// in the machine's queues — a request was lost or double-counted.
    /// Carries the per-chip breakdown of where requests were found.
    InvariantViolation {
        /// Cycle at which the audit failed.
        cycle: u64,
        /// What the audit counted.
        report: Box<ConservationReport>,
    },
    /// A checkpoint snapshot could not be written or restored. Carries the
    /// underlying error rendered to text (I/O failure, torn or corrupt
    /// snapshot, fingerprint mismatch).
    Checkpoint {
        /// What went wrong.
        detail: String,
    },
    /// The simulator could not be built or run from the given inputs.
    Config(ConfigError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::Deadlock {
                cycle,
                window,
                snapshot,
            } => {
                write!(
                    f,
                    "no forward progress for {window} cycles (deadlock at cycle {cycle}): {snapshot}"
                )
            }
            SimError::InvariantViolation { cycle, report } => {
                write!(
                    f,
                    "request-conservation violation at cycle {cycle}: {report}"
                )
            }
            SimError::Checkpoint { detail } => {
                write!(f, "checkpoint failure: {detail}")
            }
            SimError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Where in-flight work was sitting when the forward-progress watchdog
/// fired. Every field is a queue depth (entries, not bytes) captured at the
/// moment of the abort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Requests issued but never completed, machine-wide.
    pub in_flight: u64,
    /// Why issue was paused, if it was (`"running"`, `"sac-drain"`,
    /// `"sac-flush"`).
    pub pause: String,
    /// Per-chip queue depths.
    pub chips: Vec<ChipSnapshot>,
}

/// One chip's queue depths inside a [`DeadlockSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipSnapshot {
    /// The chip index.
    pub chip: usize,
    /// Outstanding L1 MSHR entries summed over the chip's clusters.
    pub cluster_mshrs: usize,
    /// Entries inside the request crossbar.
    pub xbar_req: usize,
    /// Entries inside the response crossbar.
    pub xbar_rsp: usize,
    /// Requests queued or in flight at the LLC slice service pipes.
    pub slice_service: usize,
    /// Requests merged onto outstanding LLC line fetches (slice MSHRs).
    pub slice_pending: usize,
    /// Requests inside the DRAM channel pipes.
    pub memory: usize,
    /// Requests on the ring→memory bypass path.
    pub bypass: usize,
    /// Payloads waiting to leave the chip for the fabric (including the
    /// egress pipe and retry slot).
    pub fabric_egress: usize,
    /// Payloads inside the inter-chip fabric charged to this chip (link pipes,
    /// transit buffers, undelivered arrivals).
    pub fabric: usize,
}

impl ChipSnapshot {
    /// Total stuck entries on this chip.
    pub fn total(&self) -> usize {
        self.cluster_mshrs
            + self.xbar_req
            + self.xbar_rsp
            + self.slice_service
            + self.slice_pending
            + self.memory
            + self.bypass
            + self.fabric_egress
            + self.fabric
    }
}

impl std::fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in flight, pause={}", self.in_flight, self.pause)?;
        for c in &self.chips {
            write!(
                f,
                "; chip{}: mshr={} xbar={}+{} slice={}+{} mem={} bypass={} ring={}+{}",
                c.chip,
                c.cluster_mshrs,
                c.xbar_req,
                c.xbar_rsp,
                c.slice_service,
                c.slice_pending,
                c.memory,
                c.bypass,
                c.fabric_egress,
                c.fabric
            )?;
        }
        Ok(())
    }
}

/// What the request-conservation audit counted when it found a mismatch:
/// the engine's issued-minus-retired counter versus the request-carrying
/// entries actually present in the machine's queues. Writeback sentinels,
/// ring writebacks and invalidations are excluded on both sides — they
/// never enter the in-flight count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConservationReport {
    /// Requests issued but not yet completed (the engine's counter).
    pub in_flight: u64,
    /// Request-carrying queue entries found machine-wide.
    pub accounted: u64,
    /// Request-carrying fabric packets (machine-wide; the fabric does
    /// not attribute transit packets to a chip).
    pub fabric: usize,
    /// Per-chip breakdown of the accounted entries.
    pub chips: Vec<ChipConservation>,
}

/// One chip's request-carrying queue entries inside a
/// [`ConservationReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipConservation {
    /// The chip index.
    pub chip: usize,
    /// Requests inside the request crossbar and its ring-ingress queue.
    pub network_req: usize,
    /// Requests queued or in flight at the LLC slice service pipes.
    pub slice_service: usize,
    /// Requests merged onto outstanding LLC line fetches (slice MSHRs).
    pub slice_waiters: usize,
    /// Live requests inside the DRAM channels (writeback sentinels
    /// excluded).
    pub memory: usize,
    /// Requests on the ring→memory bypass path.
    pub bypass: usize,
    /// Responses inside the response crossbar and its ingress queue.
    pub network_rsp: usize,
    /// Request/response payloads waiting to leave the chip for the fabric.
    pub fabric_egress: usize,
}

impl ChipConservation {
    /// Total request-carrying entries on this chip.
    pub fn total(&self) -> usize {
        self.network_req
            + self.slice_service
            + self.slice_waiters
            + self.memory
            + self.bypass
            + self.network_rsp
            + self.fabric_egress
    }
}

impl std::fmt::Display for ConservationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "in_flight={} but accounted={} (ring fabric {})",
            self.in_flight, self.accounted, self.fabric
        )?;
        for c in &self.chips {
            write!(
                f,
                "; chip{}: req={} slice={}+{} mem={} bypass={} rsp={} egress={}",
                c.chip,
                c.network_req,
                c.slice_service,
                c.slice_waiters,
                c.memory,
                c.bypass,
                c.network_rsp,
                c.fabric_egress
            )?;
        }
        Ok(())
    }
}

impl Simulator {
    /// A monotonic count that changes whenever anything anywhere in the
    /// machine completes or moves: requests retiring, DRAM serving, ring
    /// traffic being injected or delivered. If this freezes, the machine is
    /// wedged.
    fn progress_signature(&self) -> u64 {
        let dram: u64 = self
            .chips
            .iter()
            .map(|c| c.memory.served_reads() + c.memory.served_writes())
            .sum();
        self.sched.reads()
            + self.writes_done
            + self.fabric.delivered()
            + self.fabric.bytes_sent()
            + dram
    }

    /// Runtime guards, called once per tick from every simulation loop
    /// (including drains): the forward-progress watchdog
    /// ([`SimError::Deadlock`]) and the request-conservation audit
    /// ([`SimError::InvariantViolation`]).
    pub(super) fn check_progress(&mut self) -> Result<(), SimError> {
        if self.audit_period != 0 && self.cycle.is_multiple_of(self.audit_period) {
            self.audit_conservation()?;
        }
        if self.watchdog_window == u64::MAX {
            return Ok(());
        }
        let sig = self.progress_signature();
        if sig != self.watchdog_sig {
            self.watchdog_sig = sig;
            self.watchdog_cycle = self.cycle;
            return Ok(());
        }
        if self.cycle - self.watchdog_cycle >= self.watchdog_window {
            return Err(SimError::Deadlock {
                cycle: self.cycle,
                window: self.watchdog_window,
                snapshot: Box::new(self.deadlock_snapshot()),
            });
        }
        Ok(())
    }

    /// Request-conservation audit: between ticks, every request the engine
    /// counts as in flight sits in exactly one queue — crossbars, slice
    /// service pipes, slice MSHR waiter lists, DRAM channels, the bypass
    /// path, response queues, or the ring (egress queues and fabric).
    /// Writeback sentinels and coherence invalidations carry no request and
    /// are excluded. A mismatch means a request was lost or double-counted
    /// and the run's statistics can no longer be trusted, so the audit
    /// fails fast with the full breakdown.
    pub(super) fn audit_conservation(&self) -> Result<(), SimError> {
        fn carries_request(p: &FabricPayload) -> bool {
            matches!(p, FabricPayload::Req(_) | FabricPayload::Rsp(_))
        }
        let chips: Vec<ChipConservation> = self
            .chips
            .iter()
            .enumerate()
            .map(|(i, chip)| ChipConservation {
                chip: i,
                network_req: chip.pending_req.len() + chip.xbar_req.len(),
                slice_service: chip.slices.iter().map(|s| s.service.len()).sum(),
                slice_waiters: chip.slices.iter().map(|s| s.pending.waiting()).sum(),
                memory: chip.memory.pending_requests(),
                bypass: chip.bypass_to_mem.len(),
                network_rsp: chip.pending_rsp.len() + chip.xbar_rsp.len(),
                fabric_egress: chip
                    .pending_fabric
                    .iter()
                    .filter(|p| carries_request(p))
                    .count()
                    + chip
                        .fabric_egress
                        .iter()
                        .filter(|p| carries_request(p))
                        .count()
                    + chip.fabric_retry.as_ref().is_some_and(carries_request) as usize,
            })
            .collect();
        let fabric = self.fabric.count_matching(carries_request);
        let accounted =
            chips.iter().map(ChipConservation::total).sum::<usize>() as u64 + fabric as u64;
        if accounted == self.in_flight {
            return Ok(());
        }
        Err(SimError::InvariantViolation {
            cycle: self.cycle,
            report: Box::new(ConservationReport {
                in_flight: self.in_flight,
                accounted,
                fabric,
                chips,
            }),
        })
    }

    /// Capture where all in-flight work currently sits, for the watchdog's
    /// abort diagnostics.
    fn deadlock_snapshot(&self) -> DeadlockSnapshot {
        let chips = self
            .chips
            .iter()
            .enumerate()
            .map(|(i, chip)| ChipSnapshot {
                chip: i,
                cluster_mshrs: chip.clusters.iter().map(Cluster::outstanding).sum(),
                xbar_req: chip.xbar_req.len() + chip.pending_req.len(),
                xbar_rsp: chip.xbar_rsp.len() + chip.pending_rsp.len(),
                slice_service: chip.slices.iter().map(|s| s.service.len()).sum(),
                slice_pending: chip.slices.iter().map(|s| s.pending.waiting()).sum(),
                memory: chip.memory.len(),
                bypass: chip.bypass_to_mem.len(),
                fabric_egress: chip.pending_fabric.len()
                    + chip.fabric_egress.len()
                    + usize::from(chip.fabric_retry.is_some()),
                fabric: self.fabric.chip_load(chip.id),
            })
            .collect();
        DeadlockSnapshot {
            in_flight: self.in_flight,
            pause: self.pause.label().to_string(),
            chips,
        }
    }
}
