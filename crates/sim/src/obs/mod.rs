//! Run observability: latency histograms, epoch timelines, event traces.
//!
//! The observability layer is **strictly read-only**. The engine calls the
//! [`Observer`] hooks with values it already computed; nothing flows back,
//! so a run with observability enabled retires exactly the same requests in
//! exactly the same cycles as one without (the golden byte-identity suite
//! under `tests/obs_inert.rs` pins this). With [`ObsLevel::Off`](mcgpu_types::ObsLevel::Off) — the
//! default — the engine holds no observer at all and every hook is a single
//! `Option` branch.
//!
//! Three recorders, by level:
//!
//! | level | recorder | output |
//! |---|---|---|
//! | `Metrics` | [`LatencyHistogram`] per (chip, request class) | retirement latency distributions (Fig. 9-style breakdowns) |
//! | `Metrics` | [`EpochRecorder`] | per-epoch machine timeline (Fig. 12-style plots) |
//! | `Trace` | [`TraceSink`] | Chrome `trace_event` JSON (kernel + reconfiguration spans, counter tracks) |
//!
//! Request classes are the four [`ResponseOrigin`] values: local LLC,
//! remote LLC, local memory, remote memory. Timestamps everywhere are
//! simulated cycles — never wall-clock time — so all outputs are
//! deterministic and two identical runs serialize byte-identically.

mod hist;
mod timeline;
mod trace;

pub use hist::{LatencyHistogram, HIST_BUCKETS};
pub use timeline::{ChipSample, EpochRecorder, EpochSample, MachineSnapshot};
pub use trace::{TraceSink, TID_KERNELS, TID_SAC};

use mcgpu_types::json::CanonicalWriter;
use mcgpu_types::{CkptError, CkptResult, Dec, Enc, ObsConfig, ResponseOrigin};
use sac::controller::KernelRecord;

/// Every `&'static str` label the observability layer stores inline
/// (route modes, pause states, controller states, trace track/counter
/// names). Checkpoint restore interns decoded label strings against this
/// table so restored state keeps `&'static str` fields without leaking in
/// the common case.
const KNOWN_LABELS: &[&str] = &[
    // Route modes / pause states / controller states.
    "memory-side",
    "sm-side",
    "tiered",
    "running",
    "sac-drain",
    "sac-flush",
    "-",
    "idle",
    "profiling",
    "draining-to-sm-side",
    "draining-to-memory-side",
    "flushing",
    "running-memory-side",
    "running-sm-side",
    // Trace metadata and counter names.
    "process_name",
    "thread_name",
    "in_flight",
    "active_clusters",
    "dram_bytes",
    "ring_sent_bytes",
    "queue_depth",
    "llc_hit_rate",
    "requests",
    "clusters",
    "bytes",
    "rate",
];

/// Intern a decoded label: return the matching entry of [`KNOWN_LABELS`],
/// or leak the string (a one-off few-byte allocation on the cold restore
/// path) when a snapshot carries a label this build does not know.
pub(crate) fn intern_label(s: &str) -> &'static str {
    KNOWN_LABELS
        .iter()
        .find(|&&k| k == s)
        .copied()
        .unwrap_or_else(|| Box::leak(s.to_string().into_boxed_str()))
}

/// Collects observability data during a run via engine hooks.
///
/// Built by the engine when [`ObsConfig::level`] is enabled; consumed by
/// [`Observer::finalize`] into an [`ObsReport`].
#[derive(Debug)]
pub struct Observer {
    cfg: ObsConfig,
    /// Issue cycle of request `id`, indexed by `RequestId.0` (ids are
    /// assigned sequentially by the engine, so a `Vec` is exact).
    issue_cycles: Vec<u64>,
    /// One histogram per (chip, request class), classes in
    /// [`ResponseOrigin::ALL`] order.
    hists: Vec<[LatencyHistogram; 4]>,
    recorder: EpochRecorder,
    trace: Option<TraceSink>,
    /// Currently open reconfiguration span: `(start_cycle, pause label)`.
    open_pause: Option<(u64, &'static str)>,
}

impl Observer {
    /// A new observer for a machine with `chips` chips.
    pub fn new(cfg: ObsConfig, chips: usize) -> Self {
        let trace = if cfg.level.trace_enabled() {
            let mut t = TraceSink::new();
            t.name_process(0, "machine");
            t.name_thread(0, TID_KERNELS, "kernels");
            t.name_thread(0, TID_SAC, "sac-controller");
            for c in 0..chips {
                t.name_process(1 + c as u64, &format!("chip {c}"));
            }
            Some(t)
        } else {
            None
        };
        Observer {
            cfg,
            issue_cycles: Vec::new(),
            hists: vec![
                [
                    LatencyHistogram::new(),
                    LatencyHistogram::new(),
                    LatencyHistogram::new(),
                    LatencyHistogram::new(),
                ];
                chips
            ],
            recorder: EpochRecorder::new(),
            trace: None,
            open_pause: None,
        }
        .with_trace(trace)
    }

    fn with_trace(mut self, trace: Option<TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// Timeline epoch window, in cycles.
    pub fn epoch_window(&self) -> u64 {
        self.cfg.epoch_window
    }

    /// A request was injected at `now`. Must be called once per request in
    /// id order (ids are sequential), so the issue cycle of request `id`
    /// lands at index `id`.
    pub fn note_issue(&mut self, now: u64) {
        self.issue_cycles.push(now);
    }

    /// A response for request `id` reached chip `chip` at `now`;
    /// `origin_idx` indexes [`ResponseOrigin::ALL`].
    pub fn note_response(&mut self, chip: usize, origin_idx: usize, id: u64, now: u64) {
        let Some(&issued) = self.issue_cycles.get(id as usize) else {
            return;
        };
        if let Some(h) = self.hists.get_mut(chip) {
            h[origin_idx].record(now.saturating_sub(issued));
        }
    }

    /// Sample the machine at an epoch boundary (or at run end for the
    /// trailing partial epoch). A snapshot that does not advance past the
    /// previous one is ignored.
    pub fn sample_epoch(&mut self, snap: &MachineSnapshot) {
        if !self.recorder.samples().is_empty() && snap.cycle <= self.recorder.baseline().cycle {
            return;
        }
        if let Some(t) = self.trace.as_mut() {
            let ts = snap.cycle;
            t.counter(
                0,
                ts,
                "in_flight",
                vec![("requests", snap.in_flight.to_string())],
            );
            t.counter(
                0,
                ts,
                "active_clusters",
                vec![("clusters", snap.active_clusters.to_string())],
            );
            let base = self.recorder.baseline();
            for (c, chip) in snap.chips.iter().enumerate() {
                let pid = 1 + c as u64;
                let prev = base.chips.get(c).copied().unwrap_or_default();
                t.counter(
                    pid,
                    ts,
                    "dram_bytes",
                    vec![("bytes", (chip.dram_served - prev.dram_served).to_string())],
                );
                t.counter(
                    pid,
                    ts,
                    "ring_sent_bytes",
                    vec![(
                        "bytes",
                        (chip.ring_sent_bytes - prev.ring_sent_bytes).to_string(),
                    )],
                );
                t.counter(
                    pid,
                    ts,
                    "queue_depth",
                    vec![("requests", chip.queue.to_string())],
                );
                let (da, dh) = (
                    chip.llc_accesses - prev.llc_accesses,
                    chip.llc_hits - prev.llc_hits,
                );
                let rate = if da == 0 { 0.0 } else { dh as f64 / da as f64 };
                t.counter(pid, ts, "llc_hit_rate", vec![("rate", format!("{rate:?}"))]);
            }
        }
        self.recorder.record(snap);
    }

    /// The engine's pause state changed at `now` (labels from
    /// `Pause::label()`). Reconfiguration pauses become spans on the SAC
    /// track; `"running"` closes the open span.
    pub fn note_pause(&mut self, now: u64, to_label: &'static str) {
        let Some(t) = self.trace.as_mut() else {
            return;
        };
        if let Some((start, label)) = self.open_pause.take() {
            t.span(0, TID_SAC, label, start, now, vec![]);
        }
        if to_label != "running" {
            self.open_pause = Some((now, to_label));
        }
    }

    /// Kernel `index` ran over `[start, end]` (including its trailing
    /// boundary drain) and completed `accesses` accesses.
    pub fn note_kernel(&mut self, index: usize, start: u64, end: u64, accesses: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.span(
                0,
                TID_KERNELS,
                format!("kernel {index}"),
                start,
                end,
                vec![("accesses".to_string(), accesses.to_string())],
            );
        }
    }

    /// A kernel-boundary coherence drain ran over `[start, end]` (nested
    /// inside the kernel's own span).
    pub fn note_boundary(&mut self, start: u64, end: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.span(0, TID_KERNELS, "kernel-boundary", start, end, vec![]);
        }
    }

    /// Serialize the full recording state (issue cycles, histograms,
    /// timeline, trace events, open spans) into a checkpoint payload, so a
    /// restored run's observability reports are byte-identical to an
    /// uninterrupted run's.
    pub fn save(&self, e: &mut Enc) {
        e.put_u64(self.cfg.epoch_window);
        e.put_bool(self.cfg.level.enabled());
        e.put_bool(self.cfg.level.trace_enabled());
        e.put_seq_len(self.issue_cycles.len());
        for &c in &self.issue_cycles {
            e.put_u64(c);
        }
        e.put_seq_len(self.hists.len());
        for chip in &self.hists {
            for h in chip {
                h.save(e);
            }
        }
        self.recorder.save(e);
        e.put_bool(self.trace.is_some());
        if let Some(t) = &self.trace {
            t.save(e);
        }
        e.put_bool(self.open_pause.is_some());
        if let Some((start, label)) = &self.open_pause {
            e.put_u64(*start);
            e.put_str(label);
        }
    }

    /// Restore state saved by [`Observer::save`] into this observer.
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input, or when the
    /// snapshot's observability configuration (level, epoch window) does
    /// not match this observer's.
    pub fn load_into(&mut self, d: &mut Dec<'_>) -> CkptResult<()> {
        let epoch_window = d.get_u64()?;
        let enabled = d.get_bool()?;
        let trace_enabled = d.get_bool()?;
        if epoch_window != self.cfg.epoch_window
            || enabled != self.cfg.level.enabled()
            || trace_enabled != self.cfg.level.trace_enabled()
        {
            return Err(CkptError::Decode(format!(
                "snapshot observability config (window {epoch_window}, enabled {enabled}, \
                 trace {trace_enabled}) does not match the run's (window {}, enabled {}, trace {})",
                self.cfg.epoch_window,
                self.cfg.level.enabled(),
                self.cfg.level.trace_enabled()
            )));
        }
        let n = d.get_seq_len()?;
        self.issue_cycles.clear();
        self.issue_cycles.reserve(n);
        for _ in 0..n {
            self.issue_cycles.push(d.get_u64()?);
        }
        let n = d.get_seq_len()?;
        if n != self.hists.len() {
            return Err(CkptError::Decode(format!(
                "snapshot has histograms for {n} chips, observer has {}",
                self.hists.len()
            )));
        }
        for chip in &mut self.hists {
            for h in chip.iter_mut() {
                *h = LatencyHistogram::load(d)?;
            }
        }
        self.recorder = EpochRecorder::load(d)?;
        let has_trace = d.get_bool()?;
        if has_trace != self.trace.is_some() {
            return Err(CkptError::Decode(
                "snapshot trace presence does not match the run's trace level".to_string(),
            ));
        }
        if has_trace {
            self.trace = Some(TraceSink::load(d)?);
        }
        self.open_pause = if d.get_bool()? {
            let start = d.get_u64()?;
            let label = intern_label(d.get_str()?);
            Some((start, label))
        } else {
            None
        };
        Ok(())
    }

    /// Consume the observer into a report. `final_snap` is the machine at
    /// run end (records the trailing partial epoch); `sac_history` supplies
    /// decision instants for the trace.
    pub fn finalize(
        mut self,
        organization: &str,
        cycles: u64,
        final_snap: &MachineSnapshot,
        sac_history: &[KernelRecord],
    ) -> ObsReport {
        self.sample_epoch(final_snap);
        if let Some((start, label)) = self.open_pause.take() {
            if let Some(t) = self.trace.as_mut() {
                t.span(0, TID_SAC, label, start, cycles, vec![]);
            }
        }
        if let Some(t) = self.trace.as_mut() {
            for r in sac_history {
                t.instant(
                    0,
                    TID_SAC,
                    format!("decision: {}", r.mode.label()),
                    r.decision_cycle,
                    vec![
                        (
                            "eab_memory_side".to_string(),
                            format!("{:?}", r.eab_memory_side),
                        ),
                        ("eab_sm_side".to_string(), format!("{:?}", r.eab_sm_side)),
                        ("r_local".to_string(), format!("{:?}", r.inputs.r_local)),
                        (
                            "requests_observed".to_string(),
                            r.requests_observed.to_string(),
                        ),
                        ("fallback".to_string(), r.fallback.to_string()),
                    ],
                );
            }
        }
        ObsReport {
            organization: organization.to_string(),
            epoch_window: self.cfg.epoch_window,
            cycles,
            histograms: self.hists,
            timeline: self.recorder.into_samples(),
            trace_json: self.trace.map(|t| t.to_json()),
        }
    }
}

/// Everything the observability layer recorded about one run.
#[derive(Debug)]
pub struct ObsReport {
    /// Label of the LLC organization simulated.
    pub organization: String,
    /// Timeline epoch window, in cycles.
    pub epoch_window: u64,
    /// Total run cycles.
    pub cycles: u64,
    /// Retirement-latency histograms per (chip, request class), classes in
    /// [`ResponseOrigin::ALL`] order.
    pub histograms: Vec<[LatencyHistogram; 4]>,
    /// The epoch timeline.
    pub timeline: Vec<EpochSample>,
    /// Chrome `trace_event` JSON ([`ObsLevel::Trace`] runs only).
    ///
    /// [`ObsLevel::Trace`]: mcgpu_types::ObsLevel::Trace
    pub trace_json: Option<String>,
}

impl ObsReport {
    /// The latency histogram for one request class, merged across chips.
    pub fn class_histogram(&self, origin: ResponseOrigin) -> LatencyHistogram {
        let idx = ResponseOrigin::ALL
            .iter()
            .position(|&o| o == origin)
            .expect("origin in ALL");
        let mut m = LatencyHistogram::new();
        for chip in &self.histograms {
            m.merge(&chip[idx]);
        }
        m
    }

    /// The latency histogram over all classes and chips.
    pub fn total_histogram(&self) -> LatencyHistogram {
        let mut m = LatencyHistogram::new();
        for chip in &self.histograms {
            for h in chip {
                m.merge(h);
            }
        }
        m
    }

    /// Serialize to canonical JSON: fixed key order, 2-space indentation,
    /// shortest-roundtrip floats, no wall-clock content — two identical
    /// runs emit byte-identical documents. The trace (if any) is a separate
    /// artifact and is not embedded.
    pub fn to_canonical_json(&self) -> String {
        let mut w = CanonicalWriter::new();
        w.open();
        w.str_field("schema", "mcgpu-obs-v1");
        w.str_field("organization", &self.organization);
        w.u64_field("epoch_window", self.epoch_window);
        w.u64_field("cycles", self.cycles);
        w.array_field("latency", self.histograms.len(), |w, c| {
            let chip = &self.histograms[c];
            w.open();
            w.u64_field("chip", c as u64);
            w.array_field("classes", chip.len(), |w, i| {
                hist_object(w, ResponseOrigin::ALL[i].label(), &chip[i]);
            });
            w.close();
        });
        w.array_field("timeline", self.timeline.len(), |w, i| {
            let s = &self.timeline[i];
            w.open();
            w.u64_field("epoch", s.epoch);
            w.u64_field("start_cycle", s.start_cycle);
            w.u64_field("end_cycle", s.end_cycle);
            w.u64_field("reads", s.reads);
            w.u64_field("writes", s.writes);
            w.u64_field("ring_bytes", s.ring_bytes);
            w.u64_field("ring_delivered", s.ring_delivered);
            w.u64_field("noc_bytes", s.noc_bytes);
            w.u64_field("noc_rejected", s.noc_rejected);
            w.u64_field("dram_bytes", s.dram_bytes);
            w.u64_field("dram_reads", s.dram_reads);
            w.u64_field("dram_writes", s.dram_writes);
            w.u64_field("llc_accesses", s.llc_accesses);
            w.u64_field("llc_hits", s.llc_hits);
            w.f64_field("llc_hit_rate", s.llc_hit_rate());
            w.u64_field("l1_accesses", s.l1_accesses);
            w.u64_field("l1_hits", s.l1_hits);
            w.u64_field("in_flight", s.in_flight);
            w.u64_field("active_clusters", s.active_clusters);
            w.u64_field("dram_queue", s.dram_queue);
            w.u64_field("slice_queue", s.slice_queue);
            w.u64_field("sac_window_requests", s.sac_window_requests);
            w.u64_field("crd_occupied", s.crd_occupied);
            w.u64_field("crd_capacity", s.crd_capacity);
            w.str_field("route_mode", s.route_mode);
            w.str_field("pause", s.pause);
            w.str_field("controller", s.controller);
            w.u64_field("sac_decisions", s.sac_decisions);
            w.close();
        });
        w.close();
        w.finish()
    }
}

/// Emit one histogram as an array-element object whose `class` is `key`.
fn hist_object(w: &mut CanonicalWriter, key: &str, h: &LatencyHistogram) {
    w.open();
    w.str_field("class", key);
    w.u64_field("count", h.count());
    // Sums of cycle latencies fit u64 in any practical run; saturate for
    // the canonical emitter, which has no u128 path.
    w.u64_field("sum", u64::try_from(h.sum()).unwrap_or(u64::MAX));
    w.u64_field("min", h.min());
    w.u64_field("max", h.max());
    w.f64_field("mean", h.mean());
    w.u64_field("p50", h.percentile(0.50));
    w.u64_field("p90", h.percentile(0.90));
    w.u64_field("p99", h.percentile(0.99));
    let flat: Vec<u64> = h
        .nonzero_buckets()
        .flat_map(|(i, c)| [i as u64, c])
        .collect();
    w.u64_array_field("buckets", &flat);
    w.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycle: u64) -> MachineSnapshot {
        MachineSnapshot {
            cycle,
            route_mode: "memory-side",
            pause: "running",
            controller: "-",
            chips: vec![ChipSample::default(); 2],
            ..MachineSnapshot::default()
        }
    }

    #[test]
    fn observer_records_latencies_per_chip_and_class() {
        let mut o = Observer::new(ObsConfig::metrics(), 2);
        o.note_issue(100); // id 0
        o.note_issue(110); // id 1
        o.note_response(0, 0, 0, 150); // chip 0, local LLC, 50 cycles
        o.note_response(1, 3, 1, 400); // chip 1, remote mem, 290 cycles
        let r = o.finalize("memory-side", 500, &snap(500), &[]);
        assert_eq!(r.class_histogram(ResponseOrigin::LocalLlc).count(), 1);
        assert_eq!(r.class_histogram(ResponseOrigin::RemoteMem).count(), 1);
        assert_eq!(r.total_histogram().count(), 2);
        assert_eq!(r.total_histogram().sum(), 50 + 290);
        assert!(r.trace_json.is_none(), "metrics level has no trace sink");
    }

    #[test]
    fn finalize_records_trailing_epoch_and_closes_spans() {
        let mut o = Observer::new(ObsConfig::trace().with_epoch_window(100), 1);
        o.sample_epoch(&snap(100));
        o.note_pause(150, "sac-drain");
        let r = o.finalize("sac", 230, &snap(230), &[]);
        assert_eq!(r.timeline.len(), 2, "trailing partial epoch recorded");
        assert_eq!(r.timeline[1].end_cycle, 230);
        let trace = r.trace_json.expect("trace level emits a trace");
        assert!(
            trace.contains("sac-drain"),
            "open pause span closed at run end"
        );
    }

    #[test]
    fn canonical_json_is_deterministic_and_closed() {
        let build = || {
            let mut o = Observer::new(ObsConfig::metrics(), 1);
            o.note_issue(0);
            o.note_response(0, 2, 0, 75);
            o.sample_epoch(&snap(100));
            o.finalize("sm-side", 100, &snap(100), &[])
                .to_canonical_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.trim_end().ends_with('}'), "obs JSON is strictly closed");
        assert!(mcgpu_types::json::parse(&a).is_ok());
    }
}
