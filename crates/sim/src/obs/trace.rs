//! Chrome `trace_event` sink.
//!
//! Emits the JSON object format (`{"traceEvents":[...]}`) understood by
//! `chrome://tracing` and Perfetto. Timestamps are **simulated cycles**,
//! never wall-clock time, so two identical runs emit byte-identical
//! files. Track layout:
//!
//! - pid 0 — the machine. tid 0 carries kernel spans with nested
//!   kernel-boundary drain spans; tid 1 carries SAC reconfiguration
//!   spans (drain/flush pauses) and decision instants.
//! - pid `1 + c` — chip `c`. Counter tracks sampled once per epoch
//!   (DRAM bytes, ring-injected bytes, queue depth, LLC hit rate).

/// Machine-track tid for kernel + boundary spans.
pub const TID_KERNELS: u64 = 1;
/// Machine-track tid for SAC reconfiguration spans and decisions.
pub const TID_SAC: u64 = 2;

#[derive(Debug, Clone)]
enum Payload {
    /// `ph:"M"` metadata naming a process or thread.
    Meta { name: &'static str, value: String },
    /// `ph:"X"` complete span.
    Span {
        name: String,
        dur: u64,
        args: Vec<(String, String)>,
    },
    /// `ph:"i"` thread-scoped instant.
    Instant {
        name: String,
        args: Vec<(String, String)>,
    },
    /// `ph:"C"` counter sample.
    Counter {
        name: &'static str,
        series: Vec<(&'static str, String)>,
    },
}

#[derive(Debug, Clone)]
struct Event {
    pid: u64,
    tid: u64,
    ts: u64,
    payload: Payload,
}

/// Collects trace events during a run and serializes them to Chrome
/// `trace_event` JSON at the end.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Vec<Event>,
}

/// `s` escaped as the contents of a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    mcgpu_types::json::escape_into(s, &mut out);
    out
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Name a process track (`ph:"M"`, `process_name`).
    pub fn name_process(&mut self, pid: u64, name: &str) {
        self.events.push(Event {
            pid,
            tid: 0,
            ts: 0,
            payload: Payload::Meta {
                name: "process_name",
                value: name.to_string(),
            },
        });
    }

    /// Name a thread track (`ph:"M"`, `thread_name`).
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(Event {
            pid,
            tid,
            ts: 0,
            payload: Payload::Meta {
                name: "thread_name",
                value: name.to_string(),
            },
        });
    }

    /// Add a complete span (`ph:"X"`) covering `[start, end]` cycles.
    pub fn span(
        &mut self,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        start: u64,
        end: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(Event {
            pid,
            tid,
            ts: start,
            payload: Payload::Span {
                name: name.into(),
                dur: end.saturating_sub(start),
                args,
            },
        });
    }

    /// Add a thread-scoped instant (`ph:"i"`).
    pub fn instant(
        &mut self,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        ts: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(Event {
            pid,
            tid,
            ts,
            payload: Payload::Instant {
                name: name.into(),
                args,
            },
        });
    }

    /// Add a counter sample (`ph:"C"`); each `(series, value)` pair becomes
    /// one stacked series. Values are pre-rendered JSON numbers.
    pub fn counter(
        &mut self,
        pid: u64,
        ts: u64,
        name: &'static str,
        series: Vec<(&'static str, String)>,
    ) {
        self.events.push(Event {
            pid,
            tid: 0,
            ts,
            payload: Payload::Counter { name, series },
        });
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize to Chrome `trace_event` JSON (one event per line).
    ///
    /// Events are sorted by `(pid, tid, ts, metadata-first, longest span
    /// first)`: metadata rows lead their track, and at equal timestamps an
    /// enclosing span precedes the spans it contains, which is what the
    /// trace viewers' nesting algorithm expects.
    pub fn to_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| {
            let e = &self.events[i];
            let (is_meta, dur) = match &e.payload {
                Payload::Meta { .. } => (0u8, 0u64),
                Payload::Span { dur, .. } => (1, u64::MAX - dur),
                _ => (1, u64::MAX),
            };
            (e.pid, e.tid, e.ts, is_meta, dur)
        });
        let mut out = String::from("{\"traceEvents\":[\n");
        for (n, &i) in order.iter().enumerate() {
            let e = &self.events[i];
            if n > 0 {
                out.push_str(",\n");
            }
            match &e.payload {
                Payload::Meta { name, value } => out.push_str(&format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"args\":{{\"name\":\"{}\"}}}}",
                    e.pid,
                    e.tid,
                    name,
                    escape(value)
                )),
                Payload::Span { name, dur, args } => out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"args\":{{{}}}}}",
                    e.pid,
                    e.tid,
                    e.ts,
                    dur,
                    escape(name),
                    render_args(args)
                )),
                Payload::Instant { name, args } => out.push_str(&format!(
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"args\":{{{}}}}}",
                    e.pid,
                    e.tid,
                    e.ts,
                    escape(name),
                    render_args(args)
                )),
                Payload::Counter { name, series } => {
                    let body = series
                        .iter()
                        .map(|(k, v)| format!("\"{}\":{}", k, v))
                        .collect::<Vec<_>>()
                        .join(",");
                    out.push_str(&format!(
                        "{{\"ph\":\"C\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{{{}}}}}",
                        e.pid, e.tid, e.ts, name, body
                    ))
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

fn render_args(args: &[(String, String)]) -> String {
    args.iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_sorted_and_deterministic() {
        let build = || {
            let mut t = TraceSink::new();
            t.span(0, TID_KERNELS, "kernel 1", 500, 900, vec![]);
            t.name_process(0, "machine");
            t.span(0, TID_KERNELS, "kernel 0", 0, 400, vec![]);
            t.span(0, TID_KERNELS, "boundary", 300, 400, vec![]);
            t.to_json()
        };
        let a = build();
        assert_eq!(a, build(), "identical event streams serialize identically");
        let meta = a.find("process_name").unwrap();
        let k0 = a.find("kernel 0").unwrap();
        let k1 = a.find("kernel 1").unwrap();
        let b = a.find("boundary").unwrap();
        assert!(
            meta < k0 && k0 < b && b < k1,
            "metadata first, then spans by ts"
        );
    }

    #[test]
    fn equal_ts_spans_sort_longest_first() {
        let mut t = TraceSink::new();
        t.span(0, 0, "inner", 100, 150, vec![]);
        t.span(0, 0, "outer", 100, 900, vec![]);
        let json = t.to_json();
        assert!(json.find("outer").unwrap() < json.find("inner").unwrap());
    }

    #[test]
    fn strings_are_escaped() {
        let mut t = TraceSink::new();
        t.instant(
            0,
            0,
            "a\"b\\c",
            5,
            vec![("k\n".to_string(), "v".to_string())],
        );
        let json = t.to_json();
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("k\\n"));
    }
}
