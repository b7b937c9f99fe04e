//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every layer call the benchmark makes goes through [`Tracer::span`],
//! which times it with the host wall clock. With tracing on, the call is
//! also recorded as a [`Span`] (name, layer, start, end, parent, cell);
//! spans stay in memory until the run ends and are then written out as
//! JSON lines. With tracing off nothing is recorded, so the end-to-end
//! numbers carry no tracing cost.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span, unique within one run.
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: SpanId,
    /// The span that made this call (`None` for a root).
    pub parent: Option<SpanId>,
    /// What was called, e.g. `generate` or `run`.
    pub name: &'static str,
    /// Crate (layer) the call went into, e.g. `mcgpu-sim`.
    pub layer: &'static str,
    /// Grid cell the call belongs to, if any.
    pub cell: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Times layer calls and, when enabled, records them as spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as a call into `layer`, returning its result and its host
    /// duration in seconds. `f` receives the new span's id (`None` when
    /// tracing is off) to parent the spans it opens itself.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(None);
            return (r, t.elapsed().as_secs_f64());
        }
        // Relaxed: the counter only hands out distinct ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let r = f(Some(id));
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            layer,
            cell,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (r, (end - start).as_secs_f64())
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of each span in nanoseconds: its duration minus the part of
/// its interval that its children cover. Children may run concurrently on
/// other threads, so the covered part is the union of their intervals,
/// clipped to the parent's.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0.0) += own[&s.id] as f64 * 1e-9;
    }
    out
}

/// Write `spans` as JSON lines, one span per line.
///
/// # Errors
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"cell\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.layer,
            opt(s.cell),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
