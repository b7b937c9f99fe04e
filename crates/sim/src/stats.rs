//! End-to-end run statistics.

use mcgpu_cache::CacheStats;
use mcgpu_types::json::{parse, CanonicalWriter, JsonValue};
use mcgpu_types::{LlcOrgKind, ParseError, ResponseOrigin};
use sac::controller::KernelRecord;
use sac::eab::EabInputs;

/// Statistics of one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel index within the workload.
    pub index: usize,
    /// Cycles spent executing this kernel (including reconfiguration).
    pub cycles: u64,
    /// Accesses completed.
    pub accesses: u64,
    /// The LLC mode used for the bulk of the kernel (`None` for
    /// non-reconfigurable organizations).
    pub sac_mode: Option<sac::LlcMode>,
}

impl KernelStats {
    /// Performance proxy: completed accesses per cycle.
    pub fn perf(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.accesses as f64 / self.cycles as f64
        }
    }
}

/// Complete statistics of one simulated workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// The LLC organization simulated.
    pub organization: LlcOrgKind,
    /// Total cycles including kernel-boundary coherence and SAC
    /// reconfiguration overheads.
    pub cycles: u64,
    /// Read accesses completed.
    pub reads: u64,
    /// Write accesses completed.
    pub writes: u64,
    /// Aggregated L1 statistics.
    pub l1: CacheStats,
    /// Aggregated LLC statistics.
    pub llc: CacheStats,
    /// Read responses delivered, by data origin (Fig. 10 legend order:
    /// local LLC, remote LLC, local memory, remote memory).
    pub responses_by_origin: [u64; 4],
    /// Mean fraction of resident LLC lines holding local-partition data,
    /// sampled periodically (Fig. 9); the remainder is remote data.
    pub llc_local_fraction: f64,
    /// Mean LLC occupancy (valid lines / capacity), sampled periodically.
    pub llc_occupancy: f64,
    /// Total bytes moved over the inter-chip ring.
    pub ring_bytes: u64,
    /// DRAM reads served.
    pub dram_reads: u64,
    /// DRAM writes + writebacks served.
    pub dram_writes: u64,
    /// Cycles spent draining/flushing for SAC reconfigurations and
    /// kernel-boundary coherence.
    pub overhead_cycles: u64,
    /// High-water mark of simultaneously outstanding requests (MLP proxy).
    pub max_in_flight: u64,
    /// Per-kernel statistics.
    pub kernels: Vec<KernelStats>,
    /// SAC decision history (empty for other organizations).
    pub sac_history: Vec<KernelRecord>,
}

impl RunStats {
    /// Performance proxy: completed accesses per cycle. Speedups between
    /// organizations running the *same* workload are cycle ratios, which
    /// this exposes directly.
    pub fn perf(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.reads + self.writes) as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over `baseline` on the same workload
    /// (cycle-count ratio).
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        debug_assert_eq!(
            self.reads + self.writes,
            baseline.reads + baseline.writes,
            "speedup requires identical workloads"
        );
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Effective LLC bandwidth proxy (Fig. 1c / Fig. 10): read responses
    /// delivered per cycle, regardless of origin.
    pub fn effective_llc_bandwidth(&self) -> f64 {
        let total: u64 = self.responses_by_origin.iter().sum();
        if self.cycles == 0 {
            0.0
        } else {
            total as f64 / self.cycles as f64
        }
    }

    /// Responses per cycle from one origin (Fig. 10 breakdown).
    pub fn response_rate(&self, origin: ResponseOrigin) -> f64 {
        let idx = ResponseOrigin::ALL
            .iter()
            .position(|&o| o == origin)
            .expect("origin in ALL");
        if self.cycles == 0 {
            0.0
        } else {
            self.responses_by_origin[idx] as f64 / self.cycles as f64
        }
    }

    /// LLC miss rate over the run (Fig. 1b).
    pub fn llc_miss_rate(&self) -> f64 {
        self.llc.miss_rate()
    }

    /// SAC's per-kernel decisions, one letter per kernel: `S` for
    /// SM-side, `M` for memory-side (empty for other organizations).
    pub fn sac_modes(&self) -> String {
        self.sac_history
            .iter()
            .map(|k| {
                if k.mode == sac::LlcMode::SmSide {
                    'S'
                } else {
                    'M'
                }
            })
            .collect()
    }
}

impl RunStats {
    /// Serialize to canonical JSON for the golden-stats regression harness:
    /// fixed key order, 2-space indentation, floats printed with Rust's
    /// shortest-roundtrip formatting. Two runs produce byte-identical JSON
    /// iff their statistics are bit-identical, so committed snapshots under
    /// `tests/golden/` catch any behavioural drift in the simulator.
    pub fn to_canonical_json(&self) -> String {
        let mut w = CanonicalWriter::new();
        w.open();
        w.str_field("organization", self.organization.label());
        w.u64_field("cycles", self.cycles);
        w.u64_field("reads", self.reads);
        w.u64_field("writes", self.writes);
        cache_field(&mut w, "l1", &self.l1);
        cache_field(&mut w, "llc", &self.llc);
        w.u64_array_field("responses_by_origin", &self.responses_by_origin);
        w.f64_field("llc_local_fraction", self.llc_local_fraction);
        w.f64_field("llc_occupancy", self.llc_occupancy);
        w.u64_field("ring_bytes", self.ring_bytes);
        w.u64_field("dram_reads", self.dram_reads);
        w.u64_field("dram_writes", self.dram_writes);
        w.u64_field("overhead_cycles", self.overhead_cycles);
        w.u64_field("max_in_flight", self.max_in_flight);
        w.array_field("kernels", self.kernels.len(), |w, i| {
            let k = &self.kernels[i];
            w.open();
            w.u64_field("index", k.index as u64);
            w.u64_field("cycles", k.cycles);
            w.u64_field("accesses", k.accesses);
            w.str_field("sac_mode", k.sac_mode.map_or("none", |m| m.label()));
            w.close();
        });
        w.array_field("sac_history", self.sac_history.len(), |w, i| {
            let r = &self.sac_history[i];
            w.open();
            w.u64_field("start_cycle", r.start_cycle);
            w.u64_field("decision_cycle", r.decision_cycle);
            w.f64_field("r_local", r.inputs.r_local);
            w.f64_field("llc_hit_memory_side", r.inputs.llc_hit_memory_side);
            w.f64_field("llc_hit_sm_side", r.inputs.llc_hit_sm_side);
            w.f64_field("lsu_memory_side", r.inputs.lsu_memory_side);
            w.f64_field("lsu_sm_side", r.inputs.lsu_sm_side);
            w.f64_field("eab_memory_side", r.eab_memory_side);
            w.f64_field("eab_sm_side", r.eab_sm_side);
            w.str_field("mode", r.mode.label());
            w.u64_field("requests_observed", r.requests_observed);
            w.bool_field("fallback", r.fallback);
            w.close();
        });
        w.close();
        w.finish()
    }

    /// Reconstruct stats from [`RunStats::to_canonical_json`] output.
    ///
    /// The round trip is exact: u64 fields parse from their decimal text and
    /// f64 fields from Rust's shortest-roundtrip `{:?}` representation, so
    /// `RunStats::from_canonical_json(&s.to_canonical_json())` equals `s`
    /// bit-for-bit — the property the resumable sweep journal relies on to
    /// replay completed cells byte-identically.
    ///
    /// # Errors
    /// [`ParseError`] when the text is not valid JSON or a required field is
    /// missing or mistyped.
    pub fn from_canonical_json(text: &str) -> Result<RunStats, ParseError> {
        // Stats written before the writer closed its top-level object end
        // after the final array, without the brace, and run journals
        // recorded then still hold that form. Accept it as well as the
        // closed form, so those journals keep replaying.
        let patched;
        let doc = if text.trim_end().ends_with('}') {
            text
        } else {
            patched = format!("{text}}}");
            &patched
        };
        let v = parse(doc)?;

        fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ParseError> {
            v.get(key)
                .ok_or_else(|| ParseError::new(format!("missing field `{key}`")))
        }
        fn u64f(v: &JsonValue, key: &str) -> Result<u64, ParseError> {
            get(v, key)?
                .as_u64()
                .ok_or_else(|| ParseError::new(format!("field `{key}` is not a u64")))
        }
        fn f64f(v: &JsonValue, key: &str) -> Result<f64, ParseError> {
            get(v, key)?
                .as_f64()
                .ok_or_else(|| ParseError::new(format!("field `{key}` is not a number")))
        }
        fn strf<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, ParseError> {
            get(v, key)?
                .as_str()
                .ok_or_else(|| ParseError::new(format!("field `{key}` is not a string")))
        }
        fn boolf(v: &JsonValue, key: &str) -> Result<bool, ParseError> {
            get(v, key)?
                .as_bool()
                .ok_or_else(|| ParseError::new(format!("field `{key}` is not a bool")))
        }
        fn cachef(v: &JsonValue, key: &str) -> Result<CacheStats, ParseError> {
            let c = get(v, key)?;
            Ok(CacheStats {
                accesses: u64f(c, "accesses")?,
                hits: u64f(c, "hits")?,
                misses: u64f(c, "misses")?,
                sector_misses: u64f(c, "sector_misses")?,
                fills: u64f(c, "fills")?,
                evictions: u64f(c, "evictions")?,
                fill_rejections: u64f(c, "fill_rejections")?,
            })
        }
        fn arrayf<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ParseError> {
            get(v, key)?
                .as_array()
                .ok_or_else(|| ParseError::new(format!("field `{key}` is not an array")))
        }

        let organization = LlcOrgKind::from_label(strf(&v, "organization")?).ok_or_else(|| {
            ParseError::new(format!(
                "unknown organization `{}`",
                strf(&v, "organization").unwrap_or_default()
            ))
        })?;

        let origins = arrayf(&v, "responses_by_origin")?;
        if origins.len() != 4 {
            return Err(ParseError::new("responses_by_origin must have 4 entries"));
        }
        let mut responses_by_origin = [0u64; 4];
        for (slot, item) in responses_by_origin.iter_mut().zip(origins) {
            *slot = item
                .as_u64()
                .ok_or_else(|| ParseError::new("responses_by_origin entry is not a u64"))?;
        }

        let kernels =
            arrayf(&v, "kernels")?
                .iter()
                .map(|k| {
                    let mode = strf(k, "sac_mode")?;
                    Ok(KernelStats {
                        index: u64f(k, "index")? as usize,
                        cycles: u64f(k, "cycles")?,
                        accesses: u64f(k, "accesses")?,
                        sac_mode: if mode == "none" {
                            None
                        } else {
                            Some(sac::LlcMode::from_label(mode).ok_or_else(|| {
                                ParseError::new(format!("unknown sac_mode `{mode}`"))
                            })?)
                        },
                    })
                })
                .collect::<Result<Vec<_>, ParseError>>()?;

        let sac_history = arrayf(&v, "sac_history")?
            .iter()
            .map(|r| {
                let mode = strf(r, "mode")?;
                Ok(KernelRecord {
                    start_cycle: u64f(r, "start_cycle")?,
                    decision_cycle: u64f(r, "decision_cycle")?,
                    inputs: EabInputs {
                        r_local: f64f(r, "r_local")?,
                        llc_hit_memory_side: f64f(r, "llc_hit_memory_side")?,
                        llc_hit_sm_side: f64f(r, "llc_hit_sm_side")?,
                        lsu_memory_side: f64f(r, "lsu_memory_side")?,
                        lsu_sm_side: f64f(r, "lsu_sm_side")?,
                    },
                    eab_memory_side: f64f(r, "eab_memory_side")?,
                    eab_sm_side: f64f(r, "eab_sm_side")?,
                    mode: sac::LlcMode::from_label(mode)
                        .ok_or_else(|| ParseError::new(format!("unknown mode `{mode}`")))?,
                    requests_observed: u64f(r, "requests_observed")?,
                    fallback: boolf(r, "fallback")?,
                })
            })
            .collect::<Result<Vec<_>, ParseError>>()?;

        Ok(RunStats {
            organization,
            cycles: u64f(&v, "cycles")?,
            reads: u64f(&v, "reads")?,
            writes: u64f(&v, "writes")?,
            l1: cachef(&v, "l1")?,
            llc: cachef(&v, "llc")?,
            responses_by_origin,
            llc_local_fraction: f64f(&v, "llc_local_fraction")?,
            llc_occupancy: f64f(&v, "llc_occupancy")?,
            ring_bytes: u64f(&v, "ring_bytes")?,
            dram_reads: u64f(&v, "dram_reads")?,
            dram_writes: u64f(&v, "dram_writes")?,
            overhead_cycles: u64f(&v, "overhead_cycles")?,
            max_in_flight: u64f(&v, "max_in_flight")?,
            kernels,
            sac_history,
        })
    }
}

/// Emit one cache's counters as an object member named `key`.
fn cache_field(w: &mut CanonicalWriter, key: &str, s: &CacheStats) {
    w.object_field(key, |w| {
        w.u64_field("accesses", s.accesses);
        w.u64_field("hits", s.hits);
        w.u64_field("misses", s.misses);
        w.u64_field("sector_misses", s.sector_misses);
        w.u64_field("fills", s.fills);
        w.u64_field("evictions", s.evictions);
        w.u64_field("fill_rejections", s.fill_rejections);
    });
}

/// Harmonic mean of positive values, as the paper uses for average speedups.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let denom: f64 = values.iter().map(|v| 1.0 / v.max(1e-12)).sum();
    values.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        // HM of 1 and 3 is 1.5.
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        // HM is dominated by small values.
        assert!(harmonic_mean(&[0.5, 10.0]) < 1.0);
    }

    fn stats(cycles: u64, reads: u64) -> RunStats {
        RunStats {
            organization: LlcOrgKind::MemorySide,
            cycles,
            reads,
            writes: 0,
            l1: CacheStats::default(),
            llc: CacheStats::default(),
            responses_by_origin: [10, 20, 30, 40],
            llc_local_fraction: 1.0,
            llc_occupancy: 0.5,
            ring_bytes: 0,
            dram_reads: 0,
            dram_writes: 0,
            overhead_cycles: 0,
            max_in_flight: 0,
            kernels: Vec::new(),
            sac_history: Vec::new(),
        }
    }

    #[test]
    fn perf_and_speedup() {
        let fast = stats(100, 1000);
        let slow = stats(400, 1000);
        assert!((fast.perf() - 10.0).abs() < 1e-12);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn canonical_json_round_trips() {
        let mut s = stats(12_345, 678);
        s.organization = LlcOrgKind::Sac;
        s.llc_local_fraction = 0.123456789012345; // exercises shortest-roundtrip floats
        s.kernels.push(KernelStats {
            index: 3,
            cycles: 99,
            accesses: 1_000,
            sac_mode: Some(sac::LlcMode::SmSide),
        });
        s.sac_history.push(KernelRecord {
            start_cycle: 1,
            decision_cycle: 2,
            inputs: EabInputs {
                r_local: 0.25,
                llc_hit_memory_side: 0.5,
                llc_hit_sm_side: 1.0 / 3.0,
                lsu_memory_side: 0.75,
                lsu_sm_side: 0.9,
            },
            eab_memory_side: 437.5,
            eab_sm_side: 96.0,
            mode: sac::LlcMode::MemorySide,
            requests_observed: 4096,
            fallback: false,
        });
        let json = s.to_canonical_json();
        assert!(parse(&json).is_ok(), "canonical stats are valid JSON");
        let back = RunStats::from_canonical_json(&json).unwrap();
        assert_eq!(back, s);
        // Bit-exact: re-serializing yields identical bytes.
        assert_eq!(back.to_canonical_json(), json);
    }

    #[test]
    fn from_canonical_json_accepts_the_brace_less_form() {
        // Stats as journals recorded them before the writer closed its
        // top-level object.
        let s = stats(7, 9);
        let json = s.to_canonical_json();
        let brace_less = format!("{}\n", json.strip_suffix("\n}\n").expect("closed document"));
        assert!(parse(&brace_less).is_err());
        assert_eq!(RunStats::from_canonical_json(&brace_less).unwrap(), s);
    }

    #[test]
    fn canonical_json_key_set_is_pinned() {
        // Guard against counters that are accumulated but never surfaced
        // (or surfaced twice): the exact top-level key set of the golden
        // format is pinned here, in order. Changing it requires a golden
        // regeneration, which is a deliberate, reviewed event.
        let mut s = stats(1, 1);
        s.organization = LlcOrgKind::Sac;
        let json = s.to_canonical_json();
        let keys: Vec<&str> = json
            .lines()
            .filter(|l| l.starts_with("  \""))
            .map(|l| {
                let rest = &l[3..];
                &rest[..rest.find('"').unwrap()]
            })
            .collect();
        assert_eq!(
            keys,
            [
                "organization",
                "cycles",
                "reads",
                "writes",
                "l1",
                "llc",
                "responses_by_origin",
                "llc_local_fraction",
                "llc_occupancy",
                "ring_bytes",
                "dram_reads",
                "dram_writes",
                "overhead_cycles",
                "max_in_flight",
                "kernels",
                "sac_history",
            ]
        );
    }

    #[test]
    fn from_canonical_json_rejects_malformed_input() {
        assert!(RunStats::from_canonical_json("").is_err());
        assert!(RunStats::from_canonical_json("{}").is_err());
        let json = stats(1, 1).to_canonical_json();
        let truncated = &json[..json.len() / 2];
        assert!(RunStats::from_canonical_json(truncated).is_err());
    }

    #[test]
    fn origin_rates_sum_to_effective_bandwidth() {
        let s = stats(100, 1000);
        let sum: f64 = ResponseOrigin::ALL
            .iter()
            .map(|&o| s.response_rate(o))
            .sum();
        assert!((sum - s.effective_llc_bandwidth()).abs() < 1e-12);
        assert!((s.response_rate(ResponseOrigin::RemoteMem) - 0.4).abs() < 1e-12);
    }
}
