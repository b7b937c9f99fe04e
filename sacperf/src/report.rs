//! The declared metrics and the result line.
//!
//! `BENCHMARK.json` declares the same names and units; a test keeps the
//! two in step. The result line can only carry declared metrics, and must
//! carry every one of the run's set.

use std::collections::BTreeMap;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run (`--trace 0`). Host time is wall clock;
/// simulated time is `RunStats.cycles`.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s"),
    def("setup_s", "s"),
    def("sim_cycles_per_s", "cycles/s"),
    def("accesses_per_s", "accesses/s"),
    def("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("fail_ratio", "ratio"),
    def("expect_fail", "count"),
    def("trace.generate_s", "s"),
    def("trace.accesses", "count"),
    def("sim.build_s", "s"),
    def("sim.run_s", "s"),
    def("sim.ns_per_cycle", "ns"),
    def("sim.cells", "count"),
    def("sim.skipped_frac", "ratio"),
    def("sim.skip_jumps", "count"),
    def("fabric.ns_per_packet", "ns"),
    def("fabric.backlog_peak", "packets"),
    def("fabric.full_ratio", "ratio"),
    def("xbar.ns_per_packet", "ns"),
    def("xbar.full_ratio", "ratio"),
    def("cache.ns_per_access", "ns"),
    def("cache.hit_ratio", "ratio"),
    def("dram.ns_per_request", "ns"),
    def("dram.bytes_per_cycle", "B/cycle"),
    def("pae.ns_per_index", "ns"),
    def("crd.ns_per_observe", "ns"),
    def("eab.ns_per_decide", "ns"),
    def("estimate.ns_per_cell", "ns"),
    def("fast.run_s", "s"),
    def("fast.profile_s", "s"),
    def("sweep.efficiency", "ratio"),
    def("figcheck.metrics_s", "s"),
    def("figcheck.evaluate_s", "s"),
    def("stats.json_s", "s"),
    def("model.cycles", "cycles"),
    def("model.accesses", "count"),
    def("model.fabric_bytes", "B"),
    def("model.l1_hit_ratio", "ratio"),
    def("model.llc_accesses", "count"),
    def("model.llc_hit_ratio", "ratio"),
    def("model.dram_reads", "count"),
    def("model.dram_writes", "count"),
    def("model.sac_decisions", "count"),
    def("model.overhead_cycles", "cycles"),
    def("tracing.overhead_s", "s"),
    def("self_s.mcgpu-trace", "s"),
    def("self_s.mcgpu-sim", "s"),
    def("self_s.mcgpu-noc", "s"),
    def("self_s.mcgpu-cache", "s"),
    def("self_s.mcgpu-mem", "s"),
    def("self_s.sac", "s"),
    def("self_s.sac-bench", "s"),
    def("self_s.sacperf", "s"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Render the result line: exactly the metrics of `defs`, in order.
///
/// # Errors
/// A message naming a declared metric without a value, a value for an
/// undeclared metric, or a value that is not finite.
pub fn result_line(
    defs: &[MetricDef],
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut metrics = Vec::new();
    for d in defs {
        let v = *values
            .get(d.name)
            .ok_or_else(|| format!("declared metric `{}` has no value", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite: {v}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}
