//! The benchmark's own checks: declared metric names, self-time
//! arithmetic, and cell determinism.

use mcgpu_trace::profiles;
use mcgpu_types::json::{parse, JsonValue};
use mcgpu_types::{LlcOrgKind, MachineConfig};
use sacperf::exec::{generate_traces, run_cell};
use sacperf::grid::{Engine, Grid, DEFAULT_SEED};
use sacperf::report::{result_line, valid_name, MetricDef, END_TO_END, PER_LAYER};
use sacperf::run::repo_root;
use sacperf::spans::{layer_self_seconds, self_times, Span, Tracer};
use std::collections::{BTreeMap, BTreeSet};

fn declared(doc: &JsonValue, key: &str) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> BTreeSet<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), defined(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), defined(PER_LAYER));
    assert_eq!(END_TO_END.len() + PER_LAYER.len(), {
        let mut all = defined(END_TO_END);
        all.extend(defined(PER_LAYER));
        all.len()
    });

    for defs in [END_TO_END, PER_LAYER] {
        let values: BTreeMap<&'static str, f64> = defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 + 0.5))
            .collect();
        let line = result_line(defs, true, 3, 0, &values).expect("complete metric set");
        let printed = parse(&line).expect("result line is JSON");
        let JsonValue::Object(metrics) = printed.get("metrics").expect("metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());

        let mut missing = values.clone();
        missing.remove(defs[0].name);
        assert!(result_line(defs, true, 3, 0, &missing).is_err());
        let mut extra = values.clone();
        extra.insert("undeclared", 1.0);
        assert!(result_line(defs, true, 3, 0, &extra).is_err());
    }
    assert!(!valid_name("_leading") && !valid_name("a b") && valid_name("self_s.sac-bench"));
}

fn span(id: u32, parent: Option<u32>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "call",
        layer,
        cell: None,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(0, None, "root", 0, 100),
        // Two children running concurrently on different threads overlap.
        span(1, Some(0), "a", 10, 40),
        span(2, Some(0), "a", 30, 60),
        // A child outliving its parent only covers the parent's part.
        span(3, Some(0), "b", 90, 120),
        span(4, Some(1), "b", 15, 25),
    ];
    let own = self_times(&spans);
    assert_eq!(own[&0], 100 - (50 + 10));
    assert_eq!(own[&1], 30 - 10);
    assert_eq!(own[&2], 30);
    assert_eq!(own[&3], 30);
    assert_eq!(own[&4], 10);
    let layers = layer_self_seconds(&spans);
    assert!((layers["root"] - 40e-9).abs() < 1e-15);
    assert!((layers["a"] - 50e-9).abs() < 1e-15);
    assert!((layers["b"] - 40e-9).abs() < 1e-15);
}

#[test]
fn small_cell_digest_repeats_in_process() {
    let mut params = Grid::new(sacperf::grid::WorkloadKind::FigSuite, DEFAULT_SEED).params;
    params.total_accesses = 4_000;
    let grid = Grid {
        engine: Engine::Cycle,
        machines: vec![("ring4", MachineConfig::experiment_baseline())],
        profiles: vec![profiles::by_name("SN").expect("SN")],
        orgs: vec![LlcOrgKind::Sac],
        params,
    };
    let cell = grid.cells()[0];
    let tracer = Tracer::new(false);
    let digests: Vec<u64> = (0..2)
        .map(|_| {
            let traces = generate_traces(&grid, &tracer, None);
            let r = run_cell(&grid, &traces, &cell, &tracer, None);
            assert!(r.stats.is_ok(), "{:?}", r.stats.err());
            r.digest
        })
        .collect();
    assert_ne!(digests[0], 0);
    assert_eq!(digests[0], digests[1]);
}
