//! Every workload at toy size, in both passes: the run must succeed,
//! check every operation, and report exactly the metrics `BENCHMARK.json`
//! lists, with the same units.

use dakc_perfbench::{run, Opts, WORKLOADS};
use dakc_sim::telemetry::json::{parse, JsonValue};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc: JsonValue = parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn workload_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(ours, workload_names());
}

#[test]
fn every_workload_reports_its_declared_metrics() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let opts = Opts {
                workload,
                seed: 5,
                seconds: 0.2,
                trace,
                toy: true,
            };
            let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            assert!(
                out.correct && out.failed == 0,
                "{}: {:?}",
                workload.name(),
                out
            );
            assert!(out.attempted >= 1);
            for m in &out.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {}: {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
            let line = out.to_json();
            assert!(parse(&line).is_ok(), "{line}");
        }
    }
}
