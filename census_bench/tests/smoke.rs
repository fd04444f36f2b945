//! Drives the whole suite at smoke scale through the real binary, so an
//! API refactor elsewhere in the repo cannot silently rot the benchmark.

use ego_server::json::Json;
use std::process::Command;
use std::time::Instant;

const WORKLOADS: [&str; 7] = [
    "cold-census",
    "cold-selective",
    "hot-tiers",
    "full-table",
    "update-stream",
    "read-after-write",
    "router-scatter",
];
const END_TO_END: [&str; 4] = [
    "throughput_ops",
    "latency_p50_ms",
    "latency_p95_ms",
    "setup_s",
];

fn value(entry: &Json, metric: &str) -> Option<f64> {
    match entry.get("metrics")?.get(metric)?.get("value")? {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

#[test]
fn smoke_suite_records_every_metric_for_every_workload() {
    let out = std::env::temp_dir().join(format!("census_bench_smoke_{}", std::process::id()));
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_census_bench"))
        .args(["--all", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("run census_bench");
    let took = started.elapsed();
    assert!(
        run.status.success(),
        "smoke suite failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(out.join("census_bench.smoke.json")).expect("record");
    let record = Json::parse(text.trim()).expect("record parses");
    assert_eq!(record.get("claim"), Some(&Json::Null));
    assert_eq!(record.get("smoke"), Some(&Json::Bool(true)));
    let workloads = record
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        for part in ["end_to_end", "per_layer"] {
            let entry = w.get(part).expect(part);
            assert_eq!(
                entry.get("correct"),
                Some(&Json::Bool(true)),
                "{name} {part}"
            );
            assert_eq!(entry.get("failed"), Some(&Json::Int(0)), "{name} {part}");
            assert_eq!(
                entry.get("failed_share"),
                Some(&Json::Float(0.0)),
                "{name} {part}"
            );
        }
        for metric in END_TO_END {
            let v = value(w.get("end_to_end").unwrap(), metric)
                .unwrap_or_else(|| panic!("{name}: no {metric}"));
            assert!(v > 0.0 && v.is_finite(), "{name}: {metric} = {v}");
        }
        let traced = w.get("per_layer").unwrap();
        assert!(value(traced, "trace.ops").unwrap() > 0.0, "{name}");
        assert!(value(traced, "graph.egb_bytes").unwrap() > 0.0, "{name}");
    }

    // The span file has one entry per workload, each a list of spans.
    let text = std::fs::read_to_string(out.join("trace.smoke.json")).expect("trace");
    let trace = Json::parse(text.trim()).expect("trace parses");
    for name in WORKLOADS {
        let spans = trace.get(name).and_then(Json::as_array).expect(name);
        assert!(!spans.is_empty(), "{name}");
        assert!(spans[0].get("name").is_some() && spans[0].get("op").is_some());
    }

    let _ = std::fs::remove_dir_all(&out);
    assert!(
        took.as_secs() < 30,
        "smoke suite took {took:?}; it is meant to stay under 10 s on an idle host"
    );
}

#[test]
fn a_debug_build_refuses_to_measure_at_full_scale() {
    if !cfg!(debug_assertions) {
        return;
    }
    let run = Command::new(env!("CARGO_BIN_EXE_census_bench"))
        .args(["--workload", "hot-tiers", "--seconds", "1"])
        .output()
        .expect("run census_bench");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("debug build"));
}
