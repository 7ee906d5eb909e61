//! Smoke test of the benchmark itself: a short run of every workload must
//! emit every metric `BENCHMARK.json` names, with its unit, and pass its
//! correctness gate; a deliberately corrupted service response must trip
//! the gate.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

use orchestrator::json::Value;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn perfbench(workload: &str, trace: u8, extra: &[&str]) -> (Output, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let result =
        Value::parse(&last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    (out, result)
}

/// Asserts the result names exactly the metrics `section` of
/// BENCHMARK.json lists, each with its unit and a finite value.
fn assert_metrics(result: &Value, section: &str) {
    let bench = benchmark_json();
    let wanted = bench.get(section).and_then(Value::as_arr).expect(section);
    let metrics = result.get("metrics").expect("metrics object");
    let Value::Obj(got) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(got.len(), wanted.len(), "{section}: metric count");
    for m in wanted {
        let name = m.get("name").and_then(Value::as_str).expect("metric name");
        let unit = m.get("unit").and_then(Value::as_str).expect("metric unit");
        let entry = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{section}: {name} missing"));
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(unit),
            "{name} unit"
        );
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

fn check_workload(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (out, result) = perfbench(workload, trace, &[]);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
        assert_metrics(&result, section);
    }
}

#[test]
fn every_workload_is_declared() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["fig6-hot", "fig6-resident"]);
}

#[test]
fn fig6_hot_emits_every_metric() {
    check_workload("fig6-hot");
}

#[test]
fn fig6_resident_emits_every_metric() {
    check_workload("fig6-resident");
}

/// `serve-correct` is not in BENCHMARK.json (its wall-clock figures are not
/// steady on a shared two-vCPU box) but stays runnable, and its metrics
/// must stay complete.
#[test]
fn serve_correct_emits_every_metric() {
    check_workload("serve-correct");
}

#[test]
fn a_corrupted_response_trips_the_gate() {
    let (out, result) = perfbench("serve-correct", 0, &["--corrupt-response"]);
    assert!(!out.status.success(), "the gate must fail the run");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_u64).unwrap_or(0) >= 1);
}
