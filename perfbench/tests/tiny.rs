//! The benchmark's own smoke test: every workload in `BENCHMARK.json` runs
//! at `--scale tiny`, untraced and traced, passes its correctness checks,
//! and prints exactly the metrics `BENCHMARK.json` names for that mode
//! (`end_to_end` untraced, `per_layer` traced), each with the unit it
//! declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use mochy_json::JsonValue;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Names are letters, digits, `_`, `.` and `-`, start with a letter or a
/// digit, and are at most 64 characters long.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(benchmark: &JsonValue, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns its metrics as name → unit.
fn run(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = mochy_json::parse(stdout.lines().last().expect("some output"))
        .expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} has no value"
            );
            let unit = metric
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{workload}: {name} has no unit"));
            assert!(
                stdout.contains(&format!("metric {name} = ")),
                "{workload}: {name} is not printed by name"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let benchmark = mochy_json::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("a workloads list")
        .iter()
        .filter_map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect();
    assert_eq!(workloads.len(), 3);

    for (list, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let listed = names(&benchmark, list);
        let declared: BTreeMap<String, String> = listed.iter().cloned().collect();
        assert_eq!(declared.len(), listed.len(), "a `{list}` name repeats");
        for name in declared.keys() {
            assert!(valid_name(name), "metric name {name}");
        }
        for workload in &workloads {
            assert!(valid_name(workload), "workload name {workload}");
            assert_eq!(
                run(workload, trace),
                declared,
                "{workload} --trace {trace} must print exactly the `{list}` metrics"
            );
        }
    }
}
