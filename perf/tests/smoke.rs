//! Runs every workload at a tiny size, untraced and traced, and checks the
//! result line against the metric lists in the repository's
//! `BENCHMARK.json`.

use std::process::Command;

/// `(name, value, unit)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, String, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let (value, rest) = rest.split_once(", \"unit\": \"").expect("unit");
            let unit = rest.split('"').next().expect("unit string");
            (name.trim_start_matches('"').to_string(), value.to_string(), unit.to_string())
        })
        .collect()
}

/// The metric names listed under `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let from = spec.split_once(&format!("\"{section}\"")).expect("section").1;
    let list = from.split_once(']').expect("section list").0;
    list.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("name").to_string())
        .collect()
}

fn run(workload: &str, trace: bool) -> Vec<(String, String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_hape-perf"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--setups", "2"])
        .args(["--sf", "0.002", "--users", "100", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run hape-perf");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, "), "{last}");
    metrics(last)
}

fn assert_complete(workload: &str, got: &[(String, String, String)], want: &[String]) {
    for name in want {
        let (_, value, unit) = got
            .iter()
            .find(|m| &m.0 == name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("{workload}: {name} = {value}"));
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(!unit.is_empty(), "{workload}: {name} has no unit");
    }
    assert_eq!(got.len(), want.len(), "{workload}: metrics beyond BENCHMARK.json");
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_makespan() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in ["tpch-solo", "serve-hot", "serve-refresh"] {
        let first = run(workload, false);
        assert_complete(workload, &first, &end_to_end);
        let sim = |m: &[(String, String, String)]| {
            m.iter().find(|m| m.0 == "sim_ms").map(|m| m.1.clone()).expect("sim_ms")
        };
        let second = run(workload, false);
        assert_eq!(sim(&first), sim(&second), "{workload}: sim_ms must repeat bit for bit");
        assert_complete(workload, &run(workload, true), &per_layer);
    }
}
