//! Self-test of the benchmark harness: `BENCHMARK.json`, the program's own
//! catalog and what a run actually prints must agree, name for name and
//! unit for unit. Runs the program with `--smoke` (a handful of ops), so it
//! checks the harness, not the numbers.

use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_eag-wallbench");

fn contract() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::parse_value_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key}: expected a string in {v:?}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, found {other:?}"),
    }
}

/// `name -> unit` for one of the contract's metric lists.
fn contract_metrics(contract: &Value, list: &str) -> BTreeMap<String, String> {
    array(contract, list)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn workload_names(contract: &Value) -> Vec<String> {
    array(contract, "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect()
}

fn bench(args: &[&str]) -> Output {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    Command::new(BIN)
        .args(args)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("the benchmark binary starts")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload in smoke mode and checks everything it printed against
/// the contract's metric list for that mode.
fn check_run(workload: &str, trace: &str, expected: &BTreeMap<String, String>) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The run header names what was measured and where.
    for key in [
        "git_commit",
        "rustc",
        "nproc",
        "gate_width_W",
        "cpu_flags",
        "suite_dispatch",
        "malloc",
        "seed",
        "passes",
    ] {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("HEADER {key}: "))),
            "{workload} trace {trace}: header lacks {key}"
        );
    }

    // Human-readable lines: every expected metric exactly once, nothing else.
    let mut printed = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("METRIC ")) {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 5, "malformed metric line {line:?}");
        assert_eq!(fields[1], workload);
        let value: f64 = fields[3]
            .parse()
            .unwrap_or_else(|_| panic!("value in {line:?}"));
        assert!(value.is_finite(), "{line:?}");
        let prev = printed.insert(fields[2].to_string(), fields[4].to_string());
        assert!(prev.is_none(), "{workload}: {} printed twice", fields[2]);
    }
    assert_eq!(
        &printed, expected,
        "{workload} trace {trace}: printed metrics differ from BENCHMARK.json"
    );

    // The result object on the last line: exactly the four keys, and the
    // same metrics again, each with a finite value and its unit.
    let last = stdout.lines().last().expect("some output");
    let result =
        serde_json::parse_value_str(last).unwrap_or_else(|e| panic!("last line {last:?}: {e:?}"));
    let Value::Object(fields) = &result else {
        panic!("result is not an object: {last}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} trace {trace}: {last}"
    );
    assert!(number(result.get("attempted").unwrap()) >= 1.0);
    assert_eq!(number(result.get("failed").unwrap()), 0.0);
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object: {last}");
    };
    let mut in_result = BTreeMap::new();
    for (name, m) in metrics {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(number(m.get("value").expect("value")).is_finite(), "{name}");
        let prev = in_result.insert(name.clone(), text(m, "unit").to_string());
        assert!(prev.is_none(), "{name} twice in the result object");
    }
    assert_eq!(
        &in_result, expected,
        "{workload} trace {trace}: result object differs from BENCHMARK.json"
    );
}

#[test]
fn catalog_matches_benchmark_json() {
    let contract = contract();
    let listed = bench(&["--list-workloads"]);
    let names: Vec<String> = String::from_utf8(listed.stdout)
        .unwrap()
        .lines()
        .map(|l| l.split('\t').next().unwrap().to_string())
        .collect();
    assert_eq!(names, workload_names(&contract));

    let listed = bench(&["--list-metrics"]);
    let mut by_kind: BTreeMap<String, BTreeMap<String, (String, String, String)>> = BTreeMap::new();
    for line in String::from_utf8(listed.stdout).unwrap().lines() {
        let f: Vec<&str> = line.split('\t').collect();
        assert_eq!(f.len(), 5, "{line:?}");
        assert!(valid_name(f[1]), "metric name {:?}", f[1]);
        let prev = by_kind.entry(f[0].to_string()).or_default().insert(
            f[1].to_string(),
            (f[2].to_string(), f[3].to_string(), f[4].to_string()),
        );
        assert!(prev.is_none(), "{} listed twice", f[1]);
    }
    for kind in ["end_to_end", "per_layer"] {
        let ours = &by_kind[kind];
        let theirs = array(&contract, kind);
        assert_eq!(ours.len(), theirs.len(), "{kind}: metric count");
        for m in theirs {
            let (unit, better, bound) = ours
                .get(text(m, "name"))
                .unwrap_or_else(|| panic!("{kind}: {} is not in the catalog", text(m, "name")));
            assert_eq!(unit, text(m, "unit"), "{}", text(m, "name"));
            assert_eq!(better, text(m, "better"), "{}", text(m, "name"));
            match m.get("bound") {
                Some(b) => assert_eq!(
                    bound.parse::<f64>().unwrap(),
                    number(b),
                    "{}",
                    text(m, "name")
                ),
                None => assert_eq!(bound, "-", "{}", text(m, "name")),
            }
        }
    }
    let e2e = contract_metrics(&contract, "end_to_end");
    assert_eq!(e2e.get("setup_s").map(String::as_str), Some("s"));
}

#[test]
fn every_workload_emits_exactly_the_end_to_end_metrics() {
    let contract = contract();
    let expected = contract_metrics(&contract, "end_to_end");
    for w in workload_names(&contract) {
        check_run(&w, "0", &expected);
    }
}

#[test]
fn every_workload_emits_exactly_the_per_layer_metrics() {
    let contract = contract();
    let expected = contract_metrics(&contract, "per_layer");
    for w in workload_names(&contract) {
        check_run(&w, "1", &expected);
        let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{w}.trace.jsonl"));
        let spans =
            std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        let first = spans.lines().next().expect("at least one span");
        let span = serde_json::parse_value_str(first).expect("span lines are JSON");
        for key in ["id", "parent", "name", "rank", "op", "start_ns", "end_ns"] {
            assert!(span.get(key).is_some(), "{w}: span lacks {key}: {first}");
        }
    }
}

#[test]
fn unknown_arguments_are_refused() {
    assert!(!bench(&["--workload", "no_such_workload"]).status.success());
    assert!(!bench(&["--workload", "ag_small", "--trace", "2"])
        .status
        .success());
    assert!(!bench(&["--frobnicate"]).status.success());
}

/// A debug build measures the optimiser's absence; without `--smoke` the
/// program must refuse to produce numbers.
#[cfg(debug_assertions)]
#[test]
fn a_debug_build_refuses_to_measure() {
    let out = bench(&["--workload", "ag_small", "--seconds", "0.2", "--trace", "0"]);
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "a refused run must not print a result"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}
