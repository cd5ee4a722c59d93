//! Self-test of the benchmark: its declarations agree with BENCHMARK.json,
//! every metric name is legal and every per-layer metric maps to a declared
//! end-to-end metric or campaign wall time, and each workload runs once at reduced size (one
//! sample, one repetition of each quick phase) with output that parses.
//!
//! Run with `cargo test --release --offline --manifest-path
//! e2e_bench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use ddt_e2e_bench::metrics::{valid_name, RunResult, END_TO_END, PER_LAYER};
use ddt_e2e_bench::workloads::WORKLOADS;
use serde::Deserialize;

#[derive(Deserialize)]
struct Declared {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<DeclaredWorkload>,
    end_to_end: Vec<DeclaredEndToEnd>,
    per_layer: Vec<DeclaredLayer>,
}

#[derive(Deserialize)]
struct DeclaredWorkload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct DeclaredEndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct DeclaredLayer {
    name: String,
    unit: String,
    better: String,
}

fn declared() -> Declared {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn metric_names_are_legal_and_layers_map_to_declared_metrics() {
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(e2e.len(), END_TO_END.len(), "end-to-end names are unique");
    let walls: BTreeSet<&str> = PER_LAYER
        .iter()
        .filter(|m| m.moves.is_none())
        .map(|m| m.name)
        .collect();
    let mut seen = BTreeSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(seen.insert(name), "metric name {name:?} used twice");
    }
    for m in PER_LAYER {
        if let Some(moves) = m.moves {
            assert!(
                e2e.contains(moves) || walls.contains(moves),
                "{} moves undeclared metric {moves}",
                m.name
            );
        }
    }
    assert!(!valid_name("bad name") && !valid_name("_lead") && !valid_name(""));
}

#[test]
fn benchmark_json_declares_what_the_benchmark_reports() {
    let d = declared();
    assert_eq!(d.paths, ["e2e_bench"]);
    assert!(d.command.iter().any(|a| a == "e2e_bench/Cargo.toml"));
    assert!((1..=60).contains(&d.run_seconds));
    let names: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    assert!(d
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    assert_eq!(d.end_to_end.len(), END_TO_END.len());
    for (got, want) in d.end_to_end.iter().zip(END_TO_END) {
        assert_eq!(
            (
                got.name.as_str(),
                got.unit.as_str(),
                got.better.as_str(),
                got.bound
            ),
            (want.name, want.unit, want.better.as_str(), want.bound)
        );
        assert!(got.bound > 0.0 && got.bound <= 0.25);
    }
    assert_eq!(d.per_layer.len(), PER_LAYER.len());
    for (got, want) in d.per_layer.iter().zip(PER_LAYER) {
        assert_eq!(
            (got.name.as_str(), got.unit.as_str(), got.better.as_str()),
            (want.name, want.unit, want.better.as_str())
        );
    }
}

#[test]
fn every_workload_runs_once_at_reduced_size() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-selftest");
    std::fs::create_dir_all(&dir).expect("work directory");
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
                .args(["--workload", w.name, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(&dir)
                .output()
                .expect("benchmark runs");
            assert!(
                out.status.success(),
                "{} --trace {trace}: {:?}",
                w.name,
                out.status
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().expect("a result line");
            let result: RunResult = serde_json::from_str(last).expect("the result line parses");
            assert!(
                result.correct,
                "{}: {}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!((result.attempted, result.failed), (1, 0));
            let declared: Vec<(&str, &str)> = if trace == "0" {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            };
            let reported: Vec<(&str, &str)> = result
                .metrics
                .0
                .iter()
                .map(|(k, v)| (k.as_str(), v.unit.as_str()))
                .collect();
            let mut sorted = declared.clone();
            sorted.sort();
            assert_eq!(
                reported, sorted,
                "{} --trace {trace} reports every metric",
                w.name
            );
            for (name, v) in &result.metrics.0 {
                assert!(
                    valid_name(name) && v.value.is_finite(),
                    "{name} = {}",
                    v.value
                );
                if trace == "0" {
                    assert!(v.value > 0.0, "{}: end-to-end metric {name} is 0", w.name);
                }
            }
        }
    }
    // Every process the runs started has ended; their work directories are gone.
    let work = dir.join(".bench_work");
    let leftovers: Vec<_> = std::fs::read_dir(&work)
        .expect("results were recorded")
        .flatten()
        .filter(|e| e.path().is_dir())
        .collect();
    assert!(
        leftovers.is_empty(),
        "work directories left behind: {leftovers:?}"
    );
}
