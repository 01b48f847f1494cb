//! Runs the driver on every workload at smoke size (`--quick`: 3 vantage
//! points × 5 sites, 2k flows) with tracing on, and checks its output
//! against `BENCHMARK.json` and the blessed quick digests.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values listed under `key` in `BENCHMARK.json`.
fn names(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect("key present");
    let section = &BENCHMARK_JSON[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

struct Run {
    stdout: String,
    digest: String,
}

fn run(workload: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ysinm-bench"))
        .args([
            "--workload",
            workload,
            "--quick",
            "--seconds",
            "0",
            "--trace",
            "1",
            "--seed",
            "2017",
        ])
        .output()
        .expect("driver runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let digest = stderr
        .rsplit_once("digest ")
        .expect("summary names the digest")
        .1
        .trim()
        .to_string();
    Run { stdout, digest }
}

#[test]
fn every_workload_prints_every_metric_and_reproduces_its_digest() {
    let workloads = names("workloads");
    assert_eq!(workloads, ["paper_sweep", "faulted_adaptive", "metro_shared", "metro_domains"]);
    let metrics: Vec<String> = names("end_to_end").into_iter().chain(names("per_layer")).collect();
    let mut digests = Vec::new();
    for w in &workloads {
        let r = run(w);
        for m in &metrics {
            let printed = r
                .stdout
                .lines()
                .any(|l| l.contains(&format!("\"metric\": \"{m}\"")) && l.contains("\"unit\": \""));
            assert!(printed, "{w} does not print {m} with a unit");
        }
        let summary = r.stdout.lines().last().expect("summary line");
        assert!(summary.starts_with("{\"correct\": true, "), "{w}: {summary}");
        assert!(summary.contains("\"failed\": 0, "), "{w}: {summary}");
        for m in names("per_layer") {
            assert!(summary.contains(&format!("\"{m}\": {{\"value\": ")), "{w} summary lacks {m}");
        }
        digests.push(r.digest);
    }
    assert_eq!(digests[2], digests[3], "1-domain and 8-domain metropolis digests differ");
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "paper_sweep", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ysinm-bench"))
            .args(args)
            .output()
            .expect("driver runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
