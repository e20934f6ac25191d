//! Tests that tie the package to the files around it: the root manifest's
//! release profile, `BENCHMARK.json`, and the ignore rules.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use dcn_workload::json::{self, Value};
use std::fs;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// The `key = value` lines of one table of a manifest, comments and blank
/// lines dropped, sorted.
fn table(manifest: &str, header: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_mirrors_the_root_manifest() {
    let root = fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let own = fs::read_to_string(repo_root().join("benchmark/Cargo.toml")).unwrap();
    let (root, own) = (
        table(&root, "[profile.release]"),
        table(&own, "[profile.release]"),
    );
    assert!(
        root.iter().any(|l| l == "lto=\"thin\"") && root.iter().any(|l| l == "codegen-units=1"),
        "the root profile is not what this test was written against: {root:?}"
    );
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml must build the in-process rungs exactly like the root builds dcn-serve"
    );
}

fn check_metrics(listed: &Value, catalogue: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().unwrap();
    assert_eq!(listed.len(), catalogue.len());
    for (entry, def) in listed.iter().zip(catalogue) {
        assert_eq!(entry.get("name").unwrap().as_str().unwrap(), def.name);
        assert_eq!(
            entry.get("unit").unwrap().as_str().unwrap(),
            def.unit,
            "{}",
            def.name
        );
        let better = if def.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(
            entry.get("better").unwrap().as_str().unwrap(),
            better,
            "{}",
            def.name
        );
        match entry.get_opt("bound").unwrap() {
            Some(bound) => {
                assert!(bounded, "{}: per-layer metrics carry no bound", def.name);
                match bound {
                    Value::Num(b) => assert!(*b > 0.0 && *b <= 0.25, "{}: bound {b}", def.name),
                    other => panic!("{}: bound {other:?} is not a share", def.name),
                }
            }
            None => assert!(!bounded, "{}: end-to-end metrics carry a bound", def.name),
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_harness_prints() {
    let text = fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    for key in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        assert!(doc.get(key).is_ok(), "BENCHMARK.json lacks {key}");
    }
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/'))
    );
    assert!(command.contains(&"benchmark/Cargo.toml"));
    let seconds = doc.get("run_seconds").unwrap().as_u64().unwrap();
    assert!((1..=60).contains(&seconds));

    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(entry.get("name").unwrap().as_str().unwrap(), *name);
        assert_eq!(entry.get("why").unwrap().as_str().unwrap(), *why);
    }
    check_metrics(doc.get("end_to_end").unwrap(), END_TO_END, true);
    check_metrics(doc.get("per_layer").unwrap(), PER_LAYER, false);
}

#[test]
fn build_output_and_run_output_are_ignored_from_inside_the_package() {
    let ignore = fs::read_to_string(repo_root().join("benchmark/.gitignore")).unwrap();
    for dir in ["/target", "/out"] {
        assert!(
            ignore.lines().any(|l| l.trim() == dir),
            "benchmark/.gitignore lacks {dir}"
        );
    }
    assert!(crate::server::OUT_DIR.ends_with("benchmark/out"));
}
