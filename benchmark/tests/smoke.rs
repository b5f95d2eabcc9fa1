//! Every workload at smoke size through the benchmark command, checked
//! against the result-line format and `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use shidiannao_benchmark::json::Json;
use shidiannao_benchmark::metrics::{end_to_end, per_layer, valid_name, valid_unit, Decl, Source};
use shidiannao_benchmark::run::{results_dir, Workload};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one workload at smoke size; returns the parsed last stdout line.
fn smoke(w: Workload, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", w.name(), "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}: {}",
        w.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let j = Json::parse(last).expect("the last line is JSON");
    assert_eq!(j.as_object().map(|o| o.len()), Some(4), "{last}");
    assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
    assert!(j
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert_eq!(j.get("failed").and_then(Json::as_f64), Some(0.0));
    j
}

/// The metrics of a result line must be exactly `decls`, with their units.
fn assert_metrics(w: Workload, j: &Json, decls: &[Decl]) {
    let metrics = j
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, declared, "{}", w.name());
    for ((name, m), d) in metrics.iter().zip(decls) {
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
        assert_eq!(unit, d.unit, "{name}");
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

fn modeled_values(j: &Json) -> Vec<(String, f64)> {
    let modeled: Vec<String> = end_to_end()
        .into_iter()
        .filter(|d| d.source == Source::Modeled)
        .map(|d| d.name)
        .collect();
    j.get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .filter(|(k, _)| modeled.contains(k))
        .map(|(k, m)| {
            (
                k.clone(),
                m.get("value").and_then(Json::as_f64).expect("value"),
            )
        })
        .collect()
}

fn check_workload(w: Workload) {
    let first = smoke(w, false);
    assert_metrics(w, &first, &end_to_end());
    let again = smoke(w, false);
    assert_eq!(
        modeled_values(&first),
        modeled_values(&again),
        "{}: modeled metrics differ",
        w.name()
    );
    let traced = smoke(w, true);
    assert_metrics(w, &traced, &per_layer());
    let path = results_dir().join(format!("{}.trace.json", w.name()));
    let trace =
        Json::parse(&std::fs::read_to_string(path).expect("trace written")).expect("trace is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
}

#[test]
fn vga_convnn() {
    check_workload(Workload::VgaConvnn);
}

#[test]
fn zoo_table2() {
    check_workload(Workload::ZooTable2);
}

#[test]
fn video_static() {
    check_workload(Workload::VideoStatic);
}

#[test]
fn video_pan() {
    check_workload(Workload::VideoPan);
}

#[test]
fn serve_mixed() {
    check_workload(Workload::ServeMixed);
}

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (key, decls) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let listed = doc.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(listed.len(), decls.len(), "{key}");
        for (entry, d) in listed.iter().zip(&decls) {
            assert_eq!(
                entry.get("name").and_then(Json::as_str),
                Some(d.name.as_str())
            );
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                d.bound,
                "{}",
                d.name
            );
        }
    }
}
