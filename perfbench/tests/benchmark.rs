//! The benchmark's own checks, at a scale that runs in seconds: the metric
//! catalogue matches `BENCHMARK.json`, every workload emits exactly that
//! catalogue, a decision mismatch surfaces as a failure, and `ICSAD_*`
//! overrides are refused.

use perfbench::report::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use perfbench::{run, Options, Scale, Workload};

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the JSON array under `key`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = at + json[at..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    &json[open + 1..close]
}

/// The string values of `field` in each object of an array, in order.
fn fields(array: &str, field: &str) -> Vec<String> {
    let needle = format!("\"{field}\":");
    array
        .match_indices(&needle)
        .map(|(i, _)| {
            let rest = array[i + needle.len()..].trim_start();
            let rest = rest.strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn assert_catalogue(json: &str, key: &str, catalogue: &[MetricDef]) {
    let section = array(json, key);
    let names: Vec<String> = catalogue.iter().map(|d| d.name.to_string()).collect();
    let units: Vec<String> = catalogue.iter().map(|d| d.unit.to_string()).collect();
    let better: Vec<String> = catalogue
        .iter()
        .map(|d| {
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
            .to_string()
        })
        .collect();
    assert_eq!(fields(section, "name"), names, "{key} names");
    assert_eq!(fields(section, "unit"), units, "{key} units");
    assert_eq!(fields(section, "better"), better, "{key} directions");
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    assert_catalogue(&json, "end_to_end", END_TO_END);
    assert_catalogue(&json, "per_layer", PER_LAYER);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(fields(array(&json, "workloads"), "name"), workloads);
}

fn tiny(workload: Workload, trace: bool, inject_mismatch: bool) -> RunResult {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        scale: Scale::tiny(),
        inject_mismatch,
    };
    let mut out = Vec::new();
    let result = run(&opts, "test", &mut out).expect("tiny run is valid");
    let text = String::from_utf8(out).expect("utf-8 output");
    assert!(text.starts_with("# stamp {"), "stamp first:\n{text}");
    result
}

#[test]
fn every_workload_emits_exactly_the_catalogue() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = tiny(workload, trace, false);
            let emitted: Vec<String> = result.metrics.iter().map(|m| m.0.to_string()).collect();
            assert_eq!(
                emitted,
                fields(array(&json, key), "name"),
                "{} trace={trace}",
                workload.name()
            );
            assert!(
                result.correct,
                "{} trace={trace}: {result:?}",
                workload.name()
            );
            assert_eq!(result.failed, 0);
            assert!(result.attempted > 0);
            let line = result.to_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn injected_decision_mismatch_shows_in_fail_frac() {
    for trace in [false, true] {
        let result = tiny(Workload::FleetReplay, trace, true);
        assert!(!result.correct, "trace={trace}");
        assert!(result.failed > 0, "trace={trace}");
        assert!(result.fail_frac() > 0.0, "trace={trace}");
    }
}

#[test]
fn icsad_overrides_are_refused() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "fleet_replay", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .env("ICSAD_INGEST_MODE", "threads")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("ICSAD_INGEST_MODE"), "{stderr}");
}
