//! The smoke suite: every workload end to end in sixteen 0.15 s rounds
//! with a tenth of the keys, and the emitted end-to-end metric set
//! checked against what `BENCHMARK.json` declares.
//!
//! One test, so the workloads run one after another: thread and child
//! attribution reads this process's `/proc` entries and must not see
//! another cluster booting at the same time.

use ring_server::harness::find_binary;
use ringbench::metrics::END_TO_END;
use ringbench::report::result_line;
use ringbench::run::{run, Plan};
use ringbench::workload::{Backend, WORKLOADS};

const SMOKE: Plan = Plan {
    seed: 7,
    seconds: 2.4,
    traced: false,
    smoke: true,
    patience: std::time::Duration::ZERO,
};

fn benchmark_json() -> serde_json::Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn smoke_suite_runs_every_workload_and_emits_the_declared_metrics() {
    let benchmark = benchmark_json();
    let declared: Vec<&str> = benchmark["end_to_end"]
        .as_array()
        .expect("end_to_end is a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name"))
        .collect();

    for w in &WORKLOADS {
        if w.backend == Backend::Tcp && find_binary("ring-server").is_none() {
            // Not built next to this test and RING_SERVER_BIN unset: the
            // run must fail loudly, never skip silently.
            let err = run(w, &SMOKE).expect_err("no ring-server, no result");
            assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
            assert!(err.to_string().contains("ring-server"), "{err}");
            continue;
        }
        let outcome = run(w, &SMOKE).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(outcome.failed, 0, "{}: {:?}", w.name, outcome.first_failure);
        assert!(outcome.attempted as usize > w.keys / 10, "{}", w.name);

        let emitted: Vec<&str> = outcome.values.0.iter().map(|m| m.name).collect();
        let mut sorted = (emitted.clone(), declared.clone());
        sorted.0.sort_unstable();
        sorted.1.sort_unstable();
        assert_eq!(sorted.0, sorted.1, "{}: emitted vs BENCHMARK.json", w.name);
        for m in &outcome.values.0 {
            let v = m
                .value
                .unwrap_or_else(|why| panic!("{} {}: {why}", w.name, m.name));
            assert!(
                v > 0.0,
                "{} {} = {v}: end-to-end metrics are never 0",
                w.name,
                m.name
            );
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
        }

        // The driver's line: exactly these keys, every metric a number.
        let line = serde_json::from_str(&result_line(&outcome)).expect("result line is JSON");
        let serde_json::Value::Object(fields) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["failed"].as_u64(), Some(0));
        for m in &END_TO_END {
            assert!(
                line["metrics"][m.name]["value"].as_f64().is_some(),
                "{}",
                m.name
            );
            assert_eq!(line["metrics"][m.name]["unit"].as_str(), Some(m.unit));
        }
    }
}

/// `BENCHMARK.json` is the driver's copy of the tables in
/// `metrics.rs` and `workload.rs`; neither may drift from the other.
#[test]
fn benchmark_json_repeats_the_declared_tables() {
    use ringbench::metrics::PER_LAYER;

    let b = benchmark_json();
    let list = |key: &str| {
        b[key]
            .as_array()
            .unwrap_or_else(|| panic!("{key} is a list"))
            .clone()
    };
    let text_of = |v: &serde_json::Value, key: &str| {
        v[key]
            .as_str()
            .unwrap_or_else(|| panic!("{key}"))
            .to_string()
    };

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, ours);

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m["bound"].as_f64().expect("bound"),
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
        .collect();
    assert_eq!(end_to_end, ours);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
        .collect();
    assert_eq!(per_layer, ours);

    let paths: Vec<String> = list("paths")
        .iter()
        .map(|p| p.as_str().expect("a path").to_string())
        .collect();
    assert_eq!(paths, ["ringbench"]);
    let command: Vec<String> = list("command")
        .iter()
        .map(|p| p.as_str().expect("a word").to_string())
        .collect();
    assert_eq!(command, ["bash", "ringbench/run.sh"]);
}
