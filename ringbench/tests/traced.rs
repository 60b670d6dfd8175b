//! A traced smoke run: the per-layer metric set equals what
//! `BENCHMARK.json` declares, counts that must repeat do, and the trace
//! file has a span per request. (Its own test binary, so no other
//! cluster boots in this process while threads are being attributed.)

use ringbench::report::{metrics_json, result_line};
use ringbench::run::{run, Plan};
use ringbench::workload::by_name;

#[test]
fn traced_run_emits_the_declared_layers_and_a_span_per_request() {
    let benchmark =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let benchmark = serde_json::from_str(&benchmark).expect("BENCHMARK.json parses");
    let mut declared: Vec<&str> = benchmark["per_layer"]
        .as_array()
        .expect("per_layer is a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name"))
        .collect();
    declared.sort_unstable();

    let w = by_name("fabric_rep3_write").expect("a fixed name");
    let plan = Plan {
        seed: 7,
        seconds: 2.4,
        traced: true,
        smoke: true,
        patience: std::time::Duration::ZERO,
    };
    let outcome = run(w, &plan).expect("the fabric needs nothing built");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.first_failure);

    let mut emitted: Vec<&str> = outcome.values.0.iter().map(|m| m.name).collect();
    emitted.sort_unstable();
    assert_eq!(emitted, declared, "emitted vs BENCHMARK.json");

    let value = |name: &str| outcome.values.get(name).expect(name).value;
    // REP3: request, two copies, two acks, two commit notices, reply.
    assert_eq!(value("net.msgs_per_op"), Ok(8.0));
    assert_eq!(value("redundant.updates_per_put"), Ok(2.0));
    assert!(value("coord.cpu_us_per_op").expect("threads attributed by spawn order") > 0.0);
    assert!(value("server.boot_s").is_err(), "no servers on the fabric");
    assert!(
        value("net.hop_rdma_us").expect("isolated row") > 1.5,
        "at least the injected delay"
    );

    // The driver's line carries a number for every declared metric.
    let line = serde_json::from_str(&result_line(&outcome)).expect("result line is JSON");
    for name in &declared {
        assert!(line["metrics"][*name]["value"].as_f64().is_some(), "{name}");
    }

    // The trace: one span row per request of the traced rounds, children
    // inside the parent, and the per-round thread rows.
    let trace = outcome.trace.as_ref().expect("a traced run keeps a trace");
    let json =
        serde_json::from_str(&trace.to_json(&metrics_json(&outcome))).expect("trace is JSON");
    let rounds = json["rounds"].as_array().expect("rounds");
    assert_eq!(rounds.len(), 8, "2 latency rounds, 3 untraced/traced pairs");
    let mut spans = 0;
    for round in rounds {
        let rows = round["spans"].as_array().expect("spans");
        if round["traced"].as_bool() == Some(true) {
            assert_eq!(
                rows.len() as u64,
                round["ops"].as_u64().unwrap(),
                "a span per op"
            );
        } else {
            assert!(rows.is_empty());
        }
        for row in rows {
            let t = |i: usize| row[i].as_u64().expect("a timestamp");
            assert!(
                t(2) <= t(3) && t(3) <= t(4),
                "submit inside op, wait after submit"
            );
        }
        spans += rows.len();
        let threads = round["threads"].as_array().expect("threads");
        assert_eq!(
            threads.len(),
            7,
            "3 coordinators, 2 redundant, leader, generator"
        );
    }
    assert!(spans > 0);
    assert_eq!(
        json["metrics"]["server.boot_s"]["value"],
        serde_json::Value::Null
    );
}
