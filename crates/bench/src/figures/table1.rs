//! The Section 1 trade-off table: Simple (Rep(1)), Rep(3) and RS(3,2)
//! compared on reliability, put latency, put throughput and storage
//! cost, normalised to Simple.
//!
//! Paper values: Rep(3) = {2 failures, 2x latency, 0.5x throughput,
//! 3x storage}; RS(3,2) = {2 failures, 3.4x latency, 0.31x throughput,
//! 1.66x storage}.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use ring_reliability::{rs_chain, srs_chain, ModelParams};
use ring_workload::{KeyDistribution, WorkloadGen, WorkloadSpec};

use crate::measure::{mixed_throughput, put_latency};
use crate::output::write_json;
use crate::report::{f, load, rows, s};
use crate::workbench::{memgest_id, paper_cluster};

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    failures_tolerated: usize,
    annual_reliability: f64,
    put_latency_rel: f64,
    put_throughput_rel: f64,
    storage_cost_rel: f64,
}

pub fn run(quick: bool, results: &Path) {
    let n = if quick { 50 } else { 1000 };
    let params = ModelParams::default();

    // Reliability: Rep(r) is the k=1 chain; failures tolerated from the
    // scheme definitions.
    let rel = |k: usize, m: usize, s: usize| srs_chain(k, m, s, &params).annual_reliability();
    let rep3_rel = rs_chain(1, 2, &params).annual_reliability();
    let rs32_rel = rel(3, 2, 3);

    // Latency (1 KiB puts, median).
    let cluster = paper_cluster();
    let mut client = cluster.client();
    let lat = |label: &str, client: &mut ring_kvs::RingClient, base: u64| {
        put_latency(client, memgest_id(label), 1024, n, base).median_us
    };
    let l_simple = lat("REP1", &mut client, 0);
    let l_rep3 = lat("REP3", &mut client, 1_000_000);
    let l_rs32 = lat("SRS32", &mut client, 2_000_000);

    // Throughput (put-only, closed loop).
    let dur = Duration::from_millis(if quick { 300 } else { 2000 });
    let thr = |label: &str| {
        let spec = WorkloadSpec {
            key_count: 5_000,
            value_len: 1024,
            get_ratio: 0.0,
            distribution: KeyDistribution::Uniform,
        };
        let mut gen = WorkloadGen::new(spec, cluster.spec().derived_seed("table1"));
        mixed_throughput(&cluster, memgest_id(label), &mut gen, dur, 64)
    };
    let t_simple = thr("REP1");
    let t_rep3 = thr("REP3");
    let t_rs32 = thr("SRS32");

    let rows = vec![
        Row {
            scheme: "Simple".into(),
            failures_tolerated: 0,
            annual_reliability: 0.0,
            put_latency_rel: 1.0,
            put_throughput_rel: 1.0,
            storage_cost_rel: 1.0,
        },
        Row {
            scheme: "Rep(3)".into(),
            failures_tolerated: 2,
            annual_reliability: rep3_rel,
            put_latency_rel: l_rep3 / l_simple,
            put_throughput_rel: t_rep3 / t_simple,
            storage_cost_rel: 3.0,
        },
        Row {
            scheme: "RS(3,2)".into(),
            failures_tolerated: 2,
            annual_reliability: rs32_rel,
            put_latency_rel: l_rs32 / l_simple,
            put_throughput_rel: t_rs32 / t_simple,
            storage_cost_rel: 1.0 + 2.0 / 3.0,
        },
    ];
    write_json(results, "table1", &rows);
    cluster.shutdown();
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Table 1 (§1): storage-scheme trade-offs\n");
    let v = load(results, "table1")?;
    let _ = writeln!(
        md,
        "| scheme | paper (lat / thru / storage) | measured (lat / thru / storage) |\n|---|---|---|"
    );
    let paper = [
        ("Simple", "1x / 1x / 1x"),
        ("Rep(3)", "2x / 0.5x / 3x"),
        ("RS(3,2)", "3.4x / 0.31x / 1.66x"),
    ];
    for r in rows(&v) {
        let name = s(r, "scheme");
        let p = paper
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .unwrap_or("-");
        let _ = writeln!(
            md,
            "| {name} | {p} | {:.2}x / {:.2}x / {:.2}x |",
            f(r, "put_latency_rel"),
            f(r, "put_throughput_rel"),
            f(r, "storage_cost_rel")
        );
    }
    let _ = writeln!(
        md,
        "\nShape check: both reliable schemes cost more latency and less\nthroughput than Simple; storage overheads are exact (3x vs 1.66x).\n"
    );
    Some(())
}
