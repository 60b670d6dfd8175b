//! The declared metric set — names, units, directions and regression
//! bounds. `BENCHMARK.json` repeats it for the driver; a test keeps the
//! two equal.

use crate::stats::Summary;

/// An end-to-end metric: what a user of the store sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "put_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "get_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "storage_amplification",
        unit: "B/B",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "overwrite_amplification",
        unit: "B/B",
        better: "lower",
        bound: 0.02,
    },
];

/// A per-layer metric (layer = module); no bound, it explains an
/// end-to-end move rather than gating one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 39] = [
    layer("client.put_p99_us", "us", "lower"),
    layer("client.get_p99_us", "us", "lower"),
    layer("client.loaded_p50_us", "us", "lower"),
    layer("client.loaded_p99_us", "us", "lower"),
    layer("client.submit_ns", "ns", "lower"),
    layer("client.poll_ns", "ns", "lower"),
    layer("client.cpu_us_per_op", "us", "lower"),
    layer("client.retransmits_per_kop", "count", "lower"),
    layer("net.msgs_per_op", "count", "lower"),
    layer("net.wire_bytes_per_op", "B", "lower"),
    layer("net.hop_rdma_us", "us", "lower"),
    layer("net.hop_instant_us", "us", "lower"),
    layer("net.wakeups_per_op", "count", "lower"),
    layer("net.runq_wait_us_per_op", "us", "lower"),
    layer("coord.cpu_us_per_op", "us", "lower"),
    layer("coord.ops_imbalance", "ratio", "lower"),
    layer("steps.ack_cycle_ns", "ns", "lower"),
    layer("steps.read_decision_ns", "ns", "lower"),
    layer("redundant.cpu_us_per_op", "us", "lower"),
    layer("redundant.updates_per_put", "count", "lower"),
    layer("leader.cpu_us_per_s", "us/s", "lower"),
    layer("leader.msgs_per_s", "1/s", "lower"),
    layer("storage.heap_write_delta_ns", "ns", "lower"),
    layer("storage.heap_grow_ms_max", "ms", "lower"),
    layer("storage.meta_insert_ns", "ns", "lower"),
    layer("storage.meta_highest_ns", "ns", "lower"),
    layer("storage.meta_bytes_per_key", "B", "lower"),
    layer("erasure.parity_delta_ns", "ns", "lower"),
    layer("erasure.apply_parity_delta_ns", "ns", "lower"),
    layer("erasure.recover_source_ns", "ns", "lower"),
    layer("gf.mul_acc_mbps", "MB/s", "higher"),
    layer("gf.xor_into_mbps", "MB/s", "higher"),
    layer("server.cpu_us_per_op", "us", "lower"),
    layer("server.msgs_per_op", "count", "lower"),
    layer("server.wire_bytes_per_op", "B", "lower"),
    layer("server.boot_s", "s", "lower"),
    layer("host.steal_frac", "ratio", "lower"),
    layer("host.rounds_discarded", "count", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// One measured value of a declared metric.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value, or why the metric does not apply to this
    /// workload.
    pub value: Result<f64, &'static str>,
    /// Median and quartiles of the per-round values beside it.
    pub rounds: Option<Summary>,
    /// Individual samples behind the value (0 for counts).
    pub samples: usize,
}

/// The values of one run.
#[derive(Debug, Default)]
pub struct Values(pub Vec<Measured>);

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
        .1
}

impl Values {
    fn push(
        &mut self,
        name: &'static str,
        value: Result<f64, &'static str>,
        rounds: Option<Summary>,
        samples: usize,
    ) {
        let value = value.and_then(|v| v.is_finite().then_some(v).ok_or("not a finite number"));
        self.0.push(Measured {
            name,
            unit: unit_of(name),
            value,
            rounds,
            samples,
        });
    }

    /// A quotient of two totals, e.g. ops per second or CPU per op:
    /// `Σ numerator / Σ denominator` over `(numerator, denominator)`
    /// rounds, so a round counts by its weight and a cost paid in lumps
    /// (a heap doubling) is spread over the ops that caused it.
    pub fn ratio(
        &mut self,
        name: &'static str,
        rounds: impl IntoIterator<Item = (f64, f64)>,
        samples: usize,
    ) {
        let rounds: Vec<(f64, f64)> = rounds.into_iter().collect();
        let (num, den) = rounds
            .iter()
            .fold((0.0, 0.0), |(n, d), (rn, rd)| (n + rn, d + rd));
        let per_round: Vec<f64> = rounds
            .iter()
            .filter(|(_, d)| *d > 0.0)
            .map(|(n, d)| n / d)
            .collect();
        let value = if den > 0.0 {
            Ok(num / den)
        } else {
            Err("nothing to divide by: no valid round completed an op")
        };
        self.push(name, value, Summary::of(&per_round), samples);
    }

    /// The median of one value per round, e.g. each round's p50.
    pub fn median(&mut self, name: &'static str, per_round: &[f64], samples: usize) {
        let rounds = Summary::of(per_round);
        let value = rounds.map(|s| s.median).ok_or("no round produced a sample");
        self.push(name, value, rounds, samples);
    }

    /// A value measured once per run.
    pub fn single(&mut self, name: &'static str, value: f64) {
        self.push(name, Ok(value), None, 0);
    }

    /// Records that `name` does not apply here, and why.
    pub fn not_applicable(&mut self, name: &'static str, reason: &'static str) {
        self.push(name, Err(reason), None, 0);
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.0.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_weighs_rounds_and_keeps_their_spread() {
        let mut v = Values::default();
        // 100 ops in 1 s, then a stalled round: 10 ops in 1 s.
        v.ratio("throughput_ops_s", [(100.0, 1.0), (10.0, 1.0)], 110);
        let m = v.get("throughput_ops_s").unwrap();
        assert_eq!(m.value, Ok(55.0));
        assert_eq!(m.rounds.unwrap().n, 2);
        v.ratio("cpu_us_per_op", [], 0);
        assert!(v.get("cpu_us_per_op").unwrap().value.is_err());
    }

    #[test]
    fn empty_phase_is_not_applicable_not_a_panic() {
        let mut v = Values::default();
        v.median("get_p50_us", &[], 0);
        assert!(v.get("get_p50_us").unwrap().value.is_err());
        v.single("storage_amplification", f64::NAN);
        assert!(v.get("storage_amplification").unwrap().value.is_err());
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .map(|(name, unit, better)| {
                assert!(ok(name, "_.-", 64), "name {name}");
                assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(ok(unit, "_/%.-", 16), "unit {unit}");
                assert!(better == "lower" || better == "higher");
                name
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
