//! What a run prints and writes: the table of one run, the driver's
//! one-line result, the suite file of many runs, and the comparison of
//! two suite files.

use std::fmt::Write as _;

use serde_json::Value;

use crate::metrics::{Measured, END_TO_END};
use crate::run::Outcome;
use crate::stats::Summary;
use crate::workload::{Workload, WORKLOADS};

/// The table of one run: every metric by name with its unit, the spread
/// of its rounds and its sample count; `n/a` with the reason where a
/// metric does not apply.
pub fn table(o: &Outcome) -> String {
    let mut out = String::new();
    for m in &o.values.0 {
        match m.value {
            Ok(v) => {
                let _ = write!(out, "  {:<32} {v:>14.4} {:<6}", m.name, m.unit);
                if let Some(r) = m.rounds {
                    let _ = write!(out, " rounds {} q1 {:.4} q3 {:.4}", r.n, r.q1, r.q3);
                }
                if m.samples > 0 {
                    let _ = write!(out, " samples {}", m.samples);
                }
                out.push('\n');
            }
            Err(why) => {
                let _ = writeln!(out, "  {:<32} {:>14} {:<6} ({why})", m.name, "n/a", m.unit);
            }
        }
    }
    let _ = writeln!(out, "  attempted {} failed {}", o.attempted, o.failed);
    if let Some(f) = &o.first_failure {
        let _ = writeln!(out, "  FIRST FAILURE: {f}");
    }
    for note in &o.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    if !o.waited.is_zero() {
        let _ = writeln!(
            out,
            "  note: waited {:.1} s in all for the host to quieten",
            o.waited.as_secs_f64()
        );
    }
    out
}

fn measured_json(m: &Measured) -> String {
    let mut out = format!("\"{}\":{{\"unit\":\"{}\"", m.name, m.unit);
    match m.value {
        Ok(v) => {
            let _ = write!(out, ",\"value\":{v}");
        }
        Err(why) => {
            let _ = write!(out, ",\"value\":null,\"reason\":\"{why}\"");
        }
    }
    if let Some(r) = m.rounds {
        let _ = write!(out, ",\"rounds\":{},\"q1\":{},\"q3\":{}", r.n, r.q1, r.q3);
    }
    let _ = write!(out, ",\"samples\":{}}}", m.samples);
    out
}

/// The metrics of a run with their round spreads, sample counts and
/// `null` reasons (the `metrics` object of a trace file).
pub fn metrics_json(o: &Outcome) -> String {
    let body: Vec<String> = o.values.0.iter().map(measured_json).collect();
    format!("{{{}}}", body.join(","))
}

/// The last line of a single-workload run: the driver's contract. It
/// carries numbers only, so a metric that does not apply reads 0; the
/// table and the trace file say why.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .values
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                m.value.unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(",")
    )
}

/// One metric across the runs of a suite.
struct AcrossRuns {
    name: &'static str,
    unit: &'static str,
    /// One value per run; `None` where it did not apply.
    runs: Vec<Option<f64>>,
    summary: Option<Summary>,
}

fn across_runs(outcomes: &[Outcome]) -> Vec<AcrossRuns> {
    let Some(first) = outcomes.first() else {
        return Vec::new();
    };
    first
        .values
        .0
        .iter()
        .map(|m| {
            let runs: Vec<Option<f64>> = outcomes
                .iter()
                .map(|o| o.values.get(m.name).and_then(|m| m.value.ok()))
                .collect();
            let present: Vec<f64> = runs.iter().flatten().copied().collect();
            AcrossRuns {
                name: m.name,
                unit: m.unit,
                runs,
                summary: Summary::of(&present),
            }
        })
        .collect()
}

/// The table of one workload's runs in a suite: per metric the median
/// across runs, the quartiles, and the run-to-run spread (interquartile
/// range as a share of the median) next to the metric's bound.
pub fn suite_table(w: &Workload, outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} × {} runs", w.name, outcomes.len());
    for m in across_runs(outcomes) {
        let Some(s) = m.summary else {
            let _ = writeln!(out, "  {:<32} {:>14} {:<6}", m.name, "n/a", m.unit);
            continue;
        };
        let _ = write!(
            out,
            "  {:<32} {:>14.4} {:<6} q1 {:.4} q3 {:.4} spread {:.2}%",
            m.name,
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.rel_iqr() * 100.0
        );
        if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
            let _ = write!(out, " of bound {:.0}%", e.bound * 100.0);
            if s.rel_iqr() > e.bound / 3.0 {
                out.push_str("  > bound/3");
            }
        }
        out.push('\n');
    }
    out
}

/// The file a suite writes, input of [`compare`].
pub fn suite_json(
    seed: u64,
    seconds: f64,
    traced: bool,
    suite: &[(&Workload, Vec<Outcome>)],
) -> String {
    let number = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let workloads: Vec<String> = suite
        .iter()
        .map(|(w, outcomes)| {
            let metrics: Vec<String> = across_runs(outcomes)
                .iter()
                .map(|m| {
                    let runs: Vec<String> = m.runs.iter().map(|v| number(*v)).collect();
                    format!(
                        "\"{}\":{{\"unit\":\"{}\",\"value\":{},\"q1\":{},\"q3\":{},\"runs\":[{}]}}",
                        m.name,
                        m.unit,
                        number(m.summary.map(|s| s.median)),
                        number(m.summary.map(|s| s.q1)),
                        number(m.summary.map(|s| s.q3)),
                        runs.join(",")
                    )
                })
                .collect();
            let count = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
            format!(
                "\"{}\":{{\"attempted\":{},\"failed\":{},\"metrics\":{{\n  {}}}}}",
                w.name,
                count(|o| o.attempted),
                count(|o| o.failed),
                metrics.join(",\n  ")
            )
        })
        .collect();
    format!(
        "{{\"first_seed\":{seed},\"seconds\":{seconds},\"traced\":{traced},\"workloads\":{{\n{}\n}}}}\n",
        workloads.join(",\n")
    )
}

/// Verdict on one workload × end-to-end metric across two suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread is wider than the bound: the suites cannot
    /// tell a regression of that size from noise.
    Unresolved,
    Regressed,
}

/// Judges suite `b` against suite `a`: `rel_worse` is how much worse
/// `b`'s median is as a share of `a`'s (negative = better), `rel_iqr`
/// the wider of the two run-to-run interquartile ranges as a share of
/// the median.
pub fn judge(rel_worse: f64, rel_iqr: f64, bound: f64) -> Verdict {
    if rel_iqr > bound {
        Verdict::Unresolved
    } else if rel_worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares two suite files; returns the table and whether any row
/// regressed.
///
/// # Errors
///
/// A file that is not a suite file.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let parse = |text: &str| -> Result<Value, String> {
        serde_json::from_str(text).map_err(|e| format!("not a suite file: {e:?}"))
    };
    let (a, b) = (parse(a)?, parse(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<20} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "iqr", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let field =
                |suite: &Value, f: &str| suite["workloads"][w.name]["metrics"][m.name][f].as_f64();
            let (Some(va), Some(vb)) = (field(&a, "value"), field(&b, "value")) else {
                let _ = writeln!(out, "{:<20} {:<24} missing in one file", w.name, m.name);
                continue;
            };
            let worse = if m.better == "lower" {
                vb - va
            } else {
                va - vb
            } / va.abs();
            let iqr = |suite: &Value, v: f64| match (field(suite, "q1"), field(suite, "q3")) {
                (Some(q1), Some(q3)) if v != 0.0 => (q3 - q1) / v.abs(),
                _ => 0.0,
            };
            let rel_iqr = iqr(&a, va).max(iqr(&b, vb));
            let verdict = judge(worse, rel_iqr, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<20} {:<24} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                rel_iqr * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "regressed",
                }
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(judge(0.05, 0.02, 0.10), Verdict::Ok);
        assert_eq!(
            judge(-0.30, 0.02, 0.10),
            Verdict::Ok,
            "better is never a regression"
        );
        assert_eq!(judge(0.15, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(
            judge(0.15, 0.12, 0.10),
            Verdict::Unresolved,
            "noise wider than the bound"
        );
    }

    /// A suite file in which every metric reads 2.0 except throughput.
    fn suite(throughput: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "throughput_ops_s" {
                    throughput
                } else {
                    2.0
                };
                format!("\"{}\":{{\"value\":{v},\"q1\":{v},\"q3\":{v}}}", m.name)
            })
            .collect();
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("\"{}\":{{\"metrics\":{{{}}}}}", w.name, metrics.join(",")))
            .collect();
        format!("{{\"workloads\":{{{}}}}}", workloads.join(","))
    }

    #[test]
    fn compare_reads_suite_files_and_flags_regressions() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_ops_s")
            .unwrap()
            .bound;
        let (table, regressed) =
            compare(&suite(1000.0), &suite(1000.0 * (1.0 - bound / 2.0))).unwrap();
        assert!(!regressed, "{table}");
        assert!(table.contains("throughput_ops_s") && table.contains("ok"));
        let (table, regressed) =
            compare(&suite(1000.0), &suite(1000.0 * (1.0 - bound * 2.0))).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
        let (_, regressed) = compare(&suite(1000.0), &suite(2000.0)).unwrap();
        assert!(!regressed, "higher throughput is better");
        assert!(compare("[", &suite(1.0)).is_err());
    }
}
