//! The trace of a `--trace` run: per-request spans and per-round counter
//! and scheduler deltas, kept in memory and written as one JSON file
//! when the run ends.

use std::fmt::Write as _;

use crate::procfs::Sched;

/// One request. Three spans share its `ReqId`: the parent `op`
/// (`submit_start..done`) and its children `client.submit`
/// (`submit_start..submit_end`) and `client.wait` (`submit_end..done`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub is_get: bool,
    /// Nanoseconds since the run's epoch.
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub done_ns: u64,
}

/// Scheduler deltas of one thread (fabric) or server process (TCP) over
/// a round.
#[derive(Debug, Clone, Copy)]
pub struct ThreadRow {
    pub layer: &'static str,
    /// The node it runs; `None` for the generator.
    pub node: Option<u32>,
    pub sched: Sched,
}

/// One measured round.
#[derive(Debug, Clone)]
pub struct RoundTrace {
    pub phase: &'static str,
    pub window: usize,
    /// Whether spans were recorded (throughput rounds alternate, so the
    /// untraced ones price the recording).
    pub traced: bool,
    pub secs: f64,
    pub ops: u64,
    pub steal_frac: f64,
    /// Fabric message and byte counts; `None` on TCP.
    pub net_msgs: Option<u64>,
    pub net_bytes: Option<u64>,
    pub threads: Vec<ThreadRow>,
    pub spans: Vec<Span>,
}

/// A whole traced run.
#[derive(Debug, Clone)]
pub struct Trace {
    pub workload: &'static str,
    pub seed: u64,
    /// Why threads could not be attributed to layers, if they could not
    /// (their rows are then zeros and the metrics `null`).
    pub attribution: Option<&'static str>,
    pub rounds: Vec<RoundTrace>,
}

fn opt(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

impl Trace {
    /// Renders the trace; `metrics` is the already rendered per-layer
    /// metric object.
    pub fn to_json(&self, metrics: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"clock\":\"ns since the run's epoch\",\
             \"span_columns\":[\"req\",\"kind\",\"submit_start_ns\",\"submit_end_ns\",\"done_ns\"],\
             \"thread_attribution\":{},\"metrics\":{metrics},\"rounds\":[",
            self.workload,
            self.seed,
            match self.attribution {
                None => "\"spawn order\"".to_string(),
                Some(why) => format!("{{\"null\":\"{why}\"}}"),
            },
        );
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"phase\":\"{}\",\"window\":{},\"traced\":{},\"secs\":{},\"ops\":{},\
                 \"steal_frac\":{},\"net_msgs\":{},\"net_bytes\":{},\"threads\":[",
                r.phase,
                r.window,
                r.traced,
                r.secs,
                r.ops,
                r.steal_frac,
                opt(r.net_msgs),
                opt(r.net_bytes),
            );
            for (j, t) in r.threads.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"layer\":\"{}\",\"node\":{},\"run_ns\":{},\"runq_wait_ns\":{},\"timeslices\":{}}}",
                    if j > 0 { "," } else { "" },
                    t.layer,
                    opt(t.node.map(u64::from)),
                    t.sched.run_ns,
                    t.sched.wait_ns,
                    t.sched.slices,
                );
            }
            out.push_str("],\"spans\":[");
            for (j, s) in r.spans.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}[{},\"{}\",{},{},{}]",
                    if j > 0 { "," } else { "" },
                    s.req,
                    if s.is_get { "get" } else { "put" },
                    s.submit_start_ns,
                    s.submit_end_ns,
                    s.done_ns,
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }
}
