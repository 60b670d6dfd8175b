//! One run of one workload: set-up, warm-up, the window-1 latency phase
//! and the window-16 throughput phase in steal-gated rounds, then the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run) computed from what the rounds recorded.

use std::io;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bed::{Bed, FabricBed, LayerUnit, NetTotals, ServerTotals, TcpBed};
use crate::iso;
use crate::metrics::Values;
use crate::procfs::{self, HostCpu, Sched, Unit};
use crate::quiet;
use crate::session::{RoundLog, Session, StoreTotals, WINDOW};
use crate::stats::percentile;
use crate::trace::{RoundTrace, ThreadRow, Trace};
use crate::workload::{Backend, OpGen, Workload};

/// The measured seconds are split into this many equal rounds:
/// [`LATENCY_ROUNDS`] of latency, the rest of throughput.
const ROUNDS: usize = 16;
const LATENCY_ROUNDS: usize = 4;
/// A traced run measures fewer rounds (its spans are kept in memory and
/// written out) and spends the rest of its time on the isolated rows:
/// latency rounds, then untraced/traced throughput pairs.
const TRACED_LATENCY_ROUNDS: usize = 2;
const TRACED_PAIRS: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Memory touched and freed before a run; above the ~1.5 GiB the five
/// heaps of `fabric_srs32_write` grow to.
const WARM_BYTES: usize = 2 << 30;
/// Set-ups timed again per run when the hypervisor stole too much.
const SETUP_REDOS: usize = 2;
/// Rounds re-run per workload when the hypervisor stole too much.
const EXTRA_ROUNDS: usize = 4;
/// Pause between the end of a round and reading its counters.
const SETTLE: Duration = Duration::from_millis(2);
/// A round is invalid when steal exceeds this share of elapsed CPU time.
pub const MAX_STEAL: f64 = 0.10;

/// How one workload is to be run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Seconds of measurement (warm-up and set-up come on top).
    pub seconds: f64,
    /// Per-layer pass (spans, counters, isolated rows) instead of the
    /// end-to-end pass.
    pub traced: bool,
    /// Divide every keyspace by ten and set up once (the test suite).
    pub smoke: bool,
    /// How long the run may wait, in all, for steal episodes to pass.
    pub patience: Duration,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static Workload,
    pub values: Values,
    /// Operations issued, set-up and warm-up included.
    pub attempted: u64,
    /// Errors, timeouts and value-verification failures among them.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Rounds re-run or kept despite steal.
    pub notes: Vec<String>,
    /// Time spent waiting for the host to quieten.
    pub waited: Duration,
    pub trace: Option<Trace>,
}

/// Runs `w` as `plan` says.
///
/// # Errors
///
/// The cluster could not be booted (for `tcp_rep2_mixed`: `ring-server`
/// is not built next to this binary and `RING_SERVER_BIN` is unset).
pub fn run(w: &'static Workload, plan: &Plan) -> io::Result<Outcome> {
    match w.backend {
        Backend::Fabric => run_on::<FabricBed>(w, plan),
        Backend::Tcp => run_on::<TcpBed>(w, plan),
    }
}

/// The items to report from rounds with the given steal shares: those
/// within [`MAX_STEAL`] — or, when the host never gave such a round, all
/// of them: a value from disturbed rounds says more than none.
pub fn reportable<T>(rounds: &[T], steal_frac: impl Fn(&T) -> f64) -> Vec<&T> {
    let valid: Vec<&T> = rounds
        .iter()
        .filter(|r| steal_frac(r) <= MAX_STEAL)
        .collect();
    if valid.is_empty() {
        rounds.iter().collect()
    } else {
        valid
    }
}

/// Cumulative counters read at a round boundary.
#[derive(Clone, Default)]
struct Counters {
    /// CPU µs of the benchmark process (generator, client threads and,
    /// on the fabric, every node thread).
    own_cpu_us: f64,
    /// CPU µs of `ring-server` processes (TCP only).
    server_cpu_us: f64,
    net: Option<NetTotals>,
    /// Scheduler statistics per [`Bed::units`] entry.
    units: Vec<Sched>,
    generator: Sched,
}

impl Counters {
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            own_cpu_us: self.own_cpu_us - earlier.own_cpu_us,
            server_cpu_us: self.server_cpu_us - earlier.server_cpu_us,
            net: self.net.zip(earlier.net).map(|(a, b)| a.since(b)),
            units: self
                .units
                .iter()
                .zip(&earlier.units)
                .map(|(a, b)| a.since(*b))
                .collect(),
            generator: self.generator.since(earlier.generator),
        }
    }
}

/// One measured round: what was done and what the counters moved by.
struct Round {
    phase: &'static str,
    window: usize,
    /// Whether per-op samples and spans were recorded.
    traced: bool,
    secs: f64,
    steal: f64,
    ops: u64,
    moved: Counters,
    log: RoundLog,
}

/// Reads counters around rounds and re-runs the ones the host disturbed.
struct Probe<'a, B: Bed> {
    bed: &'a B,
    client: ring_net::NodeId,
    generator: Option<Unit>,
    patience: Duration,
    extras_left: usize,
    notes: Vec<String>,
}

impl<B: Bed> Probe<'_, B> {
    fn read(&self) -> (Instant, HostCpu, Counters) {
        let units = self.bed.units().unwrap_or_default();
        let counters = Counters {
            own_cpu_us: procfs::process_cpu_us(std::process::id()).unwrap_or(0.0),
            server_cpu_us: units
                .iter()
                .filter_map(|u| match u.unit {
                    Unit::Process(pid) => procfs::process_cpu_us(pid),
                    Unit::Thread(_) => None,
                })
                .sum(),
            net: self.bed.net(self.client),
            units: units.iter().map(|u| u.unit.sched()).collect(),
            generator: self.generator.map(Unit::sched).unwrap_or_default(),
        };
        (Instant::now(), procfs::host_cpu(), counters)
    }

    /// Runs `planned` rounds of `body` (which returns whether it logged
    /// samples and the ops it issued), re-running — while extras last —
    /// each one in which steal exceeded [`MAX_STEAL`]. Returns every
    /// round run; [`reportable`] picks.
    fn rounds(
        &mut self,
        phase: &'static str,
        window: usize,
        planned: usize,
        mut body: impl FnMut(usize, &mut RoundLog) -> (bool, u64),
    ) -> Vec<Round> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < planned {
            let (t0, host0, before) = self.read();
            let mut log = RoundLog::default();
            let (traced, ops) = body(i, &mut log);
            let t1 = Instant::now();
            // The round ends with every reply in, but a coordinator may
            // still be telling its replicas about the last commits; let
            // those land so that message counts per op repeat exactly.
            std::thread::sleep(SETTLE);
            let (_, host1, after) = self.read();
            let steal = procfs::steal_frac(host0, host1);
            if steal <= MAX_STEAL {
                i += 1;
            } else if self.extras_left > 0 {
                self.extras_left -= 1;
                let waited = quiet::wait_for_quiet(&mut self.patience, MAX_STEAL);
                self.notes.push(format!(
                    "{phase} round {i}: steal {:.1}% of CPU time, re-run after waiting {:.1} s",
                    steal * 100.0,
                    waited.as_secs_f64()
                ));
            } else {
                self.notes.push(format!(
                    "{phase} round {i}: steal {:.1}% of CPU time, no re-runs left",
                    steal * 100.0
                ));
                i += 1;
            }
            out.push(Round {
                phase,
                window,
                traced,
                secs: (t1 - t0).as_secs_f64(),
                steal,
                ops,
                moved: after.since(&before),
                log,
            });
        }
        out
    }
}

/// Records the median over the reportable rounds of each round's `p`-th
/// percentile of the samples `pick` selects, in units of `unit_ns`.
fn round_percentile(
    values: &mut Values,
    name: &'static str,
    rounds: &[&Round],
    pick: impl Fn(&RoundLog) -> Vec<u32>,
    p: f64,
    unit_ns: f64,
) {
    let mut samples = 0;
    let per_round: Vec<f64> = reportable(rounds, |r| r.steal)
        .into_iter()
        .filter_map(|r| {
            let mut v = pick(&r.log);
            v.sort_unstable();
            samples += v.len();
            percentile(&v, p).map(|ns| ns / unit_ns)
        })
        .collect();
    values.median(name, &per_round, samples);
}

/// `Σ num / Σ den` over the reportable rounds.
fn ratio(
    values: &mut Values,
    name: &'static str,
    rounds: &[&Round],
    num: impl Fn(&Round) -> f64,
    den: impl Fn(&Round) -> f64,
) {
    let kept = reportable(rounds, |r| r.steal);
    let ops: u64 = kept.iter().map(|r| r.ops).sum();
    values.ratio(name, kept.iter().map(|r| (num(r), den(r))), ops as usize);
}

fn ops(r: &Round) -> f64 {
    r.ops as f64
}

fn secs(r: &Round) -> f64 {
    r.secs
}

fn end_to_end(
    values: &mut Values,
    user_bytes: f64,
    setup_s: &[f64],
    loaded: Option<&StoreTotals>,
    latency: &[&Round],
    throughput: &[&Round],
    // Store totals and acknowledged put bytes around the throughput phase.
    growth: Option<(StoreTotals, StoreTotals, u64)>,
) {
    values.median("setup_s", setup_s, 0);
    ratio(values, "throughput_ops_s", throughput, ops, secs);
    round_percentile(
        values,
        "put_p50_us",
        latency,
        |l| l.put_ns.clone(),
        0.5,
        1e3,
    );
    round_percentile(
        values,
        "get_p50_us",
        latency,
        |l| l.get_ns.clone(),
        0.5,
        1e3,
    );
    ratio(
        values,
        "cpu_us_per_op",
        throughput,
        |r| r.moved.own_cpu_us + r.moved.server_cpu_us,
        ops,
    );
    match loaded {
        Some(t) => values.single("storage_amplification", t.bytes as f64 / user_bytes),
        None => values.not_applicable("storage_amplification", "node_stats failed"),
    }
    match growth {
        // 1 + growth per put byte, so the metric is never 0: 1.0 means
        // overwrites are reclaimed in full.
        Some((before, after, put_bytes)) if put_bytes > 0 => values.single(
            "overwrite_amplification",
            1.0 + (after.bytes as f64 - before.bytes as f64) / put_bytes as f64,
        ),
        _ => values.not_applicable("overwrite_amplification", "no put completed"),
    }
}

/// Everything the per-layer metrics are computed from.
struct Layered<'a> {
    w: &'a Workload,
    /// The isolated rows, `(metric, value)`.
    iso: &'a [(&'static str, f64)],
    keys: usize,
    units: Result<&'a [LayerUnit], &'static str>,
    loaded: Option<&'a StoreTotals>,
    latency: &'a [&'a Round],
    throughput: &'a [&'a Round],
    /// Store totals around the throughput phase.
    served: Option<(StoreTotals, StoreTotals)>,
    steal_frac: f64,
    discarded: usize,
}

const FABRIC_ONLY: &str =
    "the TCP client's transport counters are not reachable from outside; see server.*";
const TCP_ONLY: &str = "no server processes: fabric nodes are threads of the benchmark";

fn per_layer(values: &mut Values, l: &Layered) {
    let every: Vec<&Round> = l.latency.iter().chain(l.throughput).copied().collect();
    let traced: Vec<&Round> = l.throughput.iter().filter(|r| r.traced).copied().collect();
    let untraced: Vec<&Round> = l.throughput.iter().filter(|r| !r.traced).copied().collect();
    let tput = l.throughput;

    // client
    let lat = l.latency;
    let loaded_ns = |l: &RoundLog| [&l.put_ns[..], &l.get_ns[..]].concat();
    round_percentile(
        values,
        "client.put_p99_us",
        lat,
        |l| l.put_ns.clone(),
        0.99,
        1e3,
    );
    round_percentile(
        values,
        "client.get_p99_us",
        lat,
        |l| l.get_ns.clone(),
        0.99,
        1e3,
    );
    round_percentile(values, "client.loaded_p50_us", &traced, loaded_ns, 0.5, 1e3);
    round_percentile(
        values,
        "client.loaded_p99_us",
        &traced,
        loaded_ns,
        0.99,
        1e3,
    );
    round_percentile(
        values,
        "client.submit_ns",
        &traced,
        |l| l.submit_ns.clone(),
        0.5,
        1.0,
    );
    round_percentile(
        values,
        "client.poll_ns",
        &traced,
        |l| l.poll_ns.clone(),
        0.5,
        1.0,
    );
    let generator_us = |r: &Round| r.moved.generator.run_ns as f64 / 1e3;
    ratio(values, "client.cpu_us_per_op", tput, generator_us, ops);

    // net, from the fabric's counters
    if every.iter().all(|r| r.moved.net.is_some()) {
        let net = |f: fn(NetTotals) -> u64| move |r: &Round| r.moved.net.map_or(0, f) as f64;
        let retransmits_k = |r: &Round| net(|n| n.client_retransmits)(r) * 1e3;
        ratio(
            values,
            "client.retransmits_per_kop",
            tput,
            retransmits_k,
            ops,
        );
        ratio(values, "net.msgs_per_op", tput, net(|n| n.msgs), ops);
        ratio(values, "net.wire_bytes_per_op", tput, net(|n| n.bytes), ops);
        ratio(
            values,
            "leader.msgs_per_s",
            &every,
            net(|n| n.leader_msgs),
            secs,
        );
    } else {
        // leader.msgs_per_s comes from the leader's shutdown report.
        for name in [
            "client.retransmits_per_kop",
            "net.msgs_per_op",
            "net.wire_bytes_per_op",
        ] {
            values.not_applicable(name, FABRIC_ONLY);
        }
    }

    // CPU and scheduling per layer, from /proc
    match l.units {
        Ok(units) => {
            // Sum of one schedstat field over a layer's units ("" = all).
            let sum = |layer: &'static str, field: fn(Sched) -> u64| {
                move |r: &Round| {
                    units
                        .iter()
                        .zip(&r.moved.units)
                        .filter(|(u, _)| layer.is_empty() || u.layer == layer)
                        .map(|(_, s)| field(*s))
                        .sum::<u64>() as f64
                }
            };
            let run_us = |layer: &'static str| move |r: &Round| sum(layer, |s| s.run_ns)(r) / 1e3;
            let wait_us = |r: &Round| sum("", |s| s.wait_ns)(r) / 1e3;
            ratio(
                values,
                "net.wakeups_per_op",
                tput,
                sum("", |s| s.slices),
                ops,
            );
            ratio(values, "net.runq_wait_us_per_op", tput, wait_us, ops);
            ratio(values, "coord.cpu_us_per_op", tput, run_us("coord"), ops);
            ratio(
                values,
                "redundant.cpu_us_per_op",
                tput,
                run_us("redundant"),
                ops,
            );
            ratio(
                values,
                "leader.cpu_us_per_s",
                &every,
                run_us("leader"),
                secs,
            );
        }
        Err(why) => {
            for name in [
                "net.wakeups_per_op",
                "net.runq_wait_us_per_op",
                "coord.cpu_us_per_op",
                "redundant.cpu_us_per_op",
                "leader.cpu_us_per_s",
            ] {
                values.not_applicable(name, why);
            }
        }
    }
    if l.w.backend == Backend::Tcp {
        ratio(
            values,
            "server.cpu_us_per_op",
            tput,
            |r| r.moved.server_cpu_us,
            ops,
        );
    } else {
        values.not_applicable("server.cpu_us_per_op", TCP_ONLY);
    }

    // op counters and storage accounting, from node_stats
    match &l.served {
        Some((before, after)) => {
            let served: Vec<f64> = after
                .coord_ops
                .iter()
                .zip(&before.coord_ops)
                .map(|(a, b)| (a - b) as f64)
                .collect();
            let mean = served.iter().sum::<f64>() / served.len() as f64;
            let max = served.iter().copied().fold(0.0, f64::max);
            values.single("coord.ops_imbalance", max / mean);
            values.single(
                "redundant.updates_per_put",
                (after.redundancy_updates - before.redundancy_updates) as f64
                    / (after.puts - before.puts) as f64,
            );
        }
        None => {
            values.not_applicable("coord.ops_imbalance", "node_stats failed");
            values.not_applicable("redundant.updates_per_put", "node_stats failed");
        }
    }
    match l.loaded {
        Some(t) => values.single(
            "storage.meta_bytes_per_key",
            t.meta_bytes as f64 / l.keys as f64,
        ),
        None => values.not_applicable("storage.meta_bytes_per_key", "node_stats failed"),
    }

    // isolated rows
    for &(name, value) in l.iso {
        values.single(name, value);
    }

    // host and the tracing itself
    values.single("host.steal_frac", l.steal_frac);
    values.single("host.rounds_discarded", l.discarded as f64);
    let rate = |rounds: &[&Round]| {
        let kept = reportable(rounds, |r| r.steal);
        kept.iter().map(|r| ops(r)).sum::<f64>() / kept.iter().map(|r| r.secs).sum::<f64>()
    };
    values.single("trace.overhead_frac", 1.0 - rate(&traced) / rate(&untraced));
}

/// The per-layer metrics only known once the servers have stopped.
fn after_shutdown(
    values: &mut Values,
    w: &Workload,
    server: Option<ServerTotals>,
    boot_s: f64,
    up_s: f64,
) {
    if w.backend != Backend::Tcp {
        for name in [
            "server.msgs_per_op",
            "server.wire_bytes_per_op",
            "server.boot_s",
        ] {
            values.not_applicable(name, TCP_ONLY);
        }
        return;
    }
    values.single("server.boot_s", boot_s);
    match server {
        Some(t) if t.ops > 0 => {
            values.single("server.msgs_per_op", t.node_msgs as f64 / t.ops as f64);
            values.single(
                "server.wire_bytes_per_op",
                t.node_bytes as f64 / t.ops as f64,
            );
            values.single("leader.msgs_per_s", t.leader_msgs as f64 / up_s);
        }
        _ => {
            for name in [
                "server.msgs_per_op",
                "server.wire_bytes_per_op",
                "leader.msgs_per_s",
            ] {
                values.not_applicable(
                    name,
                    "a ring-server did not exit cleanly with its stats line",
                );
            }
        }
    }
}

fn trace_of(
    w: &Workload,
    seed: u64,
    units: Result<&[LayerUnit], &'static str>,
    rounds: &[&Round],
) -> Trace {
    let threads = |r: &Round| -> Vec<ThreadRow> {
        let generator = ThreadRow {
            layer: "generator",
            node: None,
            sched: r.moved.generator,
        };
        units
            .unwrap_or_default()
            .iter()
            .zip(&r.moved.units)
            .map(|(u, s)| ThreadRow {
                layer: u.layer,
                node: Some(u.node),
                sched: *s,
            })
            .chain([generator])
            .collect()
    };
    Trace {
        workload: w.name,
        seed,
        attribution: units.err(),
        rounds: rounds
            .iter()
            .map(|r| RoundTrace {
                phase: r.phase,
                window: r.window,
                traced: r.traced,
                secs: r.secs,
                ops: r.ops,
                steal_frac: r.steal,
                net_msgs: r.moved.net.map(|n| n.msgs),
                net_bytes: r.moved.net.map(|n| n.bytes),
                threads: threads(r),
                spans: r.log.spans.clone(),
            })
            .collect(),
    }
}

fn run_on<B: Bed>(w: &'static Workload, plan: &Plan) -> io::Result<Outcome> {
    let keys = if plan.smoke { w.keys / 10 } else { w.keys };
    let setups = if plan.traced || plan.smoke { 1 } else { SETUPS };
    let epoch = Instant::now();
    let (mut attempted, mut failed, mut first_failure) = (0, 0, None);

    // Set-up: boot, then load every key once. Repeated so that `setup_s`
    // is a median; the last cluster is the one measured. A set-up the
    // hypervisor disturbed is timed again (at most [`SETUP_REDOS`] times).
    let mut patience = plan.patience;
    let mut notes = Vec::new();
    if !plan.smoke {
        quiet::warm_memory(WARM_BYTES);
    }
    quiet::wait_for_quiet(&mut patience, MAX_STEAL);
    // The isolated rows come first: nothing else is running yet.
    let iso = plan.traced.then(|| iso::measure(w));
    let mut setup_s = Vec::new();
    let mut redos_left = SETUP_REDOS;
    let (bed, mut s, boot_s, booted) = loop {
        let host = procfs::host_cpu();
        let t0 = Instant::now();
        let bed = B::boot()?;
        let boot_s = t0.elapsed().as_secs_f64();
        let mut s = Session::new(w, keys, bed.client(), epoch);
        s.preload(plan.seed);
        let took = t0.elapsed().as_secs_f64();
        let steal = procfs::steal_frac(host, procfs::host_cpu());
        if steal > MAX_STEAL && redos_left > 0 {
            redos_left -= 1;
            let waited = quiet::wait_for_quiet(&mut patience, MAX_STEAL);
            notes.push(format!(
                "set-up: steal {:.1}% of CPU time, again after waiting {:.1} s",
                steal * 100.0,
                waited.as_secs_f64()
            ));
        } else {
            setup_s.push(took);
            if setup_s.len() == setups {
                break (bed, s, boot_s, t0);
            }
        }
        attempted += s.attempted;
        failed += s.failed;
        first_failure = first_failure.or(s.first_failure.take());
        drop(s);
        bed.shutdown();
    };
    let loaded = s.store_totals();

    let round = Duration::from_secs_f64(plan.seconds / ROUNDS as f64);
    let mut gen = OpGen::new(w, keys, plan.seed);
    let mut latency_keys = StdRng::seed_from_u64(plan.seed ^ 0x006c_6174_656e_6379);
    let mut probe = Probe {
        bed: &bed,
        client: s.client_id(),
        generator: procfs::current_thread_id().map(Unit::Thread),
        patience,
        extras_left: EXTRA_ROUNDS,
        notes,
    };

    // Warm-up, discarded: caches, lazy connections, first heap doublings.
    s.throughput_round(&mut gen, round * 2, None);

    // Untraced: every latency round keeps its samples (they are the
    // result) and no throughput round does. Traced: fewer rounds, and
    // throughput rounds alternate unsampled/sampled on the same cluster,
    // so that the difference in their rates is what recording costs.
    let (latency_rounds, throughput_rounds) = if plan.traced {
        (TRACED_LATENCY_ROUNDS, 2 * TRACED_PAIRS)
    } else {
        (LATENCY_ROUNDS, ROUNDS - LATENCY_ROUNDS)
    };
    let host_before = procfs::host_cpu();
    let latency = probe.rounds("latency", 1, latency_rounds, |_, log| {
        (true, s.latency_round(&mut latency_keys, round, log))
    });
    let before = s.store_totals();
    let put_bytes = s.put_bytes;
    let throughput = probe.rounds("throughput", WINDOW, throughput_rounds, |i, log| {
        let sampled = plan.traced && i % 2 == 1;
        let ops = s.throughput_round(&mut gen, round, sampled.then_some(log));
        (sampled, ops)
    });
    let after = s.store_totals();
    let steal_frac = procfs::steal_frac(host_before, procfs::host_cpu());
    let latency: Vec<&Round> = latency.iter().collect();
    let throughput: Vec<&Round> = throughput.iter().collect();

    let mut values = Values::default();
    let mut trace = None;
    if let Some(iso) = &iso {
        let layered = Layered {
            w,
            iso,
            keys,
            units: bed.units(),
            loaded: loaded.as_ref(),
            latency: &latency,
            throughput: &throughput,
            served: before.zip(after),
            steal_frac,
            discarded: EXTRA_ROUNDS - probe.extras_left,
        };
        per_layer(&mut values, &layered);
        let every: Vec<&Round> = latency.iter().chain(&throughput).copied().collect();
        trace = Some(trace_of(w, plan.seed, bed.units(), &every));
    } else {
        let growth = before
            .zip(after)
            .map(|(b, a)| (b, a, s.put_bytes - put_bytes));
        end_to_end(
            &mut values,
            (keys * w.value_len) as f64,
            &setup_s,
            loaded.as_ref(),
            &latency,
            &throughput,
            growth,
        );
    }

    attempted += s.attempted;
    failed += s.failed;
    first_failure = first_failure.or(s.first_failure.take());
    let notes = std::mem::take(&mut probe.notes);
    let waited = plan.patience - probe.patience;
    drop(s);
    let up_s = booted.elapsed().as_secs_f64();
    let server = bed.shutdown();
    if plan.traced {
        after_shutdown(&mut values, w, server, boot_s, up_s);
    }
    Ok(Outcome {
        workload: w,
        values,
        attempted,
        failed,
        first_failure,
        notes,
        waited,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_gate_keeps_quiet_rounds_and_falls_back_to_all() {
        let rounds = [(0.02, 'a'), (0.30, 'b'), (0.10, 'c'), (0.11, 'd')];
        let kept: Vec<char> = reportable(&rounds, |r| r.0).iter().map(|r| r.1).collect();
        assert_eq!(kept, ['a', 'c'], "10% itself is still valid");
        let noisy = [(0.5, 'x'), (0.2, 'y')];
        let kept: Vec<char> = reportable(&noisy, |r| r.0).iter().map(|r| r.1).collect();
        assert_eq!(kept, ['x', 'y'], "no quiet round: report what there is");
        assert!(reportable(&[] as &[(f64, char)], |r| r.0).is_empty());
    }
}
