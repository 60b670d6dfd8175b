//! End-to-end seeded soak runs: workload + nemesis + checker.
//!
//! Everything random in a soak — the per-client op scripts, the nemesis
//! timeline, the message-fault decision table — is derived from
//! `ClusterSpec::seed` via labelled sub-seeds, and each artefact folds
//! into a schedule digest. Re-running with the same seed reproduces the
//! schedule bit-for-bit ([`SoakReport::schedule_digest`] is equal);
//! thread interleaving still varies, which is exactly the point: many
//! interleavings of one adversarial schedule, all of which must
//! linearize.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ring_kvs::{Cluster, ClusterSpec, MemgestDescriptor, MemgestId};
use ring_workload::{KeyDistribution, WorkloadGen, WorkloadSpec};

use crate::checker::check_history;
use crate::history::HistoryRecorder;
use crate::nemesis::{FaultPlan, MessageFaults, Nemesis, NemesisSpec};
use crate::search::Verdict;
use crate::straggler::{StragglerProfile, StragglerSpec};
use crate::Digest;

/// Default in-flight pipeline depth of each scripted soak client. Deep
/// enough to exercise out-of-order completion and duplicate-delivery
/// races, shallow enough that per-key contention stays realistic.
const SOAK_WINDOW: usize = 4;

/// One scripted client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Tagged put into a memgest.
    Put {
        /// The key.
        key: u64,
        /// Target memgest.
        memgest: MemgestId,
    },
    /// Read.
    Get {
        /// The key.
        key: u64,
    },
    /// Delete.
    Delete {
        /// The key.
        key: u64,
    },
    /// Move between memgests.
    Move {
        /// The key.
        key: u64,
        /// Destination memgest.
        memgest: MemgestId,
    },
}

impl ScriptOp {
    fn mix_into(&self, d: &mut Digest) {
        match *self {
            ScriptOp::Put { key, memgest } => {
                d.mix(0);
                d.mix(key);
                d.mix(u64::from(memgest));
            }
            ScriptOp::Get { key } => {
                d.mix(1);
                d.mix(key);
            }
            ScriptOp::Delete { key } => {
                d.mix(2);
                d.mix(key);
            }
            ScriptOp::Move { key, memgest } => {
                d.mix(3);
                d.mix(key);
                d.mix(u64::from(memgest));
            }
        }
    }
}

/// Configuration of a soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Cluster spec; `spec.seed` is the master seed for everything.
    pub spec: ClusterSpec,
    /// Concurrent client threads.
    pub clients: usize,
    /// Scripted ops per client (the preload and final read pass are on
    /// top of these).
    pub ops_per_client: usize,
    /// Key-space size; keys are drawn Zipfian so some are contended.
    pub keys: u64,
    /// Tagged-value length in bytes (>= 16).
    pub value_len: usize,
    /// Fraction of scripted ops that are gets.
    pub get_ratio: f64,
    /// Fraction that are deletes.
    pub delete_ratio: f64,
    /// Fraction that are moves.
    pub move_ratio: f64,
    /// Memgests the workload targets (puts round-robin by key, moves
    /// pick seeded-randomly). Ids index into `spec.memgests`.
    pub memgests: Vec<MemgestId>,
    /// Message-fault probabilities.
    pub faults: MessageFaults,
    /// Seeded straggler (slow-node) profile layered over the message
    /// faults; `None` disables it.
    pub straggler: Option<StragglerSpec>,
    /// Coarse-fault timeline spec.
    pub nemesis: NemesisSpec,
    /// In-flight pipeline depth per scripted client (1 = synchronous).
    pub window: usize,
}

impl SoakConfig {
    /// A small smoke-test soak (~1.2k ops): REP3 + SRS(3,2), light
    /// message faults, one partition, one crash.
    pub fn quick(seed: u64) -> SoakConfig {
        SoakConfig {
            ops_per_client: 300,
            clients: 4,
            nemesis: NemesisSpec {
                partitions: 1,
                crashes: 1,
                start_after: Duration::from_millis(40),
                every: Duration::from_millis(150),
                partition_len: Duration::from_millis(25),
            },
            ..SoakConfig::acceptance(seed)
        }
    }

    /// The acceptance-criteria soak: >= 10k ops over REP3 + SRS(3,2)
    /// with drops, duplicates, delays, transient partitions and two
    /// crash-plus-promotion events.
    pub fn acceptance(seed: u64) -> SoakConfig {
        let spec = ClusterSpec {
            spares: 2,
            memgests: vec![MemgestDescriptor::rep(3), MemgestDescriptor::srs(3, 2)],
            default_memgest: 0,
            // Short per-attempt timeout so retries around faults stay
            // cheap; 10 attempts still ride out a 50ms failover.
            client_timeout: Duration::from_millis(25),
            seed,
            ..ClusterSpec::default()
        };
        SoakConfig {
            spec,
            clients: 4,
            ops_per_client: 2500,
            keys: 96,
            value_len: 64,
            get_ratio: 0.40,
            delete_ratio: 0.05,
            move_ratio: 0.05,
            memgests: vec![0, 1],
            faults: MessageFaults::light(),
            straggler: None,
            nemesis: NemesisSpec::standard(),
            window: SOAK_WINDOW,
        }
    }

    /// [`SoakConfig::quick`] with a seeded straggler layered on top of
    /// the message faults: linearizability must survive a chronically
    /// slow node exactly as it survives drops and crashes.
    pub fn quick_straggler(seed: u64) -> SoakConfig {
        SoakConfig {
            straggler: Some(StragglerSpec::light()),
            ..SoakConfig::quick(seed)
        }
    }

    /// [`SoakConfig::sequential`] plus a straggler schedule. Straggles
    /// are delay-only, so the sequential synchronous run still records
    /// a byte-identical history per seed — the determinism regression
    /// re-runs under this preset to pin down that the straggler nemesis
    /// perturbs *when* messages arrive but never *what* the protocol
    /// decides.
    pub fn sequential_straggler(seed: u64) -> SoakConfig {
        SoakConfig {
            straggler: Some(StragglerSpec::light()),
            ..SoakConfig::sequential(seed)
        }
    }

    /// A fully sequential soak: one client, synchronous ops, no faults
    /// of any kind, generous timeouts. With concurrency and faults
    /// removed, the *complete recorded history* — not just the schedule
    /// — is a pure function of the seed, which is what the determinism
    /// regression test (`crates/chaos/tests/determinism.rs`) pins down.
    pub fn sequential(seed: u64) -> SoakConfig {
        let mut cfg = SoakConfig::acceptance(seed);
        cfg.spec.client_timeout = Duration::from_secs(5);
        cfg.clients = 1;
        cfg.ops_per_client = 400;
        cfg.window = 1;
        cfg.faults = MessageFaults::none();
        cfg.nemesis = NemesisSpec {
            partitions: 0,
            crashes: 0,
            ..NemesisSpec::quiet()
        };
        cfg
    }

    /// The scripted op streams, one per client: pure in the seed.
    pub fn scripts(&self) -> Vec<Vec<ScriptOp>> {
        assert!(!self.memgests.is_empty(), "need at least one memgest");
        assert!(
            self.get_ratio + self.delete_ratio + self.move_ratio <= 1.0,
            "op ratios exceed 1"
        );
        let m = self.memgests.len();
        (0..self.clients)
            .map(|c| {
                let mut keygen = WorkloadGen::new(
                    WorkloadSpec {
                        key_count: self.keys,
                        value_len: self.value_len,
                        get_ratio: 0.0, // Kinds are drawn below instead.
                        distribution: KeyDistribution::Zipfian,
                    },
                    self.spec.derived_seed(&format!("soak-keys-{c}")),
                );
                let mut rng =
                    SmallRng::seed_from_u64(self.spec.derived_seed(&format!("soak-kinds-{c}")));
                (0..self.ops_per_client)
                    .map(|_| {
                        let key = keygen.next_key();
                        let r: f64 = rng.gen();
                        if r < self.get_ratio {
                            ScriptOp::Get { key }
                        } else if r < self.get_ratio + self.delete_ratio {
                            ScriptOp::Delete { key }
                        } else if r < self.get_ratio + self.delete_ratio + self.move_ratio {
                            ScriptOp::Move {
                                key,
                                memgest: self.memgests[rng.gen_range(0..m)],
                            }
                        } else {
                            ScriptOp::Put {
                                key,
                                memgest: self.memgests[key as usize % m],
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Digest of the run's full seeded schedule: scripts, nemesis
    /// timeline, and a probe of the message-fault decision table.
    /// Bit-identical across runs with equal configs and seeds.
    pub fn schedule_digest(&self) -> u64 {
        let mut d = Digest::new();
        for (c, script) in self.scripts().iter().enumerate() {
            d.mix(c as u64);
            for op in script {
                op.mix_into(&mut d);
            }
        }
        let data_nodes = self.spec.s + self.spec.d;
        for ev in self.nemesis.timeline(
            self.spec.derived_seed("nemesis"),
            data_nodes,
            self.spec.spares,
        ) {
            ev.mix_into(&mut d);
        }
        let plan = FaultPlan::new(self.spec.derived_seed("faults"), self.faults);
        d.mix(plan.probe_digest((data_nodes + self.spec.spares) as u32, 64));
        if let Some(spec) = self.straggler {
            let prof = StragglerProfile::seeded(
                self.spec.derived_seed("straggler"),
                spec,
                (data_nodes + self.spec.spares) as u32,
                None,
            );
            d.mix(prof.probe_digest((data_nodes + self.spec.spares) as u32, 64));
        }
        d.value()
    }
}

/// What a soak run produced.
#[derive(Debug)]
pub struct SoakReport {
    /// The master seed (echoed so failures are replayable).
    pub seed: u64,
    /// Digest of the seeded schedule (scripts + timeline + fault table).
    pub schedule_digest: u64,
    /// Total recorded operations (preload + scripted + final reads).
    pub ops: usize,
    /// Operations that timed out (counted as "maybe happened").
    pub timeouts: usize,
    /// Operations that returned a hard error.
    pub failures: usize,
    /// Partitions actually injected.
    pub partitions: usize,
    /// Crashes actually injected.
    pub crashes: usize,
    /// Messages (decided, dropped, duplicated, delayed) by the plan.
    pub message_faults: (u64, u64, u64, u64),
    /// Straggler decisions `(decided, straggled)`; zeros when the run
    /// had no straggler profile.
    pub straggles: (u64, u64),
    /// The checker's verdict.
    pub checker: Verdict,
    /// The full recorded history the verdict was computed over.
    pub history: crate::history::History,
}

impl SoakReport {
    /// True when the history linearized.
    pub fn passed(&self) -> bool {
        self.checker.is_ok()
    }
}

/// Runs a full seeded soak: boot, preload, faulted workload, heal,
/// final read pass, shutdown, check.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let scripts = cfg.scripts();
    let spec = cfg.spec.clone();
    let data_nodes = spec.s + spec.d;
    let timeline = cfg
        .nemesis
        .timeline(spec.derived_seed("nemesis"), data_nodes, spec.spares);
    let schedule_digest = cfg.schedule_digest();
    let plan = Arc::new(FaultPlan::new(spec.derived_seed("faults"), cfg.faults));
    let straggler = cfg.straggler.map(|s| {
        Arc::new(StragglerProfile::seeded(
            spec.derived_seed("straggler"),
            s,
            (data_nodes + spec.spares) as u32,
            Some(Arc::clone(&plan) as Arc<_>),
        ))
    });

    let cluster = Cluster::start(spec.clone());
    let recorder = HistoryRecorder::new();

    // Fault-free preload: every key written once so gets have something
    // to observe from the start. Recorded like any other op.
    {
        let mut loader = recorder.client(cluster.client(), cfg.value_len);
        for key in 0..cfg.keys {
            let memgest = cfg.memgests[key as usize % cfg.memgests.len()];
            let _ = loader.put_to(key, memgest);
        }
    }

    match &straggler {
        Some(prof) => cluster
            .fabric()
            .set_fault_injector(Arc::clone(prof) as Arc<_>),
        None => cluster
            .fabric()
            .set_fault_injector(Arc::clone(&plan) as Arc<_>),
    }
    let nemesis = Nemesis::start(cluster.fabric().clone(), timeline);

    // Recorded clients are created on the main thread so recorder ids
    // (hence value tags) assign deterministically: loader 0, scripted
    // clients 1..=n, final reader n+1.
    let mut clients: Vec<_> = (0..cfg.clients)
        .map(|_| recorder.client(cluster.client(), cfg.value_len))
        .collect();

    std::thread::scope(|scope| {
        for (mut rc, script) in clients.drain(..).zip(scripts.iter()) {
            scope.spawn(move || {
                // Pipelined workload driver: each client keeps up to
                // `cfg.window` scripted ops in flight. Errors and
                // timeouts are part of the history; the checker, not
                // the workload, judges them. Retries inside the client
                // are idempotent (coordinator dedup), so pipelining
                // keeps at-most-once semantics even under faults.
                rc.set_window(cfg.window);
                for op in script {
                    match *op {
                        ScriptOp::Put { key, memgest } => rc.put_nb(key, memgest),
                        ScriptOp::Get { key } => rc.get_nb(key),
                        ScriptOp::Delete { key } => rc.delete_nb(key),
                        ScriptOp::Move { key, memgest } => rc.move_nb(key, memgest),
                    }
                    rc.poll_ops();
                }
                rc.drain_ops();
            });
        }
    });

    let (partitions, crashes) = nemesis.stop();
    cluster.fabric().clear_fault_injector();
    // Let in-flight failovers finish before the verification reads.
    std::thread::sleep(3 * cfg.spec.fail_timeout);

    {
        let mut reader = recorder.client(cluster.client(), cfg.value_len);
        for key in 0..cfg.keys {
            let _ = reader.get(key);
        }
    }

    cluster.shutdown();

    let history = recorder.history();
    let timeouts = history.maybe_count();
    let failures = history.failed_count();
    let ops = history.len();
    let checker = check_history(&history);

    SoakReport {
        seed: cfg.spec.seed,
        schedule_digest,
        ops,
        timeouts,
        failures,
        partitions,
        crashes,
        message_faults: plan.counters(),
        straggles: straggler.map_or((0, 0), |p| p.counters()),
        checker,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_seeded_and_sized() {
        let cfg = SoakConfig::acceptance(11);
        let s1 = cfg.scripts();
        let s2 = cfg.scripts();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), cfg.clients);
        assert!(s1.iter().all(|s| s.len() == cfg.ops_per_client));
        let total: usize = s1.iter().map(Vec::len).sum();
        assert!(total >= 10_000, "acceptance soak must be >= 10k ops");
        let other = SoakConfig::acceptance(12).scripts();
        assert_ne!(s1, other);
    }

    #[test]
    fn schedule_digest_tracks_seed() {
        assert_eq!(
            SoakConfig::acceptance(5).schedule_digest(),
            SoakConfig::acceptance(5).schedule_digest()
        );
        assert_ne!(
            SoakConfig::acceptance(5).schedule_digest(),
            SoakConfig::acceptance(6).schedule_digest()
        );
    }

    #[test]
    fn script_mix_matches_ratios() {
        let cfg = SoakConfig::acceptance(3);
        let ops: Vec<ScriptOp> = cfg.scripts().into_iter().flatten().collect();
        let frac = |pred: fn(&ScriptOp) -> bool| {
            ops.iter().filter(|o| pred(o)).count() as f64 / ops.len() as f64
        };
        let gets = frac(|o| matches!(o, ScriptOp::Get { .. }));
        let dels = frac(|o| matches!(o, ScriptOp::Delete { .. }));
        let moves = frac(|o| matches!(o, ScriptOp::Move { .. }));
        assert!((gets - 0.40).abs() < 0.03, "get fraction {gets}");
        assert!((dels - 0.05).abs() < 0.02, "delete fraction {dels}");
        assert!((moves - 0.05).abs() < 0.02, "move fraction {moves}");
    }
}
