//! The two clusters a workload can run on, behind one trait: what the
//! measurement loop needs from either, read from outside the program.

use std::io;
use std::time::Duration;

use ring_kvs::proto::Msg;
use ring_kvs::{Cluster, ClusterSpec, RingClient, LEADER_NODE};
use ring_net::{NodeId, Transport};
use ring_server::harness::{LoopbackCluster, LoopbackSpec};

use crate::procfs::{self, Unit};

/// Per-attempt client timeout on both beds (the loopback harness's
/// default). The fabric default of 100 ms turns a node stalled by heap
/// growth or host steal into failed operations; with 1 s the stall shows
/// up as lost throughput instead.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(1);

/// One schedulable unit of the cluster and the layer it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct LayerUnit {
    /// `"coord"` (nodes `0..s`), `"redundant"` (nodes `s..s+d`) or
    /// `"leader"`.
    pub layer: &'static str,
    pub node: NodeId,
    pub unit: Unit,
}

impl LayerUnit {
    fn new(node: NodeId, s: usize, unit: Unit) -> LayerUnit {
        let layer = if node == LEADER_NODE {
            "leader"
        } else if (node as usize) < s {
            "coord"
        } else {
            "redundant"
        };
        LayerUnit { layer, node, unit }
    }
}

/// Logical protocol traffic read from the fabric's public counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTotals {
    /// Messages and `WireSize` bytes received by the data nodes and the
    /// client: every message of an op lands on one of them exactly once
    /// and heartbeats (which go to the leader) stay out, so the per-op
    /// quotient is a count that repeats.
    pub msgs: u64,
    pub bytes: u64,
    /// Messages the leader sent or received.
    pub leader_msgs: u64,
    /// Client-side protocol retransmissions.
    pub client_retransmits: u64,
}

impl NetTotals {
    /// Field-wise `self - earlier`.
    pub fn since(self, earlier: NetTotals) -> NetTotals {
        NetTotals {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            leader_msgs: self.leader_msgs - earlier.leader_msgs,
            client_retransmits: self.client_retransmits - earlier.client_retransmits,
        }
    }
}

/// What the servers reported when they stopped (TCP only): logical
/// traffic and ops over their whole life.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerTotals {
    /// Messages and bytes the data nodes received.
    pub node_msgs: u64,
    pub node_bytes: u64,
    /// Puts and gets the data nodes served.
    pub ops: u64,
    /// Messages the leader sent or received.
    pub leader_msgs: u64,
}

/// A booted cluster under measurement.
pub trait Bed: Sized {
    type T: Transport<Msg>;

    /// Boots the cluster.
    ///
    /// # Errors
    ///
    /// It cannot be booted (`ring-server` is not built).
    fn boot() -> io::Result<Self>;
    /// The one client of the run.
    fn client(&self) -> RingClient<Self::T>;
    /// The cluster's threads or processes by layer, or why they could
    /// not be told apart.
    fn units(&self) -> Result<&[LayerUnit], &'static str>;
    /// Live traffic counters, where the transport exposes them.
    fn net(&self, client: NodeId) -> Option<NetTotals>;
    /// Stops the cluster and waits for everything it started.
    fn shutdown(self) -> Option<ServerTotals>;
}

/// `ring_kvs::Cluster` on the simulated fabric.
pub struct FabricBed {
    cluster: Cluster,
    units: Result<Vec<LayerUnit>, &'static str>,
}

impl Bed for FabricBed {
    type T = ring_kvs::proto::RingEndpoint;

    fn boot() -> io::Result<FabricBed> {
        let me = std::process::id();
        let before = procfs::thread_ids(me);
        // paper_evaluation() as is: LatencyModel::rdma(), 3 + 2 nodes.
        let spec = ClusterSpec::paper_evaluation();
        let (s, spares) = (spec.s, spec.spares);
        let cluster = Cluster::start(spec);
        // Cluster::start spawns the active nodes, the spares, then the
        // leader, so the new thread ids in ascending order are exactly
        // that. Anything else: refuse to guess.
        let new: Vec<u32> = procfs::thread_ids(me)
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        let nodes = &cluster.config().nodes;
        let units = if new.len() == nodes.len() + spares + 1 {
            let leader = (LEADER_NODE, new[new.len() - 1]);
            Ok(nodes
                .iter()
                .copied()
                .zip(new.iter().copied())
                .chain([leader])
                .map(|(node, tid)| LayerUnit::new(node, s, Unit::Thread(tid)))
                .collect())
        } else {
            Err("Cluster::start did not spawn one thread per node plus the leader")
        };
        Ok(FabricBed { cluster, units })
    }

    fn client(&self) -> RingClient {
        let mut client = self.cluster.client();
        client.set_timeout(CLIENT_TIMEOUT);
        client
    }

    fn units(&self) -> Result<&[LayerUnit], &'static str> {
        self.units.as_deref().map_err(|e| *e)
    }

    fn net(&self, client: NodeId) -> Option<NetTotals> {
        let fabric = self.cluster.fabric();
        let stats = |id: NodeId| fabric.stats_of(id).unwrap_or_default();
        let mut totals = NetTotals::default();
        for &id in self.cluster.config().nodes.iter().chain([&client]) {
            let s = stats(id);
            totals.msgs += s.msgs_received;
            totals.bytes += s.bytes_received;
        }
        totals.client_retransmits = stats(client).retransmits;
        let leader = stats(LEADER_NODE);
        totals.leader_msgs = leader.msgs_sent + leader.msgs_received;
        Some(totals)
    }

    fn shutdown(self) -> Option<ServerTotals> {
        self.cluster.shutdown();
        None
    }
}

/// `ring-server` processes over loopback TCP.
pub struct TcpBed {
    cluster: LoopbackCluster,
    units: Result<Vec<LayerUnit>, &'static str>,
}

impl Bed for TcpBed {
    type T = ring_net::TcpTransport<Msg>;

    fn boot() -> io::Result<TcpBed> {
        // The harness defaults (s = 2, d = 1, REP2 + SRS21) without the
        // spare: no failover is exercised.
        let spec = LoopbackSpec {
            spares: 0,
            client_timeout: CLIENT_TIMEOUT,
            ..LoopbackSpec::default()
        };
        let (s, d) = (spec.s, spec.d);
        let cluster = LoopbackCluster::start(spec)?;
        // The harness keeps its children private; find them as this
        // process's children and read each one's role off its flags.
        let found: Vec<LayerUnit> = procfs::child_processes()
            .into_iter()
            .filter_map(|(pid, args)| {
                let node = if args.iter().any(|a| a == "--leader") {
                    LEADER_NODE
                } else {
                    let at = args.iter().position(|a| a == "--node")?;
                    args.get(at + 1)?.parse().ok()?
                };
                Some(LayerUnit::new(node, s, Unit::Process(pid)))
            })
            .collect();
        let units = if found.len() == s + d + 1 {
            Ok(found)
        } else {
            Err("could not find the s+d+1 ring-server children of this process")
        };
        Ok(TcpBed { cluster, units })
    }

    fn client(&self) -> RingClient<Self::T> {
        self.cluster.client()
    }

    fn units(&self) -> Result<&[LayerUnit], &'static str> {
        self.units.as_deref().map_err(|e| *e)
    }

    fn net(&self, _client: NodeId) -> Option<NetTotals> {
        None
    }

    fn shutdown(self) -> Option<ServerTotals> {
        let mut totals = ServerTotals::default();
        for report in self.cluster.shutdown() {
            if !report.clean_exit {
                return None;
            }
            // On a clean exit stderr is the one-line JSON stats report.
            let line = serde_json::from_str(report.stderr.trim()).ok()?;
            let net = |field: &str| line["net"][field].as_u64();
            if report.node == LEADER_NODE {
                totals.leader_msgs = net("msgs_sent")? + net("msgs_received")?;
            } else {
                totals.node_msgs += net("msgs_received")?;
                totals.node_bytes += net("bytes_received")?;
                totals.ops += line["ops"]["puts"].as_u64()? + line["ops"]["gets"].as_u64()?;
            }
        }
        Some(totals)
    }
}
