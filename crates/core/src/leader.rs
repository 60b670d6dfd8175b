//! The membership leader (Section 5.5).
//!
//! A distinguished node tracks heartbeats, replaces failed nodes with
//! spares by broadcasting new configurations, and serves the memgest
//! management API (`createMemgest` / `deleteMemgest` /
//! `setDefaultMemgest` are leader operations in the paper). The leader
//! stands in for the replicated state machine of the paper's design; its
//! own fault tolerance (leader election) is out of scope here, exactly
//! as it is in the paper's evaluation.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use ring_net::NodeId;

use crate::config::ClusterConfig;
use crate::error::RingError;
use ring_net::Transport;

use crate::proto::{ClientReq, ClientResp, Msg, RingEndpoint};
use crate::types::{MemgestDescriptor, MemgestId, ReqId, Scheme};

/// Leader tunables.
#[derive(Debug, Clone)]
pub struct LeaderOptions {
    /// Silence threshold after which a node is declared dead.
    pub fail_timeout: Duration,
    /// Event-loop poll timeout.
    pub poll_timeout: Duration,
    /// Grace period before watching a node (covers startup).
    pub startup_grace: Duration,
    /// Deadline for control-plane ack collection.
    pub ctrl_timeout: Duration,
}

impl Default for LeaderOptions {
    fn default() -> LeaderOptions {
        LeaderOptions {
            fail_timeout: Duration::from_millis(50),
            poll_timeout: Duration::from_micros(500),
            startup_grace: Duration::from_millis(200),
            ctrl_timeout: Duration::from_millis(100),
        }
    }
}

struct CtrlOp {
    client: (NodeId, ReqId),
    resp: ClientResp,
    awaiting: HashSet<NodeId>,
    deadline: Instant,
}

/// The membership leader node.
pub struct Leader<T: Transport<Msg> = RingEndpoint> {
    ep: T,
    config: ClusterConfig,
    catalog: BTreeMap<MemgestId, MemgestDescriptor>,
    default_memgest: MemgestId,
    last_seen: HashMap<NodeId, Instant>,
    dead: HashSet<NodeId>,
    ctrl: BTreeMap<u64, CtrlOp>,
    next_token: u64,
    next_memgest: MemgestId,
    opts: LeaderOptions,
}

impl<T: Transport<Msg>> Leader<T> {
    /// Creates a leader with the initial config and memgest catalog.
    pub fn new(
        ep: T,
        config: ClusterConfig,
        catalog: Vec<(MemgestId, MemgestDescriptor)>,
        default_memgest: MemgestId,
        opts: LeaderOptions,
    ) -> Leader<T> {
        let now = ring_net::clock::now() + opts.startup_grace;
        let mut last_seen = HashMap::new();
        for &n in config.nodes.iter().chain(config.spares.iter()) {
            last_seen.insert(n, now);
        }
        let next_memgest = catalog.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);
        Leader {
            ep,
            config,
            catalog: catalog.into_iter().collect(),
            default_memgest,
            last_seen,
            dead: HashSet::new(),
            ctrl: BTreeMap::new(),
            next_token: 1,
            next_memgest,
            opts,
        }
    }

    /// Runs the leader loop until the endpoint is killed.
    pub fn run(&mut self) {
        self.run_until(|| false);
    }

    /// Runs the leader loop until the endpoint is killed or `stop`
    /// returns true (graceful shutdown — the leader holds no in-flight
    /// client state to drain).
    pub fn run_until(&mut self, stop: impl Fn() -> bool) {
        loop {
            if stop() {
                return;
            }
            match self.ep.recv_timeout(self.opts.poll_timeout) {
                Ok((from, msg)) => self.dispatch(from, msg),
                Err(ring_net::NetError::Timeout) => {}
                Err(_) => break,
            }
            self.tick();
        }
    }

    fn dispatch(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::Heartbeat if !self.dead.contains(&from) => {
                self.last_seen.insert(from, ring_net::clock::now());
            }
            Msg::Heartbeat => {}
            Msg::CtrlAck { token } => {
                let done = if let Some(op) = self.ctrl.get_mut(&token) {
                    op.awaiting.remove(&from);
                    op.awaiting.is_empty()
                } else {
                    false
                };
                if done {
                    let op = self.ctrl.remove(&token).expect("present");
                    let _ = self.ep.send(
                        op.client.0,
                        Msg::Response {
                            req: op.client.1,
                            body: op.resp,
                        },
                    );
                }
            }
            Msg::Request { req, body } => self.handle_request(from, req, body),
            // The leader is control-plane only: data-plane traffic
            // (replication, parity, recovery, shard reads) never
            // addresses it. Dropping these is deliberate — enumerated
            // rather than `_` so adding a `Msg` variant forces a
            // routing decision here instead of vanishing silently.
            Msg::Response { .. }
            | Msg::Replicate { .. }
            | Msg::ReplicateAck { .. }
            | Msg::ParityUpdate { .. }
            | Msg::ParityAck { .. }
            | Msg::MetaRemove { .. }
            | Msg::ConfigUpdate { .. }
            | Msg::MemgestCreate { .. }
            | Msg::MemgestDrop { .. }
            | Msg::SetDefault { .. }
            | Msg::MetaFetch { .. }
            | Msg::MetaFetchResp { .. }
            | Msg::FetchValue { .. }
            | Msg::FetchValueResp { .. }
            | Msg::ShardRead { .. }
            | Msg::ShardReadResp { .. }
            | Msg::ParityRebuildStart { .. }
            | Msg::ParityRebuildInfo { .. }
            | Msg::ParityRebuildDone { .. } => {}
        }
    }

    fn respond(&self, to: NodeId, req: ReqId, body: ClientResp) {
        let _ = self.ep.send(to, Msg::Response { req, body });
    }

    fn handle_request(&mut self, from: NodeId, req: ReqId, body: ClientReq) {
        match body {
            ClientReq::CreateMemgest { desc } => {
                if let Err(e) = self.validate(&desc) {
                    self.respond(from, req, ClientResp::Error(e));
                    return;
                }
                let id = self.next_memgest;
                self.next_memgest += 1;
                self.catalog.insert(id, desc);
                self.broadcast_ctrl((from, req), ClientResp::MemgestCreated { id }, |token| {
                    Msg::MemgestCreate { token, id, desc }
                });
            }
            ClientReq::DeleteMemgest { id } => {
                if self.catalog.remove(&id).is_none() {
                    self.respond(from, req, ClientResp::Error(RingError::UnknownMemgest(id)));
                    return;
                }
                if self.default_memgest == id {
                    self.default_memgest = self.catalog.keys().next().copied().unwrap_or(0);
                }
                self.broadcast_ctrl((from, req), ClientResp::MemgestDeleted, |token| {
                    Msg::MemgestDrop { token, id }
                });
            }
            ClientReq::SetDefaultMemgest { id } => {
                if !self.catalog.contains_key(&id) {
                    self.respond(from, req, ClientResp::Error(RingError::UnknownMemgest(id)));
                    return;
                }
                self.default_memgest = id;
                self.broadcast_ctrl((from, req), ClientResp::DefaultSet, |token| {
                    Msg::SetDefault { token, id }
                });
            }
            ClientReq::GetMemgestDescriptor { id } => match self.catalog.get(&id) {
                Some(&desc) => self.respond(from, req, ClientResp::Descriptor { desc }),
                None => self.respond(from, req, ClientResp::Error(RingError::UnknownMemgest(id))),
            },
            // Data-plane requests sent to the leader (e.g. via client
            // multicast) are not the leader's to answer.
            _ => {}
        }
    }

    fn validate(&self, desc: &MemgestDescriptor) -> Result<(), RingError> {
        if desc.block_size == 0 {
            return Err(RingError::InvalidDescriptor(
                "block_size must be > 0".into(),
            ));
        }
        match desc.scheme {
            Scheme::Rep { r } => {
                if r == 0 || r > self.config.s + self.config.d {
                    return Err(RingError::InvalidDescriptor(format!(
                        "replication factor {r} outside 1..={}",
                        self.config.s + self.config.d
                    )));
                }
            }
            Scheme::Srs { k, m } => {
                if k == 0 || k > self.config.s {
                    return Err(RingError::InvalidDescriptor(format!(
                        "k = {k} outside 1..={}",
                        self.config.s
                    )));
                }
                if m == 0 || m > self.config.d {
                    return Err(RingError::InvalidDescriptor(format!(
                        "m = {m} outside 1..={}",
                        self.config.d
                    )));
                }
            }
        }
        Ok(())
    }

    fn broadcast_ctrl(
        &mut self,
        client: (NodeId, ReqId),
        resp: ClientResp,
        make: impl Fn(u64) -> Msg,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        let mut awaiting = HashSet::new();
        for &n in &self.config.nodes {
            if !self.dead.contains(&n) {
                awaiting.insert(n);
                let _ = self.ep.send(n, make(token));
            }
        }
        if awaiting.is_empty() {
            let _ = self.ep.send(
                client.0,
                Msg::Response {
                    req: client.1,
                    body: resp,
                },
            );
            return;
        }
        self.ctrl.insert(
            token,
            CtrlOp {
                client,
                resp,
                awaiting,
                deadline: ring_net::clock::now() + self.opts.ctrl_timeout,
            },
        );
    }

    fn tick(&mut self) {
        let now = ring_net::clock::now();

        // Flush expired control ops (a node died mid-broadcast).
        let expired: Vec<u64> = self
            .ctrl
            .iter()
            .filter(|(_, op)| op.deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        for t in expired {
            let op = self.ctrl.remove(&t).expect("present");
            let _ = self.ep.send(
                op.client.0,
                Msg::Response {
                    req: op.client.1,
                    body: op.resp,
                },
            );
        }

        // Failure detection.
        let suspects: Vec<NodeId> = self
            .config
            .nodes
            .iter()
            .copied()
            .filter(|n| {
                !self.dead.contains(n)
                    && self
                        .last_seen
                        .get(n)
                        .map(|&t| now.duration_since(t) > self.opts.fail_timeout)
                        .unwrap_or(false)
            })
            .collect();
        for dead in suspects {
            self.dead.insert(dead);
            // Never promote a spare that has itself gone silent: drop
            // dead spares from the pool first.
            while let Some(&candidate) = self.config.spares.first() {
                let silent = self
                    .last_seen
                    .get(&candidate)
                    .map(|&t| now.duration_since(t) > self.opts.fail_timeout)
                    .unwrap_or(true);
                if silent {
                    self.dead.insert(candidate);
                    self.config.spares.remove(0);
                } else {
                    break;
                }
            }
            if let Some(next) = self.config.promote_spare(dead) {
                self.config = next;
                let catalog: Vec<(MemgestId, MemgestDescriptor)> =
                    self.catalog.iter().map(|(&i, &d)| (i, d)).collect();
                let targets: Vec<NodeId> = self
                    .config
                    .nodes
                    .iter()
                    .chain(self.config.spares.iter())
                    .copied()
                    .filter(|n| !self.dead.contains(n))
                    .collect();
                for t in targets {
                    let _ = self.ep.send(
                        t,
                        Msg::ConfigUpdate {
                            config: self.config.clone(),
                            memgests: catalog.clone(),
                            default: self.default_memgest,
                        },
                    );
                }
            }
            // Without spares the cluster keeps running degraded; the
            // remaining quorums and parities still serve requests.
        }
    }

    /// The current configuration (for tests).
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The transport the leader runs on (net counters, shutdown).
    pub fn transport(&self) -> &T {
        &self.ep
    }
}

impl<T: Transport<Msg>> std::fmt::Debug for Leader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leader")
            .field("epoch", &self.config.epoch)
            .field("memgests", &self.catalog.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LEADER_NODE;
    use crate::proto::RingFabric;
    use ring_net::LatencyModel;

    fn harness(fail_timeout: Duration) -> (RingFabric, std::thread::JoinHandle<()>, ClusterConfig) {
        let fabric: RingFabric = ring_net::Fabric::new(LatencyModel::instant());
        let config = ClusterConfig::initial(2, 1, 1, vec![0, 1, 2], vec![3]);
        let ep = fabric.register(LEADER_NODE).unwrap();
        let cfg = config.clone();
        let handle = std::thread::spawn(move || {
            Leader::new(
                ep,
                cfg,
                vec![(0, MemgestDescriptor::rep(1))],
                0,
                LeaderOptions {
                    fail_timeout,
                    startup_grace: Duration::from_millis(50),
                    ..LeaderOptions::default()
                },
            )
            .run();
        });
        (fabric, handle, config)
    }

    #[test]
    fn leader_promotes_on_silence_and_broadcasts() {
        let (fabric, handle, _cfg) = harness(Duration::from_millis(60));
        // Node 1 beacons; nodes 0, 2 and spare 3 stay silent past the
        // grace period -> they all get declared dead; node 0's slot goes
        // to... no spare is alive, so no promotion can complete. Instead
        // keep everyone but node 0 beaconing.
        let n1 = fabric.register(1).unwrap();
        let n2 = fabric.register(2).unwrap();
        let n3 = fabric.register(3).unwrap();
        let beat = |ep: &crate::proto::RingEndpoint| {
            let _ = ep.send(LEADER_NODE, Msg::Heartbeat);
        };
        // Beacon everyone (including 0's replacement candidates) for a
        // while, then let node 0 fall silent.
        let n0 = fabric.register(0).unwrap();
        for _ in 0..10 {
            beat(&n0);
            beat(&n1);
            beat(&n2);
            beat(&n3);
            std::thread::sleep(Duration::from_millis(10));
        }
        fabric.kill(0);
        // Keep the survivors beaconing until the config update arrives.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut promoted = None;
        while std::time::Instant::now() < deadline && promoted.is_none() {
            beat(&n1);
            beat(&n2);
            beat(&n3);
            while let Ok(Some((_, msg))) = n3.try_recv() {
                if let Msg::ConfigUpdate { config, .. } = msg {
                    promoted = Some(config);
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let config = promoted.expect("spare received a config update");
        assert_eq!(config.epoch, 1);
        assert_eq!(config.nodes, vec![3, 1, 2]);
        assert!(config.spares.is_empty());
        fabric.kill(LEADER_NODE);
        handle.join().unwrap();
    }

    #[test]
    fn leader_answers_descriptor_queries_and_validates() {
        let (fabric, handle, _cfg) = harness(Duration::from_secs(60));
        let client = fabric.register(20_500).unwrap();
        // Valid lookup.
        client
            .send(
                LEADER_NODE,
                Msg::Request {
                    req: 1,
                    body: ClientReq::GetMemgestDescriptor { id: 0 },
                },
            )
            .unwrap();
        match client.recv_timeout(Duration::from_secs(2)).unwrap().1 {
            Msg::Response {
                req: 1,
                body: ClientResp::Descriptor { desc },
            } => assert_eq!(desc, MemgestDescriptor::rep(1)),
            other => panic!("unexpected {other:?}"),
        }
        // Invalid create: k exceeds s = 2.
        client
            .send(
                LEADER_NODE,
                Msg::Request {
                    req: 2,
                    body: ClientReq::CreateMemgest {
                        desc: MemgestDescriptor::srs(3, 1),
                    },
                },
            )
            .unwrap();
        match client.recv_timeout(Duration::from_secs(2)).unwrap().1 {
            Msg::Response {
                req: 2,
                body: ClientResp::Error(RingError::InvalidDescriptor(_)),
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        fabric.kill(LEADER_NODE);
        handle.join().unwrap();
    }

    #[test]
    fn create_memgest_waits_for_acks_with_deadline() {
        // Nodes never ack; the leader must still answer the client after
        // the control timeout instead of hanging.
        let (fabric, handle, _cfg) = harness(Duration::from_secs(60));
        let client = fabric.register(20_501).unwrap();
        // Register node endpoints so the broadcast has somewhere to go
        // (but nobody acks).
        let _n0 = fabric.register(0).unwrap();
        let _n1 = fabric.register(1).unwrap();
        let _n2 = fabric.register(2).unwrap();
        client
            .send(
                LEADER_NODE,
                Msg::Request {
                    req: 9,
                    body: ClientReq::CreateMemgest {
                        desc: MemgestDescriptor::rep(2),
                    },
                },
            )
            .unwrap();
        match client.recv_timeout(Duration::from_secs(2)).unwrap().1 {
            Msg::Response {
                req: 9,
                body: ClientResp::MemgestCreated { id },
            } => assert_eq!(id, 1),
            other => panic!("unexpected {other:?}"),
        }
        fabric.kill(LEADER_NODE);
        handle.join().unwrap();
    }
}
