//! Boots a real Ring cluster on `127.0.0.1`: one OS process per node
//! plus the leader, talking the `ring-wire` protocol over TCP.
//!
//! This is the process-boundary counterpart of `ring_kvs::cluster`
//! (which collapses nodes into threads on the simulated fabric). The
//! integration tests, the CI `server-smoke` job, and the bench's
//! `tcp_loopback` section all drive clusters through this harness.
//!
//! Ports are allocated by binding to `127.0.0.1:0` and handing the
//! chosen address to the child process; children are spawned with the
//! full topology as flags, so no shared files are needed.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ring_kvs::client::{ClientOptions, RingClient};
use ring_kvs::config::{CLIENT_BASE, LEADER_NODE};
use ring_kvs::proto::Msg;
use ring_kvs::types::{MemgestDescriptor, MemgestId};
use ring_net::{clock, NodeId, TcpTransport};
use ring_wire::MsgCodec;

use crate::config::ClusterTopology;
use crate::signal;

/// Everything needed to boot a loopback cluster.
#[derive(Debug, Clone)]
pub struct LoopbackSpec {
    /// Shards per group.
    pub s: usize,
    /// Redundant nodes per group.
    pub d: usize,
    /// Spare nodes.
    pub spares: usize,
    /// Memgest groups.
    pub groups: usize,
    /// Memgests created at startup, ids `0..n`.
    pub memgests: Vec<MemgestDescriptor>,
    /// Default memgest for untargeted puts.
    pub default_memgest: MemgestId,
    /// Node heartbeat period.
    pub heartbeat: Duration,
    /// Leader failure-detection threshold.
    pub fail_timeout: Duration,
    /// SIGTERM drain grace passed to every server.
    pub drain_grace: Duration,
    /// Per-attempt timeout of clients the harness creates.
    pub client_timeout: Duration,
}

impl Default for LoopbackSpec {
    fn default() -> LoopbackSpec {
        LoopbackSpec {
            s: 2,
            d: 1,
            spares: 1,
            groups: 1,
            memgests: vec![MemgestDescriptor::rep(2), MemgestDescriptor::srs(2, 1)],
            default_memgest: 0,
            heartbeat: Duration::from_millis(20),
            fail_timeout: Duration::from_millis(300),
            drain_grace: Duration::from_millis(500),
            client_timeout: Duration::from_millis(1000),
        }
    }
}

/// What a gracefully stopped server left behind.
#[derive(Debug, Clone)]
pub struct StopReport {
    /// The node that stopped.
    pub node: NodeId,
    /// True if the process exited with status 0.
    pub clean_exit: bool,
    /// Its stderr — on a clean exit, one JSON stats line.
    pub stderr: String,
}

/// Locates the `ring-server` binary (or `ring-cli` via `name`).
///
/// Order: the `RING_SERVER_BIN`-style env override
/// (`RING_<NAME>_BIN` with dashes mapped to underscores), then a
/// sibling of the current executable — integration tests run from
/// `target/<profile>/deps/`, bins from `target/<profile>/`, and the
/// binaries land in `target/<profile>/`.
pub fn find_binary(name: &str) -> Option<PathBuf> {
    let env_key = format!(
        "RING_{}_BIN",
        name.trim_start_matches("ring-")
            .to_uppercase()
            .replace('-', "_")
    );
    if let Ok(p) = std::env::var(&env_key) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    if dir.file_name().map(|n| n == "deps").unwrap_or(false) {
        dir = dir.parent()?;
    }
    let cand = dir.join(name);
    cand.is_file().then_some(cand)
}

/// A running loopback cluster. Dropping it kills any child still
/// alive; prefer [`LoopbackCluster::shutdown`] for a graceful stop.
#[derive(Debug)]
pub struct LoopbackCluster {
    topology: ClusterTopology,
    spec: LoopbackSpec,
    children: BTreeMap<NodeId, Child>,
    cli_bin: Option<PathBuf>,
    next_client: AtomicU32,
}

impl LoopbackCluster {
    /// Boots `s + d + spares` server processes plus the leader and
    /// waits until every listen port accepts connections.
    ///
    /// # Errors
    ///
    /// I/O errors from port allocation or process spawning; a timeout
    /// waiting for readiness surfaces as [`io::ErrorKind::TimedOut`].
    pub fn start(spec: LoopbackSpec) -> io::Result<LoopbackCluster> {
        let server_bin = find_binary("ring-server").ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                "ring-server binary not built (cargo build -p ring-server)",
            )
        })?;
        let total = spec.s + spec.d + spec.spares;
        let nodes: Vec<NodeId> = (0..(spec.s + spec.d) as NodeId).collect();
        let spares: Vec<NodeId> = ((spec.s + spec.d) as NodeId..total as NodeId).collect();
        let mut peers = BTreeMap::new();
        for id in nodes
            .iter()
            .chain(spares.iter())
            .copied()
            .chain([LEADER_NODE])
        {
            peers.insert(id, alloc_port()?);
        }
        let topology = ClusterTopology {
            s: spec.s,
            d: spec.d,
            groups: spec.groups,
            nodes,
            spares,
            peers,
            memgests: spec.memgests.clone(),
            default_memgest: spec.default_memgest,
        };

        let mut children = BTreeMap::new();
        for (&id, &addr) in &topology.peers {
            let mut cmd = Command::new(&server_bin);
            if id == LEADER_NODE {
                cmd.arg("--leader");
            } else {
                cmd.args(["--node", &id.to_string()]);
            }
            cmd.args(["--listen", &addr.to_string()]);
            push_topology_flags(&mut cmd, &topology);
            cmd.args(["--heartbeat-ms", &spec.heartbeat.as_millis().to_string()]);
            cmd.args([
                "--fail-timeout-ms",
                &spec.fail_timeout.as_millis().to_string(),
            ]);
            cmd.args([
                "--drain-grace-ms",
                &spec.drain_grace.as_millis().to_string(),
            ]);
            cmd.stdin(Stdio::null());
            cmd.stdout(Stdio::null());
            cmd.stderr(Stdio::piped());
            children.insert(id, cmd.spawn()?);
        }

        let cluster = LoopbackCluster {
            topology,
            spec,
            children,
            cli_bin: find_binary("ring-cli"),
            next_client: AtomicU32::new(CLIENT_BASE),
        };
        cluster.await_ready(Duration::from_secs(10))?;
        Ok(cluster)
    }

    fn await_ready(&self, timeout: Duration) -> io::Result<()> {
        let deadline = clock::now() + timeout;
        for (&id, &addr) in &self.topology.peers {
            loop {
                match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
                    Ok(_) => break,
                    Err(e) => {
                        if clock::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("node {id} at {addr} never came up: {e}"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }
        Ok(())
    }

    /// The deployment description the servers were spawned with.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// A fresh in-process client speaking TCP to the cluster.
    pub fn client(&self) -> RingClient<TcpTransport<Msg>> {
        let id = self.next_client.fetch_add(1, Ordering::AcqRel);
        let ep = TcpTransport::client(id, self.topology.peers.clone(), Arc::new(MsgCodec));
        RingClient::new(
            ep,
            self.topology.config(),
            ClientOptions {
                timeout: self.spec.client_timeout,
                ..ClientOptions::default()
            },
        )
    }

    /// Runs `ring-cli` as a separate OS process against this cluster,
    /// returning its output. The topology is passed as flags; `words`
    /// is the command (`["put", "7", "hello"]`).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] if the `ring-cli` binary is not
    /// built; otherwise spawn errors.
    pub fn cli(&self, words: &[&str]) -> io::Result<std::process::Output> {
        let bin = self.cli_bin.clone().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                "ring-cli binary not built (cargo build -p ring-server)",
            )
        })?;
        let id = self.next_client.fetch_add(1, Ordering::AcqRel);
        let mut cmd = Command::new(bin);
        cmd.args(["--id", &id.to_string()]);
        cmd.args([
            "--timeout-ms",
            &self.spec.client_timeout.as_millis().to_string(),
        ]);
        push_topology_flags(&mut cmd, &self.topology);
        cmd.args(words);
        cmd.output()
    }

    /// Kills a node abruptly (SIGKILL — the paper's "manually killing
    /// processes"). The leader notices via missed heartbeats and
    /// promotes a spare.
    ///
    /// # Errors
    ///
    /// Propagates kill/wait errors; unknown ids error with
    /// [`io::ErrorKind::NotFound`].
    pub fn kill_node(&mut self, node: NodeId) -> io::Result<()> {
        let mut child = self.children.remove(&node).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no child for node {node}"))
        })?;
        child.kill()?;
        child.wait()?;
        Ok(())
    }

    /// Stops a node gracefully: SIGTERM, then waits up to `wait` for
    /// the drain-and-flush exit, falling back to SIGKILL.
    ///
    /// # Errors
    ///
    /// Propagates wait errors; unknown ids error with
    /// [`io::ErrorKind::NotFound`].
    pub fn stop_node(&mut self, node: NodeId, wait: Duration) -> io::Result<StopReport> {
        let child = self.children.remove(&node).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no child for node {node}"))
        })?;
        Self::stop_child(node, child, wait)
    }

    fn stop_child(node: NodeId, mut child: Child, wait: Duration) -> io::Result<StopReport> {
        signal::send(child.id(), signal::SIGTERM);
        let deadline = clock::now() + wait;
        let clean_exit = loop {
            match child.try_wait()? {
                Some(status) => break status.success(),
                None if clock::now() >= deadline => {
                    child.kill()?;
                    child.wait()?;
                    break false;
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            use std::io::Read as _;
            let _ = pipe.read_to_string(&mut stderr);
        }
        Ok(StopReport {
            node,
            clean_exit,
            stderr,
        })
    }

    /// Gracefully stops every remaining process (nodes first, leader
    /// last) and returns their reports.
    pub fn shutdown(mut self) -> Vec<StopReport> {
        let mut reports = Vec::new();
        let ids: Vec<NodeId> = self.children.keys().copied().collect();
        // BTreeMap order puts the leader (highest id) last already.
        for id in ids {
            if let Some(child) = self.children.remove(&id) {
                if let Ok(r) = Self::stop_child(id, child, Duration::from_secs(5)) {
                    reports.push(r);
                }
            }
        }
        reports
    }
}

impl Drop for LoopbackCluster {
    fn drop(&mut self) {
        for (_, child) in self.children.iter_mut() {
            let _ = child.kill();
        }
        for (_, mut child) in std::mem::take(&mut self.children) {
            let _ = child.wait();
        }
    }
}

fn push_topology_flags(cmd: &mut Command, topo: &ClusterTopology) {
    cmd.args(["--s", &topo.s.to_string()]);
    cmd.args(["--d", &topo.d.to_string()]);
    cmd.args(["--groups", &topo.groups.to_string()]);
    let list = |ids: &[NodeId]| {
        ids.iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    cmd.args(["--nodes", &list(&topo.nodes)]);
    if !topo.spares.is_empty() {
        cmd.args(["--spares", &list(&topo.spares)]);
    }
    for (id, addr) in &topo.peers {
        cmd.args(["--peer", &format!("{id}={addr}")]);
    }
    for m in &topo.memgests {
        let spec = match m.scheme {
            ring_kvs::types::Scheme::Rep { r } => format!("rep:{r}@{}", m.block_size),
            ring_kvs::types::Scheme::Srs { k, m: mm } => {
                format!("srs:{k},{mm}@{}", m.block_size)
            }
        };
        cmd.args(["--memgest", &spec]);
    }
    cmd.args(["--default-memgest", &topo.default_memgest.to_string()]);
}

/// Reserves a loopback address by briefly binding port 0.
fn alloc_port() -> io::Result<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.local_addr()
}
