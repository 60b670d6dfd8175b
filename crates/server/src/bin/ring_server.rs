//! `ring-server`: one Ring cluster process.
//!
//! Runs a storage node (`--node <id>`) or the membership leader
//! (`--leader`) on a TCP listener, speaking the `ring-wire` protocol.
//! On SIGTERM/SIGINT the process drains in-flight redundancy traffic
//! (bounded by `--drain-grace-ms`) and flushes its final statistics to
//! stderr as one JSON line.
//!
//! ```text
//! ring-server --node 0 --config ring.conf
//! ring-server --leader --config ring.conf
//! ```

use std::sync::Arc;

use ring_kvs::leader::{Leader, LeaderOptions};
use ring_kvs::node::{Node, NodeOptions};
use ring_net::{TcpTransport, Transport};
use ring_server::config::{parse_server_args, ServerArgs};
use ring_server::{report, signal};
use ring_wire::MsgCodec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_server_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ring-server: {e}");
            std::process::exit(2);
        }
    };
    signal::install();
    let transport = match TcpTransport::bind(
        parsed.node,
        parsed.listen,
        parsed.topology.peers.clone(),
        Arc::new(MsgCodec),
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ring-server: binding {}: {e}", parsed.listen);
            std::process::exit(1);
        }
    };
    if parsed.leader {
        run_leader(transport, &parsed);
    } else {
        run_node(transport, &parsed);
    }
}

fn run_leader(transport: TcpTransport<ring_kvs::proto::Msg>, parsed: &ServerArgs) {
    let mut leader = Leader::new(
        transport,
        parsed.topology.config(),
        parsed.topology.catalog(),
        parsed.topology.default_memgest,
        LeaderOptions {
            fail_timeout: parsed.fail_timeout,
            ..LeaderOptions::default()
        },
    );
    leader.run_until(signal::shutdown_requested);
    let snap = leader.transport().stats().snapshot();
    eprintln!(
        "{}",
        report::leader_report(
            parsed.node,
            leader.config().epoch,
            &snap,
            report::process_threads()
        )
    );
}

fn run_node(transport: TcpTransport<ring_kvs::proto::Msg>, parsed: &ServerArgs) {
    let mut node = Node::new(
        transport,
        parsed.topology.config(),
        NodeOptions {
            heartbeat_interval: parsed.heartbeat,
            initial_memgests: parsed.topology.catalog(),
            default_memgest: parsed.topology.default_memgest,
            ..NodeOptions::default()
        },
    );
    node.run_until(signal::shutdown_requested, parsed.drain_grace);
    let snap = node.transport().stats().snapshot();
    let threads = report::process_threads();
    eprintln!(
        "{}",
        report::node_report(&node.node_stats(), &snap, threads)
    );
}
