//! The shutdown stats report: one JSON object on stderr.
//!
//! A SIGTERM'd `ring-server` drains and then prints exactly one line —
//! `{"node":…,"role":…,"ops":{…},"net":{…}}` — so harnesses and
//! operators can scrape final counters without parsing logs. The format
//! is part of the CLI contract (asserted by the loopback integration
//! tests), hence hand-rolled here rather than derived.

use ring_kvs::stats::NodeStats;
use ring_net::NetStatsSnapshot;

fn push_net(out: &mut String, net: &NetStatsSnapshot) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\"net\":{{\"msgs_sent\":{},\"bytes_sent\":{},\"msgs_received\":{},\
         \"bytes_received\":{},\"retransmits\":{}}}",
        net.msgs_sent, net.bytes_sent, net.msgs_received, net.bytes_received, net.retransmits,
    );
}

/// Renders a storage node's shutdown report.
pub fn node_report(stats: &NodeStats, net: &NetStatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"node\":{},\"role\":\"node\",\"epoch\":{},\"active\":{},\
         \"ops\":{{\"puts\":{},\"gets\":{},\"deletes\":{},\"moves\":{},\
         \"redundancy_updates\":{}}},",
        stats.node,
        stats.epoch,
        stats.active,
        stats.ops.puts,
        stats.ops.gets,
        stats.ops.deletes,
        stats.ops.moves,
        stats.ops.redundancy_updates,
    );
    push_net(&mut out, net);
    out.push('}');
    out
}

/// Renders the leader's shutdown report.
pub fn leader_report(node: u32, epoch: u64, net: &NetStatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"node\":{node},\"role\":\"leader\",\"epoch\":{epoch},"
    );
    push_net(&mut out, net);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_kvs::stats::OpCounters;

    #[test]
    fn reports_are_single_line_json() {
        let stats = NodeStats {
            node: 3,
            epoch: 2,
            active: true,
            ops: OpCounters {
                puts: 4,
                gets: 5,
                deletes: 0,
                moves: 1,
                redundancy_updates: 6,
            },
            groups: Vec::new(),
        };
        let net = NetStatsSnapshot {
            msgs_sent: 10,
            bytes_sent: 1000,
            ..NetStatsSnapshot::default()
        };
        let node = node_report(&stats, &net);
        assert!(!node.contains('\n'));
        assert!(node.contains("\"role\":\"node\""));
        assert!(node.contains("\"puts\":4"));
        assert!(node.contains("\"msgs_sent\":10"));
        let leader = leader_report(10_000, 7, &net);
        assert!(leader.contains("\"role\":\"leader\""));
        assert!(leader.contains("\"epoch\":7"));
        assert!(leader.starts_with('{') && leader.ends_with('}'));
    }
}
