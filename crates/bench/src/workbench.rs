//! Shared cluster setups for the figure binaries.

use ring_kvs::{Cluster, ClusterSpec};

/// The memgest ids of the paper's seven-scheme deployment
/// ([`ClusterSpec::paper_evaluation`]) with their figure labels.
pub const MEMGESTS: [(u32, &str); 7] = [
    (0, "REP1"),
    (1, "REP2"),
    (2, "REP3"),
    (3, "REP4"),
    (4, "SRS21"),
    (5, "SRS31"),
    (6, "SRS32"),
];

/// Memgest id by figure label.
///
/// # Panics
///
/// Panics on an unknown label.
pub fn memgest_id(label: &str) -> u32 {
    MEMGESTS
        .iter()
        .find(|(_, l)| *l == label)
        .map(|(id, _)| *id)
        .unwrap_or_else(|| panic!("unknown memgest label {label}"))
}

/// Starts the paper's 5-node, seven-memgest evaluation cluster over the
/// RDMA latency model.
pub fn paper_cluster() -> Cluster {
    Cluster::start(ClusterSpec::paper_evaluation())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve() {
        assert_eq!(memgest_id("REP1"), 0);
        assert_eq!(memgest_id("SRS32"), 6);
    }

    #[test]
    #[should_panic(expected = "unknown memgest")]
    fn unknown_label_panics() {
        memgest_id("NOPE");
    }
}
