//! Contract tests for the fabric API surface.

use std::time::Duration;

use ring_net::{Fabric, LatencyModel, MemoryRegion, NetError, Transport, WireSize};

#[derive(Debug, Clone, PartialEq)]
struct M(usize);
impl WireSize for M {
    fn wire_size(&self) -> usize {
        self.0
    }
}

#[test]
fn net_error_display() {
    assert_eq!(
        NetError::Unreachable(3).to_string(),
        "node 3 is unreachable"
    );
    assert_eq!(
        NetError::AlreadyRegistered(1).to_string(),
        "node 1 already registered"
    );
    assert_eq!(NetError::Timeout.to_string(), "receive timed out");
    assert_eq!(NetError::Closed.to_string(), "endpoint closed");
    assert!(NetError::UnknownRegion { node: 2, key: 9 }
        .to_string()
        .contains("region 9"));
    assert!(NetError::OutOfBounds {
        offset: 8,
        len: 4,
        region: 10
    }
    .to_string()
    .contains("out of bounds"));
}

#[test]
fn wiresize_builtin_impls() {
    assert_eq!(vec![1u8, 2, 3].wire_size(), 3);
    assert_eq!("hello".to_string().wire_size(), 5);
}

#[test]
fn queued_counts_pending_messages() {
    let f: Fabric<M> = Fabric::new(LatencyModel::instant());
    let a = f.register(0).unwrap();
    let b = f.register(1).unwrap();
    for i in 0..5 {
        a.send(1, M(i)).unwrap();
    }
    // Delivery is immediate with the instant model; all five queued.
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(b.queued(), 5);
    let _ = b.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(b.queued(), 4);
}

#[test]
fn try_recv_after_kill_reports_closed() {
    let f: Fabric<M> = Fabric::new(LatencyModel::instant());
    let a = f.register(0).unwrap();
    f.kill(0);
    assert_eq!(a.try_recv().unwrap_err(), NetError::Closed);
}

#[test]
fn multicast_to_empty_list_is_noop() {
    let f: Fabric<M> = Fabric::new(LatencyModel::instant());
    let a = f.register(0).unwrap();
    a.multicast(&[], M(1)).unwrap();
    assert_eq!(a.stats().snapshot().msgs_sent, 0);
}

#[test]
fn fabric_latency_accessor_round_trips() {
    let model = LatencyModel::hdd_commit();
    let f: Fabric<M> = Fabric::new(model);
    assert_eq!(f.latency(), model);
}

#[test]
fn register_and_deregister_region() {
    let f: Fabric<M> = Fabric::new(LatencyModel::instant());
    let a = f.register(0).unwrap();
    let b = f.register(1).unwrap();
    let unknown = Err(NetError::UnknownRegion { node: 1, key: 1 });
    assert_eq!(a.rdma_read(1, 1, 0, 0), unknown);
    b.register_region(1, MemoryRegion::new(8));
    assert_eq!(a.rdma_read(1, 1, 0, 8), Ok(vec![0; 8]));
    b.deregister_region(1);
    assert_eq!(a.rdma_read(1, 1, 0, 0), unknown);
}

#[test]
fn memory_region_debug_format() {
    let r = MemoryRegion::new(16);
    assert_eq!(format!("{r:?}"), "MemoryRegion(16 bytes)");
}

#[test]
fn send_records_bytes_even_when_dropped() {
    // A cut link drops the message but the sender still paid the send —
    // stats reflect the sender's view.
    let f: Fabric<M> = Fabric::new(LatencyModel::instant());
    let a = f.register(0).unwrap();
    let _b = f.register(1).unwrap();
    f.fail_link(0, 1);
    a.send(1, M(100)).unwrap();
    let snap = a.stats().snapshot();
    assert_eq!(snap.msgs_sent, 1);
    assert_eq!(snap.bytes_sent, 100);
}

#[test]
fn endpoint_debug_shows_id() {
    let f: Fabric<M> = Fabric::new(LatencyModel::instant());
    let a = f.register(7).unwrap();
    assert!(format!("{a:?}").contains('7'));
}
