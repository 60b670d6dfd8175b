//! Shared by the TCP integration tests: a minimal message type with its
//! frame codec, and loopback endpoints on ephemeral ports.
#![allow(dead_code)] // Each test binary uses its own subset.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ring_net::{
    Codec, FrameBuf, NetError, NodeId, Payload, TcpOptions, TcpTransport, WireReader, WireSize,
};

/// Minimal protocol message: a tag plus an opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestMsg {
    pub tag: u64,
    pub body: Vec<u8>,
}

impl TestMsg {
    pub fn tagged(tag: u64) -> TestMsg {
        TestMsg {
            tag,
            body: Vec::new(),
        }
    }
}

impl WireSize for TestMsg {
    fn wire_size(&self) -> usize {
        8 + self.body.len()
    }
}

/// Frame codec for [`TestMsg`] (the TCP backend needs one; the fabric
/// moves messages in-process and never serialises).
pub struct TestCodec;

impl Codec<TestMsg> for TestCodec {
    fn encode(&self, msg: &TestMsg, out: &mut FrameBuf) {
        out.put_u64(msg.tag);
        out.put_u32(msg.body.len() as u32);
        out.put_payload(&Payload::from(msg.body.clone()));
    }

    fn decode(&self, body: &[u8]) -> Result<TestMsg, NetError> {
        let mut rd = WireReader::new(body);
        let tag = rd.u64()?;
        let len = rd.u32()? as usize;
        let bytes = rd.bytes(len)?.to_vec();
        rd.finish()?;
        Ok(TestMsg { tag, body: bytes })
    }
}

pub fn alloc_port() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("local addr")
}

/// Fresh loopback addresses for node ids `0..n`.
pub fn peer_map(n: usize) -> BTreeMap<NodeId, SocketAddr> {
    (0..n as NodeId).map(|id| (id, alloc_port())).collect()
}

/// Binds node `id` on its address in `peers`.
pub fn try_bind(
    id: NodeId,
    peers: &BTreeMap<NodeId, SocketAddr>,
) -> std::io::Result<TcpTransport<TestMsg>> {
    TcpTransport::bind(
        id,
        peers[&id],
        peers.clone(),
        Arc::new(TestCodec),
        TcpOptions::default(),
    )
}

/// `n` listening endpoints with ids `0..n`, each knowing all the others.
pub fn tcp_endpoints(n: usize) -> Vec<TcpTransport<TestMsg>> {
    let peers = peer_map(n);
    peers
        .keys()
        .map(|&id| try_bind(id, &peers).expect("bind endpoint"))
        .collect()
}

/// Polls `cond` until it holds; panics with `what` after five seconds.
pub fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}
