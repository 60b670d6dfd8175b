//! One-sided reads over TCP at the frame cap: a read whose reply would
//! not fit one frame is split by the requester, and a request for more
//! than a frame can carry is refused by the reader thread, which
//! allocates nothing for it and keeps serving the connection.

mod common;

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use common::{peer_map, tcp_endpoints, try_bind};
use ring_net::frame::{parse_header, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use ring_net::{FrameBuf, FrameKind, MemoryRegion, Transport};

const KEY: u64 = 3;

/// Status byte of a read reply, after its 8-byte rpc id.
const STATUS_OK: u8 = 0;
const STATUS_OUT_OF_BOUNDS: u8 = 2;

/// The byte the large region holds at `i`.
fn pattern(i: usize) -> u8 {
    (i % 251) as u8
}

#[test]
fn reads_larger_than_a_frame_return_the_right_bytes() {
    let eps = tcp_endpoints(2);
    let len = MAX_FRAME_LEN + 4096;
    let region = MemoryRegion::new(len);
    region
        .write(0, &(0..len).map(pattern).collect::<Vec<u8>>())
        .unwrap();
    eps[1].register_region(KEY, region);

    let exact = eps[0].rdma_read(1, KEY, 0, len).expect("exact read");
    assert_eq!(exact.len(), len);
    assert!(
        exact.iter().enumerate().all(|(i, &b)| b == pattern(i)),
        "exact read returned the wrong bytes"
    );
    drop(exact);

    // From 4 KiB in to 4 KiB past the end.
    let padded = eps[0]
        .rdma_read_padded(1, KEY, 4096, len)
        .expect("padded read");
    assert_eq!(padded.len(), len);
    assert!(
        padded
            .iter()
            .enumerate()
            .all(|(i, &b)| b == if i < len - 4096 { pattern(4096 + i) } else { 0 }),
        "padded read returned the wrong bytes"
    );

    let stats = eps[0].stats().snapshot();
    assert_eq!(stats.rdma_reads, 2, "a split read counts once");
    assert_eq!(stats.rdma_read_bytes, 2 * len as u64);
}

/// A raw `RdmaReadReq` body for region [`KEY`].
fn request(rpc: u64, offset: u64, len: u64, padded: bool) -> FrameBuf {
    let mut body = FrameBuf::new();
    body.put_u64(rpc);
    body.put_u64(KEY);
    body.put_u64(offset);
    body.put_u64(len);
    body.put_u8(padded as u8);
    body
}

/// Reads one reply off `sock`: its rpc id, status byte and the rest.
fn reply(sock: &mut TcpStream) -> (u64, u8, Vec<u8>) {
    let mut header = [0u8; FRAME_HEADER_LEN];
    sock.read_exact(&mut header).expect("reply header");
    let (kind, len) = parse_header(&header).expect("valid header");
    assert_eq!(kind, FrameKind::RdmaReadResp);
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body).expect("reply body");
    let rpc = u64::from_le_bytes(body[..8].try_into().unwrap());
    (rpc, body[8], body[9..].to_vec())
}

#[test]
fn an_oversized_read_request_is_refused_and_the_endpoint_keeps_serving() {
    let peers = peer_map(2);
    let server = try_bind(0, &peers).unwrap();
    let region = MemoryRegion::new(16);
    region.write(0, &[7; 16]).unwrap();
    server.register_region(KEY, region);

    let mut sock = TcpStream::connect(peers[&0]).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = FrameBuf::new();
    hello.put_u32(1);
    hello.write_to(FrameKind::Hello, &mut sock).unwrap();

    // One byte more than a reply frame can carry, then absurd lengths.
    let just_over = (MAX_FRAME_LEN - 8) as u64;
    let oversized = [(just_over, true), (u64::MAX, true), (u64::MAX, false)];
    for (rpc, &(len, padded)) in oversized.iter().enumerate() {
        request(rpc as u64, 0, len, padded)
            .write_to(FrameKind::RdmaReadReq, &mut sock)
            .unwrap();
        assert_eq!(
            reply(&mut sock),
            (
                rpc as u64,
                STATUS_OUT_OF_BOUNDS,
                16u64.to_le_bytes().to_vec()
            ),
            "len {len}, padded {padded}"
        );
    }

    // The same connection is still served...
    request(9, 8, 16, true)
        .write_to(FrameKind::RdmaReadReq, &mut sock)
        .unwrap();
    assert_eq!(reply(&mut sock), (9, STATUS_OK, [[7; 8], [0; 8]].concat()));
    // ...and so is a transport peer.
    let client = try_bind(1, &peers).unwrap();
    assert_eq!(client.rdma_read(0, KEY, 0, 4), Ok(vec![7; 4]));
}
