//! Malformed input below the top level: a bad tag, bool byte, string or
//! count inside a nested type must come back as a `BadFrame` naming what
//! failed, and a huge nested count must fail without a huge allocation.
//!
//! Each body is spelled as bytes here, not built by the encoder, so the
//! cases hold whichever codec produced the frames they mimic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ring_net::NetError;
use ring_wire::decode_msg;

/// Records the largest single allocation made on the current thread,
/// so a test can bound what one decode asked for.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's `GlobalAlloc` contract is the one `System` receives,
// and every pointer handed out or taken back is `System`'s own. The
// bookkeeping is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.with(|p| p.set(p.get().max(layout.size())));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.with(|p| p.set(p.get().max(new_size)));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn u32le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

fn u64le(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// `Msg::Request { req: 1, .. }` up to its `ClientReq` tag.
fn request() -> Vec<u8> {
    let mut b = vec![0u8];
    b.extend(u64le(1));
    b
}

/// `Msg::Response { req: 1, .. }` up to its `ClientResp` tag.
fn response() -> Vec<u8> {
    let mut b = vec![1u8];
    b.extend(u64le(1));
    b
}

/// Decodes `body`, expecting a `BadFrame` whose text contains `what`.
fn expect_bad(body: &[u8], what: &str) {
    match decode_msg(body) {
        Err(NetError::BadFrame(why)) => assert!(why.contains(what), "want {what:?}, got {why:?}"),
        other => panic!("want BadFrame naming {what:?}, got {other:?}"),
    }
}

#[test]
fn unknown_client_request_tag() {
    let mut b = request();
    b.push(9); // ClientReq tags end at 8 (Stats).
    b.extend(u64le(0));
    expect_bad(&b, "client request tag");
}

#[test]
fn unknown_client_response_tag() {
    let mut b = response();
    b.push(10); // ClientResp tags end at 9 (Error).
    b.extend(u64le(0));
    expect_bad(&b, "client response tag");
}

#[test]
fn unknown_error_tag() {
    let mut b = response();
    b.extend([9, 8]); // ClientResp::Error, then RingError tag 8.
    b.extend(u32le(0));
    expect_bad(&b, "error tag");
}

#[test]
fn unknown_scheme_tag() {
    let mut b = request();
    b.extend([4, 2]); // ClientReq::CreateMemgest, then Scheme tag 2.
    b.extend(u64le(3));
    b.extend(u64le(64));
    expect_bad(&b, "scheme tag");
}

#[test]
fn bool_byte_of_two() {
    // Msg::Replicate: group, memgest, key, version, then `tombstone`.
    let mut b = vec![2u8, 0];
    b.extend(u32le(0));
    b.extend(u64le(1));
    b.extend(u64le(1));
    b.push(2);
    b.extend(u32le(0));
    expect_bad(&b, "bool byte");
}

#[test]
fn non_utf8_string() {
    let mut b = response();
    b.extend([9, 6]); // ClientResp::Error(RingError::Net(..)).
    b.extend(u32le(2));
    b.extend([0xff, 0xfe]);
    expect_bad(&b, "non-UTF-8 string");
}

/// Decodes `body` and asserts it fails as a truncated read with no
/// allocation anywhere near what the corrupt count claims.
fn expect_truncated_without_alloc(body: &[u8]) {
    PEAK.with(|p| p.set(0));
    let got = decode_msg(body);
    let peak = PEAK.with(Cell::get);
    match got {
        Err(NetError::BadFrame(why)) => assert!(why.contains("truncated"), "{why}"),
        other => panic!("want a truncated BadFrame, got {other:?}"),
    }
    assert!(peak < 1 << 20, "decode allocated {peak} bytes at once");
}

#[test]
fn huge_count_in_config_nodes() {
    // Msg::ConfigUpdate { config: ClusterConfig { epoch, s, d, groups,
    // nodes: <u32::MAX entries>, .. }, .. } with no entries behind it.
    let mut b = vec![8u8];
    for v in [1, 2, 1, 1] {
        b.extend(u64le(v));
    }
    b.extend(u32le(u32::MAX));
    b.extend(u32le(7));
    expect_truncated_without_alloc(&b);
}

#[test]
fn huge_count_in_node_stats_groups() {
    // ClientResp::Stats(NodeStats { node, epoch, active, ops, groups:
    // <u32::MAX entries> }) with one short group behind it.
    let mut b = response();
    b.push(8);
    b.extend(u32le(1));
    b.extend(u64le(1));
    b.push(1);
    for v in 0..5 {
        b.extend(u64le(v));
    }
    b.extend(u32le(u32::MAX));
    b.push(0);
    expect_truncated_without_alloc(&b);
}
