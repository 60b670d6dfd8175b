//! The binary wire codec for the Ring protocol.
//!
//! `ring-wire` serialises every [`Msg`] variant to the length-prefixed,
//! versioned frame format defined in `ring_net::frame` — the encoding
//! spoken between `ring-server` processes and by `ring-cli`. The codec
//! is hand-rolled (no external serialisation dependency) with three
//! properties the transport relies on:
//!
//! - **Zero-copy payloads on encode.** Value bytes ([`Payload`](ring_net::Payload)) are
//!   appended to the [`FrameBuf`] as shared segments: encoding a 1 MiB
//!   put clones an `Arc`, never the megabyte.
//! - **Panic-free decode.** Every field read is bounds-checked through
//!   [`WireReader`](ring_net::WireReader); truncated, oversized, or bad-version input returns
//!   [`NetError::BadFrame`], never panics. Trailing bytes after a
//!   message are rejected too.
//! - **Versioned framing.** The frame header carries the protocol
//!   version, so incompatible peers fail fast instead of desyncing.
//!
//! All integers are little-endian and fixed-width: `u8` tags, `u32`
//! lengths/ids, `u64` keys/versions/addresses (`usize` fields travel as
//! `u64`).

mod dec;
mod enc;
mod tags;

use ring_kvs::proto::Msg;
use ring_net::frame::{pack_header, parse_header, FrameKind, FRAME_HEADER_LEN};
use ring_net::{Codec, FrameBuf, NetError};

pub use dec::decode_msg;
pub use enc::encode_msg;

/// The Ring protocol's [`Codec`], injected into `TcpTransport`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MsgCodec;

impl Codec<Msg> for MsgCodec {
    fn encode(&self, msg: &Msg, out: &mut FrameBuf) {
        encode_msg(msg, out);
    }

    fn decode(&self, body: &[u8]) -> Result<Msg, NetError> {
        decode_msg(body)
    }
}

/// Encodes `msg` as one complete `App` frame (header + body).
///
/// Flattens the zero-copy segments into one buffer — use
/// [`encode_msg`] + [`FrameBuf::write_to`] on the hot path; this is for
/// tests and tools.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut body = FrameBuf::new();
    encode_msg(msg, &mut body);
    body.to_frame_bytes(FrameKind::App)
}

/// Decodes one complete frame (header + body) back into a [`Msg`].
///
/// # Errors
///
/// [`NetError::BadFrame`] if the header is malformed (magic, version,
/// kind, length cap), the declared length disagrees with the bytes
/// provided, or the body fails to decode.
pub fn decode_frame(bytes: &[u8]) -> Result<Msg, NetError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(NetError::BadFrame(format!(
            "frame of {} bytes is shorter than the {FRAME_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header.copy_from_slice(&bytes[..FRAME_HEADER_LEN]);
    let (kind, len) = parse_header(&header)?;
    if kind != FrameKind::App {
        return Err(NetError::BadFrame(format!(
            "expected an App frame, got {kind:?}"
        )));
    }
    let body = &bytes[FRAME_HEADER_LEN..];
    if body.len() != len {
        return Err(NetError::BadFrame(format!(
            "header declares {len} body bytes, {} provided",
            body.len()
        )));
    }
    decode_msg(body)
}

/// Re-packs a frame's header (test helper for version/kind tampering).
pub fn frame_header(kind: FrameKind, len: usize) -> [u8; FRAME_HEADER_LEN] {
    pack_header(kind, len)
}
