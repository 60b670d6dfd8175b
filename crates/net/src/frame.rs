//! Transport-level framing shared by every real (socket) backend.
//!
//! Every frame on a stream is an 8-byte header followed by `len` body
//! bytes:
//!
//! ```text
//! +----+----+----+----+----+----+----+----+----------------+
//! | 'R'| 'G'| ver|kind|       len (u32 LE)| body (len B)   |
//! +----+----+----+----+----+----+----+----+----------------+
//! ```
//!
//! The header carries the protocol version so incompatible peers fail
//! fast with a clean error instead of desynchronising the stream, and
//! `len` is bounded by [`MAX_FRAME_LEN`] so a corrupt or hostile peer
//! cannot make the receiver allocate unbounded memory.
//!
//! Message *bodies* are produced by a [`Codec`] — the simulated fabric
//! never serialises, so the codec for the Ring protocol lives in its own
//! crate (`ring-wire`) and is injected into the TCP backend. Encoding
//! goes through a [`FrameBuf`], which keeps [`Payload`] value bytes as
//! shared segments instead of copying them into the scratch buffer: the
//! encode path of a 1 MiB put clones an `Arc`, not a megabyte.

use std::collections::VecDeque;
use std::io::{self, Read};

use crate::{NetError, Payload};

/// First magic byte (`'R'`).
pub const FRAME_MAGIC0: u8 = b'R';
/// Second magic byte (`'G'`).
pub const FRAME_MAGIC1: u8 = b'G';
/// Wire-protocol version carried in every frame header.
pub const FRAME_VERSION: u8 = 1;
/// Header size in bytes.
pub const FRAME_HEADER_LEN: usize = 8;
/// Upper bound on a frame body. Large enough for any recovery transfer
/// the reproduction performs, small enough that a corrupt length field
/// cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// What a frame carries. Application messages are opaque codec bodies;
/// `Hello` is the transport's one internal frame, its handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A codec-encoded protocol message.
    App = 0,
    /// Connection handshake: the sender's node id.
    Hello = 1,
    // 2 and 3 were the one-sided read request and response; retired,
    // never to be reused.
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0 => FrameKind::App,
            1 => FrameKind::Hello,
            _ => return None,
        })
    }
}

/// Packs a frame header for a body of `len` bytes.
pub fn pack_header(kind: FrameKind, len: usize) -> [u8; FRAME_HEADER_LEN] {
    debug_assert!(len <= MAX_FRAME_LEN, "frame body exceeds MAX_FRAME_LEN");
    let l = len as u32;
    let lb = l.to_le_bytes();
    [
        FRAME_MAGIC0,
        FRAME_MAGIC1,
        FRAME_VERSION,
        kind as u8,
        lb[0],
        lb[1],
        lb[2],
        lb[3],
    ]
}

/// Validates a frame header, returning `(kind, body_len)`.
///
/// # Errors
///
/// [`NetError::BadFrame`] on wrong magic, unsupported version, unknown
/// kind, or a length above [`MAX_FRAME_LEN`].
pub fn parse_header(h: &[u8; FRAME_HEADER_LEN]) -> Result<(FrameKind, usize), NetError> {
    if h[0] != FRAME_MAGIC0 || h[1] != FRAME_MAGIC1 {
        return Err(NetError::BadFrame(format!(
            "bad magic {:#04x}{:02x}",
            h[0], h[1]
        )));
    }
    if h[2] != FRAME_VERSION {
        return Err(NetError::BadFrame(format!(
            "unsupported frame version {} (expected {FRAME_VERSION})",
            h[2]
        )));
    }
    let kind = FrameKind::from_u8(h[3])
        .ok_or_else(|| NetError::BadFrame(format!("unknown frame kind {}", h[3])))?;
    let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::BadFrame(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    Ok((kind, len))
}

/// Initial (and steady-state) size of a [`FrameReader`]'s buffer: one
/// `read` can carry this many bytes of back-to-back frames.
pub const READ_BUF_LEN: usize = 64 << 10;

/// The stream decoder: a buffer filled by one `read` at a time and
/// parsed in place, so a burst of small frames costs one syscall and no
/// per-frame allocation.
///
/// Call [`FrameReader::fill`], then [`FrameReader::next_frame`] until it
/// returns `Ok(None)`; a partial frame at the tail is carried over to
/// the next fill. A frame larger than the buffer grows it to exactly
/// that frame (the header's length is already capped by
/// [`MAX_FRAME_LEN`]); the buffer shrinks back once it drains.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unparsed bytes.
    head: usize,
    /// End of the bytes read so far.
    tail: usize,
}

impl Default for FrameReader {
    fn default() -> FrameReader {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader with an empty [`READ_BUF_LEN`]-byte buffer.
    pub fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; READ_BUF_LEN],
            head: 0,
            tail: 0,
        }
    }

    /// Appends the bytes of one `read` call to the buffer and returns
    /// how many arrived (`0` is end of stream).
    ///
    /// # Errors
    ///
    /// Propagates the reader's error, `Interrupted` included.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        // Only a partial frame can be left over; move it to the front.
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        let want = match self.buf[..self.tail].first_chunk() {
            Some(h) => parse_header(h).map_or(0, |(_, len)| FRAME_HEADER_LEN + len),
            None => 0,
        };
        if want > self.buf.len() {
            self.buf.resize(want, 0);
        } else if self.tail == 0 && self.buf.len() > READ_BUF_LEN {
            self.buf.truncate(READ_BUF_LEN);
            self.buf.shrink_to_fit();
        }
        debug_assert!(
            self.tail < self.buf.len(),
            "fill() before the buffer was parsed"
        );
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// The next complete frame in the buffer, or `None` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] as soon as a full header is present and
    /// invalid (see [`parse_header`]); the stream cannot be resynchronised
    /// after that.
    pub fn next_frame(&mut self) -> Result<Option<(FrameKind, &[u8])>, NetError> {
        let Some(header) = self.buf[self.head..self.tail].first_chunk() else {
            return Ok(None);
        };
        let (kind, len) = parse_header(header)?;
        let body = self.head + FRAME_HEADER_LEN;
        if self.tail - body < len {
            return Ok(None);
        }
        self.head = body + len;
        Ok(Some((kind, &self.buf[body..body + len])))
    }
}

/// One encoded segment: either scratch bytes owned by the buffer or a
/// shared, immutable [`Payload`] (no copy).
#[derive(Debug)]
enum Segment {
    Owned(Vec<u8>),
    Shared(Payload),
}

/// An encode buffer that keeps [`Payload`] bytes zero-copy.
///
/// Fixed-width fields accumulate into owned scratch segments; payloads
/// are appended as `Arc`-shared segments, copied only when
/// [`FrameBuf::append_to`] puts the frame in a stream's out-buffer.
#[derive(Debug, Default)]
pub struct FrameBuf {
    segments: Vec<Segment>,
    len: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Total body length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn scratch(&mut self) -> &mut Vec<u8> {
        let needs_new = !matches!(self.segments.last(), Some(Segment::Owned(_)));
        if needs_new {
            self.segments.push(Segment::Owned(Vec::new()));
        }
        match self.segments.last_mut() {
            Some(Segment::Owned(v)) => v,
            _ => unreachable!("just ensured an owned tail segment"),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.scratch().push(v);
        self.len += 1;
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.scratch().extend_from_slice(&v.to_le_bytes());
        self.len += 4;
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.scratch().extend_from_slice(&v.to_le_bytes());
        self.len += 8;
    }

    /// Appends raw bytes (copied into scratch — use
    /// [`FrameBuf::put_payload`] for value-sized data).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.scratch().extend_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends a shared payload without copying its bytes.
    pub fn put_payload(&mut self, p: &Payload) {
        self.len += p.len();
        if p.is_empty() {
            return;
        }
        self.segments.push(Segment::Shared(p.clone()));
    }

    /// The body's bytes, segment by segment.
    fn slices(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().map(|seg| match seg {
            Segment::Owned(v) => v.as_slice(),
            Segment::Shared(p) => p.as_slice(),
        })
    }

    /// Appends `header + body` to a stream's out-buffer: the one copy
    /// payload segments get on their way to a socket.
    pub fn append_to(&self, kind: FrameKind, out: &mut VecDeque<u8>) {
        out.extend(&pack_header(kind, self.len));
        self.slices().for_each(|s| out.extend(s));
    }

    /// Flattens the body into one `Vec` (tests, non-stream callers).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.slices().collect::<Vec<_>>().concat()
    }

    /// Flattens `header + body` into one `Vec` (tests, fuzzing).
    pub fn to_frame_bytes(&self, kind: FrameKind) -> Vec<u8> {
        let mut out = pack_header(kind, self.len).to_vec();
        self.slices().for_each(|s| out.extend_from_slice(s));
        out
    }
}

/// A bounds-checked cursor over a frame body.
///
/// Every accessor returns [`NetError::BadFrame`] instead of panicking
/// when the body is shorter than the field being read — the foundation
/// for decoders that must survive arbitrary bytes off the network.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if the reader is exhausted.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.len() < n {
            return Err(NetError::BadFrame(format!(
                "truncated body: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.len()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if the reader is exhausted.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.bytes(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Asserts the body was fully consumed.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if trailing bytes remain.
    pub fn finish(&self) -> Result<(), NetError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(NetError::BadFrame(format!(
                "{} trailing bytes after message",
                self.len()
            )))
        }
    }
}

/// Serialises protocol messages to and from frame bodies.
///
/// The TCP backend is generic over the message type; a codec instance
/// supplies the encoding. The Ring protocol's codec lives in the
/// `ring-wire` crate (this crate cannot know the `Msg` enum).
pub trait Codec<M>: Send + Sync {
    /// Encodes `msg` into `out` (payload bytes stay zero-copy).
    fn encode(&self, msg: &M, out: &mut FrameBuf);

    /// Decodes a frame body back into a message.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] on truncated or malformed bodies. Decoders
    /// must never panic on arbitrary input.
    fn decode(&self, body: &[u8]) -> Result<M, NetError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = pack_header(FrameKind::App, 1234);
        assert_eq!(parse_header(&h).unwrap(), (FrameKind::App, 1234));
        let h = pack_header(FrameKind::Hello, 0);
        assert_eq!(parse_header(&h).unwrap(), (FrameKind::Hello, 0));
    }

    #[test]
    fn bad_headers_rejected() {
        let mut h = pack_header(FrameKind::App, 4);
        h[0] = b'X';
        assert!(matches!(parse_header(&h), Err(NetError::BadFrame(_))));
        let mut h = pack_header(FrameKind::App, 4);
        h[2] = 99;
        assert!(matches!(parse_header(&h), Err(NetError::BadFrame(_))));
        // Kinds 2 and 3 are retired (the one-sided read frames).
        for kind in [2, 3, 200, 255] {
            let mut h = pack_header(FrameKind::App, 4);
            h[3] = kind;
            assert!(matches!(parse_header(&h), Err(NetError::BadFrame(_))));
        }
        let mut h = pack_header(FrameKind::App, 4);
        h[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(parse_header(&h), Err(NetError::BadFrame(_))));
    }

    #[test]
    fn framebuf_accumulates_and_flattens() {
        let mut b = FrameBuf::new();
        b.put_u8(7);
        b.put_u32(0xAABBCCDD);
        b.put_u64(1);
        let p = Payload::from(vec![9u8; 16]);
        b.put_payload(&p);
        b.put_bytes(&[1, 2]);
        assert_eq!(b.len(), 1 + 4 + 8 + 16 + 2);
        let flat = b.to_bytes();
        assert_eq!(flat.len(), b.len());
        assert_eq!(flat[0], 7);
        assert_eq!(&flat[13..29], &[9u8; 16]);
    }

    #[test]
    fn payload_segments_share_bytes() {
        let p = Payload::from(vec![3u8; 64]);
        let mut b = FrameBuf::new();
        b.put_payload(&p);
        match &b.segments[0] {
            Segment::Shared(q) => {
                assert!(std::ptr::eq(p.as_slice().as_ptr(), q.as_slice().as_ptr()));
            }
            other => panic!("expected shared segment, got {other:?}"),
        }
    }

    /// Every frame a `FrameReader` yields from `bytes`, read whole.
    fn frames(bytes: &[u8]) -> Result<Vec<(FrameKind, Vec<u8>)>, NetError> {
        let mut rd = FrameReader::new();
        let mut src = bytes;
        let mut out = Vec::new();
        loop {
            let n = rd.fill(&mut src).expect("slice reads cannot fail");
            while let Some((kind, body)) = rd.next_frame()? {
                out.push((kind, body.to_vec()));
            }
            if n == 0 {
                return Ok(out);
            }
        }
    }

    #[test]
    fn append_to_emits_header_then_body() {
        let mut b = FrameBuf::new();
        b.put_u32(42);
        let mut out = VecDeque::from(vec![9u8]);
        b.append_to(FrameKind::Hello, &mut out);
        assert_eq!(out.pop_front(), Some(9), "appends after what was queued");
        let out = Vec::from(out);
        assert_eq!(out.len(), FRAME_HEADER_LEN + 4);
        assert_eq!(
            frames(&out).unwrap(),
            vec![(FrameKind::Hello, 42u32.to_le_bytes().to_vec())]
        );
    }

    #[test]
    fn reader_grows_for_a_large_frame_and_shrinks_back() {
        let mut big = FrameBuf::new();
        big.put_payload(&Payload::from(vec![7u8; 3 * READ_BUF_LEN]));
        let mut small = FrameBuf::new();
        small.put_u8(1);
        let mut bytes = small.to_frame_bytes(FrameKind::App);
        bytes.extend(big.to_frame_bytes(FrameKind::Hello));
        bytes.extend(small.to_frame_bytes(FrameKind::App));
        let got = frames(&bytes).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].0, FrameKind::Hello);
        assert_eq!(got[1].1, vec![7u8; 3 * READ_BUF_LEN]);
        assert_eq!(got[2], (FrameKind::App, vec![1]));

        let mut rd = FrameReader::new();
        let mut src = &bytes[..];
        while rd.fill(&mut src).unwrap() > 0 {
            while rd.next_frame().unwrap().is_some() {}
        }
        assert_eq!(rd.buf.len(), READ_BUF_LEN, "buffer shrinks once drained");
    }

    #[test]
    fn wire_reader_bounds_checked() {
        let mut r = WireReader::new(&[1, 2, 0, 0, 0, 9]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u32().unwrap(), 2);
        assert!(r.u64().is_err(), "only one byte left");
        assert_eq!(r.u8().unwrap(), 9);
        assert!(r.finish().is_ok());
        let mut r = WireReader::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err(), "trailing byte rejected");
    }

    #[test]
    fn truncated_stream_yields_no_frame() {
        let mut b = FrameBuf::new();
        b.put_u64(5);
        let full = b.to_frame_bytes(FrameKind::App);
        for cut in 0..full.len() {
            assert_eq!(
                frames(&full[..cut]).unwrap(),
                vec![],
                "prefix of {cut} bytes"
            );
        }
        assert_eq!(frames(&full).unwrap().len(), 1);
    }

    #[test]
    fn reader_rejects_a_bad_header_after_good_frames() {
        let mut b = FrameBuf::new();
        b.put_u64(5);
        let mut bytes = b.to_frame_bytes(FrameKind::App);
        bytes.extend_from_slice(b"XXXXXXXX");
        let mut rd = FrameReader::new();
        rd.fill(&mut &bytes[..]).unwrap();
        assert!(matches!(rd.next_frame(), Ok(Some((FrameKind::App, _)))));
        assert!(matches!(rd.next_frame(), Err(NetError::BadFrame(_))));
    }
}
