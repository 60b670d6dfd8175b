//! The stream codec at its two ends: `FrameReader` (one `read`, many
//! frames, cut anywhere) against the read-header-then-body decoder it
//! replaced, and `FrameBuf::write_to` against writers that accept a few
//! bytes at a time.

use std::io::{self, IoSlice, Read, Write};

use proptest::prelude::*;
use ring_net::frame::{
    parse_header, FrameReader, FRAME_HEADER_LEN, FRAME_VERSION, MAX_FRAME_LEN, READ_BUF_LEN,
};
use ring_net::{FrameBuf, FrameKind, NetError, Payload};

const KINDS: [FrameKind; 4] = [
    FrameKind::App,
    FrameKind::Hello,
    FrameKind::RdmaReadReq,
    FrameKind::RdmaReadResp,
];

type Frames = Vec<(FrameKind, Vec<u8>)>;

/// The decoder `FrameReader` replaced, kept as the reference: one exact
/// read for the header, one for a freshly allocated body.
fn read_frame(r: &mut impl Read) -> io::Result<(FrameKind, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) =
        parse_header(&header).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((kind, body))
}

/// Frames decoded by the reference until the stream ends or goes bad.
fn reference(stream: &[u8]) -> (Frames, bool) {
    let mut cursor = io::Cursor::new(stream);
    let mut out = Vec::new();
    loop {
        match read_frame(&mut cursor) {
            Ok(f) => out.push(f),
            Err(e) => return (out, e.kind() == io::ErrorKind::InvalidData),
        }
    }
}

/// Hands out `stream` in reads of at most `chunks[i % len]` bytes.
struct Chunked<'a> {
    stream: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = cap.min(buf.len()).min(self.stream.len());
        buf[..n].copy_from_slice(&self.stream[..n]);
        self.stream = &self.stream[n..];
        Ok(n)
    }
}

/// Frames decoded by `FrameReader` until the stream ends or goes bad.
fn batched(stream: &[u8], chunks: &[usize]) -> (Frames, bool) {
    let mut src = Chunked {
        stream,
        chunks,
        reads: 0,
    };
    let mut rd = FrameReader::new();
    let mut out = Vec::new();
    loop {
        let n = rd.fill(&mut src).expect("chunked reads cannot fail");
        loop {
            match rd.next_frame() {
                Ok(Some((kind, body))) => out.push((kind, body.to_vec())),
                Ok(None) => break,
                Err(NetError::BadFrame(_)) => return (out, true),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        if n == 0 {
            return (out, false);
        }
    }
}

/// Body lengths from empty to past the reader's buffer, hugging the
/// boundaries where a frame exactly fills or just overflows it.
fn body_len(class: usize, salt: u8) -> usize {
    let salt = salt as usize;
    match class {
        0 => 0,
        1 => 1 + salt % 64,
        2 => 1024 + salt,
        3 => READ_BUF_LEN - FRAME_HEADER_LEN - 2 + salt % 5,
        _ => READ_BUF_LEN + 1 + 40 * salt,
    }
}

fn encode(frames: &[(usize, usize, u8)]) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    for &(kind, class, salt) in frames {
        let len = body_len(class, salt);
        let mut buf = FrameBuf::new();
        buf.put_payload(&Payload::from(
            (0..len).map(|i| (i as u8) ^ salt).collect::<Vec<u8>>(),
        ));
        starts.push(stream.len());
        stream.extend(buf.to_frame_bytes(KINDS[kind]));
    }
    (stream, starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_chunking_yields_the_reference_frames(
        frames in proptest::collection::vec((0usize..4, 0usize..5, any::<u8>()), 1..10),
        chunks in proptest::collection::vec(1usize..100_000, 1..12),
    ) {
        let (stream, _) = encode(&frames);
        let (want, bad) = reference(&stream);
        prop_assert!(!bad);
        prop_assert_eq!(want.len(), frames.len());
        prop_assert_eq!(batched(&stream, &chunks), (want, false));
    }

    #[test]
    fn a_bad_header_rejects_after_the_frames_before_it(
        frames in proptest::collection::vec((0usize..4, 0usize..5, any::<u8>()), 1..8),
        chunks in proptest::collection::vec(1usize..100_000, 1..12),
        victim in any::<u8>(),
        damage in 0usize..4,
    ) {
        let (mut stream, starts) = encode(&frames);
        let victim = victim as usize % frames.len();
        let h = starts[victim];
        match damage {
            0 => stream[h] = b'X',
            1 => stream[h + 2] = FRAME_VERSION + 1,
            2 => stream[h + 3] = KINDS.len() as u8,
            _ => stream[h + 4..h + 8].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes()),
        }
        let (want, bad) = reference(&stream);
        prop_assert!(bad);
        prop_assert_eq!(want.len(), victim);
        prop_assert_eq!(batched(&stream, &chunks), (want, true));
    }
}

/// Accepts at most `caps[i % len]` bytes per call, spread over the
/// slices it is given, and reports `Interrupted` on every third call.
struct Trickle<'a> {
    out: Vec<u8>,
    caps: &'a [usize],
    calls: usize,
}

impl Write for Trickle<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let mut room = self.caps[self.calls % self.caps.len()];
        let before = self.out.len();
        for b in bufs {
            let n = room.min(b.len());
            self.out.extend_from_slice(&b[..n]);
            room -= n;
        }
        Ok(self.out.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn write_to_survives_partial_vectored_writes(
        segments in proptest::collection::vec((any::<bool>(), 0usize..300, any::<u8>()), 0..8),
        caps in proptest::collection::vec(1usize..200, 1..6),
    ) {
        let mut buf = FrameBuf::new();
        for &(shared, len, fill) in &segments {
            if shared {
                buf.put_payload(&Payload::from(vec![fill; len]));
            } else {
                buf.put_bytes(&vec![fill; len]);
            }
        }
        let mut w = Trickle { out: Vec::new(), caps: &caps, calls: 0 };
        buf.write_to(FrameKind::App, &mut w).unwrap();
        prop_assert_eq!(w.out, buf.to_frame_bytes(FrameKind::App));
    }
}

#[test]
fn write_to_is_one_call_on_a_willing_writer_and_fails_on_a_full_one() {
    struct Count(usize);
    impl Write for Count {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.0 += 1;
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut buf = FrameBuf::new();
    buf.put_u64(1);
    buf.put_payload(&Payload::from(vec![2u8; 1024]));
    buf.put_u32(3);
    let mut w = Count(0);
    buf.write_to(FrameKind::App, &mut w).unwrap();
    assert_eq!(
        w.0, 1,
        "header + three segments leave in one gathered write"
    );

    let mut full: &mut [u8] = &mut [0u8; 4];
    let err = buf.write_to(FrameKind::App, &mut full).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::WriteZero);
}
