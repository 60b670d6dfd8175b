//! TCP transport backend: one owner thread, readiness-driven.
//!
//! [`TcpTransport`] implements [`Transport`](crate::Transport) over real
//! sockets so the protocol engines that normally run on the simulated
//! fabric can run as standalone OS processes (`ring-server`,
//! `ring-cli`). The design mirrors the sim's semantics exactly:
//!
//! - **Fire-and-forget sends.** A send to a dead, unreachable, or
//!   never-configured peer returns `Ok(())` and the message vanishes;
//!   only a shut-down local endpoint errors. Protocol code relies on
//!   timeouts, as on a real network.
//! - **Lazy bidirectional connections.** The first send to a peer dials
//!   it and introduces itself with a `Hello` frame; the accepting side
//!   sends back on that stream unless it has one to that peer already,
//!   so per-peer order is one stream's order even after a double dial.
//! - **Logical stats.** Counters record message counts and `WireSize`
//!   bytes, so a fixed protocol script counts the same on sim and TCP.
//! - **One thread.** The listener and every stream are nonblocking, in
//!   one epoll set the owner looks at inside its own calls: a look
//!   accepts, reads each ready stream through its [`FrameReader`] into a
//!   FIFO of decoded messages, and writes what a socket refused before.
//!   A hot receiver keeps looking (yielding between looks) for
//!   `SPIN_THRESHOLD`, the fabric mailbox's rule, then parks in
//!   `epoll_wait`; `close()` wakes it through an eventfd.
//! - **Pay per batch, not per frame.** A `send` made while the FIFO
//!   holds input is *corked* until the owner runs out of input (see
//!   `send` in the `Transport` impl).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::frame::{Codec, FrameBuf, FrameKind, FrameReader, WireReader, FRAME_HEADER_LEN};
use crate::latency::SPIN_THRESHOLD;
use crate::sys::{self, Epoll, Event, EPOLLIN, EPOLLOUT};
use crate::{NetError, NetStats, NodeId, WireSize};

/// Dial timeout for lazy connections; also bounds each stream's last
/// write at `close()`.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Corked frames across all peers are flushed once they reach this
/// count, however busy the owner is: a node whose FIFO never empties
/// must still get its heartbeat to the leader, and send memory stays
/// bounded.
const CORK_MAX_FRAMES: usize = 64;
/// Byte counterpart of [`CORK_MAX_FRAMES`].
const CORK_MAX_BYTES: usize = 128 << 10;
/// A peer's unsent bytes past which `send` looks, reading as it goes,
/// until the socket has taken enough that fewer remain or the stream
/// dies: two owners that fill each other's sockets cannot deadlock.
const UNSENT_MAX: usize = 4 << 20;

/// Epoll tokens: the close eventfd, the listener, then one per stream,
/// never reused, so an event whose stream is gone finds nothing.
const WAKE: u64 = 0;
const LISTENER: u64 = 1;

/// One connection: its decoder and the bytes not yet written to it.
struct Stream {
    sock: TcpStream,
    frames: FrameReader,
    /// Known for dials; learned from `Hello` on accepted streams.
    peer: Option<NodeId>,
    /// Encoded frames still to go, in send order: corked, or refused by
    /// a full socket.
    out: VecDeque<u8>,
    /// Whether the stream is registered for `EPOLLOUT`.
    waiting_out: bool,
}

impl Stream {
    /// Writes until done or the socket would block, then asks for
    /// `EPOLLOUT` exactly while bytes remain.
    fn write_out(&mut self, token: u64, epoll: &Epoll) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.sock.write(self.out.make_contiguous()) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => drop(self.out.drain(..n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let waiting = !self.out.is_empty();
        if !waiting {
            self.out.shrink_to(CORK_MAX_BYTES);
        }
        if waiting != self.waiting_out {
            let events = if waiting { EPOLLIN | EPOLLOUT } else { EPOLLIN };
            epoll.modify(&self.sock, token, events)?;
            self.waiting_out = waiting;
        }
        Ok(())
    }

    /// One read, and every frame it completes: `Hello` names the peer,
    /// `App` messages join `inbox`. `false` once the stream is dead.
    fn read<M>(
        &mut self,
        token: u64,
        codec: &dyn Codec<M>,
        writers: &mut BTreeMap<NodeId, u64>,
        inbox: &mut VecDeque<(NodeId, M)>,
    ) -> bool {
        match self.frames.fill(&mut self.sock) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) => return e.kind() == io::ErrorKind::Interrupted,
        }
        loop {
            match self.frames.next_frame() {
                Ok(None) => return true,
                Err(_) => return false,
                Ok(Some((FrameKind::Hello, body))) => {
                    if let Ok(id) = WireReader::new(body).u32() {
                        // An existing writer wins, as for a dial: a
                        // peer's frames never switch streams mid-flight.
                        writers.entry(id).or_insert(token);
                        self.peer = Some(id);
                    }
                }
                Ok(Some((FrameKind::App, body))) => {
                    if let (Some(p), Ok(msg)) = (self.peer, codec.decode(body)) {
                        inbox.push_back((p, msg));
                    }
                }
            }
        }
    }
}

/// Everything the owner's looks touch, behind one lock so `close()` can
/// run from another thread.
struct Io<M> {
    listener: Option<TcpListener>,
    streams: BTreeMap<u64, Stream>,
    /// The stream each peer's frames go out on: set by a dial, or by an
    /// inbound `Hello` when there is none; removed when it dies.
    writers: BTreeMap<NodeId, u64>,
    /// Decoded messages not yet handed to the owner.
    inbox: VecDeque<(NodeId, M)>,
    /// Streams holding corked frames, and how many frames and bytes.
    corked: BTreeSet<u64>,
    corked_frames: usize,
    corked_bytes: usize,
    next_token: u64,
}

impl<M> Io<M> {
    fn register(&mut self, sock: TcpStream, peer: Option<NodeId>, epoll: &Epoll) -> Option<u64> {
        sock.set_nonblocking(true).ok()?;
        let _ = sock.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        epoll.add(&sock, token, EPOLLIN).ok()?;
        let s = Stream {
            sock,
            frames: FrameReader::new(),
            peer,
            out: VecDeque::new(),
            waiting_out: false,
        };
        self.streams.insert(token, s);
        Some(token)
    }

    fn unsent(&self, token: u64) -> usize {
        self.streams.get(&token).map_or(0, |s| s.out.len())
    }

    /// Closes a dead stream; what it held is lost, as on a failed write
    /// (fire-and-forget).
    fn drop_stream(&mut self, token: u64) {
        self.streams.remove(&token);
        self.writers.retain(|_, t| *t != token);
    }

    /// Handles one ready descriptor.
    fn serve(&mut self, event: Event, codec: &dyn Codec<M>, epoll: &Epoll) {
        match event.token() {
            WAKE => {} // `close()`: the caller looks at the shutdown flag.
            LISTENER => {
                while let Some(Ok((sock, _))) = self.listener.as_ref().map(TcpListener::accept) {
                    self.register(sock, None, epoll);
                }
            }
            token => {
                let Some(s) = self.streams.get_mut(&token) else {
                    return; // Closed since the wait returned.
                };
                let alive = (!event.has(EPOLLIN)
                    || s.read(token, codec, &mut self.writers, &mut self.inbox))
                    && (!event.has(EPOLLOUT) || s.write_out(token, epoll).is_ok());
                if !alive {
                    self.drop_stream(token);
                }
            }
        }
    }

    /// Writes out every corked frame, one write per stream, without
    /// waiting for a full socket.
    fn release(&mut self, epoll: &Epoll) {
        (self.corked_frames, self.corked_bytes) = (0, 0);
        for token in std::mem::take(&mut self.corked) {
            let s = self.streams.get_mut(&token);
            if s.is_some_and(|s| s.write_out(token, epoll).is_err()) {
                self.drop_stream(token);
            }
        }
    }
}

/// A TCP-backed transport endpoint.
///
/// Created with [`TcpTransport::bind`] (servers: listens for peers) or
/// [`TcpTransport::client`] (clients: outbound connections only).
pub struct TcpTransport<M> {
    id: NodeId,
    peers: BTreeMap<NodeId, SocketAddr>,
    codec: Arc<dyn Codec<M>>,
    stats: NetStats,
    epoll: Epoll,
    /// Registered under [`WAKE`]; written once, by `close()`.
    wake: File,
    io: Mutex<Io<M>>,
    shutdown: AtomicBool,
    /// Whether the previous receive returned a message; only then does
    /// the next one look before it parks.
    hot: AtomicBool,
}

impl<M> std::fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpTransport {{ id: {} }}", self.id)
    }
}

impl<M: Send + WireSize + Clone + 'static> TcpTransport<M> {
    /// Binds `listen`; the owner's receives accept peers' connections.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(
        id: NodeId,
        listen: SocketAddr,
        peers: BTreeMap<NodeId, SocketAddr>,
        codec: Arc<dyn Codec<M>>,
    ) -> std::io::Result<TcpTransport<M>> {
        let t = TcpTransport::client(id, peers, codec);
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        t.epoll.add(&listener, LISTENER, EPOLLIN)?;
        t.io.lock().listener = Some(listener);
        Ok(t)
    }

    /// An endpoint with no listener: it can dial peers and receive on
    /// the connections it opens (the `ring-cli` shape).
    ///
    /// # Panics
    ///
    /// If the process has no file descriptor left for an epoll set.
    pub fn client(
        id: NodeId,
        peers: BTreeMap<NodeId, SocketAddr>,
        codec: Arc<dyn Codec<M>>,
    ) -> TcpTransport<M> {
        let epoll = Epoll::new().expect("epoll_create1");
        let wake = sys::event_fd().expect("eventfd");
        epoll
            .add(&wake, WAKE, EPOLLIN)
            .expect("register the eventfd");
        let io = Io {
            listener: None,
            streams: BTreeMap::new(),
            writers: BTreeMap::new(),
            inbox: VecDeque::new(),
            corked: BTreeSet::new(),
            corked_frames: 0,
            corked_bytes: 0,
            next_token: LISTENER + 1,
        };
        TcpTransport {
            id,
            peers,
            codec,
            stats: NetStats::default(),
            epoll,
            wake,
            io: Mutex::new(io),
            shutdown: AtomicBool::new(false),
            hot: AtomicBool::new(false),
        }
    }

    /// Number of received messages not yet handed to the owner, after
    /// one nonblocking look at the sockets.
    pub fn queued(&self) -> usize {
        self.look(Some(Duration::ZERO));
        self.io.lock().inbox.len()
    }

    /// Whether the next blocking receive polls before it parks: the
    /// previous one returned a message.
    pub fn is_hot(&self) -> bool {
        self.hot.load(AtomicOrdering::Acquire)
    }

    /// The stream `node`'s frames go out on: an existing one (inbound or
    /// outbound) or a fresh dial of its configured address.
    fn writer_for<'a>(&self, io: &'a mut Io<M>, node: NodeId) -> Option<(u64, &'a mut Stream)> {
        if let Some(&token) = io.writers.get(&node) {
            return Some((token, io.streams.get_mut(&token)?));
        }
        let addr = *self.peers.get(&node)?;
        let sock = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
        let token = io.register(sock, Some(node), &self.epoll)?;
        // Introduce ourselves so the peer can route replies (and its own
        // sends) back over this stream.
        let mut hello = FrameBuf::new();
        hello.put_u32(self.id);
        io.writers.insert(node, token);
        let s = io.streams.get_mut(&token)?;
        let _ = hello.write_to(FrameKind::Hello, &mut s.out); // In-memory: cannot fail.
        Some((token, s))
    }

    /// The next message of the FIFO, counted as received.
    fn hand_over(&self) -> Result<Option<(NodeId, M)>, NetError> {
        if self.shutdown.load(AtomicOrdering::Acquire) {
            return Err(NetError::Closed);
        }
        let next = self.io.lock().inbox.pop_front();
        if let Some((_, msg)) = &next {
            self.stats.record_recv(msg.wire_size());
        }
        Ok(next)
    }

    /// Looks, reading as it goes, while `pending` holds and the endpoint
    /// is open. A stream that dies stops being pending.
    fn drive(&self, pending: impl Fn(&Io<M>) -> bool) {
        while !self.shutdown.load(AtomicOrdering::Acquire) && pending(&self.io.lock()) {
            self.look(None);
        }
    }
}

impl<M> TcpTransport<M> {
    /// Waits up to `timeout` (`None`: no limit) for a registered
    /// descriptor to be ready, then serves every one that is. An
    /// interrupted wait serves nothing.
    fn look(&self, timeout: Option<Duration>) {
        let mut events = [Event::default(); 64];
        let n = self.epoll.wait(&mut events, timeout);
        let mut io = self.io.lock();
        for &event in &events[..n] {
            io.serve(event, &*self.codec, &self.epoll);
        }
    }

    /// Shuts the endpoint down: wakes a parked receiver with
    /// [`NetError::Closed`], writes out what is corked or buffered (one
    /// blocking write per stream, bounded by the dial timeout) and
    /// closes every stream and the listener — the listen port is free
    /// again when this returns. Idempotent; drop calls it too.
    pub fn close(&self) {
        self.shutdown.store(true, AtomicOrdering::Release);
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
        let mut io = self.io.lock();
        io.listener = None;
        for mut s in std::mem::take(&mut io.streams).into_values() {
            if !s.out.is_empty() && s.sock.set_nonblocking(false).is_ok() {
                let _ = s.sock.set_write_timeout(Some(CONNECT_TIMEOUT));
                let _ = s.sock.write_all(s.out.make_contiguous());
            }
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<M: Send + WireSize + Clone + 'static> crate::Transport<M> for TcpTransport<M> {
    fn id(&self) -> NodeId {
        self.id
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Posts a message. Fire-and-forget: connection or write failures
    /// drop the message silently, exactly like the sim fabric.
    ///
    /// With this endpoint's FIFO empty and nothing corked, the frame is
    /// written before `send` returns. While the FIFO still holds input —
    /// its owner is inside a receive loop and will be back — the frame
    /// is *corked*, so an owner that drains k requests answers with one
    /// write per peer. Corked frames go out, oldest first per peer, at
    /// the first of: a `send` that finds the FIFO empty;
    /// `recv_timeout`/`try_recv` finding nothing deliverable (before
    /// polling or returning `None`); `flush`; `close()` or drop; or 64
    /// frames or 128 KiB corked across all peers. What a full socket
    /// refuses leaves on `EPOLLOUT` during the owner's later looks; past
    /// 4 MiB unsent to one peer, `send` itself looks until fewer
    /// remain. Counters are recorded here either way.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if this endpoint has been shut down.
    fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        if self.shutdown.load(AtomicOrdering::Acquire) {
            return Err(NetError::Closed);
        }
        self.stats.record_send(msg.wire_size());
        let mut body = FrameBuf::new();
        self.codec.encode(&msg, &mut body);
        let mut guard = self.io.lock();
        let io = &mut *guard;
        let Some((token, s)) = self.writer_for(io, to) else {
            return Ok(());
        };
        let _ = body.write_to(FrameKind::App, &mut s.out); // In-memory: cannot fail.
        io.corked_bytes += FRAME_HEADER_LEN + body.len();
        io.corked_frames += 1;
        io.corked.insert(token);
        let full = io.corked_frames >= CORK_MAX_FRAMES || io.corked_bytes >= CORK_MAX_BYTES;
        if full || io.inbox.is_empty() {
            io.release(&self.epoll);
        }
        drop(guard);
        self.drive(|io| io.unsent(token) >= UNSENT_MAX);
        Ok(())
    }

    /// Writes out every corked frame now (see `send` above), and returns
    /// once every socket has taken all that was sent to it, reading
    /// meanwhile.
    fn flush(&self) {
        self.io.lock().release(&self.epoll);
        self.drive(|io| io.streams.values().any(|s| !s.out.is_empty()));
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), NetError> {
        let now = crate::clock::now();
        let deadline = now + timeout;
        let mut poll_until = now;
        if self.is_hot() {
            poll_until += SPIN_THRESHOLD;
        }
        // Out of input: release what was corked before polling or parking.
        if self.io.lock().inbox.is_empty() && self.queued() == 0 {
            self.io.lock().release(&self.epoll);
        }
        let r = loop {
            if let Some(done) = self.hand_over().transpose() {
                break done;
            }
            let now = crate::clock::now();
            if now >= deadline {
                break Err(NetError::Timeout);
            }
            if now < poll_until {
                std::thread::yield_now();
                self.look(Some(Duration::ZERO));
            } else {
                self.look(Some(deadline - now));
            }
        };
        self.hot.store(r.is_ok(), AtomicOrdering::Release);
        r
    }

    fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        if self.io.lock().inbox.is_empty() {
            self.look(Some(Duration::ZERO));
        }
        let r = self.hand_over()?;
        if r.is_none() {
            self.io.lock().release(&self.epoll);
        }
        Ok(r)
    }
}
