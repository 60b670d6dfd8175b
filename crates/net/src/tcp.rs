//! Threaded-TCP transport backend.
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
//!   its listen address and introduces itself with a `Hello` frame; the
//!   accepting side registers the same stream for its own sends back.
//!   Clients therefore need no listener of their own.
//! - **One-sided verbs as internal RPCs.** `rdma_read`/`rdma_write`
//!   travel as `RdmaReadReq`/`RdmaWriteReq` frames serviced directly by
//!   the remote *reader thread* — the remote protocol thread is never
//!   scheduled, preserving the one-sided property the recovery path
//!   assumes.
//! - **Logical stats.** Counters record message counts and `WireSize`
//!   bytes (not encoded frame sizes), so a fixed protocol script
//!   produces identical counters on sim and TCP.
//!
//! - **Pay per batch, not per frame.** A `send` issued while the
//!   endpoint's own mailbox still holds input is *corked*: its encoded
//!   frame joins a per-peer buffer that goes out as one write when the
//!   owner runs out of input (see [`TcpTransport::send`] for every flush
//!   trigger and the bound). With nothing queued a send is written
//!   through at once, so a lone request never waits. Each reader thread
//!   parses every frame one `read` returned and hands the decoded
//!   messages to the mailbox under one lock and one wake-up.
//!
//! - **One receive path.** Messages land in the sim's [`Mailbox`] (due
//!   at once) and `recv_timeout` is its `recv`: a hot receiver polls
//!   before it parks, so a hop pays one wake-up (the reader thread's),
//!   not two. Corked frames are released first. Reader threads block in
//!   the kernel; polling there too was measured slower (DESIGN §10).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use crate::frame::{Codec, FrameBuf, FrameKind, FrameReader, WireReader};
use crate::mailbox::Mailbox;
use crate::{MemoryRegion, MrKey, NetError, NetStats, NodeId, WireSize};

/// Tuning knobs for the TCP backend.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Dial timeout for lazy connections.
    pub connect_timeout: Duration,
    /// How long a one-sided read/write waits for its response before
    /// reporting the peer unreachable.
    pub rpc_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            connect_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_secs(2),
        }
    }
}

/// A parsed one-sided response, mapped to `NetError` by the requester
/// (which knows the target node id).
enum RpcReply {
    ReadOk(Vec<u8>),
    WriteOk,
    UnknownRegion,
    OutOfBounds { region: usize },
    Malformed,
}

type Writer = Arc<Mutex<TcpStream>>;

/// Corked frames across all peers are flushed once they reach this
/// count, however busy the owner is: a node whose mailbox never empties
/// must still get its heartbeat to the leader, and send memory stays
/// bounded.
const CORK_MAX_FRAMES: usize = 64;
/// Byte counterpart of [`CORK_MAX_FRAMES`].
const CORK_MAX_BYTES: usize = 128 << 10;

/// Encoded frames held back by corking, in send order per peer.
#[derive(Default)]
struct Corked {
    bufs: BTreeMap<NodeId, Vec<u8>>,
    frames: usize,
    bytes: usize,
}

impl Corked {
    fn push(&mut self, to: NodeId, body: &FrameBuf) {
        let buf = self.bufs.entry(to).or_default();
        let before = buf.len();
        body.write_to(FrameKind::App, buf)
            .expect("writing to a Vec cannot fail");
        self.frames += 1;
        self.bytes += buf.len() - before;
    }

    fn full(&self) -> bool {
        self.frames >= CORK_MAX_FRAMES || self.bytes >= CORK_MAX_BYTES
    }
}

struct Shared<M> {
    id: NodeId,
    codec: Arc<dyn Codec<M>>,
    mailbox: Arc<Mailbox<M>>,
    regions: RwLock<BTreeMap<MrKey, MemoryRegion>>,
    stats: NetStats,
    /// Live writer halves, keyed by peer node id. Entries appear on
    /// outbound dial or inbound `Hello` and vanish on I/O error.
    conns: Mutex<BTreeMap<NodeId, Writer>>,
    /// Frames held back by corking. Always taken out of the mutex
    /// before any socket write: no guard is held across I/O.
    corked: Mutex<Corked>,
    /// Every stream ever opened, kept so `close()` can unblock the
    /// blocking reader threads by shutting the sockets down.
    streams: Mutex<Vec<TcpStream>>,
    /// In-flight one-sided RPCs: `None` until the response arrives.
    rpcs: Mutex<BTreeMap<u64, Option<RpcReply>>>,
    rpc_cond: Condvar,
    next_rpc: AtomicU64,
    shutdown: AtomicBool,
}

/// A TCP-backed transport endpoint.
///
/// Created with [`TcpTransport::bind`] (servers: listens for peers) or
/// [`TcpTransport::client`] (clients: outbound connections only).
pub struct TcpTransport<M> {
    peers: BTreeMap<NodeId, SocketAddr>,
    opts: TcpOptions,
    inner: Arc<Shared<M>>,
    /// The accept thread and the address that reaches its listener;
    /// taken (and joined) by the first `close()`.
    accept: Mutex<Option<(SocketAddr, JoinHandle<()>)>>,
}

impl<M> std::fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("id", &self.inner.id)
            .finish()
    }
}

impl<M: Send + WireSize + Clone + 'static> TcpTransport<M> {
    /// Binds `listen` and starts accepting peer connections.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(
        id: NodeId,
        listen: SocketAddr,
        peers: BTreeMap<NodeId, SocketAddr>,
        codec: Arc<dyn Codec<M>>,
        opts: TcpOptions,
    ) -> std::io::Result<TcpTransport<M>> {
        let t = TcpTransport::client(id, peers, codec, opts);
        let listener = TcpListener::bind(listen)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::clone(&t.inner);
        let handle = std::thread::Builder::new()
            .name(format!("ring-net-accept-{id}"))
            .spawn(move || accept_loop(shared, listener))
            .expect("spawn accept thread");
        *t.accept.lock() = Some((wake, handle));
        Ok(t)
    }

    /// An endpoint with no listener: it can dial peers and receive on
    /// the connections it opens (the `ring-cli` shape).
    pub fn client(
        id: NodeId,
        peers: BTreeMap<NodeId, SocketAddr>,
        codec: Arc<dyn Codec<M>>,
        opts: TcpOptions,
    ) -> TcpTransport<M> {
        TcpTransport {
            peers,
            opts,
            inner: Arc::new(Shared {
                id,
                codec,
                mailbox: Mailbox::new(),
                regions: RwLock::new(BTreeMap::new()),
                stats: NetStats::default(),
                conns: Mutex::new(BTreeMap::new()),
                corked: Mutex::new(Corked::default()),
                streams: Mutex::new(Vec::new()),
                rpcs: Mutex::new(BTreeMap::new()),
                rpc_cond: Condvar::new(),
                next_rpc: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
            accept: Mutex::new(None),
        }
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// This endpoint's traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Number of received messages not yet handed to the owner.
    pub fn queued(&self) -> usize {
        self.inner.mailbox.len()
    }

    /// Whether the next blocking receive polls before it parks: the
    /// previous one returned a message.
    pub fn is_hot(&self) -> bool {
        self.inner.mailbox.is_hot()
    }

    /// Shuts the endpoint down: wakes blocked receivers with
    /// [`NetError::Closed`], writes out corked frames, closes every
    /// stream so reader threads exit, and stops the accept thread — the
    /// listen port is free again when this returns.
    pub fn close(&self) {
        self.shut_down();
    }

    /// Writes out every corked frame now (see [`TcpTransport::send`]).
    pub fn flush(&self) {
        self.inner.flush_corked();
    }

    /// The writer for `node`: an existing connection (inbound or
    /// outbound) or a fresh dial of its configured address.
    fn writer_for(&self, node: NodeId) -> Option<Writer> {
        if let Some(w) = self.inner.conns.lock().get(&node) {
            return Some(Arc::clone(w));
        }
        let addr = *self.peers.get(&node)?;
        let stream = TcpStream::connect_timeout(&addr, self.opts.connect_timeout).ok()?;
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone().ok()?;
        self.inner.streams.lock().push(reader.try_clone().ok()?);
        let writer: Writer = Arc::new(Mutex::new(stream));

        // Introduce ourselves so the peer can route replies (and its own
        // sends) back over this stream.
        let mut hello = FrameBuf::new();
        hello.put_u32(self.inner.id);
        hello.write_to(FrameKind::Hello, &mut *writer.lock()).ok()?;

        let entry = {
            let mut conns = self.inner.conns.lock();
            // A concurrent dial or inbound Hello may have won the race;
            // keep whichever writer is already registered.
            Arc::clone(conns.entry(node).or_insert_with(|| Arc::clone(&writer)))
        };
        let shared = Arc::clone(&self.inner);
        let w2 = Arc::clone(&writer);
        std::thread::Builder::new()
            .name(format!("ring-net-read-{}-{node}", self.inner.id))
            .spawn(move || reader_loop(shared, reader, w2, Some(node)))
            .expect("spawn reader thread");
        Some(entry)
    }

    /// Posts a message. Fire-and-forget: connection or write failures
    /// drop the message silently, exactly like the sim fabric.
    ///
    /// With this endpoint's mailbox empty and nothing corked, the frame
    /// is written before `send` returns. While the mailbox still holds
    /// undelivered input — its owner is inside a receive loop and will
    /// be back — the encoded frame is *corked* in a per-peer buffer, so
    /// an owner that drains k requests answers with one write per peer.
    /// Corked frames are written out, oldest first per peer, by whichever
    /// comes first: a `send` that finds the mailbox empty;
    /// `recv_timeout`/`try_recv` finding nothing deliverable (before
    /// polling or returning `None`); [`TcpTransport::flush`]; any
    /// one-sided verb; `close()` or drop; or the total across all peers
    /// reaching 64 frames or 128 KiB. Counters are recorded here either
    /// way.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if this endpoint has been shut down.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        if self.inner.shutdown.load(AtomicOrdering::Acquire) {
            return Err(NetError::Closed);
        }
        self.inner.stats.record_send(msg.wire_size());
        let mut body = FrameBuf::new();
        self.inner.codec.encode(&msg, &mut body);
        // Dial now: flushing never does, so that `close()` and drop can.
        let Some(writer) = self.writer_for(to) else {
            return Ok(());
        };
        let idle = self.queued() == 0;
        let mut corked = self.inner.corked.lock();
        if idle && corked.frames == 0 {
            drop(corked);
            self.inner
                .write(to, &writer, |s| body.write_to(FrameKind::App, s));
            return Ok(());
        }
        corked.push(to, &body);
        if idle || corked.full() {
            let due = std::mem::take(&mut *corked);
            drop(corked);
            self.inner.write_corked(due);
        }
        Ok(())
    }

    /// One-sided RPC: send a request frame and block for its reply.
    fn rpc(
        &self,
        node: NodeId,
        kind: FrameKind,
        build: impl FnOnce(u64, &mut FrameBuf),
    ) -> Option<RpcReply> {
        // App frames corked for `node` must not fall behind this request,
        // and this thread is about to block for the reply.
        self.inner.flush_corked();
        let rpc = self.inner.next_rpc.fetch_add(1, AtomicOrdering::AcqRel);
        let mut body = FrameBuf::new();
        build(rpc, &mut body);
        self.inner.rpcs.lock().insert(rpc, None);
        let sent = self
            .writer_for(node)
            .is_some_and(|w| self.inner.write(node, &w, |s| body.write_to(kind, s)));
        if !sent {
            self.inner.rpcs.lock().remove(&rpc);
            return None;
        }
        let deadline = crate::clock::now() + self.opts.rpc_timeout;
        let mut rpcs = self.inner.rpcs.lock();
        loop {
            match rpcs.get(&rpc) {
                Some(Some(_)) => {
                    return rpcs.remove(&rpc).flatten();
                }
                Some(None) => {}
                None => return None,
            }
            if self
                .inner
                .rpc_cond
                .wait_until(&mut rpcs, deadline)
                .timed_out()
            {
                rpcs.remove(&rpc);
                return None;
            }
        }
    }

    fn rdma_read_inner(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
        padded: bool,
    ) -> Result<Vec<u8>, NetError> {
        let reply = self
            .rpc(node, FrameKind::RdmaReadReq, |rpc, body| {
                body.put_u64(rpc);
                body.put_u64(key);
                body.put_u64(offset as u64);
                body.put_u64(len as u64);
                body.put_u8(padded as u8);
            })
            .ok_or(NetError::Unreachable(node))?;
        match reply {
            RpcReply::ReadOk(bytes) => {
                self.inner.stats.record_rdma_read(len);
                Ok(bytes)
            }
            RpcReply::UnknownRegion => Err(NetError::UnknownRegion { node, key }),
            RpcReply::OutOfBounds { region } => Err(NetError::OutOfBounds {
                offset,
                len,
                region,
            }),
            _ => Err(NetError::Unreachable(node)),
        }
    }

    /// One-sided read of `node`'s region `key` (see
    /// [`Endpoint::rdma_read`](crate::Endpoint::rdma_read)).
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] (including response timeout),
    /// [`NetError::UnknownRegion`] or [`NetError::OutOfBounds`].
    pub fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        self.rdma_read_inner(node, key, offset, len, false)
    }

    /// One-sided read that zero-pads past the end of the region.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] or [`NetError::UnknownRegion`].
    pub fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        self.rdma_read_inner(node, key, offset, len, true)
    }

    /// One-sided write into `node`'s region `key`.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] (including response timeout),
    /// [`NetError::UnknownRegion`] or [`NetError::OutOfBounds`].
    pub fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        let reply = self
            .rpc(node, FrameKind::RdmaWriteReq, |rpc, body| {
                body.put_u64(rpc);
                body.put_u64(key);
                body.put_u64(offset as u64);
                body.put_bytes(bytes);
            })
            .ok_or(NetError::Unreachable(node))?;
        match reply {
            RpcReply::WriteOk => {
                self.inner.stats.record_rdma_write(bytes.len());
                Ok(())
            }
            RpcReply::UnknownRegion => Err(NetError::UnknownRegion { node, key }),
            RpcReply::OutOfBounds { region } => Err(NetError::OutOfBounds {
                offset,
                len: bytes.len(),
                region,
            }),
            _ => Err(NetError::Unreachable(node)),
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.shut_down();
    }
}

impl<M> TcpTransport<M> {
    /// The body of `close()` and drop; idempotent.
    fn shut_down(&self) {
        let shared = &self.inner;
        shared.shutdown.store(true, AtomicOrdering::Release);
        shared.mailbox.close();
        shared.flush_corked();
        shared.conns.lock().clear();
        let streams = shared.streams.lock();
        for s in streams.iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        drop(streams);
        // Fail any RPC still waiting for a response.
        let mut rpcs = shared.rpcs.lock();
        for slot in rpcs.values_mut() {
            if slot.is_none() {
                *slot = Some(RpcReply::Malformed);
            }
        }
        drop(rpcs);
        shared.rpc_cond.notify_all();
        // The accept thread blocks in `accept()`: a throw-away connection
        // makes it look at the shutdown flag. Join only if that connection
        // was made, so a listener that cannot be reached cannot hang us.
        let accept = self.accept.lock().take();
        if let Some((addr, handle)) = accept {
            if TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok() {
                let _ = handle.join();
            }
        }
    }
}

impl<M> Shared<M> {
    /// Runs `f` on `node`'s stream under its writer lock. A failed write
    /// drops the connection; the frames are lost (fire-and-forget).
    fn write(
        &self,
        node: NodeId,
        writer: &Writer,
        f: impl FnOnce(&mut TcpStream) -> io::Result<()>,
    ) -> bool {
        let ok = f(&mut writer.lock()).is_ok();
        if !ok {
            drop_conn(self, node, writer);
        }
        ok
    }

    fn flush_corked(&self) {
        let due = std::mem::take(&mut *self.corked.lock());
        self.write_corked(due);
    }

    /// One write per peer. Never dials: a peer whose connection has gone
    /// since `send` loses its frames, as it would have on a failed write.
    fn write_corked(&self, due: Corked) {
        for (node, buf) in due.bufs {
            let writer = self.conns.lock().get(&node).cloned();
            if let Some(writer) = writer {
                self.write(node, &writer, |s| s.write_all(&buf));
            }
        }
    }
}

impl<M: Send + WireSize + Clone + 'static> crate::Transport<M> for TcpTransport<M> {
    fn id(&self) -> NodeId {
        TcpTransport::id(self)
    }

    fn stats(&self) -> &NetStats {
        TcpTransport::stats(self)
    }

    fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        TcpTransport::send(self, to, msg)
    }

    fn multicast(&self, to: &[NodeId], msg: M) -> Result<(), NetError> {
        for &t in to {
            TcpTransport::send(self, t, msg.clone())?;
        }
        Ok(())
    }

    fn flush(&self) {
        TcpTransport::flush(self);
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), NetError> {
        // Out of input: release what was corked before polling or
        // parking. A non-zero length is a message already due (every
        // push is due at once), so it is returned without a wait.
        if self.queued() == 0 {
            self.inner.flush_corked();
        }
        let r = self.inner.mailbox.recv(Some(timeout));
        if let Ok((_, msg)) = &r {
            self.inner.stats.record_recv(msg.wire_size());
        }
        r
    }

    fn try_recv(&self) -> Result<Option<(NodeId, M)>, NetError> {
        let r = self.inner.mailbox.try_recv();
        match &r {
            Ok(Some((_, msg))) => self.inner.stats.record_recv(msg.wire_size()),
            Ok(None) => self.inner.flush_corked(),
            Err(_) => {}
        }
        r
    }

    fn register_region(&self, key: MrKey, region: MemoryRegion) {
        self.inner.regions.write().insert(key, region);
    }

    fn deregister_region(&self, key: MrKey) {
        self.inner.regions.write().remove(&key);
    }

    fn local_region(&self, key: MrKey) -> Option<MemoryRegion> {
        self.inner.regions.read().get(&key).cloned()
    }

    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        TcpTransport::rdma_read(self, node, key, offset, len)
    }

    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        TcpTransport::rdma_read_padded(self, node, key, offset, len)
    }

    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        TcpTransport::rdma_write(self, node, key, offset, bytes)
    }
}

/// Accepts inbound connections until shutdown. Blocks in `accept()` —
/// an idle endpoint costs no wake-ups — and is woken by the connection
/// `close()` makes to its own listener.
fn accept_loop<M: Send + WireSize + Clone + 'static>(
    shared: Arc<Shared<M>>,
    listener: TcpListener,
) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(AtomicOrdering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                if let Ok(s) = stream.try_clone() {
                    shared.streams.lock().push(s);
                }
                let writer: Writer = Arc::new(Mutex::new(stream));
                let shared2 = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ring-net-read-{}-in", shared.id))
                    .spawn(move || reader_loop(shared2, reader, writer, None))
                    .expect("spawn reader thread");
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Removes the conns entry for `node` if it still points at `writer`.
fn drop_conn<M>(shared: &Shared<M>, node: NodeId, writer: &Writer) {
    let mut conns = shared.conns.lock();
    if conns.get(&node).is_some_and(|w| Arc::ptr_eq(w, writer)) {
        conns.remove(&node);
    }
}

/// Per-stream reader: dispatches frames until error, EOF, or shutdown.
/// `peer` is known for outbound streams and learned from `Hello` on
/// inbound ones. Every frame of one `read` is handled before the next;
/// the application messages among them reach the mailbox as one batch.
fn reader_loop<M: Send + WireSize + Clone + 'static>(
    shared: Arc<Shared<M>>,
    mut stream: TcpStream,
    writer: Writer,
    mut peer: Option<NodeId>,
) {
    let mut frames = FrameReader::new();
    let mut batch = Vec::new();
    let mut healthy = true;
    while healthy && !shared.shutdown.load(AtomicOrdering::Acquire) {
        match frames.fill(&mut stream) {
            Ok(0) => healthy = false,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => healthy = false,
        }
        loop {
            let (kind, body) = match frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    healthy = false;
                    break;
                }
            };
            match kind {
                FrameKind::Hello => {
                    let mut r = WireReader::new(body);
                    if let Ok(id) = r.u32() {
                        shared.conns.lock().insert(id, Arc::clone(&writer));
                        peer = Some(id);
                    }
                }
                FrameKind::App => {
                    if let Some(p) = peer {
                        if let Ok(msg) = shared.codec.decode(body) {
                            batch.push((p, msg));
                        }
                    }
                }
                FrameKind::RdmaReadReq => serve_read(&shared, body, &writer),
                FrameKind::RdmaWriteReq => serve_write(&shared, body, &writer),
                FrameKind::RdmaReadResp => complete_rpc(&shared, true, body),
                FrameKind::RdmaWriteResp => complete_rpc(&shared, false, body),
            }
        }
        if !batch.is_empty() {
            shared
                .mailbox
                .push_batch(batch.drain(..), crate::clock::now());
        }
    }
    if let Some(p) = peer {
        drop_conn(&shared, p, &writer);
    }
}

const RPC_OK: u8 = 0;
const RPC_UNKNOWN_REGION: u8 = 1;
const RPC_OUT_OF_BOUNDS: u8 = 2;

/// Services a one-sided read directly on the reader thread; the
/// protocol thread is never involved (the "one-sided" property).
fn serve_read<M>(shared: &Shared<M>, body: &[u8], writer: &Writer) {
    let mut r = WireReader::new(body);
    let Ok((rpc, key, offset, len, padded)) = (|| -> Result<_, NetError> {
        let rpc = r.u64()?;
        let key = r.u64()?;
        let offset = r.u64()? as usize;
        let len = r.u64()? as usize;
        let padded = r.u8()? != 0;
        Ok((rpc, key, offset, len, padded))
    })() else {
        return; // Malformed request: nothing to correlate a reply to.
    };
    let region = shared.regions.read().get(&key).cloned();
    let mut resp = FrameBuf::new();
    resp.put_u64(rpc);
    match region {
        None => resp.put_u8(RPC_UNKNOWN_REGION),
        Some(region) if padded => {
            let available = region.len().saturating_sub(offset).min(len);
            let mut out = vec![0u8; len];
            if available > 0 {
                if let Ok(bytes) = region.read(offset, available) {
                    out[..available].copy_from_slice(&bytes);
                }
            }
            resp.put_u8(RPC_OK);
            resp.put_bytes(&out);
        }
        Some(region) => match region.read(offset, len) {
            Ok(bytes) => {
                resp.put_u8(RPC_OK);
                resp.put_bytes(&bytes);
            }
            Err(_) => {
                resp.put_u8(RPC_OUT_OF_BOUNDS);
                resp.put_u64(region.len() as u64);
            }
        },
    }
    let _ = resp.write_to(FrameKind::RdmaReadResp, &mut *writer.lock());
}

/// Services a one-sided write directly on the reader thread.
fn serve_write<M>(shared: &Shared<M>, body: &[u8], writer: &Writer) {
    let mut r = WireReader::new(body);
    let Ok((rpc, key, offset)) =
        (|| -> Result<_, NetError> { Ok((r.u64()?, r.u64()?, r.u64()? as usize)) })()
    else {
        return;
    };
    let bytes = r.rest();
    let region = shared.regions.read().get(&key).cloned();
    let mut resp = FrameBuf::new();
    resp.put_u64(rpc);
    match region {
        None => resp.put_u8(RPC_UNKNOWN_REGION),
        Some(region) => match region.write(offset, bytes) {
            Ok(()) => resp.put_u8(RPC_OK),
            Err(_) => {
                resp.put_u8(RPC_OUT_OF_BOUNDS);
                resp.put_u64(region.len() as u64);
            }
        },
    }
    let _ = resp.write_to(FrameKind::RdmaWriteResp, &mut *writer.lock());
}

/// Parses a one-sided response and wakes the waiting requester.
fn complete_rpc<M>(shared: &Shared<M>, is_read: bool, body: &[u8]) {
    let mut r = WireReader::new(body);
    let Ok(rpc) = r.u64() else { return };
    let reply = match r.u8() {
        Ok(RPC_OK) if is_read => RpcReply::ReadOk(r.rest().to_vec()),
        Ok(RPC_OK) => RpcReply::WriteOk,
        Ok(RPC_UNKNOWN_REGION) => RpcReply::UnknownRegion,
        Ok(RPC_OUT_OF_BOUNDS) => RpcReply::OutOfBounds {
            region: r.u64().unwrap_or(0) as usize,
        },
        _ => RpcReply::Malformed,
    };
    let mut rpcs = shared.rpcs.lock();
    if let Some(slot) = rpcs.get_mut(&rpc) {
        *slot = Some(reply);
        drop(rpcs);
        shared.rpc_cond.notify_all();
    }
}
