//! The Ring client library: the paper's API (Section 5) over the
//! fabric, with timeout-and-multicast failover (Section 5.5).
//!
//! Two request styles share one failover engine:
//!
//! - **Synchronous** ([`RingClient::put`], [`RingClient::get`], …): one
//!   request in flight, the call blocks until its response (or the
//!   attempt budget is exhausted).
//! - **Pipelined** ([`RingClient::put_nb`], [`RingClient::get_nb`] +
//!   [`RingClient::poll`] / [`RingClient::drain`]): up to
//!   [`ClientOptions::window`] requests in flight, each with the same
//!   per-request timeout and multicast failover as the sync path.
//!   Pipelining writes is safe because the coordinator's RIFL-style
//!   dedup table makes re-delivered `(client, req)` pairs idempotent —
//!   a retry can never commit a second version.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use ring_net::{NodeId, Payload, Transport};

use crate::config::{ClusterConfig, LEADER_NODE};
use crate::error::RingError;
use crate::proto::{ClientReq, ClientResp, Msg, RingEndpoint};
use crate::types::{GroupId, Key, MemgestDescriptor, MemgestId, ReqId, Version};

/// Client tunables.
#[derive(Debug, Clone, Copy)]
pub struct ClientOptions {
    /// Per-attempt response timeout.
    pub timeout: Duration,
    /// Attempts before giving up (the first is unicast; subsequent
    /// attempts multicast to every active node).
    pub attempts: u32,
    /// Maximum in-flight requests for the pipelined (`*_nb`) API. The
    /// sync API always uses an effective window of one.
    pub window: usize,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            timeout: Duration::from_millis(100),
            attempts: 10,
            window: 32,
        }
    }
}

/// One outstanding pipelined request.
struct InFlight {
    /// The key, when coordinator learning applies.
    key: Option<Key>,
    /// The request body, kept for retries (value bytes are Arc-backed,
    /// so this is a cheap handle, not a copy).
    body: ClientReq,
    /// Current attempt's response deadline.
    deadline: Instant,
    /// Attempts used so far.
    attempt: u32,
}

/// The result of one completed pipelined request.
pub type Completion = (ReqId, Result<ClientResp, RingError>);

/// A Ring client.
///
/// Clients map keys to coordinators with the shared `h(key) mod s`
/// mapping (no name node, no extra hop). After a node failure the cached
/// mapping goes stale; requests then time out, get multicast to all
/// nodes, and the answering node is learned as the new coordinator —
/// the protocol of Section 5.5.
pub struct RingClient<T: Transport<Msg> = RingEndpoint> {
    ep: T,
    config: ClusterConfig,
    overrides: std::collections::HashMap<(GroupId, usize), NodeId>,
    next_req: ReqId,
    opts: ClientOptions,
    /// All data nodes plus spares — the multicast failover target set,
    /// built once instead of per attempt.
    all_nodes: Vec<NodeId>,
    /// Outstanding pipelined requests by id.
    inflight: BTreeMap<ReqId, InFlight>,
    /// Completed pipelined requests not yet handed to the caller.
    completed: VecDeque<Completion>,
    /// Lower bound on the earliest in-flight deadline: `retry_expired`
    /// is a no-op before this instant, so the O(window) expiry scan
    /// runs only when something can actually have expired. May be stale
    /// (too early) after completions — the scan then just finds nothing
    /// and tightens it.
    next_deadline: Option<Instant>,
}

impl<T: Transport<Msg>> RingClient<T> {
    /// Creates a client from its own endpoint and the bootstrap config.
    pub fn new(ep: T, config: ClusterConfig, opts: ClientOptions) -> RingClient<T> {
        let all_nodes: Vec<NodeId> = config
            .nodes
            .iter()
            .chain(config.spares.iter())
            .copied()
            .collect();
        RingClient {
            ep,
            config,
            overrides: std::collections::HashMap::new(),
            next_req: 1,
            opts,
            all_nodes,
            inflight: BTreeMap::new(),
            completed: VecDeque::new(),
            next_deadline: None,
        }
    }

    /// The client's node id on the fabric.
    pub fn id(&self) -> NodeId {
        self.ep.id()
    }

    /// Changes the per-attempt timeout (e.g. for fine-grained recovery
    /// probing).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.opts.timeout = timeout;
    }

    /// Changes the pipelined-API window.
    pub fn set_window(&mut self, window: usize) {
        self.opts.window = window.max(1);
    }

    /// Number of pipelined requests currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn coordinator_for(&self, key: Key) -> NodeId {
        let loc = self.config.locate(key);
        self.overrides
            .get(&loc)
            .copied()
            .unwrap_or_else(|| self.config.coordinator_of_key(key))
    }

    // ---- Shared request engine ----

    /// Registers and unicasts a request; failover happens in [`Self::pump`].
    fn submit(
        &mut self,
        target: NodeId,
        key: Option<Key>,
        body: ClientReq,
    ) -> Result<ReqId, RingError> {
        let req = self.next_req;
        self.next_req += 1;
        self.ep.send(
            target,
            Msg::Request {
                req,
                body: body.clone(),
            },
        )?;
        // The caller may not touch the client again for a while.
        self.ep.flush();
        let deadline = ring_net::clock::now() + self.opts.timeout;
        self.next_deadline = Some(match self.next_deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self.inflight.insert(
            req,
            InFlight {
                key,
                body,
                deadline,
                attempt: 1,
            },
        );
        Ok(req)
    }

    /// Learns (or forgets) a coordinator override from a response.
    fn learn(&mut self, key: Option<Key>, from: NodeId) {
        if let Some(key) = key {
            let loc = self.config.locate(key);
            if self.config.coordinator_of_key(key) != from {
                self.overrides.insert(loc, from);
            } else {
                self.overrides.remove(&loc);
            }
        }
    }

    /// Drains due responses, retries expired requests (multicast
    /// failover), and appends completions. With `wait`, blocks up to
    /// that long for the first response when nothing is immediately due.
    fn pump(&mut self, wait: Option<Duration>) {
        // Fast path: drain whatever is already deliverable.
        while let Ok(Some((from, msg))) = self.ep.try_recv() {
            self.absorb(from, msg);
        }
        if let Some(wait) = wait {
            if self.completed.is_empty() && !self.inflight.is_empty() {
                // Nothing done yet: block until mail, the earliest
                // retry deadline, or the caller's budget.
                let now = ring_net::clock::now();
                let until = match self.next_deadline {
                    Some(d) => (now + wait).min(d),
                    None => now + wait,
                };
                if until > now {
                    if let Ok((from, msg)) = self.ep.recv_timeout(until - now) {
                        self.absorb(from, msg);
                        while let Ok(Some((from, msg))) = self.ep.try_recv() {
                            self.absorb(from, msg);
                        }
                    }
                }
            }
        }
        self.retry_expired();
    }

    /// Routes one incoming message into the in-flight table.
    fn absorb(&mut self, from: NodeId, msg: Msg) {
        if let Msg::Response { req, body } = msg {
            if let Some(f) = self.inflight.remove(&req) {
                self.learn(f.key, from);
                self.completed.push_back((req, Ok(body)));
            }
            // Responses to forgotten requests (duplicates, late answers
            // after a timeout completion) are dropped.
        }
    }

    /// Multicasts expired requests to every node (the answering node is
    /// learned as the new coordinator), failing those out of attempts.
    fn retry_expired(&mut self) {
        if self.inflight.is_empty() {
            self.next_deadline = None;
            return;
        }
        let now = ring_net::clock::now();
        // Fast path: nothing can have expired yet.
        if let Some(d) = self.next_deadline {
            if now < d {
                return;
            }
        }
        let expired: Vec<ReqId> = self
            .inflight
            .iter()
            .filter(|(_, f)| now >= f.deadline)
            .map(|(&r, _)| r)
            .collect();
        for req in expired {
            let f = self.inflight.get_mut(&req).expect("just listed");
            if f.attempt >= self.opts.attempts {
                self.inflight.remove(&req);
                self.completed.push_back((req, Err(RingError::Timeout)));
                continue;
            }
            f.attempt += 1;
            f.deadline = now + self.opts.timeout;
            let body = f.body.clone();
            self.ep.stats().record_retransmit();
            // Re-send through multicast; only the responsible node will
            // answer (Section 5.5). Spares are included — one of them
            // may have been promoted to the failed role.
            if let Err(e) = self
                .ep
                .multicast(&self.all_nodes, Msg::Request { req, body })
            {
                self.inflight.remove(&req);
                self.completed.push_back((req, Err(e.into())));
            }
        }
        self.next_deadline = self.inflight.values().map(|f| f.deadline).min();
    }

    /// Blocks until `req` completes, pumping the engine. Completions of
    /// other (pipelined) requests accumulate for a later [`Self::poll`].
    fn wait_for(&mut self, req: ReqId) -> Result<ClientResp, RingError> {
        loop {
            if let Some(pos) = self.completed.iter().position(|(r, _)| *r == req) {
                return self.completed.remove(pos).expect("position valid").1;
            }
            if !self.inflight.contains_key(&req) {
                // Completed and consumed elsewhere — cannot happen via
                // public API; treat as a lost request.
                return Err(RingError::Timeout);
            }
            self.pump(Some(self.opts.timeout));
        }
    }

    /// Issues one request and awaits its response, failing over to
    /// multicast after a timeout. `key` enables coordinator learning.
    fn call(
        &mut self,
        target: NodeId,
        key: Option<Key>,
        body: ClientReq,
    ) -> Result<ClientResp, RingError> {
        let req = self.submit(target, key, body)?;
        self.wait_for(req)
    }

    fn keyed(&mut self, key: Key, body: ClientReq) -> Result<ClientResp, RingError> {
        let target = self.coordinator_for(key);
        self.call(target, Some(key), body)
    }

    fn expect_error(resp: ClientResp) -> RingError {
        match resp {
            ClientResp::Error(e) => e,
            other => RingError::Internal(format!("unexpected response {other:?}")),
        }
    }

    // ---- Synchronous API ----

    /// `put(key, object)` into the default memgest.
    pub fn put(&mut self, key: Key, value: &[u8]) -> Result<Version, RingError> {
        self.put_in(key, value, None)
    }

    /// `put(key, object, memgestID)`.
    pub fn put_to(
        &mut self,
        key: Key,
        value: &[u8],
        memgest: MemgestId,
    ) -> Result<Version, RingError> {
        self.put_in(key, value, Some(memgest))
    }

    fn put_in(
        &mut self,
        key: Key,
        value: &[u8],
        memgest: Option<MemgestId>,
    ) -> Result<Version, RingError> {
        match self.keyed(
            key,
            ClientReq::Put {
                key,
                value: Payload::from(value),
                memgest,
            },
        )? {
            ClientResp::PutOk { version } => Ok(version),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `get(key)`: the value of the highest version.
    pub fn get(&mut self, key: Key) -> Result<Vec<u8>, RingError> {
        self.get_versioned(key).map(|(v, _)| v)
    }

    /// `get(key)` returning the version as well.
    pub fn get_versioned(&mut self, key: Key) -> Result<(Vec<u8>, Version), RingError> {
        match self.keyed(key, ClientReq::Get { key })? {
            // The public API hands the caller an owned Vec<u8>; this is
            // the one place a copy is the contract, not a regression.
            // ring-lint: allow(payload-copy)
            ClientResp::GetOk { value, version } => Ok((value.to_vec(), version)),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `delete(key)`.
    pub fn delete(&mut self, key: Key) -> Result<(), RingError> {
        match self.keyed(key, ClientReq::Delete { key })? {
            ClientResp::DeleteOk => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `move(key, memgestID)`: change the key's storage scheme.
    pub fn move_key(&mut self, key: Key, dst: MemgestId) -> Result<Version, RingError> {
        match self.keyed(key, ClientReq::Move { key, dst })? {
            ClientResp::MoveOk { version } => Ok(version),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `createMemgest(descriptor)` — a leader operation.
    pub fn create_memgest(&mut self, desc: MemgestDescriptor) -> Result<MemgestId, RingError> {
        match self.call(LEADER_NODE, None, ClientReq::CreateMemgest { desc })? {
            ClientResp::MemgestCreated { id } => Ok(id),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `deleteMemgest(id)`.
    pub fn delete_memgest(&mut self, id: MemgestId) -> Result<(), RingError> {
        match self.call(LEADER_NODE, None, ClientReq::DeleteMemgest { id })? {
            ClientResp::MemgestDeleted => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `setDefaultMemgest(id)`.
    pub fn set_default_memgest(&mut self, id: MemgestId) -> Result<(), RingError> {
        match self.call(LEADER_NODE, None, ClientReq::SetDefaultMemgest { id })? {
            ClientResp::DefaultSet => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }

    /// `getMemgestDescriptor(id)`.
    pub fn memgest_descriptor(&mut self, id: MemgestId) -> Result<MemgestDescriptor, RingError> {
        match self.call(LEADER_NODE, None, ClientReq::GetMemgestDescriptor { id })? {
            ClientResp::Descriptor { desc } => Ok(desc),
            other => Err(Self::expect_error(other)),
        }
    }

    // ---- Pipelined (windowed non-blocking) API ----

    /// Pipelined `put`: registers the request and returns its id without
    /// waiting for the response. If the window is full, blocks until a
    /// slot frees (completions accumulate for [`Self::poll`]). Retries
    /// and multicast failover run inside [`Self::poll`] / [`Self::drain`];
    /// coordinator dedup makes those retries idempotent, so pipelined
    /// puts keep at-most-once semantics.
    pub fn put_nb(
        &mut self,
        key: Key,
        value: &[u8],
        memgest: Option<MemgestId>,
    ) -> Result<ReqId, RingError> {
        self.await_window()?;
        let target = self.coordinator_for(key);
        self.submit(
            target,
            Some(key),
            ClientReq::Put {
                key,
                value: Payload::from(value),
                memgest,
            },
        )
    }

    /// Pipelined `get`. Same windowing contract as [`Self::put_nb`].
    pub fn get_nb(&mut self, key: Key) -> Result<ReqId, RingError> {
        self.await_window()?;
        let target = self.coordinator_for(key);
        self.submit(target, Some(key), ClientReq::Get { key })
    }

    /// Pipelined `delete`. Same windowing contract as [`Self::put_nb`].
    pub fn delete_nb(&mut self, key: Key) -> Result<ReqId, RingError> {
        self.await_window()?;
        let target = self.coordinator_for(key);
        self.submit(target, Some(key), ClientReq::Delete { key })
    }

    /// Pipelined `move`. Same windowing contract as [`Self::put_nb`].
    pub fn move_nb(&mut self, key: Key, dst: MemgestId) -> Result<ReqId, RingError> {
        self.await_window()?;
        let target = self.coordinator_for(key);
        self.submit(target, Some(key), ClientReq::Move { key, dst })
    }

    /// Blocks while the window is full, pumping completions.
    fn await_window(&mut self) -> Result<(), RingError> {
        while self.inflight.len() >= self.opts.window.max(1) {
            self.pump(Some(self.opts.timeout));
        }
        Ok(())
    }

    /// Collects finished pipelined requests without blocking: drains due
    /// responses, runs timeout/failover retries, and returns every
    /// completion gathered so far.
    pub fn poll(&mut self) -> Vec<Completion> {
        self.pump(None);
        self.completed.drain(..).collect()
    }

    /// Blocks until every in-flight pipelined request completes (with a
    /// response or a final timeout error) and returns all completions.
    pub fn drain(&mut self) -> Vec<Completion> {
        while !self.inflight.is_empty() {
            self.pump(Some(self.opts.timeout));
        }
        self.completed.drain(..).collect()
    }

    // ---- Fire-and-forget API (no failover; open-loop harnesses) ----

    /// Fire-and-forget put: sends the request without tracking it (used
    /// by open-loop measurements that want no retry traffic). Responses
    /// are drained with [`RingClient::poll_responses`].
    pub fn put_async(
        &mut self,
        key: Key,
        value: &[u8],
        memgest: Option<MemgestId>,
    ) -> Result<ReqId, RingError> {
        let req = self.next_req;
        self.next_req += 1;
        let target = self.coordinator_for(key);
        self.ep.send(
            target,
            Msg::Request {
                req,
                body: ClientReq::Put {
                    key,
                    value: Payload::from(value),
                    memgest,
                },
            },
        )?;
        Ok(req)
    }

    /// Fire-and-forget move (scenario tests and open-loop harness).
    pub fn move_async(&mut self, key: Key, dst: MemgestId) -> Result<ReqId, RingError> {
        let req = self.next_req;
        self.next_req += 1;
        let target = self.coordinator_for(key);
        self.ep.send(
            target,
            Msg::Request {
                req,
                body: ClientReq::Move { key, dst },
            },
        )?;
        Ok(req)
    }

    /// Fire-and-forget get (open-loop harness).
    pub fn get_async(&mut self, key: Key) -> Result<ReqId, RingError> {
        let req = self.next_req;
        self.next_req += 1;
        let target = self.coordinator_for(key);
        self.ep.send(
            target,
            Msg::Request {
                req,
                body: ClientReq::Get { key },
            },
        )?;
        Ok(req)
    }

    /// Drains every response currently queued, returning the completed
    /// request ids (fire-and-forget harness). Do not mix with the
    /// pipelined API on the same client — this bypasses its tracking.
    pub fn poll_responses(&mut self) -> Vec<(ReqId, ClientResp)> {
        let mut out = Vec::new();
        while let Ok(Some((_, msg))) = self.ep.try_recv() {
            if let Msg::Response { req, body } = msg {
                out.push((req, body));
            }
        }
        out
    }

    /// Fetches a node's introspection report (op counters, storage
    /// accounting).
    pub fn node_stats(&mut self, node: NodeId) -> Result<crate::stats::NodeStats, RingError> {
        match self.call(node, None, ClientReq::Stats)? {
            ClientResp::Stats(stats) => Ok(*stats),
            other => Err(Self::expect_error(other)),
        }
    }

    /// The bootstrap configuration this client uses for routing.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }
}

impl<T: Transport<Msg>> std::fmt::Debug for RingClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingClient")
            .field("id", &self.id())
            .finish()
    }
}
