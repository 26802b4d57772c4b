//! `GmClient` — the requester side of global memory, defined once.
//!
//! This is the paper's "global-memory access request message creation
//! module" and "response message analysis module": it splits a byte range
//! into per-home segments, stages and coalesces them, batches them per
//! home, keeps the in-flight window, matches responses to requests and
//! fills the waiting handles (the rules are DESIGN.md §5d). Its in-flight
//! table is the one record of a request on either engine: root span, send
//! time, install epoch and, where the port's wire can lose a message, the
//! retransmission schedule and deadline (§5f). It links unchanged into both
//! engines: nothing in here knows a transport, the simulator or a thread,
//! and the one clock it reads is the port's. It counts and samples every
//! requester-side series itself, once for both engines. Everything
//! engine-specific goes through one [`GmPort`], a generic parameter, so
//! every call is statically dispatched (§5m lists what each engine does
//! behind it).

use std::collections::HashMap;
use std::fmt;

use dse_kernel::cache::{blocks_inside, CACHE_BLOCK};
use dse_kernel::{GlobalStore, GmCount, GmError, PeCounters};
use dse_msg::{
    is_bulk, Bytes, GlobalPid, GmOp, Message, NodeId, RegionId, ReqId, ReqIdGen, TraceCtx,
};
use dse_obs::SpanKind;
use dse_platform::Work;
use dse_transport::RetryPolicy;

use crate::req_spans::{Arrival, RequesterSpans, SentReq};

/// Handle to a split-phase global-memory operation.
///
/// Returned by `gm_read_nb`/`gm_write_nb`; redeem it with `gm_wait` (which
/// consumes the handle, so a double wait is impossible at compile time).
/// Reads yield `Some(bytes)`, writes yield `None`.
#[derive(Debug)]
pub struct GmHandle(pub(crate) HandleInner);

#[derive(Debug)]
pub(crate) enum HandleInner {
    /// Queued in the issuing [`GmClient`] under this id.
    Queued(u64),
    /// Completed at issue time (own-node fast path, replica hit, or an
    /// engine without split-phase pipelining).
    Ready(Option<ReadBuf>),
}

impl GmHandle {
    /// A handle that is already complete (engines without real pipelining
    /// return these from the non-blocking entry points).
    pub fn ready(data: Option<Vec<u8>>) -> GmHandle {
        GmHandle(HandleInner::Ready(data.map(ReadBuf::Owned)))
    }
}

/// The bytes of a read handle, gathered so far or complete.
#[derive(Debug)]
pub(crate) enum ReadBuf {
    /// Assembled segment by segment (several homes, replica hits, own-node
    /// parts, or a result too small to keep a response alive for). Empty
    /// and unallocated until the first segment lands; then the prefix
    /// gathered so far, in a buffer of the handle's exact size.
    Owned(Vec<u8>),
    /// One bulk response segment covered the whole handle: the result *is*
    /// that response's payload.
    Shared(Bytes),
}

impl ReadBuf {
    /// Copy `bytes` to offset `at` of a handle `total` bytes long. Segments
    /// that arrive in address order are appended; zeroes are written only
    /// into a gap a segment leaves behind it, for the later one that fills
    /// it.
    fn place(&mut self, total: usize, at: usize, bytes: &[u8]) {
        let ReadBuf::Owned(buf) = self else {
            unreachable!("a second segment for a handle one segment covered");
        };
        if buf.capacity() == 0 {
            buf.reserve_exact(total);
        }
        let end = at + bytes.len();
        if end <= buf.len() {
            buf[at..end].copy_from_slice(bytes);
        } else {
            // A handle's segments are disjoint: one that ends past the
            // gathered prefix starts at or past its end.
            debug_assert!(buf.len() <= at);
            buf.resize(at, 0);
            buf.extend_from_slice(bytes);
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            ReadBuf::Owned(v) => v,
            ReadBuf::Shared(b) => b,
        }
    }

    /// The owned result. A view gives up its buffer without a copy only as
    /// the last view of the whole of it; on the live engine the home's dedup
    /// cache keeps every response for replay, so there a view is copied out.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self {
            ReadBuf::Owned(v) => v,
            ReadBuf::Shared(b) => b.into_vec(),
        }
    }
}

/// A response a peer sent that does not fit the request it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmProtocolError {
    /// Correlation id of the request the response claims to answer.
    pub req: u64,
    /// What the request was waiting for and what arrived instead.
    pub detail: String,
}

impl GmProtocolError {
    fn new(req: ReqId, expected: impl fmt::Display, got: impl fmt::Display) -> GmProtocolError {
        let detail = format!("expected {expected}, got {got}");
        GmProtocolError { req: req.0, detail }
    }
}

impl fmt::Display for GmProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GM request {}: {}", self.req, self.detail)
    }
}

impl std::error::Error for GmProtocolError {}

/// A request the client gave up on: what [`GmPort::gm_deadline`] is told.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unanswered {
    /// Its correlation id.
    pub req: ReqId,
    /// The node it was sent to.
    pub home: NodeId,
    /// How many times it was sent, the first send included.
    pub attempts: u32,
    /// The exchange it began.
    pub kind: SpanKind,
    /// How long ago it was first sent, engine clock.
    pub waited_ns: u64,
    /// The trace context every send of it carried.
    pub ctx: Option<TraceCtx>,
}

/// Everything engine-specific the Parallel API library needs: the
/// [`GmClient`] and the [`ApiCtx`](crate::ApiCtx) above it.
///
/// The two implementors are the simulator's port (virtual-time charging,
/// the network model) and the live engine's (transport, a wire that can
/// lose a message); each hands over its own clock and its PE's series, and
/// the library records every count, sample and span against them and keeps
/// every request's state. DESIGN.md §5m says, method by method, what each
/// engine does and why the two bodies are not one.
pub trait GmPort {
    /// The node this client runs on.
    fn node(&self) -> NodeId;
    /// The home-partitioned store: address arithmetic and own-node reads.
    fn store(&self) -> &GlobalStore;
    /// Whether the read-replica cache is on for this run.
    fn caching(&self) -> bool;
    /// How many requests this process may have on the wire at once.
    fn gm_window(&self) -> usize;
    /// How the client retransmits a request that goes unanswered, when this
    /// port's wire can lose a message. By default it never does, as the
    /// simulator's network model never does.
    fn retry_policy(&self) -> Option<RetryPolicy> {
        None
    }
    /// This process's causal spans.
    fn spans(&mut self) -> &mut RequesterSpans;
    /// The engine's clock, in nanoseconds.
    fn now_ns(&self) -> u64;
    /// This PE's series in the run's registry.
    fn counters(&self) -> PeCounters<'_>;

    /// Charge an own-node (linked-library) access touching `bytes`.
    fn charge_local(&mut self, bytes: usize);

    /// Put a request for `home` on the wire, carrying trace context `ctx`:
    /// a first send, a retransmit or an invalidation (the client counts
    /// what it counts).
    fn send_request(&mut self, home: NodeId, msg: &Message, ctx: Option<TraceCtx>);
    /// Block for the next message `pred` accepts: serve it from the stash
    /// of earlier arrivals if one is there, else receive, stashing what
    /// `pred` rejects for its own waiter. With a `deadline` (engine clock),
    /// give up once it has passed and nothing `pred` accepts is there:
    /// `None`, the only way it returns `None`.
    fn await_msg(
        &mut self,
        pred: impl FnMut(&Message) -> bool,
        deadline: Option<u64>,
    ) -> Option<(Message, Arrival)>;
    /// A request went unanswered through every send the retry policy
    /// allows: fail the run. Only a port with a retry policy is told.
    fn gm_deadline(&mut self, lost: Unanswered) -> ! {
        unreachable!("{lost:?} without a retry policy")
    }
    /// A peer's response did not fit its request: fail the run.
    fn protocol_error(&mut self, err: GmProtocolError) -> !;
    /// The application's `what` (an entry point's name) addressed global
    /// memory wrongly: fail the calling rank, before anything is sent.
    fn bad_access(&self, what: &str, err: GmError) -> !;

    /// This node's replica of `block`, if it holds one.
    fn replica_get(&mut self, region: RegionId, block: u64) -> Option<Vec<u8>>;
    /// This node's install epoch now; the client keeps it with each request
    /// it sends, for [`GmPort::replica_install`]. By default it never moves:
    /// in virtual time nothing races an install.
    fn install_epoch(&self) -> u64 {
        0
    }
    /// Install the blocks a request fetched (block id, block bytes), unless
    /// the install epoch moved from `epoch`, its value when the request was
    /// sent: then an invalidation raced the fetch.
    fn replica_install<'d>(
        &mut self,
        epoch: u64,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    );
    /// Drop this node's replicas of every block the range touches.
    fn replica_drop(&mut self, region: RegionId, offset: u64, len: usize);
    /// Acquire point: drop every replica this node holds (a no-op outside
    /// the release-consistency mode).
    fn replica_purge(&mut self);

    /// Apply a write to this node's own partition, with the engine's
    /// coherence round around it. Returns the nodes whose replicas the
    /// client must still invalidate, each acknowledgement gating the
    /// writing handle (none when the round completed inline). The client
    /// counts the write.
    fn own_node_write(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<NodeId>, GmError>;
    /// Fetch-and-add on a cell of this node's own partition, with the
    /// engine's coherence round around it: the previous value, and the
    /// nodes to invalidate as for a write. The client counts the atomic.
    fn own_node_fetch_add(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        delta: i64,
    ) -> Result<(i64, Vec<NodeId>), GmError>;
    /// Put the atomic request `msg` for `home` on the wire like
    /// [`GmPort::send_request`], counted the engine's own way.
    fn send_atomic(&mut self, home: NodeId, msg: &Message, ctx: Option<TraceCtx>);

    /// Hand `call` (a `BarrierEnter`, `LockReq` or `UnlockReq`) to the
    /// coordinator on node 0, under trace context `ctx`. True when the call
    /// completed a barrier round in place: no release message will follow.
    fn to_coordinator(&mut self, call: Message, ctx: Option<TraceCtx>) -> bool;
    /// Account for `work` of computation the application did.
    fn compute(&mut self, _work: Work) {}
    /// Process `pid`'s body returned and its global-memory work is
    /// complete: tell whoever collects the exits.
    fn exit(&mut self, pid: GlobalPid);
}

/// Where a completed read segment's bytes land: `len` bytes at absolute
/// region offset `abs_off` copy into `handle`'s buffer at `buf_off`.
#[derive(Clone, Copy)]
struct ReadDest {
    handle: u64,
    buf_off: usize,
    abs_off: u64,
    len: usize,
}

/// Bookkeeping for one read segment: staged (and grown by coalescing)
/// first, then riding a request, plain or inside a batch.
struct ReadCtl {
    region: RegionId,
    offset: u64,
    len: usize,
    /// Cache blocks (absolute ids) to install from the response.
    install: Vec<u64>,
    dests: Vec<ReadDest>,
}

/// One staged (not yet sent) split-phase segment.
struct StagedSeg {
    home: NodeId,
    op: StagedOp,
}

enum StagedOp {
    Read(ReadCtl),
    Write {
        region: RegionId,
        offset: u64,
        data: Vec<u8>,
        /// The handles this write completes.
        writers: Vec<u64>,
    },
}

/// What an issued request's answer completes. A write — or an invalidation
/// an own-node mutation sent — is remembered by the handles it completes.
enum InflightReq {
    Read(ReadCtl),
    Write(Vec<u64>),
    Batch(Vec<InflightOp>),
    /// A fetch-and-add: its answer is the atomic's result.
    FetchAdd,
}

enum InflightOp {
    Read(ReadCtl),
    Write(Vec<u64>),
}

impl InflightReq {
    fn expects(&self) -> &'static str {
        match self {
            InflightReq::Read(_) => "a read response",
            InflightReq::Write(_) => "a write or invalidation acknowledgement",
            InflightReq::Batch(_) => "a batch response",
            InflightReq::FetchAdd => "a fetch-add response",
        }
    }

    /// The exchange it is: the series its answer is a sample of.
    fn kind(&self) -> SpanKind {
        match self {
            InflightReq::Read(_) => SpanKind::GmRead,
            InflightReq::Write(_) => SpanKind::GmWrite,
            InflightReq::Batch(_) => SpanKind::GmBatch,
            InflightReq::FetchAdd => SpanKind::GmFetchAdd,
        }
    }
}

/// A request on the wire: the one record of it, on either engine.
struct Outstanding {
    ctl: InflightReq,
    /// When it was first sent, engine clock.
    sent_ns: u64,
    /// Its root `gm_req` span (traced runs; never for an invalidation).
    span: Option<SentReq>,
    /// The port's install epoch when it was sent.
    epoch: u64,
    /// How to send it again, when the port's wire can lose it.
    retry: Option<Retry>,
}

/// A request's retransmission schedule.
struct Retry {
    home: NodeId,
    /// The request as first sent.
    msg: Message,
    /// Sends so far, the first included.
    attempts: u32,
    /// The current backoff step: it doubles per retransmit, up to the
    /// policy's cap.
    backoff_ns: u64,
    /// When the next retransmit is due, engine clock.
    due_ns: u64,
}

/// A split-phase handle's outstanding work.
struct HandleState {
    /// Segments (staged or in flight) still owed to this handle, plus the
    /// issuance token while it is being issued.
    remaining: usize,
    /// Length of the range read (0 for writes).
    len: usize,
    /// Read result under assembly (`None` for writes).
    buf: Option<ReadBuf>,
}

/// One contiguous span a cached read still has to fetch.
struct Fetch {
    off: u64,
    len: usize,
    /// Fully covered blocks that missed, to install from the response.
    install: Vec<u64>,
}

impl Fetch {
    /// Extend `cur` by `[s, e)` (which continues it), or start it there.
    fn grow(cur: &mut Option<Fetch>, s: u64, e: u64, block: Option<u64>) {
        let f = cur.get_or_insert(Fetch {
            off: s,
            len: 0,
            install: Vec::new(),
        });
        f.len += (e - s) as usize;
        f.install.extend(block);
    }
}

/// True for the messages that complete a request in flight.
fn is_completion(msg: &Message) -> bool {
    matches!(
        msg,
        Message::GmReadResp { .. }
            | Message::GmWriteAck { .. }
            | Message::GmBatchResp { .. }
            | Message::GmInvalidateAck { .. }
            | Message::GmFetchAddResp { .. }
    )
}

/// The split-phase global-memory state machine of one process.
pub struct GmClient {
    reqs: ReqIdGen,
    /// Bound on requests in flight before an issue blocks.
    window: usize,
    next_handle: u64,
    /// Handles with segments still staged or in flight.
    handles: HashMap<u64, HandleState>,
    /// Finished handles not yet claimed with [`GmClient::wait`].
    completed: HashMap<u64, Option<ReadBuf>>,
    /// Staged (coalescable) segments, in program order.
    staged: Vec<StagedSeg>,
    /// Requests on the wire, by correlation id.
    inflight: HashMap<u64, Outstanding>,
    /// The previous value a wire atomic's answer carried, until
    /// [`GmClient::fetch_add`] takes it.
    fetched: Option<i64>,
}

impl GmClient {
    /// A client that keeps at most `window` requests in flight.
    pub fn new(window: usize) -> GmClient {
        GmClient {
            reqs: ReqIdGen::new(),
            window: window.max(1),
            next_handle: 0,
            handles: HashMap::new(),
            completed: HashMap::new(),
            staged: Vec::new(),
            inflight: HashMap::new(),
            fetched: None,
        }
    }

    /// The process's request-id generator (the engine's own requests —
    /// locks, terminations, the simulator's invalidation rounds — draw from
    /// the same sequence).
    pub fn req_ids(&mut self) -> &mut ReqIdGen {
        &mut self.reqs
    }

    /// Requests currently on the wire.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    // ----- entry points ------------------------------------------------------

    /// Blocking read: issue in eager mode (every segment leaves as soon as
    /// it is staged, the wire schedule of the historical blocking
    /// implementation), then wait.
    pub fn read<P: GmPort>(
        &mut self,
        port: &mut P,
        region: RegionId,
        offset: u64,
        len: usize,
    ) -> Vec<u8> {
        let runs = split(port, "gm_read", region, offset, len);
        let h = self.issue_read(port, runs, region, offset, len, true);
        self.wait(port, h).expect("a read handle carries data")
    }

    /// Blocking read into a caller-provided buffer. An entirely own-node
    /// range copies without a handle or an intermediate allocation.
    pub fn read_into<P: GmPort>(
        &mut self,
        port: &mut P,
        region: RegionId,
        offset: u64,
        out: &mut [u8],
    ) {
        let runs = split(port, "gm_read", region, offset, out.len());
        if runs.len() == 1 && runs[0].0 == port.node() {
            own_node_read(port, region, offset, out.len(), |src| {
                out.copy_from_slice(src)
            });
            return;
        }
        let h = self.issue_read(port, runs, region, offset, out.len(), true);
        let got = self.redeem(port, h).expect("a read handle carries data");
        out.copy_from_slice(got.as_slice());
    }

    /// Begin a split-phase read; redeem the handle with [`GmClient::wait`].
    pub fn read_nb<P: GmPort>(
        &mut self,
        port: &mut P,
        region: RegionId,
        offset: u64,
        len: usize,
    ) -> GmHandle {
        let runs = split(port, "gm_read", region, offset, len);
        self.issue_read(port, runs, region, offset, len, false)
    }

    /// Blocking write (eager issue, then wait).
    pub fn write<P: GmPort>(&mut self, port: &mut P, region: RegionId, offset: u64, data: &[u8]) {
        let h = self.issue_write(port, region, offset, data, true);
        self.wait(port, h);
    }

    /// Begin a split-phase write; the handle completes when the write is
    /// globally visible.
    pub fn write_nb<P: GmPort>(
        &mut self,
        port: &mut P,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> GmHandle {
        self.issue_write(port, region, offset, data, false)
    }

    /// Redeem a handle: flush staged work, then drain completions until
    /// its operation is done. Reads return `Some(bytes)`, writes `None`.
    ///
    /// # Panics
    ///
    /// Panics on a handle whose result [`GmClient::wait_all`] discarded.
    pub fn wait<P: GmPort>(&mut self, port: &mut P, handle: GmHandle) -> Option<Vec<u8>> {
        self.redeem(port, handle).map(ReadBuf::into_vec)
    }

    /// [`GmClient::wait`], with a read's bytes as the handle holds them.
    fn redeem<P: GmPort>(&mut self, port: &mut P, handle: GmHandle) -> Option<ReadBuf> {
        let id = match handle.0 {
            HandleInner::Ready(data) => return data,
            HandleInner::Queued(id) => id,
        };
        if let Some(data) = self.completed.remove(&id) {
            return data;
        }
        assert!(
            self.handles.contains_key(&id),
            "rank {}: gm_wait on a stale handle (result discarded by gm_wait_all)",
            port.node().0
        );
        self.flush_staged(port);
        self.block_until(port, id, |c| c.completed.remove(&id))
    }

    /// Complete everything outstanding and *discard* results not yet
    /// claimed (a later [`GmClient::wait`] on such a handle panics).
    pub fn wait_all<P: GmPort>(&mut self, port: &mut P) {
        self.fence(port);
        self.completed.clear();
    }

    /// Complete all staged and in-flight work, keeping finished results
    /// claimable. With nothing outstanding this is free.
    pub fn fence<P: GmPort>(&mut self, port: &mut P) {
        self.flush_staged(port);
        self.block_until(port, 0, |c| c.inflight.is_empty().then_some(()));
    }

    /// Release-consistency acquire: fence, then drop this node's replicas.
    pub fn acquire<P: GmPort>(&mut self, port: &mut P) {
        self.fence(port);
        port.replica_purge();
    }

    /// Fetch-and-add `delta` on the 8-byte cell at `offset` of `region`:
    /// the previous value. Call it with nothing in flight. A remote cell is
    /// one request, waited for at once; an own-node one is a library call,
    /// and the invalidations it leaves are collected before this returns,
    /// since an atomic has no handle to gate.
    pub fn fetch_add<P: GmPort>(
        &mut self,
        port: &mut P,
        region: RegionId,
        offset: u64,
        delta: i64,
    ) -> i64 {
        let home = port
            .store()
            .atomic_cell_home(region, offset)
            .unwrap_or_else(|e| port.bad_access("gm_fetch_add", e));
        if port.caching() {
            // The caller's own copy of the cell's block goes stale too.
            port.replica_drop(region, offset, 8);
        }
        if home == port.node() {
            let (prev, holders) = port
                .own_node_fetch_add(&mut self.reqs, region, offset, delta)
                .unwrap_or_else(|e| port.bad_access("gm_fetch_add", e));
            port.counters().count(GmCount::LocalFetchAdd);
            self.invalidate(port, holders, region, offset, 8, None);
            while !self.inflight.is_empty() {
                self.drain_one(port);
            }
            return prev;
        }
        let req = self.reqs.next();
        let msg = Message::GmFetchAddReq {
            req,
            region,
            offset,
            delta,
        };
        self.send(port, home, req, msg, InflightReq::FetchAdd);
        self.block_until(port, req.0, |c| c.fetched.take())
    }

    /// Drain completions until `done` yields: a blocking wait, one
    /// `gm/blocked_ns` sample and `gm_block` span (`seq` is the handle or the
    /// atomic waited on, 0 for a fence or window backpressure). Free when
    /// `done` yields at once.
    fn block_until<P: GmPort, T>(
        &mut self,
        port: &mut P,
        seq: u64,
        mut done: impl FnMut(&mut Self) -> Option<T>,
    ) -> T {
        if let Some(got) = done(self) {
            return got;
        }
        let since = port.now_ns();
        let got = loop {
            self.drain_one(port);
            if let Some(got) = done(self) {
                break got;
            }
        };
        let now = port.now_ns();
        port.counters()
            .record("gm", "blocked_ns", now.saturating_sub(since));
        port.spans().blocked(since, now, seq);
        got
    }

    // ----- issue -------------------------------------------------------------

    /// Register a handle holding its issuance token: a read of `len` bytes,
    /// or a write (`None`). It is in place *before* any segment is staged
    /// because window backpressure may deliver completions for this very
    /// handle mid-issue.
    fn new_handle(&mut self, read: Option<usize>) -> u64 {
        self.next_handle += 1;
        self.handles.insert(
            self.next_handle,
            HandleState {
                remaining: 1,
                len: read.unwrap_or(0),
                buf: read.map(|_| ReadBuf::Owned(Vec::new())),
            },
        );
        self.next_handle
    }

    /// Copy one segment's `bytes` to offset `at` of a read handle.
    fn place(&mut self, handle: u64, at: usize, bytes: &[u8]) {
        let st = self
            .handles
            .get_mut(&handle)
            .expect("read bytes for an unknown handle");
        let buf = st.buf.as_mut().expect("read bytes for a write handle");
        buf.place(st.len, at, bytes);
    }

    /// Issue a read of `[offset, offset + len)`, already split into `runs`.
    fn issue_read<P: GmPort>(
        &mut self,
        port: &mut P,
        runs: Vec<(NodeId, u64, usize)>,
        region: RegionId,
        offset: u64,
        len: usize,
        eager: bool,
    ) -> GmHandle {
        let caching = port.caching();
        let handle = self.new_handle(Some(len));
        for (home, off, rlen) in runs {
            let at = (off - offset) as usize;
            if home == port.node() {
                own_node_read(port, region, off, rlen, |src| self.place(handle, at, src));
            } else if !caching {
                self.stage_read(port, home, region, off, rlen, Vec::new(), handle, at, eager);
            } else {
                for f in self.plan_cached_read(port, handle, region, offset, off, rlen) {
                    let at = (f.off - offset) as usize;
                    self.stage_read(
                        port, home, region, f.off, f.len, f.install, handle, at, eager,
                    );
                }
            }
        }
        self.release_issuance_token(handle)
    }

    /// One remote run of a read at `base` with the replica cache on: serve
    /// what the installed replicas cover, and merge the missed blocks and
    /// the unaligned edge fragments into as few fetches as possible.
    fn plan_cached_read<P: GmPort>(
        &mut self,
        port: &mut P,
        handle: u64,
        region: RegionId,
        base: u64,
        off: u64,
        rlen: usize,
    ) -> Vec<Fetch> {
        let bsz = CACHE_BLOCK as u64;
        let end = off + rlen as u64;
        let full = blocks_inside(off, rlen);
        let mut fetches = Vec::new();
        let mut cur: Option<Fetch> = None;
        if full.is_empty() {
            // A sub-block read (e.g. a single-element `get`) is still
            // served from a replica installed by an earlier block-covering
            // read, as long as it lies inside one block.
            let b = off / bsz;
            let replica = (end <= (b + 1) * bsz)
                .then(|| port.replica_get(region, b))
                .flatten();
            match replica {
                Some(data) => {
                    let s = (off - b * bsz) as usize;
                    self.replica_hit(port, handle, (off - base) as usize, &data[s..s + rlen]);
                }
                None => Fetch::grow(&mut cur, off, end, None),
            }
        } else {
            if off < full.start * bsz {
                Fetch::grow(&mut cur, off, full.start * bsz, None);
            }
            for b in full.clone() {
                match port.replica_get(region, b) {
                    Some(data) => {
                        self.replica_hit(port, handle, (b * bsz - base) as usize, &data);
                        fetches.extend(cur.take());
                    }
                    None => {
                        port.counters().count(GmCount::ReplicaMiss);
                        Fetch::grow(&mut cur, b * bsz, (b + 1) * bsz, Some(b));
                    }
                }
            }
            if full.end * bsz < end {
                Fetch::grow(&mut cur, full.end * bsz, end, None);
            }
        }
        fetches.extend(cur);
        fetches
    }

    /// A replica hit: a library call plus a copy, no wire.
    fn replica_hit<P: GmPort>(&mut self, port: &mut P, handle: u64, at: usize, bytes: &[u8]) {
        port.charge_local(bytes.len());
        port.counters().count(GmCount::ReplicaHit);
        self.place(handle, at, bytes);
    }

    fn issue_write<P: GmPort>(
        &mut self,
        port: &mut P,
        region: RegionId,
        offset: u64,
        data: &[u8],
        eager: bool,
    ) -> GmHandle {
        let runs = split(port, "gm_write", region, offset, data.len());
        if port.caching() {
            // A writer's own copies of the written range go stale too.
            port.replica_drop(region, offset, data.len());
        }
        let handle = self.new_handle(None);
        for (home, off, rlen) in runs {
            let at = (off - offset) as usize;
            let chunk = &data[at..at + rlen];
            if home == port.node() {
                let holders = port
                    .own_node_write(&mut self.reqs, region, off, chunk)
                    .unwrap_or_else(|e| port.bad_access("gm_write", e));
                port.counters().count(GmCount::LocalWrite(rlen));
                self.invalidate(port, holders, region, off, rlen, Some(handle));
            } else {
                self.stage_write(port, home, region, off, chunk, handle, eager);
            }
        }
        self.release_issuance_token(handle)
    }

    /// One more segment that leaves the node is owed to `handle`.
    fn owe_segment(&mut self, handle: u64) {
        self.handles.get_mut(&handle).unwrap().remaining += 1;
    }

    /// Release the token held while staging: if every segment already
    /// completed (or none was needed), the handle is born ready.
    fn release_issuance_token(&mut self, handle: u64) -> GmHandle {
        match self.segment_done(handle) {
            Some(buf) => GmHandle(HandleInner::Ready(buf)),
            None => GmHandle(HandleInner::Queued(handle)),
        }
    }

    /// One unit owed to `handle` is done; yields its result if that was
    /// the last one.
    fn segment_done(&mut self, handle: u64) -> Option<Option<ReadBuf>> {
        let st = self
            .handles
            .get_mut(&handle)
            .expect("completion for an unknown handle");
        st.remaining -= 1;
        if st.remaining > 0 {
            return None;
        }
        let st = self.handles.remove(&handle).unwrap();
        debug_assert_eq!(st.buf.as_ref().map_or(0, |b| b.as_slice().len()), st.len);
        Some(st.buf)
    }

    // ----- stage / flush -------------------------------------------------------

    /// The last staged operation, if a segment for `[off, end)` of `region`
    /// at `home` may merge into it (same home and region, ranges touching
    /// or overlapping — so a merged segment stays contiguous and program
    /// order among staged operations is preserved).
    fn mergeable(
        &mut self,
        home: NodeId,
        region: RegionId,
        off: u64,
        end: u64,
    ) -> Option<&mut StagedOp> {
        let seg = self.staged.last_mut()?;
        let (sregion, soff, slen) = match &seg.op {
            StagedOp::Read(c) => (c.region, c.offset, c.len),
            StagedOp::Write {
                region,
                offset,
                data,
                ..
            } => (*region, *offset, data.len()),
        };
        let touches = off <= soff + slen as u64 && end >= soff;
        (seg.home == home && sregion == region && touches).then_some(&mut seg.op)
    }

    /// Stage one remote read segment, coalescing with the last staged
    /// segment when that is a mergeable read.
    #[allow(clippy::too_many_arguments)]
    fn stage_read<P: GmPort>(
        &mut self,
        port: &mut P,
        home: NodeId,
        region: RegionId,
        off: u64,
        len: usize,
        install: Vec<u64>,
        handle: u64,
        buf_off: usize,
        eager: bool,
    ) {
        self.owe_segment(handle);
        let end = off + len as u64;
        let dest = ReadDest {
            handle,
            buf_off,
            abs_off: off,
            len,
        };
        match self.mergeable(home, region, off, end) {
            Some(StagedOp::Read(c)) => {
                let new_end = (c.offset + c.len as u64).max(end);
                c.offset = c.offset.min(off);
                c.len = (new_end - c.offset) as usize;
                for b in install {
                    if !c.install.contains(&b) {
                        c.install.push(b);
                    }
                }
                c.dests.push(dest);
                port.counters().count(GmCount::Coalesced);
            }
            _ => {
                let dests = vec![dest];
                let op = StagedOp::Read(ReadCtl {
                    region,
                    offset: off,
                    len,
                    install,
                    dests,
                });
                self.staged.push(StagedSeg { home, op });
            }
        }
        if eager {
            self.flush_staged(port);
        }
    }

    /// Stage one remote write segment; coalesces like [`Self::stage_read`].
    /// On overlap the later write's bytes win, preserving program order.
    /// The staged copy is the one a write needs anyway: the request owns
    /// its bytes until it is answered, for retransmission.
    #[allow(clippy::too_many_arguments)]
    fn stage_write<P: GmPort>(
        &mut self,
        port: &mut P,
        home: NodeId,
        region: RegionId,
        off: u64,
        data: &[u8],
        handle: u64,
        eager: bool,
    ) {
        self.owe_segment(handle);
        let end = off + data.len() as u64;
        match self.mergeable(home, region, off, end) {
            Some(StagedOp::Write {
                offset,
                data: sdata,
                writers,
                ..
            }) => {
                if off == *offset + sdata.len() as u64 {
                    // The common run of adjacent writes grows in place: N
                    // of them copy N segments, not N^2 / 2.
                    sdata.extend_from_slice(data);
                } else {
                    let new_start = (*offset).min(off);
                    let new_end = (*offset + sdata.len() as u64).max(end);
                    let mut union = vec![0u8; (new_end - new_start) as usize];
                    let old_at = (*offset - new_start) as usize;
                    union[old_at..old_at + sdata.len()].copy_from_slice(sdata);
                    let new_at = (off - new_start) as usize;
                    union[new_at..new_at + data.len()].copy_from_slice(data);
                    *sdata = union;
                    *offset = new_start;
                }
                writers.push(handle);
                port.counters().count(GmCount::Coalesced);
            }
            _ => {
                let writers = vec![handle];
                let op = StagedOp::Write {
                    region,
                    offset: off,
                    data: data.to_vec(),
                    writers,
                };
                self.staged.push(StagedSeg { home, op });
            }
        }
        if eager {
            self.flush_staged(port);
        }
    }

    /// Send every staged segment: one plain request per singleton home
    /// group, one batched request per multi-segment home group (preserving
    /// staging order within the batch).
    fn flush_staged<P: GmPort>(&mut self, port: &mut P) {
        if self.staged.is_empty() {
            return;
        }
        // Group by home node, preserving first-appearance order.
        let mut groups: Vec<(NodeId, Vec<StagedOp>)> = Vec::new();
        for seg in std::mem::take(&mut self.staged) {
            match groups.iter_mut().find(|(h, _)| *h == seg.home) {
                Some((_, v)) => v.push(seg.op),
                None => groups.push((seg.home, vec![seg.op])),
            }
        }
        for (home, mut ops) in groups {
            if ops.len() == 1 {
                self.send_plain(port, home, ops.pop().unwrap());
            } else {
                self.send_batch(port, home, ops);
            }
        }
    }

    fn send_plain<P: GmPort>(&mut self, port: &mut P, home: NodeId, op: StagedOp) {
        self.window_backpressure(port);
        let req = self.reqs.next();
        let (msg, ctl) = match op {
            StagedOp::Read(c) => {
                let msg = Message::GmReadReq {
                    req,
                    region: c.region,
                    offset: c.offset,
                    len: c.len as u32,
                };
                (msg, InflightReq::Read(c))
            }
            StagedOp::Write {
                region,
                offset,
                data,
                writers,
            } => {
                let msg = Message::GmWriteReq {
                    req,
                    region,
                    offset,
                    data: data.into(),
                };
                (msg, InflightReq::Write(writers))
            }
        };
        self.send(port, home, req, msg, ctl);
    }

    fn send_batch<P: GmPort>(&mut self, port: &mut P, home: NodeId, staged: Vec<StagedOp>) {
        self.window_backpressure(port);
        let req = self.reqs.next();
        let mut ops = Vec::with_capacity(staged.len());
        let mut ctls = Vec::with_capacity(staged.len());
        for op in staged {
            match op {
                StagedOp::Read(c) => {
                    ops.push(GmOp::Read {
                        region: c.region,
                        offset: c.offset,
                        len: c.len as u32,
                    });
                    ctls.push(InflightOp::Read(c));
                }
                StagedOp::Write {
                    region,
                    offset,
                    data,
                    writers,
                } => {
                    ctls.push(InflightOp::Write(writers));
                    ops.push(GmOp::Write {
                        region,
                        offset,
                        data: data.into(),
                    });
                }
            }
        }
        let msg = Message::GmBatchReq { req, ops };
        self.send(port, home, req, msg, InflightReq::Batch(ctls));
    }

    /// Invalidate `[offset, offset + len)` of `region` at each of
    /// `holders`, whose replicas an own-node mutation made stale: one
    /// `GmInvalidate` each, whose acknowledgement `handle` (if any) waits
    /// for.
    fn invalidate<P: GmPort>(
        &mut self,
        port: &mut P,
        holders: Vec<NodeId>,
        region: RegionId,
        offset: u64,
        len: usize,
        handle: Option<u64>,
    ) {
        for holder in holders {
            let req = self.reqs.next();
            let msg = Message::GmInvalidate {
                req,
                region,
                offset,
                len: len as u32,
            };
            if let Some(h) = handle {
                self.owe_segment(h);
            }
            let gate = InflightReq::Write(handle.into_iter().collect());
            self.send(port, holder, req, msg, gate);
        }
    }

    /// Put request `req` for `home` on the wire and enter it in the
    /// in-flight table with its root span, the port's install epoch and,
    /// when the port's wire can lose it, its retransmission schedule. An
    /// invalidation is no request of the application's: it has no span and
    /// no latency sample. A staged read, write or batch enters the window's
    /// high-water mark and is one `gm_request_msgs`.
    fn send<P: GmPort>(
        &mut self,
        port: &mut P,
        home: NodeId,
        req: ReqId,
        msg: Message,
        ctl: InflightReq,
    ) {
        let epoch = port.install_epoch();
        let sent_ns = port.now_ns();
        let span = match msg {
            Message::GmInvalidate { .. } => None,
            _ => port.spans().request_sent(sent_ns, home.0 as u32, req.0),
        };
        let ctx = span.map(|s| s.ctx);
        let staged = matches!(ctl, InflightReq::Read(_) | InflightReq::Batch(_))
            || matches!(msg, Message::GmWriteReq { .. });
        match ctl {
            InflightReq::FetchAdd => port.send_atomic(home, &msg, ctx),
            _ => port.send_request(home, &msg, ctx),
        }
        let retry = port.retry_policy().map(|policy| {
            let backoff_ns = policy.base_delay.as_nanos() as u64;
            let due_ns = sent_ns + backoff_ns;
            Retry {
                home,
                msg,
                attempts: 1,
                backoff_ns,
                due_ns,
            }
        });
        let sent = Outstanding {
            ctl,
            sent_ns,
            span,
            epoch,
            retry,
        };
        self.inflight.insert(req.0, sent);
        if staged {
            let counters = port.counters();
            counters.count(GmCount::RequestMsg);
            counters.gauge_max("gm_inflight", self.inflight.len() as u64);
        }
    }

    /// Block until another request fits in the pipelining window.
    fn window_backpressure<P: GmPort>(&mut self, port: &mut P) {
        let window = self.window;
        self.block_until(port, 0, |c| (c.inflight.len() < window).then_some(()));
    }

    // ----- completion ----------------------------------------------------------

    /// Consume exactly one GM completion. Where the port's wire can lose a
    /// message, the wait gives up at the earliest retransmit due, and what
    /// is due is sent again before it resumes.
    fn drain_one<P: GmPort>(&mut self, port: &mut P) {
        loop {
            let due = port.retry_policy().and_then(|_| {
                let armed = self.inflight.values().filter_map(|o| o.retry.as_ref());
                armed.map(|r| r.due_ns).min()
            });
            if let Some((msg, answer)) = port.await_msg(is_completion, due) {
                if let Err(e) = self.process_completion(port, msg, answer) {
                    port.protocol_error(e);
                }
                return;
            }
            self.retransmit_due(port);
        }
    }

    /// The deadline passed: send every request whose retransmit is due
    /// again, under the trace context it first carried, or give up on one
    /// already sent as often as the policy allows.
    fn retransmit_due<P: GmPort>(&mut self, port: &mut P) {
        let Some(policy) = port.retry_policy() else {
            return;
        };
        let now = port.now_ns();
        for (&req, sent) in &mut self.inflight {
            let Some(r) = sent.retry.as_mut().filter(|r| r.due_ns <= now) else {
                continue;
            };
            let ctx = sent.span.map(|s| s.ctx);
            if r.attempts >= policy.max_attempts {
                port.gm_deadline(Unanswered {
                    req: ReqId(req),
                    home: r.home,
                    attempts: r.attempts,
                    kind: sent.ctl.kind(),
                    waited_ns: now.saturating_sub(sent.sent_ns),
                    ctx,
                });
            }
            let waited_ns = r.backoff_ns;
            r.attempts += 1;
            r.backoff_ns = (2 * r.backoff_ns).min(policy.max_delay.as_nanos() as u64);
            r.due_ns = now + r.backoff_ns;
            // A retransmit, not a new request: `gm_request_msgs` stays put.
            port.counters().count(GmCount::Retry);
            if let Some(span) = sent.span {
                port.spans().retry_backoff(now, span, waited_ns);
            }
            port.send_request(r.home, &r.msg, ctx);
        }
    }

    /// Apply one GM completion (`GmReadResp`, `GmWriteAck`, `GmBatchResp`,
    /// `GmInvalidateAck`, `GmFetchAddResp`) to the request it answers.
    ///
    /// A response whose correlation id is not in flight is a duplicate
    /// delivery (fault injection, or a retransmit crossing the original
    /// response) and is ignored. A response of the wrong kind, a payload of
    /// the wrong length or a batch response short of read results is an
    /// error: those are bytes a peer sent, not a bug in this process.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is not one of the five completion messages.
    pub fn process_completion<P: GmPort>(
        &mut self,
        port: &mut P,
        msg: Message,
        answer: Arrival,
    ) -> Result<(), GmProtocolError> {
        let req = match msg.req_id() {
            Some(req) if is_completion(&msg) => req,
            _ => panic!("{} is not a GM completion", msg.label()),
        };
        let Some(sent) = self.inflight.remove(&req.0) else {
            return Ok(());
        };
        let (kind, epoch) = (sent.ctl.kind(), sent.epoch);
        // An invalidation round's acknowledgement is no latency sample.
        let sampled = !matches!(msg, Message::GmInvalidateAck { .. });
        match (sent.ctl, msg) {
            (InflightReq::Read(c), Message::GmReadResp { data, .. }) => {
                self.complete_read(port, req, epoch, c, data)?
            }
            (
                InflightReq::Write(w),
                Message::GmWriteAck { .. } | Message::GmInvalidateAck { .. },
            ) => self.complete_write(w),
            (InflightReq::Batch(ops), Message::GmBatchResp { reads, .. }) => {
                let got = reads.len();
                let mut reads = reads.into_iter();
                for op in ops {
                    match op {
                        InflightOp::Read(c) => {
                            let data = reads.next().ok_or_else(|| {
                                let got = format!("{got} results");
                                GmProtocolError::new(req, "a result per batched read", got)
                            })?;
                            self.complete_read(port, req, epoch, c, data)?
                        }
                        InflightOp::Write(c) => self.complete_write(c),
                    }
                }
            }
            (InflightReq::FetchAdd, Message::GmFetchAddResp { prev, .. }) => {
                self.fetched = Some(prev)
            }
            (ctl, other) => return Err(GmProtocolError::new(req, ctl.expects(), other.label())),
        }
        if sampled {
            sample(port, kind, sent.sent_ns);
        }
        if let Some(span) = sent.span {
            let retries = sent.retry.map_or(0, |r| r.attempts - 1);
            let now = port.now_ns();
            port.spans().request_done(now, span, retries, answer);
        }
        Ok(())
    }

    /// Distribute one completed read request's bytes to every destination
    /// handle, installing any cache blocks the request fetched (unless the
    /// install epoch moved from `epoch`, its value at dispatch). A handle
    /// the response covers whole keeps a view of a bulk payload instead of
    /// copying it; anything smaller is copied, so a few bytes never keep a
    /// large response alive.
    fn complete_read<P: GmPort>(
        &mut self,
        port: &mut P,
        req: ReqId,
        epoch: u64,
        ctl: ReadCtl,
        data: Bytes,
    ) -> Result<(), GmProtocolError> {
        if data.len() != ctl.len {
            let (want, got) = (
                format!("{} bytes", ctl.len),
                format!("{} bytes", data.len()),
            );
            return Err(GmProtocolError::new(req, want, got));
        }
        if !ctl.install.is_empty() {
            let blocks = ctl.install.iter().map(|&b| {
                let lo = (b * CACHE_BLOCK as u64 - ctl.offset) as usize;
                (b, &data[lo..lo + CACHE_BLOCK])
            });
            port.replica_install(epoch, ctl.region, blocks);
        }
        for d in ctl.dests {
            let src = (d.abs_off - ctl.offset) as usize;
            let st = self
                .handles
                .get_mut(&d.handle)
                .expect("read completion for an unknown handle");
            let buf = st.buf.as_mut().expect("read completion for a write handle");
            if d.len == st.len && is_bulk(d.len) {
                *buf = ReadBuf::Shared(data.slice(src, d.len));
            } else {
                buf.place(st.len, d.buf_off, &data[src..src + d.len]);
            }
            if let Some(buf) = self.segment_done(d.handle) {
                self.completed.insert(d.handle, buf);
            }
        }
        Ok(())
    }

    fn complete_write(&mut self, writers: Vec<u64>) {
        for w in writers {
            if let Some(result) = self.segment_done(w) {
                self.completed.insert(w, result);
            }
        }
    }
}

/// The own-node fast path: a library call straight into the home
/// partition, whose bytes `sink` copies to where the caller wants them.
fn own_node_read<P: GmPort>(
    port: &mut P,
    region: RegionId,
    offset: u64,
    len: usize,
    sink: impl FnOnce(&[u8]),
) {
    port.charge_local(len);
    port.store().read_with(region, offset, len, sink).unwrap();
    port.counters().count(GmCount::LocalRead(len));
}

/// An exchange of `kind` begun at `since` is over: a sample of its series,
/// the one mapping from an exchange to its series on both engines.
pub(crate) fn sample<P: GmPort>(port: &P, kind: SpanKind, since: u64) {
    let (subsystem, name) = match kind {
        SpanKind::GmRead => ("gm", "remote_read_ns"),
        SpanKind::GmWrite => ("gm", "remote_write_ns"),
        SpanKind::GmBatch => ("gm", "batch_ns"),
        SpanKind::GmFetchAdd => ("gm", "fetch_add_ns"),
        SpanKind::Barrier => ("sync", "barrier_wait_ns"),
        SpanKind::Lock => ("sync", "lock_wait_ns"),
    };
    let ns = port.now_ns().saturating_sub(since);
    port.counters().record(subsystem, name, ns);
}

/// Split `[offset, offset + len)` of `region` into per-home runs.
fn split<P: GmPort>(
    port: &P,
    what: &str,
    region: RegionId,
    offset: u64,
    len: usize,
) -> Vec<(NodeId, u64, usize)> {
    port.store()
        .split_by_home(region, offset, len)
        .unwrap_or_else(|e| port.bad_access(what, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_port::{FakePort, UNTRACED};
    use dse_obs::TraceSpanKind;
    use std::time::Duration;

    /// Four homes over 4 KiB: node 0 (the client's) homes `[0, 1024)`,
    /// home `h` homes `[1024 h, 1024 (h + 1))`; byte `i` holds `i % 251`.
    fn port() -> FakePort {
        FakePort::new(4, 4096, |i| (i % 251) as u8)
    }

    fn expected(offset: usize, len: usize) -> Vec<u8> {
        (offset..offset + len).map(|i| (i % 251) as u8).collect()
    }

    fn read_nb(c: &mut GmClient, p: &mut FakePort, offset: u64, len: usize) -> GmHandle {
        let region = p.region;
        c.read_nb(p, region, offset, len)
    }

    fn write_nb(c: &mut GmClient, p: &mut FakePort, offset: u64, data: &[u8]) -> GmHandle {
        let region = p.region;
        c.write_nb(p, region, offset, data)
    }

    #[test]
    fn adjacent_and_overlapping_reads_coalesce_into_one_request() {
        let (mut c, mut p) = (GmClient::new(32), port());
        let a = read_nb(&mut c, &mut p, 1024, 8);
        let b = read_nb(&mut c, &mut p, 1032, 8); // adjacent
        let d = read_nb(&mut c, &mut p, 1028, 20); // overlapping both
        assert!(p.sent.is_empty(), "non-blocking reads only stage");
        assert_eq!(c.staged.len(), 1);
        assert!(matches!(&c.staged[0].op, StagedOp::Read(r) if r.dests.len() == 3));
        assert_eq!(c.wait(&mut p, b), Some(expected(1032, 8)));
        assert_eq!(c.wait(&mut p, a), Some(expected(1024, 8)));
        assert_eq!(c.wait(&mut p, d), Some(expected(1028, 20)));
        assert_eq!(p.sent.len(), 1);
        assert!(matches!(
            p.sent[0],
            (
                NodeId(1),
                Message::GmReadReq {
                    offset: 1024,
                    len: 24,
                    ..
                }
            )
        ));
        assert_eq!(p.counter("gm_coalesced"), 2);
        assert_eq!(p.done.len(), 1);
        assert_eq!(p.samples("gm", "remote_read_ns"), 1, "one per request");
    }

    #[test]
    fn overlapping_staged_writes_resolve_last_writer_wins() {
        let (mut c, mut p) = (GmClient::new(32), port());
        let a = write_nb(&mut c, &mut p, 2100, &[1; 16]);
        let b = write_nb(&mut c, &mut p, 2108, &[2; 16]); // overlaps the tail
        let e = write_nb(&mut c, &mut p, 2124, &[4; 8]); // starts at the end
        let d = write_nb(&mut c, &mut p, 2096, &[3; 8]); // overlaps the head
        for h in [a, b, e, d] {
            assert_eq!(c.wait(&mut p, h), None);
        }
        assert_eq!(p.sent.len(), 1, "four touching writes are one request");
        let got = p.contents();
        assert_eq!(got[2096..2104], [3; 8]);
        assert_eq!(got[2104..2108], [1; 4]);
        assert_eq!(got[2108..2124], [2; 16]);
        assert_eq!(got[2124..2132], [4; 8]);
        assert_eq!(got[2132], expected(2132, 1)[0]);
    }

    /// Sixteen homes of 16 KiB, so one home can answer a bulk read.
    fn bulk_port() -> FakePort {
        FakePort::new(16, 256 * 1024, |i| (i % 251) as u8)
    }

    #[test]
    fn a_handle_one_bulk_response_covers_is_that_responses_payload() {
        const K: usize = 1024;
        let (mut c, mut p) = (GmClient::new(32), bulk_port());
        let whole = read_nb(&mut c, &mut p, 16 * K as u64, 8 * K);
        c.fence(&mut p);
        // Two adjacent 4 KiB reads coalesce: each is a view of the one 8 KiB
        // response, not a copy of its half.
        let lo = read_nb(&mut c, &mut p, 32 * K as u64, 4 * K);
        let hi = read_nb(&mut c, &mut p, 36 * K as u64, 4 * K);
        c.fence(&mut p);
        assert_eq!(p.sent.len(), 2);
        let small = read_nb(&mut c, &mut p, 48 * K as u64, 4 * K - 1);
        let split = read_nb(&mut c, &mut p, 60 * K as u64, 8 * K);
        c.fence(&mut p);
        let id = |h: &GmHandle| match h.0 {
            HandleInner::Queued(id) => id,
            HandleInner::Ready(_) => panic!("a remote read is queued"),
        };
        for (h, shared) in [
            (&whole, true),
            (&lo, true),
            (&hi, true),
            (&small, false),
            (&split, false),
        ] {
            let got = c.completed[&id(h)].as_ref().expect("a read");
            assert_eq!(matches!(got, ReadBuf::Shared(_)), shared);
            if let ReadBuf::Owned(v) = got {
                assert_eq!(v.capacity(), v.len(), "allocated once, at its size");
            }
        }
        for (h, off, len) in [
            (whole, 16 * K, 8 * K),
            (lo, 32 * K, 4 * K),
            (hi, 36 * K, 4 * K),
            (small, 48 * K, 4 * K - 1),
            (split, 60 * K, 8 * K),
        ] {
            assert_eq!(c.wait(&mut p, h), Some(expected(off, len)));
        }
        // The blocking forms agree, own-node parts and all.
        let region = p.region;
        let mut out = vec![0u8; 40 * K];
        c.read_into(&mut p, region, 0, &mut out);
        assert_eq!(out, expected(0, 40 * K));
        assert_eq!(c.read(&mut p, region, 100, 8 * K), expected(100, 8 * K));
    }

    #[test]
    fn segments_landing_out_of_address_order_assemble_the_same_bytes() {
        let mut buf = ReadBuf::Owned(Vec::new());
        let all: Vec<u8> = (0..=255).collect();
        buf.place(256, 200, &all[200..256]); // leaves a gap behind it
        buf.place(256, 0, &all[..50]); // inside the gap
        buf.place(256, 50, &all[50..200]); // fills it exactly
        assert_eq!(buf.as_slice(), &all[..]);
        assert!(matches!(&buf, ReadBuf::Owned(v) if v.capacity() == 256));
    }

    #[test]
    fn a_write_between_two_reads_starts_fresh_segments_in_one_batch() {
        let (mut c, mut p) = (GmClient::new(32), port());
        let r1 = read_nb(&mut c, &mut p, 3072, 8);
        let w = write_nb(&mut c, &mut p, 3072, &[9; 8]);
        let r2 = read_nb(&mut c, &mut p, 3072, 8);
        assert_eq!(c.staged.len(), 3, "kinds differ: nothing merges");
        c.fence(&mut p);
        assert_eq!(p.sent.len(), 1);
        match &p.sent[0] {
            (NodeId(3), Message::GmBatchReq { ops, .. }) => assert!(matches!(
                ops[..],
                [GmOp::Read { .. }, GmOp::Write { .. }, GmOp::Read { .. }]
            )),
            other => panic!("expected one batch to home 3, got {other:?}"),
        }
        // Program order held: the first read saw the old bytes, the second
        // the written ones; results survive the fence.
        assert_eq!(c.wait(&mut p, r1), Some(expected(3072, 8)));
        assert_eq!(c.wait(&mut p, w), None);
        assert_eq!(c.wait(&mut p, r2), Some(vec![9; 8]));
        assert_eq!(p.samples("gm", "batch_ns"), 1);
        assert_eq!(p.samples("gm", "blocked_ns"), 1);
        let blocked = p.span_seqs(TraceSpanKind::GmBlock);
        assert_eq!(blocked, [0], "only the fence blocked");
    }

    #[test]
    fn a_blocking_read_past_the_window_backpressures_and_keeps_its_token() {
        // Window 2, three remote homes: the eager issue must drain a
        // completion of this very handle before its third request fits.
        let (mut c, mut p) = (GmClient::new(2), port());
        let region = p.region;
        assert_eq!(c.read(&mut p, region, 0, 4096), expected(0, 4096));
        assert_eq!(p.sent.len(), 3);
        assert_eq!(p.gauge("gm_inflight"), 2);
        assert_eq!(p.samples("gm", "remote_read_ns"), 3);
        assert_eq!(p.counter("gm_local_reads"), 1);
        assert_eq!(p.counter("gm_bytes_read"), 1024);
        assert_eq!((c.inflight(), p.unanswered()), (0, 0));
    }

    #[test]
    fn completions_in_any_cross_home_order_fill_the_right_bytes() {
        for seed in 0..32 {
            let (mut c, mut p) = (GmClient::new(32), port());
            p.seed = seed;
            let handles: Vec<_> = [(1000, 2000), (3000, 900), (10, 4000), (2047, 2)]
                .into_iter()
                .map(|(off, len)| (off, len, read_nb(&mut c, &mut p, off as u64, len)))
                .collect();
            for (off, len, h) in handles.into_iter().rev() {
                assert_eq!(c.wait(&mut p, h), Some(expected(off, len)), "seed {seed}");
            }
        }
    }

    #[test]
    fn a_duplicate_completion_is_ignored() {
        let (mut c, mut p) = (GmClient::new(32), port());
        let h = read_nb(&mut c, &mut p, 1024, 8);
        c.flush_staged(&mut p);
        let request = p.pending[1].pop_front().unwrap();
        let response = p.serve(request);
        assert_eq!(
            c.process_completion(&mut p, response.clone(), UNTRACED),
            Ok(())
        );
        assert_eq!(
            c.process_completion(&mut p, response, UNTRACED),
            Ok(()),
            "duplicate"
        );
        assert_eq!(p.samples("gm", "remote_read_ns"), 1);
        assert_eq!(c.wait(&mut p, h), Some(expected(1024, 8)));
        let closed = p.span_seqs(TraceSpanKind::GmReq);
        assert_eq!(closed, [0], "the duplicate completed nothing");
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        let (mut c, mut p) = (GmClient::new(32), port());
        let _r = read_nb(&mut c, &mut p, 1024, 8);
        c.flush_staged(&mut p);
        let _w = write_nb(&mut c, &mut p, 1024, &[1; 8]);
        c.flush_staged(&mut p);
        let _short = read_nb(&mut c, &mut p, 2048, 8);
        c.flush_staged(&mut p);
        let _b1 = read_nb(&mut c, &mut p, 3072, 8);
        let _b2 = read_nb(&mut c, &mut p, 3100, 8);
        c.flush_staged(&mut p);

        let wrong_kind =
            c.process_completion(&mut p, Message::GmWriteAck { req: ReqId(0) }, UNTRACED);
        let err = wrong_kind.unwrap_err();
        assert_eq!(err.req, 0);
        assert_eq!(err.detail, "expected a read response, got gm_write_ack");

        let data = vec![0u8; 8].into();
        let err = c
            .process_completion(
                &mut p,
                Message::GmReadResp {
                    req: ReqId(1),
                    data,
                },
                UNTRACED,
            )
            .unwrap_err();
        assert_eq!(
            err.detail,
            "expected a write or invalidation acknowledgement, got gm_read_resp"
        );

        let data = vec![0u8; 7].into();
        let err = c
            .process_completion(
                &mut p,
                Message::GmReadResp {
                    req: ReqId(2),
                    data,
                },
                UNTRACED,
            )
            .unwrap_err();
        assert_eq!(err.detail, "expected 8 bytes, got 7 bytes");

        let reads = vec![vec![0u8; 8].into()];
        let err = c
            .process_completion(
                &mut p,
                Message::GmBatchResp {
                    req: ReqId(3),
                    reads,
                },
                UNTRACED,
            )
            .unwrap_err();
        assert_eq!(err.req, 3);
        assert_eq!(
            err.to_string(),
            "GM request 3: expected a result per batched read, got 1 results"
        );
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn waiting_on_a_handle_wait_all_discarded_panics() {
        let (mut c, mut p) = (GmClient::new(32), port());
        let h = read_nb(&mut c, &mut p, 1024, 8);
        c.wait_all(&mut p);
        c.wait(&mut p, h);
    }

    #[test]
    fn own_node_and_replica_hit_issues_are_born_ready_and_send_nothing() {
        let (mut c, mut p) = (GmClient::new(32), port());
        p.caching = true;
        let region = p.region;
        // Own node: ready at issue, through the handle and the direct path.
        let h = read_nb(&mut c, &mut p, 100, 50);
        assert!(matches!(h.0, HandleInner::Ready(_)));
        assert_eq!(c.wait(&mut p, h), Some(expected(100, 50)));
        let mut out = [0u8; 50];
        c.read_into(&mut p, region, 100, &mut out);
        assert_eq!(out[..], expected(100, 50)[..]);
        let w = write_nb(&mut c, &mut p, 0, &[7; 4]);
        assert!(matches!(w.0, HandleInner::Ready(None)));
        assert!(p.sent.is_empty());
        assert_eq!(p.counter("gm_local_reads"), 2);
        assert_eq!(p.counter("gm_local_writes"), 1);
        assert_eq!(
            p.samples("gm", "remote_read_ns"),
            0,
            "own-node is no request"
        );

        // A block-covering remote read installs its block ...
        assert_eq!(c.read(&mut p, region, 1024, 600), expected(1024, 600));
        assert_eq!(p.sent.len(), 1);
        assert!(p.replicas.contains_key(&(region, 2)));
        // ... which then serves whole-block and sub-block reads alone.
        let sent = p.sent.len();
        let h = read_nb(&mut c, &mut p, 1024, 512);
        assert!(matches!(h.0, HandleInner::Ready(_)));
        assert_eq!(c.wait(&mut p, h), Some(expected(1024, 512)));
        assert_eq!(c.read(&mut p, region, 1100, 8), expected(1100, 8));
        assert_eq!(p.sent.len(), sent, "replica hits stay off the wire");
        assert_eq!(p.counter("cache_hits"), 2);
        // A write drops the writer's own replica of the range.
        c.write(&mut p, region, 1030, &[1; 4]);
        assert!(!p.replicas.contains_key(&(region, 2)));
        c.acquire(&mut p);
        assert_eq!(p.purges, 1);
    }

    #[test]
    fn an_install_an_invalidation_raced_is_skipped() {
        let (mut c, mut p) = (GmClient::new(32), port());
        p.caching = true;
        let h = read_nb(&mut c, &mut p, 1024, 512);
        c.flush_staged(&mut p);
        p.epoch += 1; // an invalidation lands while the fetch is out
        assert_eq!(c.wait(&mut p, h), Some(expected(1024, 512)));
        assert!(p.replicas.is_empty(), "the fetched bytes may be stale");
    }

    #[test]
    fn acks_returned_by_the_coherence_hook_gate_the_writing_handle() {
        let (mut c, mut p) = (GmClient::new(32), port());
        p.write_gates = 2;
        let w = write_nb(&mut c, &mut p, 8, &[5; 8]);
        assert!(matches!(w.0, HandleInner::Queued(_)));
        assert_eq!(c.inflight(), 2);
        assert_eq!(
            p.contents()[8..16],
            [5; 8],
            "the store write is not deferred"
        );
        assert!(p
            .sent
            .iter()
            .all(|(_, m)| matches!(m, Message::GmInvalidate { len: 8, .. })));
        assert_eq!(c.wait(&mut p, w), None);
        assert_eq!(
            p.samples("gm", "remote_write_ns"),
            0,
            "a gate is no request"
        );
        assert_eq!(p.counter("gm_request_msgs"), 0);
        assert_eq!(p.span_seqs(TraceSpanKind::GmBlock), [1]);
        assert_eq!(c.inflight(), 0);
    }

    /// [`port`] over a wire that loses messages: a request goes out at most
    /// three times, 10 ns apart at first.
    fn lossy_port() -> FakePort {
        let mut p = port();
        p.retry = Some(RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_nanos(10),
            max_delay: Duration::from_nanos(40),
        });
        p
    }

    #[test]
    fn a_lost_answer_is_retransmitted_under_the_original_context() {
        let (mut c, mut p) = (GmClient::new(32), lossy_port());
        p.drop_answer.insert(0);
        let region = p.region;
        assert_eq!(c.read(&mut p, region, 1024, 8), expected(1024, 8));
        assert_eq!(p.sent.len(), 2, "the request, then its retransmit");
        assert_eq!(p.sent[0], p.sent[1]);
        assert!(p.ctxs[0].is_some());
        assert_eq!(p.ctxs[0], p.ctxs[1], "the retransmit carries the context");
        assert_eq!(p.counter("gm_retries"), 1);
        assert_eq!(
            p.counter("gm_request_msgs"),
            1,
            "a retransmit is no request"
        );
        assert_eq!(p.samples("gm", "remote_read_ns"), 1);
        let spans = p.spans.finish(0);
        let of = |kind| spans.iter().filter(move |s| s.kind == kind);
        let reqs: Vec<_> = of(TraceSpanKind::GmReq).collect();
        assert_eq!((reqs.len(), reqs[0].retries), (1, 1));
        let backoffs: Vec<_> = of(TraceSpanKind::RetryBackoff).collect();
        assert_eq!(backoffs.len(), 1);
        assert_eq!(backoffs[0].parent, reqs[0].span);
    }

    #[test]
    fn a_home_that_never_answers_gets_every_attempt_then_the_deadline_trips() {
        let (mut c, mut p) = (GmClient::new(32), lossy_port());
        p.silent.push(NodeId(2));
        let region = p.region;
        let tripped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.write(&mut p, region, 2048, &[1; 8]);
        }));
        assert!(tripped.is_err(), "the fake's deadline hook panics");
        assert!(p.sent.iter().all(|(home, _)| *home == NodeId(2)));
        assert_eq!(p.sent.len(), 3, "max_attempts sends, no more");
        let lost = p.gave_up.expect("the deadline hook fired");
        assert_eq!(
            (lost.req, lost.home, lost.attempts),
            (ReqId(0), NodeId(2), 3)
        );
        assert_eq!((lost.kind, lost.ctx), (SpanKind::GmWrite, p.ctxs[0]));
        assert_eq!(p.counter("gm_retries"), 2);
    }

    #[test]
    fn a_late_duplicate_answer_is_ignored() {
        let (mut c, mut p) = (GmClient::new(32), lossy_port());
        p.dup_answer.insert(0);
        let region = p.region;
        assert_eq!(c.read(&mut p, region, 1024, 8), expected(1024, 8));
        // The copy of answer 0 arrives while request 1 is waited for.
        assert_eq!(c.read(&mut p, region, 2048, 8), expected(2048, 8));
        assert_eq!(p.done.len(), 3, "three answers handed over");
        assert_eq!(p.samples("gm", "remote_read_ns"), 2, "two applied");
        assert_eq!(p.counter("gm_retries"), 0);
    }

    #[test]
    fn a_wire_atomic_is_retransmitted_and_applied_once() {
        let (mut c, mut p) = (GmClient::new(32), lossy_port());
        p.drop_answer.insert(0);
        let region = p.region;
        let before = c.fetch_add(&mut p, region, 2048, 5);
        assert_eq!(c.fetch_add(&mut p, region, 2048, 1), before + 5);
        assert_eq!(p.counter("gm_retries"), 1);
        assert_eq!(p.samples("gm", "fetch_add_ns"), 2);
        assert_eq!(p.span_seqs(TraceSpanKind::GmBlock), [0, 1]);
    }
}
