//! `GmClient` — the requester side of global memory, defined once.
//!
//! This is the paper's "global-memory access request message creation
//! module" and "response message analysis module": it splits a byte range
//! into per-home segments, stages and coalesces them, batches them per
//! home, keeps the in-flight window, matches responses to requests and
//! fills the waiting handles (the rules are DESIGN.md §5d). It links
//! unchanged into both engines: nothing in here knows a transport, the
//! simulator or a thread, and the one clock it reads is the port's. It
//! counts and samples every requester-side series itself, once for both
//! engines. Everything engine-specific goes through one [`GmPort`], a
//! generic parameter, so every call is statically dispatched (§5m lists
//! what each engine does behind it).

use std::collections::HashMap;
use std::fmt;

use dse_kernel::cache::{blocks_inside, CACHE_BLOCK};
use dse_kernel::{GlobalStore, GmCount, GmError, PeCounters};
use dse_msg::{
    is_bulk, Bytes, GlobalPid, GmOp, Message, NodeId, RegionId, ReqId, ReqIdGen, TraceCtx,
};
use dse_obs::SpanKind;
use dse_platform::Work;

use crate::req_spans::{Arrival, RequesterSpans};

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

/// Everything engine-specific the Parallel API library needs: the
/// [`GmClient`] and the [`ApiCtx`](crate::ApiCtx) above it.
///
/// The two implementors are the simulator's port (virtual-time charging,
/// the network model) and the live engine's (transport, retransmission);
/// each hands over its own clock and its PE's series, and the library
/// records every count, sample and span against them. DESIGN.md §5m says,
/// method by method, what each engine does and why the two bodies are not
/// one.
pub trait GmPort {
    /// The node this client runs on.
    fn node(&self) -> NodeId;
    /// The home-partitioned store: address arithmetic and own-node reads.
    fn store(&self) -> &GlobalStore;
    /// Whether the read-replica cache is on for this run.
    fn caching(&self) -> bool;
    /// How many requests this process may have on the wire at once.
    fn gm_window(&self) -> usize;
    /// This process's causal spans.
    fn spans(&mut self) -> &mut RequesterSpans;
    /// The engine's clock, in nanoseconds.
    fn now_ns(&self) -> u64;
    /// This PE's series in the run's registry.
    fn counters(&self) -> PeCounters<'_>;

    /// Charge an own-node (linked-library) access touching `bytes`.
    fn charge_local(&mut self, bytes: usize);

    /// Put request `req` for `home` on the wire (the client counts it).
    fn send_request(&mut self, home: NodeId, req: ReqId, msg: Message);
    /// Block for the next message `pred` accepts: serve it from the stash
    /// of earlier arrivals if one is there, else receive, stashing what
    /// `pred` rejects for its own waiter.
    fn await_msg(&mut self, pred: impl FnMut(&Message) -> bool) -> (Message, Arrival);
    /// Request `req` was answered and its result applied.
    fn request_done(&mut self, req: ReqId, answer: Arrival);
    /// A peer's response did not fit its request: fail the run.
    fn protocol_error(&mut self, err: GmProtocolError) -> !;
    /// The application's `what` (an entry point's name) addressed global
    /// memory wrongly: fail the calling rank, before anything is sent.
    fn bad_access(&self, what: &str, err: GmError) -> !;

    /// This node's replica of `block`, if it holds one.
    fn replica_get(&mut self, region: RegionId, block: u64) -> Option<Vec<u8>>;
    /// Install the blocks request `req` fetched (block id, block bytes).
    fn replica_install<'d>(
        &mut self,
        req: ReqId,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    );
    /// Drop this node's replicas of every block the range touches.
    fn replica_drop(&mut self, region: RegionId, offset: u64, len: usize);
    /// Acquire point: drop every replica this node holds (a no-op outside
    /// the release-consistency mode).
    fn replica_purge(&mut self);

    /// Apply a write to this node's own partition, with the engine's
    /// coherence round around it. Returns the ids of the requests whose
    /// acknowledgements gate the writing handle (none when the round
    /// already completed inline). The client counts the write.
    fn own_node_write(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<ReqId>, GmError>;
    /// Fetch-and-add on a cell of this node's own partition, with the
    /// engine's coherence round around it, complete on return. The context
    /// counts the atomic.
    fn own_node_fetch_add(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        delta: i64,
    ) -> Result<i64, GmError>;
    /// Put the atomic `msg` for `home` on the wire: traced, answered and
    /// reported done like every request, counted the engine's own way.
    fn send_atomic(&mut self, home: NodeId, req: ReqId, msg: Message);

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

/// An issued request awaiting its response, keyed by correlation id.
/// A write is remembered by the handles it completes.
enum InflightReq {
    Read(ReadCtl),
    Write(Vec<u64>),
    Batch(Vec<InflightOp>),
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
        }
    }
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
    /// Requests on the wire, by correlation id, with the time each was
    /// sent (none for the acknowledgements an own-node write waits for).
    inflight: HashMap<u64, (InflightReq, Option<u64>)>,
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
        }
    }

    /// The process's request-id generator (the engine's own requests —
    /// atomics, locks, invalidations — draw from the same sequence).
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
        if !self.completed.contains_key(&id) {
            let since = port.now_ns();
            while !self.completed.contains_key(&id) {
                self.drain_one(port);
            }
            blocked(port, since, id);
        }
        self.completed.remove(&id).unwrap()
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
        if self.inflight.is_empty() {
            return;
        }
        let since = port.now_ns();
        while !self.inflight.is_empty() {
            self.drain_one(port);
        }
        blocked(port, since, 0);
    }

    /// Release-consistency acquire: fence, then drop this node's replicas.
    pub fn acquire<P: GmPort>(&mut self, port: &mut P) {
        self.fence(port);
        port.replica_purge();
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
                let gates = port
                    .own_node_write(&mut self.reqs, region, off, chunk)
                    .unwrap_or_else(|e| port.bad_access("gm_write", e));
                port.counters().count(GmCount::LocalWrite(rlen));
                for req in gates {
                    self.owe_segment(handle);
                    let gate = InflightReq::Write(vec![handle]);
                    self.inflight.insert(req.0, (gate, None));
                }
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
        self.dispatch(port, home, req, msg, ctl);
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
        let ctl = InflightReq::Batch(ctls);
        self.dispatch(port, home, req, msg, ctl);
    }

    /// Put one request on the wire and enter it in the in-flight window.
    fn dispatch<P: GmPort>(
        &mut self,
        port: &mut P,
        home: NodeId,
        req: ReqId,
        msg: Message,
        ctl: InflightReq,
    ) {
        let sent = port.now_ns();
        port.send_request(home, req, msg);
        let inflight = self.inflight.len() as u64 + 1;
        let counters = port.counters();
        counters.count(GmCount::RequestMsg);
        counters.gauge_max("gm_inflight", inflight);
        self.inflight.insert(req.0, (ctl, Some(sent)));
    }

    /// Block until another request fits in the pipelining window.
    fn window_backpressure<P: GmPort>(&mut self, port: &mut P) {
        if self.inflight.len() < self.window {
            return;
        }
        let since = port.now_ns();
        while self.inflight.len() >= self.window {
            self.drain_one(port);
        }
        blocked(port, since, 0);
    }

    // ----- completion ----------------------------------------------------------

    /// Consume exactly one GM completion.
    fn drain_one<P: GmPort>(&mut self, port: &mut P) {
        let (msg, answer) = port.await_msg(is_completion);
        if let Err(e) = self.process_completion(port, msg, answer) {
            port.protocol_error(e);
        }
    }

    /// Apply one GM completion (`GmReadResp`, `GmWriteAck`, `GmBatchResp`,
    /// `GmInvalidateAck`) to the request it answers.
    ///
    /// A response whose correlation id is not in flight is a duplicate
    /// delivery (fault injection, or a retransmit crossing the original
    /// response) and is ignored. A response of the wrong kind, a payload of
    /// the wrong length or a batch response short of read results is an
    /// error: those are bytes a peer sent, not a bug in this process.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is not one of the four completion messages.
    pub fn process_completion<P: GmPort>(
        &mut self,
        port: &mut P,
        msg: Message,
        answer: Arrival,
    ) -> Result<(), GmProtocolError> {
        let (req, kind) = match &msg {
            Message::GmReadResp { req, .. } => (*req, SpanKind::GmRead),
            Message::GmWriteAck { req } | Message::GmInvalidateAck { req } => {
                (*req, SpanKind::GmWrite)
            }
            Message::GmBatchResp { req, .. } => (*req, SpanKind::GmBatch),
            other => panic!("{} is not a GM completion", other.label()),
        };
        let Some((ctl, sent)) = self.inflight.remove(&req.0) else {
            return Ok(());
        };
        match (ctl, msg) {
            (InflightReq::Read(c), Message::GmReadResp { data, .. }) => {
                self.complete_read(port, req, c, data)?
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
                            self.complete_read(port, req, c, data)?
                        }
                        InflightOp::Write(c) => self.complete_write(c),
                    }
                }
            }
            (ctl, other) => return Err(GmProtocolError::new(req, ctl.expects(), other.label())),
        }
        if let Some(sent) = sent {
            sample(port, kind, sent);
        }
        port.request_done(req, answer);
        Ok(())
    }

    /// Distribute one completed read request's bytes to every destination
    /// handle, installing any cache blocks the request fetched. A handle
    /// the response covers whole keeps a view of a bulk payload instead of
    /// copying it; anything smaller is copied, so a few bytes never keep a
    /// large response alive.
    fn complete_read<P: GmPort>(
        &mut self,
        port: &mut P,
        req: ReqId,
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
            port.replica_install(req, ctl.region, blocks);
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

/// The caller blocked on GM completions since `since` (`seq` is the handle
/// or the atomic waited on, 0 for a fence or window backpressure): a
/// `gm/blocked_ns` sample, and its span.
pub(crate) fn blocked<P: GmPort>(port: &mut P, since: u64, seq: u64) {
    let now = port.now_ns();
    port.counters()
        .record("gm", "blocked_ns", now.saturating_sub(since));
    port.spans().blocked(since, now, seq);
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
        assert_eq!(p.done.len(), 1, "the duplicate completed nothing");
        assert_eq!(p.samples("gm", "remote_read_ns"), 1);
        assert_eq!(c.wait(&mut p, h), Some(expected(1024, 8)));
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
        assert_eq!(c.wait(&mut p, w), None);
        assert_eq!(
            p.samples("gm", "remote_write_ns"),
            0,
            "a gate is no request"
        );
        assert_eq!(p.span_seqs(TraceSpanKind::GmBlock), [1]);
        assert_eq!(c.inflight(), 0);
    }
}
