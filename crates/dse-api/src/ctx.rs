//! `DseCtx` — the parallel application programming interface.
//!
//! Every DSE process body receives a `DseCtx`. Its methods are the paper's
//! Parallel API library: global-memory access (which transparently becomes
//! the own-node fast path or request/response messages to home-node
//! kernels), barriers and locks (coordinated by node 0), point-to-point
//! user messages, and computation charging.
//!
//! Global memory is the shared [`GmClient`]; this file is its simulator
//! driver: [`SimPort`] charges virtual time, sends through the network
//! model, times each request for the latency histograms and stamps the
//! shared [`RequesterSpans`] with the virtual clock, and the
//! synchronization primitives wait on the same port.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dse_kernel::kernel::{count as count_kernel, SimRequester};
use dse_kernel::netpath::{charge_local, charge_recv, send_msg};
use dse_kernel::protocol::{barrier_enter, lock_acquire, lock_release, sharers_to_invalidate};
use dse_kernel::{
    ClusterShared, Distribution, GlobalStore, GmMode, HomeSpans, Party, SimKernelPort, SimMsg,
};
use dse_msg::{GlobalPid, Message, NodeId, RegionId, ReqId, ReqIdGen, TraceCtx};
use dse_obs::{MetricKey, SpanKind, TraceRole, TraceSpanKind};
use dse_platform::Work;
use dse_sim::{ProcCtx, ProcId, SimDuration, SimTime};

use crate::gm_client::{GmClient, GmCount, GmHandle, GmPort, GmProtocolError};
use crate::req_spans::{Arrival, RequesterSpans, SentReq};

/// Barrier ids above this are reserved for the auto-sequenced
/// [`DseCtx::barrier`]; named barriers must stay below.
pub const AUTO_BARRIER_BASE: u32 = 0x4000_0000;

/// A received user message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserMsg {
    /// Sending process.
    pub from: GlobalPid,
    /// Application tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<u8>,
}

/// A GM request on the wire, as the process that sent it remembers it.
struct OpenReq {
    /// When it was sent: its latency sample is measured from here.
    open_ns: u64,
    /// Its root span (traced runs).
    sent: Option<SentReq>,
}

/// The latency series (`subsystem`, `name`) an exchange of `kind` samples.
fn series_of(kind: SpanKind) -> (&'static str, &'static str) {
    match kind {
        SpanKind::GmRead => ("gm", "remote_read_ns"),
        SpanKind::GmWrite => ("gm", "remote_write_ns"),
        SpanKind::GmBatch => ("gm", "batch_ns"),
        SpanKind::GmFetchAdd => ("gm", "fetch_add_ns"),
        SpanKind::Barrier => ("sync", "barrier_wait_ns"),
        SpanKind::Lock => ("sync", "lock_wait_ns"),
    }
}

/// The simulator behind [`GmPort`]: the process's simulation context, the
/// cluster's shared state, the messages that arrived while the process was
/// waiting for something else, the requests it has on the wire, and its
/// causal spans.
struct SimPort<'a> {
    ctx: &'a mut ProcCtx<SimMsg>,
    shared: Arc<ClusterShared>,
    node: NodeId,
    stash: VecDeque<(Message, Arrival)>,
    /// Unanswered GM requests, by request id.
    open: HashMap<u64, OpenReq>,
    spans: RequesterSpans,
    /// Spans of the kernel duty this process does itself, in own-node calls
    /// into the linked library.
    home_spans: HomeSpans,
}

impl SimPort<'_> {
    fn pe(&self) -> u32 {
        self.node.0 as u32
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now().as_nanos()
    }

    /// This process acting as its node's kernel: an own-node call into the
    /// linked library, carrying the trace context `call`, runs the kernel's
    /// own coordination functions.
    fn kernel(&mut self, call: Option<TraceCtx>) -> SimKernelPort<'_> {
        let (ctx, spans) = (&mut *self.ctx, &mut self.home_spans);
        SimKernelPort::new(ctx, &self.shared, self.node, spans, call)
    }

    /// Send `msg` to simulation process `to_proc` on `to_node`, replies
    /// addressed to this process.
    fn send(&mut self, to_node: NodeId, to_proc: ProcId, msg: &Message, trace: Option<TraceCtx>) {
        let (me, from) = (self.ctx.id(), self.node);
        send_msg(
            self.ctx,
            &self.shared,
            from,
            to_node,
            to_proc,
            me,
            msg,
            trace,
        );
    }

    /// Send `msg` to `node`'s kernel.
    fn send_kernel(&mut self, node: NodeId, msg: &Message, trace: Option<TraceCtx>) {
        let kproc = self.shared.kernel_of(node);
        self.send(node, kproc, msg, trace);
    }

    /// Receive one runtime message, charging the receive-side software cost.
    fn recv_runtime(&mut self) -> (Message, Arrival) {
        let env = self
            .ctx
            .recv()
            .expect("simulation shut down while a process was waiting");
        let at_ns = env.delivered_at.as_nanos();
        let sm = env.msg;
        let arrival = Arrival {
            ctx: sm.ctx,
            at_ns,
            wire_bytes: sm.bytes.len() as u64,
        };
        charge_recv(self.ctx, &self.shared, self.node, sm.bytes.len());
        let msg = Message::decode(&sm.bytes).expect("undecodable runtime message");
        (msg, arrival)
    }

    /// Put GM request `req` for `home` on the wire and remember it until it
    /// is answered (the stall watchdog, where one runs, is told too).
    fn send_open(&mut self, home: NodeId, req: ReqId, msg: &Message, kind: SpanKind) {
        let open_ns = self.now_ns();
        let sent = self.spans.request_sent(open_ns, home.0 as u32, req.0);
        if let Some(inflight) = &self.shared.inflight {
            inflight.open(kind, self.pe(), req.0, open_ns);
        }
        self.send_kernel(home, msg, sent.map(|s| s.ctx));
        self.open.insert(req.0, OpenReq { open_ns, sent });
    }

    /// An exchange of `kind` begun at `open_ns` completed now: record its
    /// latency in its series and note it in the flight recorder.
    fn sample(&self, kind: SpanKind, seq: u64, open_ns: u64) {
        let (pe, now) = (self.pe(), self.now_ns());
        let (subsystem, name) = series_of(kind);
        self.shared
            .metrics
            .record(MetricKey::pe(subsystem, name, pe), now - open_ns);
        self.shared.flight.span_close(kind, pe, seq, open_ns, now);
    }

    /// One round trip to the coordinator on node 0 — `enter` on the wire,
    /// or `own_node` when this *is* node 0, which tells whether the call
    /// was answered on the spot — then block until `granted` accepts the
    /// answer. Recorded as a `wait` span (a barrier's or a lock's, `seq` the
    /// barrier id or the lock request) and a latency sample; the answer is
    /// an acquire point.
    fn coordinate(
        &mut self,
        enter: Message,
        own_node: impl FnOnce(&mut SimKernelPort<'_>, SimRequester) -> bool,
        granted: impl FnMut(&Message) -> bool,
        wait: TraceSpanKind,
        seq: u64,
    ) {
        let kind = match wait {
            TraceSpanKind::BarrierWait => SpanKind::Barrier,
            _ => SpanKind::Lock,
        };
        let t0 = self.now_ns();
        let (wait_span, call) = self.spans.wait_begin();
        let mut answered = false;
        if self.node == NodeId(0) {
            // Own-node path into the coordination state.
            self.charge_local(16);
            let proc = self.ctx.id();
            let mut kernel = self.kernel(call);
            let from = kernel.caller();
            answered = own_node(&mut kernel, SimRequester { proc, from });
        } else {
            self.send_kernel(NodeId(0), &enter, call);
        }
        if !answered {
            self.await_msg(granted);
        }
        self.sample(kind, seq, t0);
        self.spans.wait_end(self.now_ns(), wait, wait_span, t0, seq);
        self.replica_purge();
    }

    /// Coherence action before an own-node store mutation (no-op with the
    /// cache off): the home's own directory step, then — the local-write
    /// half of write-invalidate — a `GmInvalidate` to every sharer it
    /// names, and a wait for their acknowledgements.
    fn coherent_local_write(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        len: usize,
    ) {
        if !self.shared.config.gm_cache {
            return;
        }
        let rc = self.shared.config.gm_mode == GmMode::ReleaseConsistency;
        let mut txn = ReqId(0);
        if !rc {
            txn = reqs.next();
            self.charge_local(0);
        }
        let (shared, node) = (&*self.shared, self.node);
        let holders = sharers_to_invalidate(&shared.cache, rc, (region, offset, len), node, |c| {
            count_kernel(shared, node, c)
        });
        let inv = Message::GmInvalidate {
            req: txn,
            region,
            offset,
            len: len as u32,
        };
        for &h in &holders {
            self.send_kernel(h, &inv, None);
        }
        for _ in &holders {
            self.await_msg(|m| matches!(m, Message::GmInvalidateAck { req } if *req == txn));
        }
    }
}

impl GmPort for SimPort<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn store(&self) -> &GlobalStore {
        &self.shared.store
    }

    fn caching(&self) -> bool {
        self.shared.config.gm_cache
    }

    fn charge_local(&mut self, bytes: usize) {
        charge_local(self.ctx, &self.shared, self.node, bytes);
    }

    fn count(&mut self, what: GmCount) {
        self.shared.stats.update(self.node, |s| match what {
            GmCount::LocalRead(bytes) => {
                s.gm_local_reads += 1;
                s.gm_bytes_read += bytes as u64;
            }
            GmCount::ReplicaHit => {
                s.cache_hits += 1;
                s.dir_hits += 1;
            }
            GmCount::ReplicaMiss => {
                s.cache_misses += 1;
                s.dir_misses += 1;
            }
            GmCount::Coalesced => s.gm_coalesced += 1,
        });
    }

    fn send_request(
        &mut self,
        home: NodeId,
        req: ReqId,
        msg: Message,
        kind: SpanKind,
        inflight: usize,
    ) {
        self.send_open(home, req, &msg, kind);
        self.shared
            .stats
            .update(self.node, |s| s.gm_request_msgs += 1);
        let machine = self.shared.machine_of(self.node) as u32;
        self.shared.metrics.gauge_max(
            MetricKey::pe("kernel", "gm_inflight", self.pe()).on_machine(machine),
            inflight as u64,
        );
    }

    fn await_msg(&mut self, mut pred: impl FnMut(&Message) -> bool) -> (Message, Arrival) {
        if let Some(idx) = self.stash.iter().position(|(m, _)| pred(m)) {
            return self.stash.remove(idx).unwrap();
        }
        loop {
            let got = self.recv_runtime();
            if pred(&got.0) {
                return got;
            }
            self.stash.push_back(got);
        }
    }

    /// Its latency sample, its flight-recorder line, and its spans.
    fn request_done(&mut self, req: ReqId, kind: SpanKind, answer: Arrival) {
        let Some(open) = self.open.remove(&req.0) else {
            return;
        };
        if let Some(inflight) = &self.shared.inflight {
            inflight.close(kind, self.pe(), req.0);
        }
        self.sample(kind, req.0, open.open_ns);
        if let Some(sent) = open.sent {
            self.spans.request_done(self.now_ns(), sent, 0, answer);
        }
    }

    fn stamp(&self) -> u64 {
        self.now_ns()
    }

    /// A span only: the simulator keeps no `gm/blocked_ns` series (the
    /// telemetry plane ships every series, so one more would move virtual
    /// time on watched runs).
    fn blocked(&mut self, since: u64, seq: u64) {
        self.spans.blocked(since, self.now_ns(), seq);
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        // Every peer is this simulator's own kernel: a bad response is a
        // simulator bug, not input.
        panic!("rank {}: {err}", self.node.0)
    }

    fn replica_get(&mut self, region: RegionId, block: u64) -> Option<Vec<u8>> {
        self.shared.cache.get(self.node, region, block)
    }

    fn replica_install<'d>(
        &mut self,
        _req: ReqId,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    ) {
        for (b, data) in blocks {
            self.shared
                .cache
                .install(self.node, region, b, data.to_vec());
        }
    }

    fn replica_drop(&mut self, region: RegionId, offset: u64, len: usize) {
        self.shared.cache.drop_range(self.node, region, offset, len);
    }

    fn replica_purge(&mut self) {
        if self.shared.config.gm_cache && self.shared.config.gm_mode == GmMode::ReleaseConsistency {
            self.charge_local(0);
            self.shared.cache.purge_node(self.node);
            self.shared.stats.update(self.node, |s| s.rc_acquires += 1);
        }
    }

    /// The invalidation round runs inline, *before* the store write, so no
    /// acknowledgement is left to gate the handle.
    fn own_node_write(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Vec<ReqId> {
        self.coherent_local_write(reqs, region, offset, data.len());
        self.charge_local(data.len());
        self.shared.store.write(region, offset, data).unwrap();
        self.shared.stats.update(self.node, |s| {
            s.gm_local_writes += 1;
            s.gm_bytes_written += data.len() as u64;
        });
        Vec::new()
    }
}

/// The per-process API context handed to application bodies.
pub struct DseCtx<'a> {
    port: SimPort<'a>,
    /// The split-phase global-memory machinery.
    gm: GmClient,
    rank: u32,
    pid: GlobalPid,
    barrier_seq: u32,
    alloc_seq: usize,
    /// Reusable scratch for element-wise `GmArray` accessors.
    scratch: Vec<u8>,
}

impl<'a> DseCtx<'a> {
    /// Wrap a simulation process context. Called by the program harness.
    pub fn new(
        ctx: &'a mut ProcCtx<SimMsg>,
        shared: Arc<ClusterShared>,
        rank: u32,
        pid: GlobalPid,
    ) -> DseCtx<'a> {
        let gm = GmClient::new(shared.config.gm_window);
        let (pe, tracing) = (pid.node().0 as u32, shared.config.tracing);
        let spans = RequesterSpans::new(pe, tracing, ctx.now().as_nanos());
        DseCtx {
            port: SimPort {
                ctx,
                shared,
                node: pid.node(),
                stash: VecDeque::new(),
                open: HashMap::new(),
                spans,
                home_spans: HomeSpans::new(pe, tracing),
            },
            gm,
            rank,
            pid,
            barrier_seq: 0,
            alloc_seq: 0,
            scratch: Vec::new(),
        }
    }

    /// This process's rank in `0..nprocs`.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of parallel processes in the program.
    pub fn nprocs(&self) -> usize {
        self.port.shared.nnodes()
    }

    /// This process's cluster-wide pid.
    pub fn pid(&self) -> GlobalPid {
        self.pid
    }

    /// The node (processor element) this process runs on.
    pub fn node(&self) -> NodeId {
        self.port.node
    }

    /// The pid of another rank (node == rank, local slot 1, in the standard
    /// harness placement).
    pub fn pid_of_rank(&self, rank: u32) -> GlobalPid {
        GlobalPid::new(NodeId(rank as u16), 1)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.port.ctx.now()
    }

    /// Shared cluster state (for tooling layers such as the SSI crate).
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.port.shared
    }

    /// True if someone requested this process terminate (cooperative, like
    /// a UNIX signal checked at safe points).
    pub fn termination_requested(&self) -> bool {
        self.port.shared.is_terminated(self.pid)
    }

    /// Charge `work` of computation to this node's CPU (FCFS with every
    /// co-resident kernel and process on the same physical machine).
    ///
    /// The charge is sliced at the async-I/O preemption quantum: a SIGIO
    /// for an arriving remote request interrupts application computation
    /// almost immediately on a real UNIX, so long compute bursts must not
    /// block the co-resident kernel's short service times in the model.
    pub fn compute(&mut self, work: Work) {
        const SLICE: SimDuration = SimDuration::from_millis(5);
        let node = self.port.node;
        let mut remaining = self.port.shared.cost(node).compute(work);
        let cpu = self.port.shared.cpu_of(node);
        while remaining > SLICE {
            self.port.ctx.use_resource(cpu, SLICE);
            remaining = remaining - SLICE;
        }
        self.port.ctx.use_resource(cpu, remaining);
    }

    // ----- global memory ---------------------------------------------------

    /// Collectively allocate a zero-initialized global-memory region. Every
    /// rank must call with identical arguments and in the same order.
    pub fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        self.gm_fence();
        let seq = self.alloc_seq;
        self.alloc_seq += 1;
        self.port.charge_local(0);
        let shared = &self.port.shared;
        shared.collective_alloc(seq, len, || shared.store.alloc(len, dist))
    }

    /// Read `len` bytes at `offset` from a region. Own-node ranges take the
    /// linked-library fast path; remote ranges become pipelined
    /// request/response exchanges with the home kernels.
    ///
    /// Implemented as issue-plus-wait over the split-phase machinery (see
    /// [`DseCtx::gm_read_nb`]), so the blocking and non-blocking paths share
    /// one code path and produce identical bytes.
    pub fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        self.gm.read(&mut self.port, region, offset, len)
    }

    /// Read `out.len()` bytes at `offset` straight into a caller-provided
    /// buffer. An entirely own-node range copies without any intermediate
    /// allocation; anything else falls back to [`DseCtx::gm_read`].
    pub fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        self.gm.read_into(&mut self.port, region, offset, out)
    }

    /// Begin a split-phase read: returns immediately with a [`GmHandle`];
    /// redeem it with [`DseCtx::gm_wait`]. Remote segments are *staged*, and
    /// adjacent or overlapping stages to the same home coalesce into one
    /// request; staged work reaches the wire when the pipelining window
    /// fills, a handle is waited on, or a synchronization point fences.
    pub fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        self.gm.read_nb(&mut self.port, region, offset, len)
    }

    /// Take the context's reusable scratch buffer (element accessors use
    /// this to avoid a per-call allocation). Return it with
    /// [`DseCtx::put_scratch`].
    pub fn take_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch)
    }

    /// Return the scratch buffer taken with [`DseCtx::take_scratch`].
    pub fn put_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Write bytes at `offset` into a region (pipelined per home node).
    ///
    /// Like [`DseCtx::gm_read`], this is issue-plus-wait over the
    /// split-phase machinery shared with [`DseCtx::gm_write_nb`].
    pub fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        self.gm.write(&mut self.port, region, offset, data)
    }

    /// Begin a split-phase write: returns immediately with a [`GmHandle`].
    /// Staged writes to touching or overlapping ranges of the same home
    /// coalesce into one request (later bytes win on overlap), and staged
    /// operations bound for the same home travel as one batched message.
    pub fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.gm.write_nb(&mut self.port, region, offset, data)
    }

    /// Redeem a split-phase handle: flushes any staged work, then drains
    /// responses until this handle's operation completes. Reads return
    /// `Some(bytes)`, writes `None`.
    ///
    /// # Panics
    ///
    /// Panics on a handle whose result was already discarded by
    /// [`DseCtx::gm_wait_all`].
    pub fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        self.gm.wait(&mut self.port, handle)
    }

    /// Complete every outstanding split-phase operation and *discard* any
    /// results not yet claimed with [`DseCtx::gm_wait`] (a later `gm_wait`
    /// on such a handle panics). Use it as a fence after a burst of
    /// `gm_write_nb` calls whose handles are not individually interesting.
    pub fn gm_wait_all(&mut self) {
        self.gm.wait_all(&mut self.port)
    }

    /// Release-consistency *release*: flush and complete all split-phase GM
    /// work so this rank's prior writes are globally visible (home memory
    /// is write-through, so a fence is exactly a release). Barriers,
    /// `unlock`, atomics and sends already imply it; call it directly only
    /// around hand-rolled synchronization.
    pub fn gm_release(&mut self) {
        self.gm_fence();
    }

    /// Release-consistency *acquire*: fence, then — under the RC cache mode
    /// — drop this rank's read replicas and release their directory leases,
    /// so subsequent reads refetch anything written before the matching
    /// release. Barriers and `lock` already imply it. Under
    /// write-invalidate (or with the cache off) this is just a fence.
    pub fn gm_acquire(&mut self) {
        self.gm.acquire(&mut self.port)
    }

    /// Complete all staged and in-flight split-phase work, keeping redeemed
    /// results claimable. Every blocking synchronization or communication
    /// primitive fences first, so split-phase operations are always ordered
    /// before barriers, locks, atomics and sends; with nothing outstanding
    /// this is free.
    fn gm_fence(&mut self) {
        self.gm.fence(&mut self.port)
    }

    /// Atomic fetch-and-add on an aligned 8-byte cell; returns the previous
    /// value. The cell's home kernel serializes concurrent updates.
    pub fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        self.gm_fence();
        let port = &mut self.port;
        let home = port
            .shared
            .store
            .home_of(region, offset)
            .unwrap_or_else(|e| panic!("rank {}: fetch_add failed: {e}", self.rank));
        if home == port.node {
            if port.caching() {
                port.replica_drop(region, offset, 8);
            }
            port.coherent_local_write(self.gm.req_ids(), region, offset, 8);
            port.charge_local(8);
            port.shared.stats.update(port.node, |s| s.fetch_adds += 1);
            return port.shared.store.fetch_add(region, offset, delta).unwrap();
        }
        let req = self.gm.req_ids().next();
        let msg = Message::GmFetchAddReq {
            req,
            region,
            offset,
            delta,
        };
        port.send_open(home, req, &msg, SpanKind::GmFetchAdd);
        let since = port.stamp();
        let (resp, answer) =
            port.await_msg(|m| matches!(m, Message::GmFetchAddResp { req: r, .. } if *r == req));
        port.request_done(req, SpanKind::GmFetchAdd, answer);
        port.blocked(since, req.0);
        match resp {
            Message::GmFetchAddResp { prev, .. } => prev,
            _ => unreachable!(),
        }
    }

    // ----- synchronization -------------------------------------------------

    /// Synchronize all ranks. Every rank must call `barrier` the same number
    /// of times in the same order (auto-sequenced ids).
    pub fn barrier(&mut self) {
        let id = AUTO_BARRIER_BASE + self.barrier_seq;
        self.barrier_seq += 1;
        self.barrier_at(id);
    }

    /// Synchronize on an explicitly named barrier (`id < AUTO_BARRIER_BASE`).
    pub fn barrier_named(&mut self, id: u32) {
        assert!(id < AUTO_BARRIER_BASE, "named barrier id too large");
        self.barrier_at(id);
    }

    fn barrier_at(&mut self, id: u32) {
        self.gm_fence();
        let enter = Message::BarrierEnter {
            barrier: id,
            pid: self.pid,
        };
        let (pid, node) = (self.pid, self.port.node);
        // Completing a barrier is an acquire point. The own-node caller
        // that completes the round proceeds straight through the call.
        self.port.coordinate(
            enter,
            |kernel, reply_to| {
                let party = Party {
                    pid,
                    node,
                    reply_to,
                    req: ReqId(0),
                };
                barrier_enter(kernel, id, party).is_some()
            },
            |m| matches!(m, Message::BarrierRelease { barrier, .. } if *barrier == id),
            TraceSpanKind::BarrierWait,
            id as u64,
        );
    }

    /// Acquire a cluster-wide lock (FIFO).
    pub fn lock(&mut self, id: u32) {
        self.gm_fence();
        let req = self.gm.req_ids().next();
        let enter = Message::LockReq {
            req,
            lock: id,
            pid: self.pid,
        };
        let (pid, node) = (self.pid, self.port.node);
        // A lock grant is an acquire point: the holder must see everything
        // released by the previous holder's unlock. The grant is a message
        // even to an own-node caller.
        self.port.coordinate(
            enter,
            |kernel, reply_to| {
                let party = Party {
                    pid,
                    node,
                    reply_to,
                    req,
                };
                lock_acquire(kernel, id, party);
                false
            },
            |m| matches!(m, Message::LockGrant { req: r, .. } if *r == req),
            TraceSpanKind::LockWait,
            req.0,
        );
    }

    /// Release a cluster-wide lock this process holds.
    pub fn unlock(&mut self, id: u32) {
        self.gm_fence();
        let port = &mut self.port;
        if port.node == NodeId(0) {
            port.charge_local(16);
            lock_release(&mut port.kernel(None), id, self.pid);
        } else {
            let msg = Message::UnlockReq {
                lock: id,
                pid: self.pid,
            };
            port.send_kernel(NodeId(0), &msg, None);
        }
    }

    /// Request cooperative termination of another process: its
    /// [`DseCtx::termination_requested`] flag turns on once its node's
    /// kernel processes the request (checked at the target's convenience,
    /// like a UNIX signal). Blocks until the kernel acknowledges.
    pub fn terminate(&mut self, pid: GlobalPid) {
        self.gm_fence();
        let req = self.gm.req_ids().next();
        self.port
            .send_kernel(pid.node(), &Message::TerminateReq { req, pid }, None);
        self.port
            .await_msg(|m| matches!(m, Message::TerminateAck { req: r } if *r == req));
    }

    // ----- point-to-point messages ------------------------------------------

    /// Send tagged bytes to another rank's process.
    pub fn send_to(&mut self, to: GlobalPid, tag: u32, data: Vec<u8>) {
        self.gm_fence();
        let dest =
            self.port.shared.app_proc(to).unwrap_or_else(|| {
                panic!("send_to: unknown pid {to} (synchronize before sending)")
            });
        let msg = Message::UserData {
            from: self.pid,
            tag,
            data,
        };
        self.port.send(to.node(), dest, &msg, None);
    }

    /// Receive the next user message, optionally filtered by tag.
    pub fn recv_user(&mut self, want_tag: Option<u32>) -> UserMsg {
        let (msg, _) = self.port.await_msg(|m| match m {
            Message::UserData { tag, .. } => want_tag.is_none_or(|t| t == *tag),
            _ => false,
        });
        match msg {
            Message::UserData { from, tag, data } => UserMsg { from, tag, data },
            _ => unreachable!(),
        }
    }

    // ----- internals --------------------------------------------------------

    /// Called by the harness after the body returns: notify the launcher,
    /// then park this process's causal spans with the cluster.
    pub fn finish(&mut self) {
        self.gm_fence();
        self.port.shared.mark_exited(self.pid);
        let msg = Message::ExitNotice {
            pid: self.pid,
            status: 0,
        };
        let launcher = self.port.shared.launcher();
        self.port.send(NodeId(0), launcher, &msg, None);
        let port = &mut self.port;
        let (pe, now, sink) = (port.pe(), port.now_ns(), &port.shared.trace_sink);
        sink.park(pe, TraceRole::App, port.spans.finish(now));
        sink.park(pe, TraceRole::Kernel, port.home_spans.take());
    }
}
