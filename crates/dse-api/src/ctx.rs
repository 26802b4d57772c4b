//! `ApiCtx` — the Parallel API library, and its simulator port.
//!
//! Every DSE process body receives an [`ApiCtx`]. Its [`ParallelApi`]
//! implementation is the paper's Parallel API library: global-memory access
//! (which transparently becomes the own-node fast path or request/response
//! messages to home-node kernels), barriers and locks (coordinated by node
//! 0), atomics, and computation charging. It is written once, over a
//! [`GmPort`]: the context owns the shared [`GmClient`], the sequence
//! counters and the one body of every operation, and both engines run
//! exactly that code.
//!
//! [`DseCtx`] is the context over [`SimPort`], the simulator's port, which
//! this file also holds: it charges virtual time, sends through the network
//! model, stamps the shared [`RequesterSpans`] with the virtual clock
//! (adding a `cpu_queue` span wherever a charge waited for its CPU), and on
//! node 0 calls the coordinator in place. `dse-live` supplies the other
//! port. What `DseCtx` offers beyond the shared surface (virtual time,
//! point-to-point user messages, named barriers, cooperative termination)
//! is an inherent extension of the simulator instantiation only.

use std::collections::VecDeque;
use std::sync::Arc;

use dse_kernel::netpath::{hold_cpu, send_msg};
use dse_kernel::{
    CacheStore, ClusterShared, Distribution, GlobalStore, GmCount, GmError, GmMode, InPlace,
    Origin, Outbound, PeCounters, SimHost, SimMsg,
};
use dse_msg::{GlobalPid, Message, NodeId, RegionId, TraceCtx};
use dse_obs::{SpanKind, TraceRole, TraceSpanKind};
use dse_platform::Work;
use dse_sim::{ProcCtx, ProcId, SimDuration, SimTime};

use crate::api::ParallelApi;
use crate::gm_client::{acquire_point, sample, GmClient, GmHandle, GmPort, GmProtocolError};
use crate::req_spans::{Arrival, RequesterSpans};

/// Barrier ids above this are reserved for the auto-sequenced
/// [`ParallelApi::barrier`]; named barriers must stay below.
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

/// The simulator behind [`GmPort`]: the process's simulation context, the
/// cluster's shared state, the messages that arrived while the process was
/// waiting for something else, and its causal spans.
pub struct SimPort<'a> {
    ctx: &'a mut ProcCtx<SimMsg>,
    shared: Arc<ClusterShared>,
    node: NodeId,
    stash: VecDeque<(Message, Arrival)>,
    spans: RequesterSpans,
    /// The node's kernel as this process's own calls into the linked
    /// library find it.
    home: SimHost,
    /// The in-place step of those calls; its spans are the kernel duty the
    /// process does itself.
    coord: InPlace,
}

impl<'a> SimPort<'a> {
    /// The port of process `pid`, running as simulation process `ctx`.
    pub(crate) fn new(
        ctx: &'a mut ProcCtx<SimMsg>,
        shared: Arc<ClusterShared>,
        pid: GlobalPid,
    ) -> SimPort<'a> {
        let (pe, tracing) = (pid.node().0 as u32, shared.config.tracing);
        let spans = RequesterSpans::new(pe, tracing, ctx.now().as_nanos());
        SimPort {
            ctx,
            node: pid.node(),
            stash: VecDeque::new(),
            spans,
            home: SimHost::new(Arc::clone(&shared), pid.node()),
            coord: InPlace::new(pe, tracing),
            shared,
        }
    }

    fn pe(&self) -> u32 {
        self.node.0 as u32
    }

    /// Hold this node's CPU for `dur`, recording what was queued for it.
    fn hold(&mut self, dur: SimDuration) {
        let (asked, granted) = hold_cpu(self.ctx, &self.shared, self.node, dur);
        self.spans.cpu_queue(asked, granted);
    }

    /// Send `msg` to simulation process `to_proc` on `to_node`, replies
    /// addressed to this process.
    fn send(&mut self, to_node: NodeId, to_proc: ProcId, msg: &Message, trace: Option<TraceCtx>) {
        let (me, from) = (self.ctx.id(), self.node);
        let (asked, granted) = send_msg(
            self.ctx,
            &self.shared,
            from,
            to_node,
            to_proc,
            me,
            msg,
            trace,
        );
        self.spans.cpu_queue(asked, granted);
    }

    /// Send `msg` to `node`'s kernel.
    fn send_kernel(&mut self, node: NodeId, msg: &Message, trace: Option<TraceCtx>) {
        let kproc = self.shared.kernel_of(node);
        self.send(node, kproc, msg, trace);
    }

    /// Receive one runtime message, charging the receive-side software cost
    /// (protocol receive processing, SIGIO delivery, context switch into
    /// kernel duty).
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
        self.hold(self.shared.cost(self.node).msg_recv(sm.bytes.len()));
        let msg = Message::decode(&sm.bytes).expect("undecodable runtime message");
        (msg, arrival)
    }
}

impl GmPort for SimPort<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn store(&self) -> &GlobalStore {
        &self.shared.store
    }

    fn cache(&self) -> Option<&CacheStore> {
        self.shared.config.gm_cache.then_some(&self.shared.cache)
    }

    fn gm_mode(&self) -> GmMode {
        self.shared.config.gm_mode
    }

    fn gm_window(&self) -> usize {
        self.shared.config.gm_window
    }

    fn spans(&mut self) -> &mut RequesterSpans {
        &mut self.spans
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now().as_nanos()
    }

    fn counters(&self) -> PeCounters<'_> {
        self.shared.counters(self.node)
    }

    fn charge_local(&mut self, bytes: usize) {
        self.hold(self.shared.cost(self.node).local_call(bytes));
    }

    fn send_request(&mut self, home: NodeId, msg: &Message, ctx: Option<TraceCtx>) {
        self.send_kernel(home, msg, ctx);
    }

    /// The network model loses nothing, so no wait is given a deadline.
    fn await_msg(
        &mut self,
        mut pred: impl FnMut(&Message) -> bool,
        _deadline: Option<u64>,
    ) -> Option<(Message, Arrival)> {
        if let Some(idx) = self.stash.iter().position(|(m, _)| pred(m)) {
            return self.stash.remove(idx);
        }
        loop {
            let got = self.recv_runtime();
            if pred(&got.0) {
                return Some(got);
            }
            self.stash.push_back(got);
        }
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        // Every peer is this simulator's own kernel: a bad response is a
        // simulator bug, not input.
        panic!("rank {}: {err}", self.node.0)
    }

    fn bad_access(&self, what: &str, err: GmError) -> ! {
        panic!("rank {}: {what} failed: {err}", self.node.0)
    }

    /// Node 0's process *is* the coordinator's node: it calls the kernel
    /// library's coordination functions in place (the completing barrier
    /// caller proceeds straight through; a lock grant is a message even to
    /// it). Every other node sends the call to node 0's kernel.
    fn to_coordinator(&mut self, call: Message, ctx: Option<TraceCtx>) -> bool {
        if self.node != NodeId(0) {
            self.send_kernel(NodeId(0), &call, ctx);
            return false;
        }
        self.charge_local(16);
        let (me, at_ns) = (self.ctx.id(), self.now_ns());
        let from = Origin { pe: 0, ctx, at_ns };
        self.home.now = self.ctx.now();
        let completed = self.coord.coordinate(&self.home, from, Some(me), call);
        // Each answer is sent as the node's kernel would send it, charged
        // on this process's clock.
        loop {
            self.home.now = self.ctx.now();
            let Some(Outbound::Wire { to, proc, msg, ctx }) = self.coord.pop(&self.home) else {
                return completed;
            };
            let to = NodeId(to as u16);
            let proc = proc.unwrap_or_else(|| self.shared.kernel_of(to));
            let shared = &self.shared;
            let (asked, granted) = send_msg(self.ctx, shared, self.node, to, proc, me, &msg, ctx);
            self.coord.spans().cpu_queue(asked, granted, from);
        }
    }

    /// The charge is sliced at the async-I/O preemption quantum: a SIGIO
    /// for an arriving remote request interrupts application computation
    /// almost immediately on a real UNIX, so long compute bursts must not
    /// block the co-resident kernel's short service times in the model.
    fn compute(&mut self, work: Work) {
        const SLICE: SimDuration = SimDuration::from_millis(5);
        let mut remaining = self.shared.cost(self.node).compute(work);
        while remaining > SLICE {
            self.hold(SLICE);
            remaining = remaining - SLICE;
        }
        self.hold(remaining);
    }

    /// Notify the launcher, then park this process's causal spans with the
    /// cluster: its own and those of the kernel duty it did itself.
    fn exit(&mut self, pid: GlobalPid) {
        self.shared.mark_exited(pid);
        let launcher = self.shared.launcher();
        let notice = Message::ExitNotice { pid, status: 0 };
        self.send(NodeId(0), launcher, &notice, None);
        let (pe, now, sink) = (self.pe(), self.now_ns(), &self.shared.trace_sink);
        sink.park(pe, TraceRole::App, self.spans.finish(now));
        sink.park(pe, TraceRole::Kernel, self.coord.spans().take());
    }
}

/// The per-process API context handed to application bodies: the Parallel
/// API library, written once over the engine's port `P`.
pub struct ApiCtx<P> {
    /// The engine behind the library. Public so that the crate that owns
    /// `P` reaches its own port's state; the port's fields are that
    /// crate's.
    pub port: P,
    /// The split-phase global-memory machinery.
    gm: GmClient,
    rank: u32,
    pid: GlobalPid,
    barrier_seq: u32,
    alloc_seq: usize,
    /// Reusable scratch for element-wise `GmArray` accessors.
    scratch: Vec<u8>,
}

/// The simulator's context: [`ApiCtx`] over the simulator's port.
pub type DseCtx<'a> = ApiCtx<SimPort<'a>>;

impl<P: GmPort> ApiCtx<P> {
    /// The context of process `pid`, rank `rank`, over `port`. Called by
    /// the engine's harness.
    pub fn new(port: P, rank: u32, pid: GlobalPid) -> ApiCtx<P> {
        ApiCtx {
            gm: GmClient::new(port.gm_window()),
            port,
            rank,
            pid,
            barrier_seq: 0,
            alloc_seq: 0,
            scratch: Vec::new(),
        }
    }

    /// Complete all staged and in-flight split-phase work, keeping redeemed
    /// results claimable. Every blocking synchronization or communication
    /// primitive fences first, so split-phase operations are always ordered
    /// before barriers, locks, atomics, sends and exit; with nothing
    /// outstanding this is free.
    fn gm_fence(&mut self) {
        self.gm.fence(&mut self.port)
    }

    /// One round trip to the coordinator on node 0: hand it `enter`, then
    /// block until `granted` accepts the answer — unless the call was
    /// answered on the spot. Recorded as a wait span (a barrier's or a
    /// lock's, `seq` the barrier id or the lock request) and a sample of
    /// the `sync/*_wait_ns` series; the answer is an acquire point.
    fn coordinate(
        &mut self,
        enter: Message,
        granted: impl FnMut(&Message) -> bool,
        kind: SpanKind,
        seq: u64,
    ) {
        let wait = match kind {
            SpanKind::Barrier => TraceSpanKind::BarrierWait,
            _ => TraceSpanKind::LockWait,
        };
        let port = &mut self.port;
        let t0 = port.now_ns();
        let (wait_span, call) = port.spans().wait_begin();
        if !port.to_coordinator(enter, call) {
            port.await_msg(granted, None);
        }
        let now = port.now_ns();
        port.spans().wait_end(now, wait, wait_span, t0, seq);
        sample(port, kind, t0);
        acquire_point(port);
    }

    /// [`ParallelApi::barrier`], callable without the trait in scope.
    pub fn barrier(&mut self) {
        let id = AUTO_BARRIER_BASE + self.barrier_seq;
        self.barrier_seq += 1;
        self.barrier_at(id);
    }

    fn barrier_at(&mut self, id: u32) {
        self.gm_fence();
        let enter = Message::BarrierEnter {
            barrier: id,
            pid: self.pid,
        };
        // Completing a barrier is an acquire point.
        self.coordinate(
            enter,
            |m| matches!(m, Message::BarrierRelease { barrier, .. } if *barrier == id),
            SpanKind::Barrier,
            id as u64,
        );
    }

    /// Called by the engine's harness after the body returns: fence, then
    /// report the exit.
    pub fn finish(&mut self) {
        self.gm_fence();
        self.port.exit(self.pid);
    }
}

/// The one implementation of the Parallel API: both engines' contexts are
/// this type, so each operation below is the body both engines execute.
impl<P: GmPort> ParallelApi for ApiCtx<P> {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.port.store().nnodes()
    }

    fn compute(&mut self, work: Work) {
        self.port.compute(work)
    }

    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        self.gm_fence();
        let seq = self.alloc_seq;
        self.alloc_seq += 1;
        self.port.charge_local(0);
        self.port.store().collective_alloc(seq, len, dist)
    }

    // The blocking entry points are issue-plus-wait over the split-phase
    // machinery, so both paths share one code path and produce identical
    // bytes. Every read, write and atomic entry point is one `kernel/gm_ops`.

    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        self.port.counters().count(GmCount::Op);
        self.gm.read(&mut self.port, region, offset, len)
    }

    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        self.port.counters().count(GmCount::Op);
        self.gm.write(&mut self.port, region, offset, data)
    }

    fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        self.port.counters().count(GmCount::Op);
        self.gm.read_into(&mut self.port, region, offset, out)
    }

    fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        self.port.counters().count(GmCount::Op);
        self.gm.read_nb(&mut self.port, region, offset, len)
    }

    fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.port.counters().count(GmCount::Op);
        self.gm.write_nb(&mut self.port, region, offset, data)
    }

    fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        self.gm.wait(&mut self.port, handle)
    }

    fn gm_wait_all(&mut self) {
        self.gm.wait_all(&mut self.port)
    }

    fn take_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch)
    }

    fn put_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        self.gm_fence();
        self.port.counters().count(GmCount::Op);
        self.gm.fetch_add(&mut self.port, region, offset, delta)
    }

    fn barrier(&mut self) {
        ApiCtx::barrier(self)
    }

    fn lock(&mut self, id: u32) {
        self.gm_fence();
        let req = self.gm.req_ids().next();
        let enter = Message::LockReq {
            req,
            lock: id,
            pid: self.pid,
        };
        // A lock grant is an acquire point: the holder must see everything
        // released by the previous holder's unlock.
        self.coordinate(
            enter,
            |m| matches!(m, Message::LockGrant { req: r, .. } if *r == req),
            SpanKind::Lock,
            req.0,
        );
    }

    fn unlock(&mut self, id: u32) {
        self.gm_fence();
        let release = Message::UnlockReq {
            lock: id,
            pid: self.pid,
        };
        self.port.to_coordinator(release, None);
    }

    // Home memory is write-through and every write acknowledgement is gated
    // on its invalidations, so a fence is exactly a release.
    fn gm_release(&mut self) {
        self.gm_fence();
    }

    fn gm_acquire(&mut self) {
        self.gm.acquire(&mut self.port)
    }
}

/// What the simulator offers beyond the shared surface.
impl DseCtx<'_> {
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

    /// Synchronize on an explicitly named barrier (`id < AUTO_BARRIER_BASE`).
    pub fn barrier_named(&mut self, id: u32) {
        assert!(id < AUTO_BARRIER_BASE, "named barrier id too large");
        self.barrier_at(id);
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
        let acked = |m: &Message| matches!(m, Message::TerminateAck { req: r } if *r == req);
        self.port.await_msg(acked, None);
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
        let wanted = |m: &Message| match m {
            Message::UserData { tag, .. } => want_tag.is_none_or(|t| t == *tag),
            _ => false,
        };
        match self.port.await_msg(wanted, None) {
            Some((Message::UserData { from, tag, data }, _)) => UserMsg { from, tag, data },
            _ => unreachable!(),
        }
    }
}
