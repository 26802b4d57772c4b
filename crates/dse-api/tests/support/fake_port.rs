//! A recording [`GmPort`] for driving [`GmClient`](dse_api::GmClient), or
//! the whole [`ApiCtx`](dse_api::ApiCtx), with no engine.
//!
//! The "cluster" is one region of a [`GlobalStore`]: the fake is every home
//! kernel at once, and the coordinator. A request put on the wire is queued
//! per home (FIFO, the ordering a home kernel guarantees); `await_msg`
//! picks a home with work — which one is the seeded choice that permutes
//! completion order — serves its oldest request against the store and
//! hands the client the response. A call to the coordinator is answered
//! from a script: its release or grant waits in `answers` until it is asked
//! for. Tests assert on what the library did through what went on the
//! wire, the port's registry (every count and sample the library records)
//! and its spans. The clock advances one nanosecond per reading.
//!
//! Given a retry policy, the wire may lose: a loss script drops or
//! duplicates the first answer to a listed request, seeded rates drop or
//! duplicate any answer, and a silent home answers nothing. A duplicate
//! arrives before anything else the next time the client waits. The homes
//! then answer a retransmit from a replay cache, as a live home does, so
//! nothing is served twice; and a wait with nothing left to hand over gives
//! up at the client's deadline, the clock jumping to it.
//!
//! Shared by the unit tests in `src/gm_client.rs`, the property test in
//! `tests/prop_gm_client.rs` and the API-layer tests in `tests/api_ctx.rs`;
//! each reads a different part of what it records.

#![allow(dead_code)]

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};

use dse_api::{Arrival, Distribution, GmPort, GmProtocolError, RequesterSpans, Unanswered};
use dse_kernel::cache::CACHE_BLOCK;
use dse_kernel::{CacheStore, GlobalStore, GmError, GmMode, PeCounters};
use dse_msg::{GlobalPid, GmOp, Message, NodeId, RegionId, TraceCtx};
use dse_obs::{Registry, TraceSpanKind};
use dse_transport::RetryPolicy;

/// How every answer of the fake homes arrives: no clock, no trace context.
pub const UNTRACED: Arrival = Arrival {
    ctx: None,
    at_ns: 0,
    wire_bytes: 0,
};

pub struct FakePort {
    pub node: NodeId,
    pub store: GlobalStore,
    pub region: RegionId,
    /// Whether the client sees [`FakePort::cache`].
    pub caching: bool,
    /// The coherence protocol of a cached run.
    pub mode: GmMode,
    /// Every node's replicas and the sharing directory. The fake homes
    /// record no leases: a test grants the ones it needs.
    pub cache: CacheStore,
    /// A misbehaving home: every read is answered with this many bytes,
    /// whatever was asked for.
    pub forged_read_len: Option<usize>,
    /// Seed of the completion-order choice and of the seeded losses.
    pub seed: u64,
    /// Unanswered requests, per home, oldest first.
    pub pending: Vec<VecDeque<Message>>,
    /// The coordinator's releases and grants, not yet asked for.
    pub answers: VecDeque<Message>,
    /// The coordinator completes every barrier round in place (the
    /// simulator's node 0), so no release message follows an enter.
    pub barriers_complete_in_place: bool,
    /// The retry policy handed to the client (`None`: a wire that loses
    /// nothing, which the loss script below must leave alone).
    pub retry: Option<RetryPolicy>,
    /// Requests whose first answer the wire drops.
    pub drop_answer: HashSet<u64>,
    /// Requests whose first answer the wire delivers twice.
    pub dup_answer: HashSet<u64>,
    /// Drop one answer in this many (0: none), by the seed.
    pub drop_one_in: u64,
    /// Duplicate one answer in this many (0: none), by the seed.
    pub dup_one_in: u64,
    /// Homes that answer nothing.
    pub silent: Vec<NodeId>,
    /// Duplicated answers on their way.
    pub late: VecDeque<Message>,
    /// What the homes answered, by request id, for a retransmit.
    replies: HashMap<u64, Message>,
    /// Every message put on the wire, in send order: requests to the homes,
    /// calls to the coordinator (node 0) and the exit notice.
    pub sent: Vec<(NodeId, Message)>,
    /// The trace context each message of `sent` carried.
    pub ctxs: Vec<Option<TraceCtx>>,
    /// Each answer handed to the client, as how many messages had been sent
    /// by then.
    pub done: Vec<usize>,
    /// What the deadline hook was told, once it fired.
    pub gave_up: Option<Unanswered>,
    /// Where the library counts and samples.
    pub metrics: Registry,
    pub spans: RequesterSpans,
    clock: Cell<u64>,
}

impl FakePort {
    /// A port on node 0 of `homes` nodes over one `len`-byte region split
    /// into equal contiguous chunks, filled with `fill(i)` at byte `i`.
    pub fn new(homes: usize, len: usize, fill: impl Fn(usize) -> u8) -> FakePort {
        let store = GlobalStore::new(homes);
        let chunk = len.div_ceil(homes);
        let region = store.alloc(len, Distribution::BlockedBy { chunk });
        let bytes: Vec<u8> = (0..len).map(fill).collect();
        store.write(region, 0, &bytes).unwrap();
        FakePort {
            node: NodeId(0),
            store,
            region,
            caching: false,
            mode: GmMode::WriteInvalidate,
            cache: CacheStore::new(homes),
            forged_read_len: None,
            seed: 1,
            pending: (0..homes).map(|_| VecDeque::new()).collect(),
            answers: VecDeque::new(),
            barriers_complete_in_place: false,
            retry: None,
            drop_answer: HashSet::new(),
            dup_answer: HashSet::new(),
            drop_one_in: 0,
            dup_one_in: 0,
            silent: Vec::new(),
            late: VecDeque::new(),
            replies: HashMap::new(),
            sent: Vec::new(),
            ctxs: Vec::new(),
            done: Vec::new(),
            gave_up: None,
            metrics: Registry::new(),
            spans: RequesterSpans::new(0, true, 0),
            clock: Cell::new(0),
        }
    }

    /// This port's `kernel/name` counter.
    pub fn counter(&self, name: &str) -> u64 {
        let pe = Some(self.node.0 as u32);
        self.metrics
            .snapshot()
            .counter("kernel", name, pe)
            .unwrap_or(0)
    }

    /// This port's `kernel/name` gauge.
    pub fn gauge(&self, name: &str) -> u64 {
        let pe = Some(self.node.0 as u32);
        self.metrics
            .snapshot()
            .gauge("kernel", name, pe)
            .unwrap_or(0)
    }

    /// How many samples this port's `subsystem/name` histogram holds.
    pub fn samples(&self, subsystem: &str, name: &str) -> u64 {
        let pe = Some(self.node.0 as u32);
        let snap = self.metrics.snapshot();
        snap.histogram(subsystem, name, pe).map_or(0, |h| h.count())
    }

    /// The `seq` of every `kind` span recorded so far, in order (drains
    /// the spans).
    pub fn span_seqs(&mut self, kind: TraceSpanKind) -> Vec<u64> {
        let spans = self.spans.finish(0);
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.seq)
            .collect()
    }

    /// The whole region as the homes hold it now.
    pub fn contents(&self) -> Vec<u8> {
        let len = self.store.region_len(self.region).unwrap();
        self.store.read(self.region, 0, len).unwrap()
    }

    /// Turn the cache on and lease every block node 0 homes to nodes
    /// `1..=holders`, so that an own-node write is gated on that many
    /// invalidations (once per block: the write takes the leases).
    pub fn share_own_blocks(&mut self, holders: u16) {
        self.caching = true;
        let len = self.store.region_len(self.region).unwrap();
        let own = len.div_ceil(self.pending.len());
        for b in 0..own.div_ceil(CACHE_BLOCK) as u64 {
            for h in 1..=holders {
                self.cache.grant(NodeId(h), self.region, b);
            }
        }
    }

    /// This node's replica of `block`, if it holds one.
    pub fn replica(&self, block: u64) -> Option<Vec<u8>> {
        self.cache.get(self.node, self.region, block)
    }

    /// Requests queued at the homes and not yet answered.
    pub fn unanswered(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// What a home kernel answers to `request`, applying it to the store.
    pub fn serve(&self, request: Message) -> Message {
        let read = |region, offset, len: u32| {
            let mut data = self.store.read(region, offset, len as usize);
            if let (Ok(data), Some(forged)) = (&mut data, self.forged_read_len) {
                data.resize(forged, 0);
            }
            data
        };
        match request {
            Message::GmReadReq {
                req,
                region,
                offset,
                len,
            } => Message::GmReadResp {
                req,
                data: read(region, offset, len).unwrap().into(),
            },
            Message::GmWriteReq {
                req,
                region,
                offset,
                data,
            } => {
                self.store.write(region, offset, &data).unwrap();
                Message::GmWriteAck { req }
            }
            Message::GmBatchReq { req, ops } => {
                let mut reads = Vec::new();
                for op in ops {
                    match op {
                        GmOp::Read {
                            region,
                            offset,
                            len,
                        } => reads.push(read(region, offset, len).unwrap().into()),
                        GmOp::Write {
                            region,
                            offset,
                            data,
                        } => self.store.write(region, offset, &data).unwrap(),
                    }
                }
                Message::GmBatchResp { req, reads }
            }
            Message::GmFetchAddReq {
                req,
                region,
                offset,
                delta,
            } => Message::GmFetchAddResp {
                req,
                prev: self.store.fetch_add(region, offset, delta).unwrap(),
            },
            Message::GmInvalidate { req, .. } => Message::GmInvalidateAck { req },
            other => panic!("the fake homes cannot serve {}", other.label()),
        }
    }

    /// The next seeded draw.
    fn roll(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.seed >> 33
    }

    /// Whether a seeded draw hits a one-in-`n` chance (never for 0, which
    /// draws nothing).
    fn one_in(&mut self, n: u64) -> bool {
        n != 0 && self.roll().is_multiple_of(n)
    }

    /// Put `msg` for `to` on the record of the wire.
    fn record(&mut self, to: NodeId, msg: Message, ctx: Option<TraceCtx>) {
        self.sent.push((to, msg));
        self.ctxs.push(ctx);
    }

    /// A home's answer to `request`: over a wire that loses, served once
    /// and replayed to a retransmit.
    fn answer(&mut self, request: Message) -> Message {
        if self.retry.is_none() {
            return self.serve(request);
        }
        let req = request.req_id().expect("a request carries its id").0;
        if let Some(reply) = self.replies.get(&req) {
            return reply.clone();
        }
        let reply = self.serve(request);
        self.replies.insert(req, reply.clone());
        reply
    }

    /// The next answer to reach the client: a duplicate on its way, or a
    /// home's answer to its oldest request, unless the wire drops it.
    /// `None` when nothing can arrive.
    fn next_answer(&mut self) -> Option<Message> {
        if let Some(copy) = self.late.pop_front() {
            return Some(copy);
        }
        loop {
            let busy: Vec<usize> = (0..self.pending.len())
                .filter(|&h| !self.pending[h].is_empty())
                .filter(|&h| !self.silent.contains(&NodeId(h as u16)))
                .collect();
            if busy.is_empty() {
                return None;
            }
            let home = busy[self.roll() as usize % busy.len()];
            let request = self.pending[home].pop_front().unwrap();
            let answer = self.answer(request);
            let req = answer.req_id().expect("an answer carries its id").0;
            if self.drop_answer.remove(&req) || self.one_in(self.drop_one_in) {
                continue;
            }
            if self.dup_answer.remove(&req) || self.one_in(self.dup_one_in) {
                self.late.push_back(answer.clone());
            }
            return Some(answer);
        }
    }
}

impl GmPort for FakePort {
    fn node(&self) -> NodeId {
        self.node
    }

    fn store(&self) -> &GlobalStore {
        &self.store
    }

    fn cache(&self) -> Option<&CacheStore> {
        self.caching.then_some(&self.cache)
    }

    fn gm_mode(&self) -> GmMode {
        self.mode
    }

    /// Room for a few staged requests before a flush is forced (tests of
    /// the client alone build it with a window of their own).
    fn gm_window(&self) -> usize {
        4
    }

    fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    fn spans(&mut self) -> &mut RequesterSpans {
        &mut self.spans
    }

    fn now_ns(&self) -> u64 {
        self.clock.set(self.clock.get() + 1);
        self.clock.get()
    }

    fn counters(&self) -> PeCounters<'_> {
        PeCounters::new(&self.metrics, self.node.0 as u32, None)
    }

    fn charge_local(&mut self, _bytes: usize) {}

    fn send_request(&mut self, home: NodeId, msg: &Message, ctx: Option<TraceCtx>) {
        assert_ne!(home, self.node, "an own-node access went on the wire");
        self.pending[home.0 as usize].push_back(msg.clone());
        self.record(home, msg.clone(), ctx);
    }

    fn await_msg(
        &mut self,
        mut pred: impl FnMut(&Message) -> bool,
        deadline: Option<u64>,
    ) -> Option<(Message, Arrival)> {
        if let Some(idx) = self.answers.iter().position(&mut pred) {
            return Some((self.answers.remove(idx).unwrap(), UNTRACED));
        }
        let Some(answer) = self.next_answer() else {
            let deadline =
                deadline.expect("blocked with nothing in flight: the client would wait forever");
            self.clock.set(self.clock.get().max(deadline));
            return None;
        };
        assert!(pred(&answer), "the waiter rejected a GM completion");
        self.done.push(self.sent.len());
        Some((answer, UNTRACED))
    }

    fn gm_deadline(&mut self, lost: Unanswered) -> ! {
        self.gave_up = Some(lost);
        panic!(
            "request {} to node {} unanswered after {} sends",
            lost.req.0, lost.home.0, lost.attempts
        )
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        panic!("{err}")
    }

    fn bad_access(&self, what: &str, err: GmError) -> ! {
        panic!("{what} failed: {err}")
    }

    fn to_coordinator(&mut self, call: Message, ctx: Option<TraceCtx>) -> bool {
        let answer = match call {
            Message::BarrierEnter { barrier, .. } => {
                Some(Message::BarrierRelease { barrier, epoch: 0 })
            }
            Message::LockReq { req, lock, .. } => Some(Message::LockGrant { req, lock }),
            Message::UnlockReq { .. } => None,
            ref other => panic!("{} is not a call to the coordinator", other.label()),
        };
        let in_place =
            self.barriers_complete_in_place && matches!(call, Message::BarrierEnter { .. });
        if !in_place {
            self.answers.extend(answer);
        }
        self.record(NodeId(0), call, ctx);
        in_place
    }

    fn exit(&mut self, pid: GlobalPid) {
        self.record(NodeId(0), Message::ExitNotice { pid, status: 0 }, None);
    }
}
