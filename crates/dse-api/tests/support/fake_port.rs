//! A recording [`GmPort`] for driving [`GmClient`](dse_api::GmClient), or
//! the whole [`ApiCtx`](dse_api::ApiCtx), with no engine.
//!
//! The "cluster" is one region of a [`GlobalStore`]: the fake is every home
//! kernel at once, and the coordinator. A request put on the wire is queued
//! per home (FIFO, the ordering a home kernel guarantees); `await_msg`
//! picks a home with work — which one is the seeded choice that permutes
//! completion order — serves its oldest request against the store and
//! returns the response. A call to the coordinator is answered from a
//! script: its release or grant waits in `answers` until it is asked for.
//! Tests assert on what the library did through what went on the wire, the
//! port's registry (every count and sample the library records) and its
//! spans. The clock advances one nanosecond per reading.
//!
//! Shared by the unit tests in `src/gm_client.rs`, the property test in
//! `tests/prop_gm_client.rs` and the API-layer tests in `tests/api_ctx.rs`;
//! each reads a different part of what it records.

#![allow(dead_code)]

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};

use dse_api::{Arrival, Distribution, GmPort, GmProtocolError, RequesterSpans};
use dse_kernel::cache::{blocks_touching, CACHE_BLOCK};
use dse_kernel::{GlobalStore, GmError, PeCounters};
use dse_msg::{GlobalPid, GmOp, Message, NodeId, RegionId, ReqId, ReqIdGen, TraceCtx};
use dse_obs::{Registry, TraceSpanKind};

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
    pub caching: bool,
    /// Acknowledgements that gate each own-node write (the live engine's
    /// shape of the coherence hook; 0 = the simulator's inline round).
    pub write_gates: usize,
    /// A misbehaving home: every read is answered with this many bytes,
    /// whatever was asked for.
    pub forged_read_len: Option<usize>,
    /// Seed of the completion-order choice.
    pub seed: u64,
    /// Unanswered requests, per home, oldest first.
    pub pending: Vec<VecDeque<Message>>,
    /// The coordinator's releases and grants, not yet asked for.
    pub answers: VecDeque<Message>,
    /// The coordinator completes every barrier round in place (the
    /// simulator's node 0), so no release message follows an enter.
    pub barriers_complete_in_place: bool,
    /// Every message put on the wire, in send order: requests to the homes,
    /// calls to the coordinator (node 0) and the exit notice.
    pub sent: Vec<(NodeId, Message)>,
    /// Each request reported done, as how many messages had been sent by
    /// then.
    pub done: Vec<usize>,
    pub replicas: HashMap<(RegionId, u64), Vec<u8>>,
    pub purges: usize,
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
            write_gates: 0,
            forged_read_len: None,
            seed: 1,
            pending: (0..homes).map(|_| VecDeque::new()).collect(),
            answers: VecDeque::new(),
            barriers_complete_in_place: false,
            sent: Vec::new(),
            done: Vec::new(),
            replicas: HashMap::new(),
            purges: 0,
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
}

impl GmPort for FakePort {
    fn node(&self) -> NodeId {
        self.node
    }

    fn store(&self) -> &GlobalStore {
        &self.store
    }

    fn caching(&self) -> bool {
        self.caching
    }

    /// Room for a few staged requests before a flush is forced (tests of
    /// the client alone build it with a window of their own).
    fn gm_window(&self) -> usize {
        4
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

    fn send_request(&mut self, home: NodeId, _req: ReqId, msg: Message) {
        assert_ne!(home, self.node, "an own-node access went on the wire");
        self.pending[home.0 as usize].push_back(msg.clone());
        self.sent.push((home, msg));
    }

    fn await_msg(&mut self, mut pred: impl FnMut(&Message) -> bool) -> (Message, Arrival) {
        if let Some(idx) = self.answers.iter().position(&mut pred) {
            return (self.answers.remove(idx).unwrap(), UNTRACED);
        }
        let busy: Vec<usize> = (0..self.pending.len())
            .filter(|&h| !self.pending[h].is_empty())
            .collect();
        assert!(
            !busy.is_empty(),
            "blocked with nothing in flight: the client would wait forever"
        );
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let home = busy[(self.seed >> 33) as usize % busy.len()];
        let request = self.pending[home].pop_front().unwrap();
        let response = self.serve(request);
        assert!(pred(&response), "the waiter rejected a GM completion");
        (response, UNTRACED)
    }

    fn request_done(&mut self, _req: ReqId, _answer: Arrival) {
        self.done.push(self.sent.len());
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        panic!("{err}")
    }

    fn bad_access(&self, what: &str, err: GmError) -> ! {
        panic!("{what} failed: {err}")
    }

    fn replica_get(&mut self, region: RegionId, block: u64) -> Option<Vec<u8>> {
        self.replicas.get(&(region, block)).cloned()
    }

    fn replica_install<'d>(
        &mut self,
        _req: ReqId,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    ) {
        for (b, data) in blocks {
            assert_eq!(data.len(), CACHE_BLOCK);
            self.replicas.insert((region, b), data.to_vec());
        }
    }

    fn replica_drop(&mut self, region: RegionId, offset: u64, len: usize) {
        for b in blocks_touching(offset, len) {
            self.replicas.remove(&(region, b));
        }
    }

    fn replica_purge(&mut self) {
        self.purges += 1;
        self.replicas.clear();
    }

    fn own_node_write(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<ReqId>, GmError> {
        self.store.write(region, offset, data)?;
        Ok((0..self.write_gates)
            .map(|_| {
                let req = reqs.next();
                // The "holder" is any other node; its ack comes back like
                // every other completion.
                self.pending[1].push_back(Message::GmInvalidate {
                    req,
                    region,
                    offset,
                    len: data.len() as u32,
                });
                req
            })
            .collect())
    }

    fn own_node_fetch_add(
        &mut self,
        _reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        delta: i64,
    ) -> Result<i64, GmError> {
        self.store.fetch_add(region, offset, delta)
    }

    fn send_atomic(&mut self, home: NodeId, _req: ReqId, msg: Message) {
        assert_ne!(home, self.node, "an own-node atomic went on the wire");
        self.pending[home.0 as usize].push_back(msg.clone());
        self.sent.push((home, msg));
    }

    fn to_coordinator(&mut self, call: Message, _ctx: Option<TraceCtx>) -> bool {
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
        self.sent.push((NodeId(0), call));
        in_place
    }

    fn exit(&mut self, pid: GlobalPid) {
        self.sent
            .push((NodeId(0), Message::ExitNotice { pid, status: 0 }));
    }
}
