//! A recording [`GmPort`] for driving [`GmClient`](dse_api::GmClient) alone.
//!
//! The "cluster" is one region of a [`GlobalStore`]: the fake is every home
//! kernel at once. A request put on the wire is queued per home (FIFO, the
//! ordering a home kernel guarantees); `await_msg` picks a home with work —
//! which one is the seeded choice that permutes completion order — serves
//! its oldest request against the store and returns the response. Every
//! port call is recorded so tests can assert on what the client did.
//!
//! Shared by the unit tests in `src/gm_client.rs` and the property test in
//! `tests/prop_gm_client.rs`.

use std::collections::{HashMap, VecDeque};

use dse_api::{Arrival, Distribution, GmCount, GmPort, GmProtocolError};
use dse_kernel::cache::{blocks_touching, CACHE_BLOCK};
use dse_kernel::GlobalStore;
use dse_msg::{GmOp, Message, NodeId, RegionId, ReqId, ReqIdGen};
use dse_obs::SpanKind;

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
    /// Every request put on the wire, in send order.
    pub sent: Vec<(NodeId, Message)>,
    pub counts: Vec<GmCount>,
    pub charged: Vec<usize>,
    /// `(req, kind)` of every request reported done.
    pub done: Vec<(u64, SpanKind)>,
    /// `(is_read, remote, requests sent when it finished)` per handle.
    pub handles_done: Vec<(bool, bool, usize)>,
    /// `seq` of every blocking wait.
    pub blocked: Vec<u64>,
    pub max_inflight: usize,
    pub replicas: HashMap<(RegionId, u64), Vec<u8>>,
    pub purges: usize,
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
            sent: Vec::new(),
            counts: Vec::new(),
            charged: Vec::new(),
            done: Vec::new(),
            handles_done: Vec::new(),
            blocked: Vec::new(),
            max_inflight: 0,
            replicas: HashMap::new(),
            purges: 0,
        }
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

    fn charge_local(&mut self, bytes: usize) {
        self.charged.push(bytes);
    }

    fn count(&mut self, what: GmCount) {
        self.counts.push(what);
    }

    fn send_request(
        &mut self,
        home: NodeId,
        _req: ReqId,
        msg: Message,
        _kind: SpanKind,
        inflight: usize,
    ) {
        assert_ne!(home, self.node, "an own-node access went on the wire");
        self.max_inflight = self.max_inflight.max(inflight);
        self.pending[home.0 as usize].push_back(msg.clone());
        self.sent.push((home, msg));
    }

    fn await_msg(&mut self, mut pred: impl FnMut(&Message) -> bool) -> (Message, Arrival) {
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

    fn request_done(&mut self, req: ReqId, kind: SpanKind, _answer: Arrival) {
        self.done.push((req.0, kind));
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        panic!("{err}")
    }

    fn handle_done(&mut self, _issued: u64, is_read: bool, remote: bool) {
        self.handles_done.push((is_read, remote, self.sent.len()));
    }

    fn blocked(&mut self, _since: u64, seq: u64) {
        self.blocked.push(seq);
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
    ) -> Vec<ReqId> {
        self.store.write(region, offset, data).unwrap();
        (0..self.write_gates)
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
            .collect()
    }
}
