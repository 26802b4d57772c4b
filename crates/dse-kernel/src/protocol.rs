//! `KernelProtocol` — the serving side of the kernel, defined once.
//!
//! The part of the paper's kernel library that is the same on every
//! platform: serve a global-memory request against the home partition; run
//! the home's directory step for what it touched (a lease for a read; for a
//! write or fetch-add, release consistency counts the deferral,
//! write-invalidate takes the sharers and sends each a `GmInvalidate`);
//! withhold the one response until the last `GmInvalidateAck`; apply a
//! `GmInvalidate` addressed to this node; run barriers and locks. Nothing
//! in here knows a clock, a transport, the simulator or a thread: all that
//! is behind one [`KernelPort`], a generic parameter, so every call is
//! statically dispatched (DESIGN.md §5n).
//!
//! **Charge order.** A port call takes effect in the order it is made —
//! the simulator plays each charge, count and send back in call order,
//! holding the node's CPU for a charge and booking the wire when a send's
//! charge ends — so the calls come in the order the work happens: after each store operation of a request, in request order, its
//! copy charge, its counters, then its directory step with one send per
//! sharer; the response (or its gate) follows the last operation.

use std::collections::hash_map::{Entry, HashMap};

use dse_msg::{GlobalPid, Message, NodeId, RegionId, ReqId};

use crate::cache::{blocks_inside, CacheStore, CACHE_BLOCK};
use crate::counters::KernelCount;
use crate::gmem::GlobalStore;
use crate::service::{serve_gm, GmServiceHooks, Served};
use crate::sync::{BarrierCenter, BarrierOutcome, LockCenter, LockOutcome, Party, UnlockOutcome};

/// Kernel transaction ids live above this bit so they can never collide
/// with app-side `ReqIdGen` ids: a `GmInvalidateAck` whose id has the high
/// bit belongs to a home kernel's response gate, anything else to an app's
/// own-node invalidation round.
pub const KERNEL_TXN_BASE: u64 = 1 << 63;

/// Everything engine-specific a [`KernelProtocol`] needs. There is one:
/// the port of the one kernel driver, `KernelTask`, which queues what it is
/// asked on the task's outbox and takes the rest from the engine's `Host`.
/// A coordination call made in place needs only the [`Coordinator`] half,
/// which each engine implements once more for its callers: the
/// simulator's blocking `SimKernelPort` on node 0's process clock, and the
/// live engine's port on the calling application thread.
///
/// **Barrier and lock state is one per run on both engines**
/// ([`Coordinator::barriers`]): the simulator's `ClusterShared` and the
/// live `LiveCluster` each hold it once, and node 0's kernel serves the
/// calls that arrive as messages from the same state the callers in place
/// use. Node 0's own process always calls in place; on the live in-process
/// channel with no fault plan every PE does, because answers reach its
/// applications directly there.
///
/// One difference between the engines is deliberate, and is the hosts',
/// not the machine's: **where a leased block's data goes**
/// ([`KernelPort::lease`]). The simulator's home installs it in the
/// requester's replica cache at serve time; the live home only records the
/// lease, and the requester installs on completion under its install
/// epoch. A read issued after the home served an earlier overlapping one,
/// but before that one is waited on, therefore hits in the simulator and
/// misses live.
///
/// Request dedup, keyed `(from PE, req)`, is the driver's, armed only by
/// the live constructor: only a lossy wire retransmits. The simulator must
/// not reach it — a simulated node may host several requesting processes,
/// each with its own id generator, and equal `(node, req)` pairs from two
/// of them are distinct requests.
pub trait KernelPort: Coordinator {
    /// Charge this node for copying `bytes` between a message and the
    /// store, now.
    fn charge_copy(&mut self, bytes: usize);

    /// Lease `block` (whose bytes are `data`) to `holder`. Returns true
    /// when `holder` was not already a sharer.
    fn lease(
        &mut self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        data: &[u8],
    ) -> bool;
    /// Drop this node's replicas of every block the range touches.
    fn drop_replicas(&mut self, cache: &CacheStore, region: RegionId, offset: u64, len: usize);

    /// Send `msg` to `node`'s kernel, now.
    fn send_kernel(&mut self, node: NodeId, msg: Message);

    /// The GM message `to` sent was executed and `resp` answers it; it is
    /// sent next, or — `gated` — once the sharers have acknowledged.
    fn served(&mut self, to: Self::Reply, resp: &Message, gated: bool);

    /// `from` sent a message (`label`) the protocol has no place for: the
    /// driver aborts the run (on the simulator, whose every peer is the
    /// simulator itself, the abort is a panic).
    fn protocol_error(&mut self, from: NodeId, label: &'static str, detail: &str);
}

/// The part of a [`KernelPort`] barrier and lock coordination uses
/// ([`coordinate`], [`barrier_enter`], [`lock_acquire`], [`lock_release`])
/// — all a coordination call made in place asks of the kernel library.
pub trait Coordinator {
    /// Where an answer goes besides the node (simulator: the requesting
    /// process; live: the PE and what its request carried on the wire).
    type Reply: Copy;

    /// The run's barrier coordination state.
    fn barriers(&self) -> &BarrierCenter<Self::Reply>;
    /// The run's lock coordination state.
    fn locks(&self) -> &LockCenter<Self::Reply>;

    /// Bump a counter.
    fn count(&mut self, what: KernelCount);
    /// Send `msg` to the requester `to` on `node`, now.
    fn send(&mut self, node: NodeId, to: Self::Reply, msg: Message);

    /// A barrier round completed and its earlier waiters were released;
    /// `first` entered it first.
    fn barrier_completed(&mut self, _barrier: u32, _epoch: u32, _first: Self::Reply) {}
}

/// A response withheld until every sharer of what its request wrote has
/// acknowledged the invalidation. One gate per request: a batch that wrote
/// several shared ranges still has one response.
struct ResponseGate<R> {
    remaining: usize,
    response: Message,
    node: NodeId,
    to: R,
}

/// The part of a node's protocol state that outlives a borrow of the
/// store: its open gates. A driver that cannot keep a [`KernelProtocol`]
/// across calls (it owns what the protocol borrows) keeps this instead.
pub struct Gates<R> {
    /// Open gates by the transaction id their `GmInvalidate`s carry.
    open: HashMap<u64, ResponseGate<R>>,
    next_txn: u64,
}

impl<R> Default for Gates<R> {
    fn default() -> Self {
        Gates {
            open: HashMap::new(),
            next_txn: 0,
        }
    }
}

/// One node's serving-side protocol state.
pub struct KernelProtocol<'a, R> {
    store: &'a GlobalStore,
    /// Replica cache and sharing directory (`None` on uncached runs).
    cache: Option<&'a CacheStore>,
    /// Release consistency instead of write-invalidate.
    rc: bool,
    gates: Gates<R>,
}

impl<'a, R: Copy> KernelProtocol<'a, R> {
    /// The protocol of a node serving `store`, with `cache` when the run
    /// replicates reads and `rc` selecting release consistency.
    pub fn new(store: &'a GlobalStore, cache: Option<&'a CacheStore>, rc: bool) -> Self {
        Self::resume(store, cache, rc, Gates::default())
    }

    /// [`KernelProtocol::new`], picking up the gates an earlier instance
    /// left open.
    pub fn resume(
        store: &'a GlobalStore,
        cache: Option<&'a CacheStore>,
        rc: bool,
        gates: Gates<R>,
    ) -> Self {
        KernelProtocol {
            store,
            cache,
            rc,
            gates,
        }
    }

    /// Let go of the store, keeping the open gates for
    /// [`KernelProtocol::resume`].
    pub fn suspend(self) -> Gates<R> {
        self.gates
    }

    /// Handle one message `from` sent (`reply` says where its answer
    /// goes). Returns the message when it is not the protocol's: process
    /// management, telemetry and shutdown are the driver's.
    pub fn handle<P: KernelPort<Reply = R>>(
        &mut self,
        port: &mut P,
        from: NodeId,
        reply: R,
        msg: Message,
    ) -> Option<Message> {
        let txn = KERNEL_TXN_BASE | self.gates.next_txn;
        let mut hooks = ServeHooks {
            port,
            cache: self.cache,
            rc: self.rc,
            requester: from,
            txn,
            acks: 0,
        };
        let served = serve_gm(self.store, msg, &mut hooks);
        let acks = hooks.acks;
        match served {
            Served::Response(resp) => {
                port.served(reply, &resp, acks > 0);
                if acks == 0 {
                    port.send(from, reply, resp);
                } else {
                    self.gates.next_txn += 1;
                    let gate = ResponseGate {
                        remaining: acks,
                        response: resp,
                        node: from,
                        to: reply,
                    };
                    self.gates.open.insert(txn, gate);
                }
            }
            Served::NotGm(Message::GmInvalidateAck { req }) => match self.gates.open.entry(req.0) {
                Entry::Occupied(mut gate) if gate.get().remaining > 1 => {
                    gate.get_mut().remaining -= 1;
                }
                Entry::Occupied(gate) => {
                    let gate = gate.remove();
                    port.send(gate.node, gate.to, gate.response);
                }
                Entry::Vacant(_) => port.protocol_error(
                    from,
                    "gm_invalidate_ack",
                    &format!("no response is gated on transaction {:#x}", req.0),
                ),
            },
            Served::NotGm(other) => match coordinate(port, from, reply, other) {
                // A remote completer is itself blocked awaiting a release
                // (unlike a caller in place, which proceeds straight
                // through the library call).
                Ok(Some(release)) => port.send(from, reply, release),
                Ok(None) => {}
                Err(other) => return Some(other),
            },
        }
        None
    }
}

/// The protocol around the engine-neutral GM service: each executed
/// operation is charged and counted, and runs its directory step, before
/// the next one executes.
struct ServeHooks<'p, P> {
    port: &'p mut P,
    cache: Option<&'p CacheStore>,
    rc: bool,
    requester: NodeId,
    /// Transaction id of this request's invalidations, should it need any.
    txn: u64,
    /// `GmInvalidate`s sent for this request so far.
    acks: usize,
}

impl<P: KernelPort> ServeHooks<'_, P> {
    /// Directory step for a served store mutation: each sharer to
    /// invalidate gets a `GmInvalidate` whose acknowledgement gates the
    /// response.
    fn wrote(&mut self, region: RegionId, offset: u64, len: usize) {
        let Some(cache) = self.cache else {
            return;
        };
        let (range, port) = ((region, offset, len), &mut *self.port);
        let holders =
            sharers_to_invalidate(cache, self.rc, range, self.requester, |c| port.count(c));
        self.acks += holders.len();
        for h in holders {
            let inv = Message::GmInvalidate {
                req: ReqId(self.txn),
                region,
                offset,
                len: len as u32,
            };
            self.port.send_kernel(h, inv);
        }
    }
}

/// The home's decision for a store mutation of `range` (region, offset,
/// length) by `writer`: the sharers that must drop their replicas, and
/// acknowledge, before the mutation is acknowledged. Release consistency
/// leaves the leases alone (the sharers self-invalidate at their next
/// acquire point) and only counts what was deferred; write-invalidate takes
/// them. One round per merged request: a coalesced write that absorbed
/// several `gm_write_nb` calls still counts a single round. The home
/// kernel asks for remote writers; a writer on the home node asks for
/// itself.
pub fn sharers_to_invalidate(
    cache: &CacheStore,
    rc: bool,
    (region, offset, len): (RegionId, u64, usize),
    writer: NodeId,
    count: impl FnOnce(KernelCount),
) -> Vec<NodeId> {
    if rc {
        if !cache.peek_holders(region, offset, len, writer).is_empty() {
            count(KernelCount::RcDeferred);
        }
        return Vec::new();
    }
    let holders = cache.take_holders(region, offset, len, writer);
    if !holders.is_empty() {
        count(KernelCount::InvalidationRound(holders.len()));
    }
    holders
}

impl<P: KernelPort> GmServiceHooks for ServeHooks<'_, P> {
    fn read_executed(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        self.port.charge_copy(data.len());
        self.port.count(KernelCount::RemoteRead(data.len()));
        if let Some(cache) = self.cache {
            // The reader keeps every block fully inside the response;
            // record it as a sharer of exactly those.
            let mut fresh = 0;
            for b in blocks_inside(offset, data.len()) {
                let lo = (b * CACHE_BLOCK as u64 - offset) as usize;
                let block = &data[lo..lo + CACHE_BLOCK];
                if self.port.lease(cache, self.requester, region, b, block) {
                    fresh += 1;
                }
            }
            if fresh > 0 {
                self.port.count(KernelCount::DirLeases(fresh));
            }
        }
    }

    fn write_executed(&mut self, region: RegionId, offset: u64, len: usize) {
        self.port.charge_copy(len);
        self.port.count(KernelCount::RemoteWrite(len));
        self.wrote(region, offset, len);
    }

    fn fetch_add_executed(&mut self, region: RegionId, offset: u64) {
        self.port.count(KernelCount::FetchAdd);
        self.wrote(region, offset, 8);
    }

    fn invalidated(&mut self, region: RegionId, offset: u64, len: usize) {
        // The holder side: drop this node's stale replicas before the ack
        // goes back to the writer's home.
        if let Some(cache) = self.cache {
            self.port.drop_replicas(cache, region, offset, len);
            self.port.count(KernelCount::DirInval);
        }
    }
}

/// Run the coordination call `call` — a `BarrierEnter`, `LockReq` or
/// `UnlockReq` that `node` made, its answers going to `reply` — on the
/// port's barrier and lock state. Returns the `BarrierRelease` of the round
/// the call completed, which the caller does not get from the round: a
/// caller in place proceeds straight through, a remote enterer is sent it.
/// Any other message comes back as the error.
pub fn coordinate<P: Coordinator>(
    port: &mut P,
    node: NodeId,
    reply: P::Reply,
    call: Message,
) -> Result<Option<Message>, Message> {
    let party = |pid, req| Party {
        pid,
        node,
        reply_to: reply,
        req,
    };
    match call {
        Message::BarrierEnter { barrier, pid } => {
            let epoch = barrier_enter(port, barrier, party(pid, ReqId(0)));
            return Ok(epoch.map(|epoch| Message::BarrierRelease { barrier, epoch }));
        }
        Message::LockReq { req, lock, pid } => lock_acquire(port, lock, party(pid, req)),
        Message::UnlockReq { lock, pid } => lock_release(port, lock, pid),
        other => return Err(other),
    }
    Ok(None)
}

/// Enter `barrier` on behalf of `party` and, if that completed the round,
/// release every *earlier* waiter, in arrival order. Returns the completed
/// epoch: the caller decides whether `party` itself proceeds directly (the
/// own-node library call) or needs its own release message (a remote
/// enter).
pub fn barrier_enter<P: Coordinator>(
    port: &mut P,
    barrier: u32,
    party: Party<P::Reply>,
) -> Option<u32> {
    match port.barriers().enter(barrier, party) {
        BarrierOutcome::Wait => None,
        BarrierOutcome::Complete { epoch, waiters } => {
            port.count(KernelCount::BarrierEpoch);
            for w in &waiters {
                port.send(
                    w.node,
                    w.reply_to,
                    Message::BarrierRelease { barrier, epoch },
                );
            }
            let first = waiters.first().unwrap_or(&party).reply_to;
            port.barrier_completed(barrier, epoch, first);
            Some(epoch)
        }
    }
}

/// Request `lock` on behalf of `party`; sends the grant if it was free,
/// queues the party (first come, first served) otherwise.
pub fn lock_acquire<P: Coordinator>(port: &mut P, lock: u32, party: Party<P::Reply>) {
    if let LockOutcome::Granted = port.locks().acquire(lock, party) {
        grant(port, lock, party);
    }
}

/// Release `lock`, which `pid` holds; ownership passes to the longest
/// waiting party, if any.
pub fn lock_release<P: Coordinator>(port: &mut P, lock: u32, pid: GlobalPid) {
    if let UnlockOutcome::Granted(next) = port.locks().release(lock, pid) {
        grant(port, lock, next);
    }
}

fn grant<P: Coordinator>(port: &mut P, lock: u32, to: Party<P::Reply>) {
    port.count(KernelCount::LockGrant);
    let req = to.req;
    port.send(to.node, to.reply_to, Message::LockGrant { req, lock });
}
