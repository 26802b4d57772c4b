//! The frame discipline of both backends. An endpoint is an [`Inbox`] of
//! `(from, delivery)` items plus a [`FrameMux`]: the mux numbers and
//! encodes every frame it sends, and reassembles, sequence-checks and
//! decodes every delivery its endpoint's receiving thread pops. A channel
//! endpoint's inbox is filled by its peers' sends; a socket endpoint's by
//! a pump thread that moves bytes from each connection. Either way only
//! encoded bytes move, so the wire codec runs even when no socket does.

use std::collections::VecDeque;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use std::sync::Arc;

use dse_msg::{
    encode_bye_into, encode_frame_ctx_into, frame_len, is_bulk, FrameDecoder, FrameEvent, Message,
    TraceCtx, FRAME_HEADER_LEN,
};

use crate::{Envelope, TransportError};

/// One delivery into an endpoint's inbox from one sender.
pub(crate) enum Inbound {
    /// Frame bytes in stream order: whole frames from a channel peer or a
    /// loopback send, whatever one read returned on a socket.
    Bytes(Vec<u8>),
    /// The sender's stream ended.
    Eof,
    /// Reading the sender's stream failed.
    Failed(String),
}

/// An endpoint's inbox: deliveries tagged with their sender, in arrival
/// order.
pub(crate) type Inbox = BlockingQueue<(u32, Inbound)>;

/// Hand encoded `frames` from `from` to the endpoint behind `inbox`, buffer
/// and all: a channel send, or a socket endpoint's send to itself.
pub(crate) fn hand_over(
    inbox: &Inbox,
    from: u32,
    to: u32,
    frames: &mut Vec<u8>,
) -> Result<(), TransportError> {
    if inbox.push((from, Inbound::Bytes(std::mem::take(frames)))) {
        Ok(())
    } else {
        Err(TransportError::PeerDropped { peer: to })
    }
}

/// Cap on buffers retained by a [`FramePool`]; beyond this, returned
/// buffers are simply dropped.
const POOL_MAX_BUFS: usize = 64;

/// Capacity above which a returned buffer is dropped instead of pooled, so
/// one giant frame doesn't pin its footprint forever (mirrors the decoder's
/// high-water policy).
const POOL_MAX_CAP: usize = 64 * 1024;

/// A free-list of frame buffers shared by an endpoint's senders and its
/// receiving thread (a channel cluster shares one across all endpoints).
///
/// Senders [`get`](FramePool::get) a cleared buffer, encode a frame into
/// it, and hand it to the destination's inbox; a socket's pump takes one
/// per read. The receiver returns it with [`put`](FramePool::put) once
/// ingested. In steady state every small frame hop reuses a warm buffer
/// and the send path allocates nothing. Bulk deliveries stay outside it:
/// a sender gets a buffer of their exact size, and the receiving decoder
/// keeps any bulk-sized delivery, a socket read's pooled buffer included.
#[derive(Default)]
pub struct FramePool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl FramePool {
    /// The buffer to put `len` bytes of frames into: a cleared pooled one
    /// (or a fresh one when empty), or for a bulk delivery one of exactly
    /// that size — the receiver's decoder adopts it, so it never comes
    /// back, and growing a pooled buffer for it would take that one out of
    /// circulation too.
    pub fn get(&self, len: usize) -> Vec<u8> {
        if is_bulk(len) {
            return Vec::with_capacity(len);
        }
        self.bufs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Return a spent buffer for reuse. Oversized or surplus buffers are
    /// dropped rather than retained.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAP {
            return;
        }
        buf.clear();
        let mut g = self.bufs.lock().unwrap_or_else(|e| e.into_inner());
        if g.len() < POOL_MAX_BUFS {
            g.push(buf);
        }
    }

    /// Buffers currently pooled (observability for tests).
    #[cfg(test)]
    pub fn pooled(&self) -> usize {
        self.bufs.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Outcome of a timed pop.
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed.
    TimedOut,
    /// The queue is closed and drained.
    Closed,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers inside `Condvar::wait`/`wait_timeout` right now.
    parked: usize,
}

/// An unbounded MPSC queue with timed blocking pop — the one blocking
/// primitive of the live engine (endpoint inboxes of every transport, app
/// inboxes). Items already queued remain poppable after `close`
/// (drain-then-closed semantics), so a clean shutdown never discards
/// delivered frames.
///
/// A hand-off costs the consumer one context switch, by two rules:
///
/// * **Wake after unlock.** `push` and `close` release the mutex before
///   they notify. Notifying under the lock schedules the consumer only for
///   it to block on the mutex the producer still holds and be woken a
///   second time.
/// * **Wake only a parked consumer.** A consumer counts itself in `parked`
///   under the mutex around its wait; `push` reads the count before it
///   unlocks and makes no futex call when it is zero (a consumer that is
///   polling, or was pre-empted rather than parked): 18 % of the pushes of
///   the benchmark's `sync` workload, where the rule is worth 6 % of
///   throughput on top of the first, and 51 % of `tasks64`'s, where it is
///   worth nothing measurable (DESIGN §5j).
///
/// No wake-up is lost: a consumer checks for items, counts itself and
/// enters the wait without releasing the mutex in between, so a producer's
/// critical section falls either before that check — the consumer pops the
/// item itself — or after the consumer is counted, and the producer
/// notifies. If the counted consumer has meanwhile left the wait on its
/// own (timeout, spurious return), the notify finds nobody, and the
/// consumer re-checks under the mutex before it parks again. The count
/// only ever over-states who is waiting, which costs a spare wake, never a
/// missing one.
pub struct BlockingQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    /// `notify_one` calls issued by `push`.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl<T> Default for BlockingQueue<T> {
    fn default() -> Self {
        BlockingQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            cv: Condvar::new(),
            #[cfg(test)]
            wakes: Default::default(),
        }
    }
}

impl<T> BlockingQueue<T> {
    /// Enqueue an item. Returns `false` (dropping the item) if closed.
    pub fn push(&self, item: T) -> bool {
        let wake = {
            let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if g.closed {
                return false;
            }
            g.items.push_back(item);
            g.parked > 0
        };
        if wake {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::Relaxed);
            self.cv.notify_one();
        }
        true
    }

    /// Dequeue with an optional timeout (`None` blocks indefinitely).
    pub fn pop(&self, timeout: Option<Duration>) -> Pop<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = g.items.pop_front() {
                return Pop::Item(item);
            }
            if g.closed {
                return Pop::Closed;
            }
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Pop::TimedOut;
                    }
                    Some(d - now)
                }
            };
            g.parked += 1;
            g = match remaining {
                None => self.cv.wait(g).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    self.cv
                        .wait_timeout(g, t)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            g.parked -= 1;
        }
    }

    /// Close the queue, waking all waiters.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.cv.notify_all();
    }
}

/// Send side for one destination: its next sequence number and the buffer
/// its frames are encoded into. A delivery that keeps the buffer (a socket
/// write) leaves it warm for the next frame; one that hands it on (an
/// inbox push) leaves it empty, and the next frame takes one from the pool.
#[derive(Default)]
struct PeerTx {
    next_seq: u64,
    buf: Vec<u8>,
}

/// Receive side for one sender.
#[derive(Default)]
struct PeerRx {
    dec: FrameDecoder,
    next_seq: u64,
    /// The sender said `Bye`: its stream may now end quietly.
    bye: bool,
    /// Nothing more is taken from this sender: its stream ended, or it
    /// broke the discipline (a sequence gap or an undecodable frame).
    stopped: bool,
}

impl PeerRx {
    /// Decode every complete frame buffered from `from` into `ready`.
    fn decode(
        &mut self,
        from: u32,
        ready: &mut VecDeque<Result<Envelope, TransportError>>,
    ) -> Result<(), TransportError> {
        while let Some(event) = self.dec.next_frame()? {
            let (seq, env) = match event {
                FrameEvent::Bye { seq } => (seq, None),
                FrameEvent::Msg { seq, msg, ctx } => (
                    seq,
                    Some(Envelope {
                        from,
                        seq,
                        msg,
                        ctx,
                    }),
                ),
            };
            if seq != self.next_seq {
                return Err(TransportError::SequenceGap {
                    peer: from,
                    expected: self.next_seq,
                    got: seq,
                });
            }
            self.next_seq += 1;
            match env {
                Some(env) => ready.push_back(Ok(env)),
                None => self.bye = true,
            }
        }
        Ok(())
    }
}

/// The frame discipline of one endpoint: per-destination sequence
/// allocation and encoding on the send side; per-sender reassembly,
/// sequence checking and decoding of the endpoint's inbox deliveries on
/// the receive side.
pub struct FrameMux {
    pe: u32,
    npes: u32,
    /// One lock per destination, held across delivery (see `send_with`),
    /// so no lock shared by two destinations is held across a socket write.
    tx: Vec<Mutex<PeerTx>>,
    rx: Mutex<Vec<PeerRx>>,
    /// Decoded messages, and the one error that stopped a sender, in the
    /// order its frames arrived.
    ready: Mutex<VecDeque<Result<Envelope, TransportError>>>,
    pool: Arc<FramePool>,
}

impl FrameMux {
    /// A mux whose frame buffers come from (and return to) `pool`. The
    /// channel cluster shares one pool so a buffer sent by PE a and
    /// ingested by PE b goes back into circulation for any sender.
    pub fn with_pool(pe: u32, npes: u32, pool: Arc<FramePool>) -> Self {
        FrameMux {
            pe,
            npes,
            tx: (0..npes).map(|_| Mutex::default()).collect(),
            rx: Mutex::new((0..npes).map(|_| PeerRx::default()).collect()),
            ready: Mutex::new(VecDeque::new()),
            pool,
        }
    }

    pub fn pe(&self) -> u32 {
        self.pe
    }

    pub fn npes(&self) -> u32 {
        self.npes
    }

    /// The frame-buffer pool this mux draws from.
    #[cfg(test)]
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Encode frames for `to` and hand them to `deliver`. `encode` writes
    /// `len` bytes of frames numbered from the destination's next sequence
    /// number and returns the number after them, which is kept only if the
    /// delivery succeeds. The destination's lock stays held across
    /// delivery: an endpoint may be shared by several sending threads, and
    /// allocating the number in one step but delivering in another would
    /// let two frames reach the same destination out of sequence order.
    fn send_with(
        &self,
        to: u32,
        len: usize,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> u64,
        deliver: impl FnOnce(&mut Vec<u8>) -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        let slot = self
            .tx
            .get(to as usize)
            .ok_or(TransportError::NoSuchPeer { peer: to })?;
        let mut tx = slot.lock().unwrap_or_else(|e| e.into_inner());
        let PeerTx { next_seq, buf } = &mut *tx;
        if buf.capacity() == 0 {
            *buf = self.pool.get(len);
        }
        buf.clear();
        let next = encode(buf, *next_seq);
        deliver(buf)?;
        *next_seq = next;
        Ok(())
    }

    /// Encode `msg` as the next frame for destination `to` and hand it to
    /// `deliver`, which writes it or takes the buffer.
    pub fn send_frame(
        &self,
        to: u32,
        msg: &Message,
        ctx: Option<TraceCtx>,
        deliver: impl FnOnce(&mut Vec<u8>) -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        let encode = |buf: &mut Vec<u8>, seq| {
            encode_frame_ctx_into(buf, seq, msg, ctx);
            seq + 1
        };
        self.send_with(to, frame_len(msg, ctx), encode, deliver)
    }

    /// Encode a run of messages as consecutive frames for `to` into one
    /// buffer and hand it to `deliver` in one delivery. The receive side's
    /// frame decoder is a streaming reassembler, so one multi-frame buffer
    /// is indistinguishable from back-to-back single frames — but the queue
    /// (or socket) is touched once instead of once per message.
    pub fn send_frames(
        &self,
        to: u32,
        msgs: &[(Message, Option<TraceCtx>)],
        deliver: impl FnOnce(&mut Vec<u8>) -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        if msgs.is_empty() {
            return Ok(());
        }
        let len = msgs.iter().map(|(msg, ctx)| frame_len(msg, *ctx)).sum();
        let encode = |buf: &mut Vec<u8>, mut seq| {
            for (msg, ctx) in msgs {
                encode_frame_ctx_into(buf, seq, msg, *ctx);
                seq += 1;
            }
            seq
        };
        self.send_with(to, len, encode, deliver)
    }

    /// The send side of the clean-shutdown handshake: a `Bye` to every
    /// other PE, numbered in its sequence like any frame, through
    /// `deliver(to, frame)`. A destination that cannot take it is skipped.
    pub fn send_byes(
        &self,
        mut deliver: impl FnMut(u32, &mut Vec<u8>) -> Result<(), TransportError>,
    ) {
        for to in (0..self.npes).filter(|&to| to != self.pe) {
            let encode = |buf: &mut Vec<u8>, seq| {
                encode_bye_into(buf, seq);
                seq + 1
            };
            let _ = self.send_with(to, FRAME_HEADER_LEN, encode, |bye| deliver(to, bye));
        }
    }

    /// Take one delivery from `from`. Frame bytes are reassembled,
    /// sequence-checked and decoded into the ready queue, and the buffer
    /// goes back to the pool unless the decoder kept it. The end of the
    /// sender's stream is quiet after its `Bye` and
    /// [`TransportError::PeerDropped`] before it (a cut mid-frame too); a
    /// failed read is [`TransportError::Io`]. A sequence gap or an
    /// undecodable frame keeps its own error. Each of these is reported
    /// once, after the messages that arrived before it, and nothing more is
    /// taken from that sender.
    fn ingest(&self, from: u32, inbound: Inbound) {
        let mut rx = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        let pr = &mut rx[from as usize];
        if pr.stopped {
            if let Inbound::Bytes(spent) = inbound {
                self.pool.put(spent);
            }
            return;
        }
        let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        let failure = match inbound {
            Inbound::Bytes(bytes) => {
                if let Some(spent) = pr.dec.push_owned(bytes) {
                    self.pool.put(spent);
                }
                match pr.decode(from, &mut ready) {
                    Ok(()) => return,
                    Err(e) => Some(e),
                }
            }
            Inbound::Eof => (!pr.bye).then_some(TransportError::PeerDropped { peer: from }),
            Inbound::Failed(e) => (!pr.bye).then_some(TransportError::Io(e)),
        };
        pr.stopped = true;
        ready.extend(failure.map(Err));
    }

    /// Pop one decoded envelope or sender error, if any.
    fn take_ready(&self) -> Option<Result<Envelope, TransportError>> {
        self.ready
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    /// Pop one delivery from `inbox`, waiting up to `wait`, and ingest it.
    /// `None` means look at the ready queue again; otherwise the receive
    /// ends with what is returned.
    fn pull(
        &self,
        inbox: &Inbox,
        wait: Option<Duration>,
    ) -> Option<Result<Option<Envelope>, TransportError>> {
        match inbox.pop(wait) {
            Pop::Item((from, inbound)) => {
                self.ingest(from, inbound);
                None
            }
            Pop::TimedOut => Some(Ok(None)),
            Pop::Closed => Some(Err(TransportError::Closed)),
        }
    }

    /// Drive the inbox until an envelope is ready or the timeout elapses.
    /// A closed inbox still yields what it held, then `Closed`.
    pub fn recv_via(
        &self,
        inbox: &Inbox,
        timeout: Option<Duration>,
    ) -> Result<Option<Envelope>, TransportError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(ready) = self.take_ready() {
                return ready.map(Some);
            }
            let remaining = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Ok(None),
                },
            };
            if let Some(done) = self.pull(inbox, remaining) {
                return done;
            }
        }
    }

    /// Non-blocking receive: drain whatever the inbox already holds into
    /// the decoder and pop one envelope if any is ready. Never waits.
    /// (`recv_via` with a zero timeout is *not* equivalent — its deadline
    /// check fires before the inbox pop, so queued-but-undecoded frames
    /// would never be ingested.)
    pub fn poll_via(&self, inbox: &Inbox) -> Result<Option<Envelope>, TransportError> {
        loop {
            if let Some(ready) = self.take_ready() {
                return ready.map(Some);
            }
            if let Some(done) = self.pull(inbox, Some(Duration::ZERO)) {
                return done;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn wakes<T>(q: &BlockingQueue<T>) -> usize {
        q.wakes.load(Ordering::Relaxed)
    }

    /// Spin until `n` consumers are inside their wait. The count is read
    /// under the queue mutex, so once it shows `n` each of them has
    /// released the mutex through the condvar and a notify will reach it.
    fn await_parked<T>(q: &BlockingQueue<T>, n: usize) {
        while q.inner.lock().unwrap().parked != n {
            thread::yield_now();
        }
    }

    fn item<T>(p: Pop<T>) -> T {
        match p {
            Pop::Item(v) => v,
            Pop::TimedOut => panic!("timed out"),
            Pop::Closed => panic!("closed"),
        }
    }

    #[test]
    fn fifo_within_each_producer() {
        const PER: u64 = 1000;
        let q = BlockingQueue::<(usize, u64)>::default();
        thread::scope(|s| {
            for p in 0..3 {
                let q = &q;
                s.spawn(move || (0..PER).for_each(|i| assert!(q.push((p, i)))));
            }
            let mut next = [0u64; 3];
            for _ in 0..3 * PER {
                let (p, i) = item(q.pop(None));
                assert_eq!(i, next[p], "producer {p} out of order");
                next[p] += 1;
            }
        });
        assert!(matches!(q.pop(Some(Duration::ZERO)), Pop::TimedOut));
    }

    #[test]
    fn close_drains_then_reports_closed_and_refuses_pushes() {
        let q = BlockingQueue::default();
        for i in 0..5 {
            assert!(q.push(i));
        }
        q.close();
        assert!(!q.push(99), "push after close must be refused");
        for i in 0..5 {
            assert_eq!(item(q.pop(None)), i);
        }
        assert!(matches!(q.pop(None), Pop::Closed));
        assert!(matches!(q.pop(Some(Duration::from_millis(1))), Pop::Closed));
    }

    #[test]
    fn timed_pop_on_empty_queue_times_out() {
        let q = BlockingQueue::<u8>::default();
        assert!(matches!(q.pop(Some(Duration::ZERO)), Pop::TimedOut));
        assert!(matches!(
            q.pop(Some(Duration::from_millis(2))),
            Pop::TimedOut
        ));
    }

    #[test]
    fn push_with_nobody_parked_issues_no_wake() {
        let q = BlockingQueue::default();
        // A consumer that timed out has left the count again.
        assert!(matches!(
            q.pop(Some(Duration::from_millis(1))),
            Pop::TimedOut
        ));
        for i in 0..100 {
            q.push(i);
        }
        assert_eq!(wakes(&q), 0);
        // Nor does a consumer that finds items ever park.
        for i in 0..100 {
            assert_eq!(item(q.pop(None)), i);
        }
        q.push(0);
        assert_eq!(wakes(&q), 0);
    }

    #[test]
    fn push_to_one_parked_consumer_issues_exactly_one_wake() {
        let q = BlockingQueue::default();
        thread::scope(|s| {
            let consumer = s.spawn(|| item(q.pop(None)));
            await_parked(&q, 1);
            q.push(7);
            assert_eq!(consumer.join().unwrap(), 7);
        });
        assert_eq!(wakes(&q), 1);
        // The woken consumer left the count: the next push is silent.
        q.push(8);
        assert_eq!(wakes(&q), 1);
    }

    #[test]
    fn close_wakes_every_parked_consumer() {
        let q = BlockingQueue::<u8>::default();
        thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|i| {
                    let q = &q;
                    // Timed and untimed waits both end on close.
                    let timeout = (i == 0).then_some(Duration::from_secs(3600));
                    s.spawn(move || matches!(q.pop(timeout), Pop::Closed))
                })
                .collect();
            await_parked(&q, 3);
            q.close();
            for c in consumers {
                assert!(c.join().unwrap(), "a parked consumer must see Closed");
            }
        });
        assert_eq!(q.inner.lock().unwrap().parked, 0);
    }

    /// Lost wake-up stress: a wake-up that went missing would leave the
    /// consumer parked on a non-empty queue and the test would hang.
    fn stress(timeout: Option<Duration>) {
        const PRODUCERS: usize = 4;
        const PER: u64 = 200_000;
        let q = BlockingQueue::<(usize, u64)>::default();
        thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || (0..PER).for_each(|i| assert!(q.push((p, i)))))
                })
                .collect();
            let consumer = s.spawn(|| {
                let mut next = [0u64; PRODUCERS];
                loop {
                    match q.pop(timeout) {
                        Pop::Item((p, i)) => {
                            assert_eq!(i, next[p], "producer {p}: lost, repeated or reordered");
                            next[p] += 1;
                        }
                        Pop::TimedOut => assert!(timeout.is_some()),
                        Pop::Closed => return next,
                    }
                }
            });
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            assert_eq!(consumer.join().unwrap(), [PER; PRODUCERS]);
        });
    }

    #[test]
    fn no_wakeup_is_lost_with_untimed_pops() {
        stress(None);
    }

    #[test]
    fn no_wakeup_is_lost_with_timed_pops() {
        stress(Some(Duration::from_millis(1)));
    }
}
