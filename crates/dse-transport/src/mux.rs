//! Plumbing of the in-process backend: a blocking frame queue per PE and a
//! demultiplexer that reassembles/sequence-checks frames from each sender.
//! [`crate::ChannelTransport`] delivers *encoded frame bytes* into these
//! queues, so the wire codec is exercised even when no socket is involved.

use std::collections::VecDeque;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use std::sync::Arc;

use dse_msg::{
    encode_bye_into, encode_frame_ctx_into, frame_len, is_bulk, FrameDecoder, FrameEvent, Message,
    TraceCtx,
};

use crate::{Envelope, TransportError};

/// Cap on buffers retained by a [`FramePool`]; beyond this, returned
/// buffers are simply dropped.
const POOL_MAX_BUFS: usize = 64;

/// Capacity above which a returned buffer is dropped instead of pooled, so
/// one giant frame doesn't pin its footprint forever (mirrors the decoder's
/// high-water policy).
const POOL_MAX_CAP: usize = 64 * 1024;

/// A free-list of frame encode buffers shared by a cluster's endpoints.
///
/// Senders [`get`](FramePool::get) a cleared buffer, encode a frame into
/// it, and hand it to the destination's inbox; the receiver returns it with
/// [`put`](FramePool::put) once ingested. In steady state every small frame
/// hop reuses a warm buffer and the send path allocates nothing. Bulk
/// frames stay outside it: they are encoded at their exact size and the
/// receiving decoder keeps the buffer.
#[derive(Default)]
pub struct FramePool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl FramePool {
    /// Take a cleared buffer from the pool (or a fresh one when empty).
    pub fn get(&self) -> Vec<u8> {
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
/// primitive of the live engine (channel endpoint inboxes, app inboxes, the
/// socket event queue). Items already queued remain poppable after `close`
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

struct PeerRx {
    dec: FrameDecoder,
    next_seq: u64,
    bye: bool,
}

/// Receive-side demux: per-sender frame reassembly and sequence checking
/// over a single inbox of `(from, frame-bytes)` deliveries, plus the
/// per-destination send sequence counters.
pub struct FrameMux {
    pe: u32,
    npes: u32,
    tx_seq: Mutex<Vec<u64>>,
    rx: Mutex<Vec<PeerRx>>,
    ready: Mutex<VecDeque<Envelope>>,
    pool: Arc<FramePool>,
}

impl FrameMux {
    /// A mux whose encode buffers come from (and return to) `pool`. Cluster
    /// constructors share one pool so a buffer sent by PE a and ingested by
    /// PE b goes back into circulation for any sender.
    pub fn with_pool(pe: u32, npes: u32, pool: Arc<FramePool>) -> Self {
        FrameMux {
            pe,
            npes,
            tx_seq: Mutex::new(vec![0; npes as usize]),
            rx: Mutex::new(
                (0..npes)
                    .map(|_| PeerRx {
                        dec: FrameDecoder::new(),
                        next_seq: 0,
                        bye: false,
                    })
                    .collect(),
            ),
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

    /// The buffer to encode `len` bytes of frames into: a pooled one, or for
    /// a bulk delivery one of exactly that size — the receiver's decoder
    /// adopts it, so it never comes back, and growing a pooled buffer for it
    /// would take that one out of circulation too.
    fn frame_buf(&self, len: usize) -> Vec<u8> {
        if is_bulk(len) {
            Vec::with_capacity(len)
        } else {
            self.pool.get()
        }
    }

    /// Encode `msg` as the next frame for destination `to` and hand it to
    /// `deliver` (returning `false` means the destination dropped it). The
    /// sequence allocator stays locked across delivery: an endpoint may be
    /// shared by several sending threads, and allocating the number in one
    /// step but delivering in another would let two frames reach the same
    /// destination out of sequence order.
    pub fn send_frame(
        &self,
        to: u32,
        msg: &Message,
        ctx: Option<TraceCtx>,
        deliver: impl FnOnce(Vec<u8>) -> bool,
    ) -> Result<(), TransportError> {
        if to >= self.npes {
            return Err(TransportError::NoSuchPeer { peer: to });
        }
        let mut seqs = self.tx_seq.lock().unwrap_or_else(|e| e.into_inner());
        let seq = seqs[to as usize];
        let mut frame = self.frame_buf(frame_len(msg, ctx));
        encode_frame_ctx_into(&mut frame, seq, msg, ctx);
        if !deliver(frame) {
            return Err(TransportError::PeerDropped { peer: to });
        }
        seqs[to as usize] += 1;
        Ok(())
    }

    /// Encode a run of messages as consecutive frames for `to` into a
    /// single pooled buffer and hand it to `deliver` in one delivery. The
    /// receive side's frame decoder is a streaming reassembler, so one
    /// multi-frame buffer is indistinguishable from back-to-back single
    /// frames — but the queue (or socket) is touched once instead of once
    /// per message.
    pub fn send_frames(
        &self,
        to: u32,
        msgs: &[(Message, Option<TraceCtx>)],
        deliver: impl FnOnce(Vec<u8>) -> bool,
    ) -> Result<(), TransportError> {
        if to >= self.npes {
            return Err(TransportError::NoSuchPeer { peer: to });
        }
        if msgs.is_empty() {
            return Ok(());
        }
        let mut seqs = self.tx_seq.lock().unwrap_or_else(|e| e.into_inner());
        let mut seq = seqs[to as usize];
        let len = msgs.iter().map(|(msg, ctx)| frame_len(msg, *ctx)).sum();
        let mut frame = self.frame_buf(len);
        for (msg, ctx) in msgs {
            encode_frame_ctx_into(&mut frame, seq, msg, *ctx);
            seq += 1;
        }
        if !deliver(frame) {
            return Err(TransportError::PeerDropped { peer: to });
        }
        seqs[to as usize] = seq;
        Ok(())
    }

    /// Encode the `Bye` frame for destination `to` and hand it to `deliver`
    /// (same locking discipline as [`FrameMux::send_frame`]).
    pub fn send_bye(&self, to: u32, deliver: impl FnOnce(Vec<u8>) -> bool) {
        let mut seqs = self.tx_seq.lock().unwrap_or_else(|e| e.into_inner());
        let seq = seqs[to as usize];
        let mut frame = self.pool.get();
        encode_bye_into(&mut frame, seq);
        if deliver(frame) {
            seqs[to as usize] += 1;
        }
    }

    /// Feed one delivery of frame bytes received from `from`; decoded
    /// messages land in the ready queue. The buffer goes back to the pool
    /// unless the decoder kept it.
    pub fn ingest(&self, from: u32, bytes: Vec<u8>) -> Result<(), TransportError> {
        let mut rx = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        let pr = &mut rx[from as usize];
        if let Some(spent) = pr.dec.push_owned(bytes) {
            self.pool.put(spent);
        }
        loop {
            match pr.dec.next_frame()? {
                None => break,
                Some(FrameEvent::Bye { seq }) => {
                    Self::check_seq(from, &mut pr.next_seq, seq)?;
                    pr.bye = true;
                }
                Some(FrameEvent::Msg { seq, msg, ctx }) => {
                    Self::check_seq(from, &mut pr.next_seq, seq)?;
                    self.ready
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(Envelope {
                            from,
                            seq,
                            msg,
                            ctx,
                        });
                }
            }
        }
        Ok(())
    }

    fn check_seq(from: u32, next: &mut u64, got: u64) -> Result<(), TransportError> {
        if got != *next {
            return Err(TransportError::SequenceGap {
                peer: from,
                expected: *next,
                got,
            });
        }
        *next += 1;
        Ok(())
    }

    /// Pop one decoded envelope, if any.
    pub fn take_ready(&self) -> Option<Envelope> {
        self.ready
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    /// Drive the inbox until an envelope is ready or the timeout elapses.
    pub fn recv_via(
        &self,
        inbox: &BlockingQueue<(u32, Vec<u8>)>,
        timeout: Option<Duration>,
    ) -> Result<Option<Envelope>, TransportError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(env) = self.take_ready() {
                return Ok(Some(env));
            }
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Ok(None);
                    }
                    Some(d - now)
                }
            };
            match inbox.pop(remaining) {
                Pop::Item((from, bytes)) => self.ingest(from, bytes)?,
                Pop::TimedOut => return Ok(None),
                Pop::Closed => {
                    // Drain anything decoded between the check above and
                    // the close, then report closure.
                    return match self.take_ready() {
                        Some(env) => Ok(Some(env)),
                        None => Err(TransportError::Closed),
                    };
                }
            }
        }
    }

    /// Non-blocking receive: drain whatever the inbox already holds into
    /// the decoder and pop one envelope if any is ready. Never waits.
    /// (`recv_via` with a zero timeout is *not* equivalent — its deadline
    /// check fires before the inbox pop, so queued-but-undecoded frames
    /// would never be ingested.)
    pub fn poll_via(
        &self,
        inbox: &BlockingQueue<(u32, Vec<u8>)>,
    ) -> Result<Option<Envelope>, TransportError> {
        loop {
            if let Some(env) = self.take_ready() {
                return Ok(Some(env));
            }
            match inbox.pop(Some(Duration::ZERO)) {
                Pop::Item((from, bytes)) => self.ingest(from, bytes)?,
                Pop::TimedOut => return Ok(None),
                Pop::Closed => {
                    return match self.take_ready() {
                        Some(env) => Ok(Some(env)),
                        None => Err(TransportError::Closed),
                    };
                }
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
