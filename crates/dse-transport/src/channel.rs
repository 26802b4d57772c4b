//! In-process channel backend: one blocking queue per PE, frames delivered
//! as encoded bytes. The cheapest backend that still exercises the full
//! encode → frame → sequence-check → decode wire path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dse_msg::{Message, TraceCtx};

use crate::mux::{hand_over, FrameMux, FramePool, Inbox};
use crate::{Envelope, Transport, TransportError};

/// In-process MPSC channel transport. Build a whole cluster with
/// [`ChannelTransport::cluster`]; endpoint `i` of the returned vector
/// belongs to PE `i`.
pub struct ChannelTransport {
    mux: FrameMux,
    inboxes: Arc<Vec<Inbox>>,
    aborted: AtomicBool,
}

impl ChannelTransport {
    /// Create `npes` connected endpoints.
    pub fn cluster(npes: u32) -> Vec<ChannelTransport> {
        let inboxes: Arc<Vec<Inbox>> = Arc::new((0..npes).map(|_| Inbox::default()).collect());
        // One frame pool for the whole cluster: a receiver returns spent
        // buffers into circulation for every sender.
        let pool = Arc::new(FramePool::default());
        (0..npes)
            .map(|pe| ChannelTransport {
                mux: FrameMux::with_pool(pe, npes, Arc::clone(&pool)),
                inboxes: Arc::clone(&inboxes),
                aborted: AtomicBool::new(false),
            })
            .collect()
    }

    fn inbox(&self) -> &Inbox {
        &self.inboxes[self.mux.pe() as usize]
    }

    /// Push encoded frames into `to`'s inbox, unless this endpoint aborted.
    fn deliver(&self, to: u32, frames: &mut Vec<u8>) -> Result<(), TransportError> {
        if self.aborted.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        hand_over(&self.inboxes[to as usize], self.mux.pe(), to, frames)
    }
}

impl Transport for ChannelTransport {
    fn pe(&self) -> u32 {
        self.mux.pe()
    }

    fn npes(&self) -> u32 {
        self.mux.npes()
    }

    fn send(&self, to: u32, msg: &Message) -> Result<(), TransportError> {
        self.mux
            .send_frame(to, msg, None, |frame| self.deliver(to, frame))
    }

    fn send_ctx(&self, to: u32, msg: &Message, ctx: TraceCtx) -> Result<(), TransportError> {
        self.mux
            .send_frame(to, msg, Some(ctx), |frame| self.deliver(to, frame))
    }

    fn send_batch(
        &self,
        to: u32,
        msgs: &[(Message, Option<TraceCtx>)],
    ) -> Result<(), TransportError> {
        // One pooled buffer, one queue push (one lock + one wakeup) for the
        // whole run — the receiver's streaming decoder splits it back into
        // frames.
        self.mux
            .send_frames(to, msgs, |frames| self.deliver(to, frames))
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Option<Envelope>, TransportError> {
        self.mux.recv_via(self.inbox(), timeout)
    }

    fn poll_recv(&self) -> Result<Option<Envelope>, TransportError> {
        self.mux.poll_via(self.inbox())
    }

    fn shutdown(&self) {
        // Announce Bye to every peer, then close our own inbox so a
        // blocked `recv` wakes with `Closed` once drained.
        self.mux.send_byes(|to, bye| self.deliver(to, bye));
        self.inbox().close();
    }

    fn abort(&self) {
        // Die without the Bye handshake: close our inbox (local recv drains
        // then reports `Closed`) and refuse further sends, a late shutdown's
        // `Bye`s included. Peers discover the death when their next send to
        // us returns `PeerDropped`.
        self.aborted.store(true, Ordering::Release);
        self.inbox().close();
    }

    fn kind(&self) -> &'static str {
        "channel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_msg::{RegionId, ReqId};

    fn msg(i: u64) -> Message {
        Message::GmReadReq {
            req: ReqId(i),
            region: RegionId(1),
            offset: i,
            len: 4,
        }
    }

    #[test]
    fn sequence_numbers_count_per_destination() {
        let cluster = ChannelTransport::cluster(3);
        cluster[0].send(1, &msg(0)).unwrap();
        cluster[0].send(2, &msg(1)).unwrap();
        cluster[0].send(1, &msg(2)).unwrap();
        let e1 = cluster[1]
            .recv(Some(Duration::from_secs(1)))
            .unwrap()
            .unwrap();
        let e2 = cluster[1]
            .recv(Some(Duration::from_secs(1)))
            .unwrap()
            .unwrap();
        let e3 = cluster[2]
            .recv(Some(Duration::from_secs(1)))
            .unwrap()
            .unwrap();
        assert_eq!((e1.seq, e2.seq, e3.seq), (0, 1, 0));
    }

    #[test]
    fn frame_buffers_recycle_through_the_cluster_pool() {
        let mut cluster = ChannelTransport::cluster(2);
        let b = cluster.pop().unwrap();
        let a = cluster.pop().unwrap();
        assert_eq!(a.mux.pool().pooled(), 0);
        for i in 0..8 {
            a.send(1, &msg(i)).unwrap();
            b.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        }
        // The receiver returned the spent encode buffers; the shared pool
        // holds at least one warm buffer for the next sender.
        assert!(a.mux.pool().pooled() >= 1);
        assert!(b.mux.pool().pooled() >= 1);
    }

    #[test]
    fn bulk_frames_neither_take_from_the_pool_nor_return_to_it() {
        let mut cluster = ChannelTransport::cluster(2);
        let b = cluster.pop().unwrap();
        let a = cluster.pop().unwrap();
        a.send(1, &msg(0)).unwrap();
        b.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(a.mux.pool().pooled(), 1);
        let bulk = Message::GmWriteReq {
            req: ReqId(1),
            region: RegionId(1),
            offset: 0,
            data: vec![7u8; 64 * 1024].into(),
        };
        for _ in 0..3 {
            a.send(1, &bulk).unwrap();
            let env = b.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            assert_eq!(env.msg, bulk);
            // The one warm small buffer is still there for the next small
            // frame; the bulk frame went to the decoder and stayed there.
            assert_eq!(a.mux.pool().pooled(), 1);
        }
        a.send(1, &msg(2)).unwrap();
        assert_eq!(a.mux.pool().pooled(), 0);
        assert_eq!(
            b.recv(Some(Duration::from_secs(1))).unwrap().unwrap().seq,
            4
        );
        assert_eq!(a.mux.pool().pooled(), 1);
    }

    #[test]
    fn timeout_returns_none() {
        let cluster = ChannelTransport::cluster(1);
        let got = cluster[0].recv(Some(Duration::from_millis(10))).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn shutdown_drains_then_closes() {
        let mut cluster = ChannelTransport::cluster(2);
        let b = cluster.pop().unwrap();
        let a = cluster.pop().unwrap();
        a.send(0, &msg(1)).unwrap();
        a.shutdown();
        // The already-delivered self-send drains first...
        let env = a.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(env.msg, msg(1));
        // ...then the endpoint reports closure.
        assert_eq!(a.recv(None), Err(TransportError::Closed));
        // Peer sees our Bye as a normal control frame (no envelope), and a
        // send to the closed endpoint reports the drop.
        assert!(b.recv(Some(Duration::from_millis(20))).unwrap().is_none());
        assert_eq!(
            b.send(0, &msg(2)),
            Err(TransportError::PeerDropped { peer: 0 })
        );
    }

    #[test]
    fn abort_skips_bye_and_refuses_sends() {
        let mut cluster = ChannelTransport::cluster(2);
        let b = cluster.pop().unwrap();
        let a = cluster.pop().unwrap();
        a.abort();
        // The dead endpoint refuses its own sends and reports closure.
        assert_eq!(a.send(1, &msg(1)), Err(TransportError::Closed));
        assert_eq!(a.recv(None), Err(TransportError::Closed));
        // No Bye was delivered; the peer only learns on its next send.
        assert!(b.recv(Some(Duration::from_millis(20))).unwrap().is_none());
        assert_eq!(
            b.send(0, &msg(2)),
            Err(TransportError::PeerDropped { peer: 0 })
        );
    }
}
