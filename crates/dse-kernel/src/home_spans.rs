//! `HomeSpans` — the home side of the causal trace, defined once.
//!
//! What a kernel records about the requests it answers: the `serve` span of
//! a GM request, the `lock_grant` span of a lock request, one
//! `barrier_release` span per barrier round, a `cpu_queue` span per CPU
//! charge that had to queue (the simulated kernel only), and the trace
//! context each answer carries back so the requester can link to them. It
//! sits beside
//! [`KernelProtocol`](crate::protocol::KernelProtocol) and, like it, knows
//! no clock: every call takes `now_ns`, so the live kernel task stamps the
//! wall clock, the simulated kernel virtual time, and the same protocol
//! steps yield the same spans on both. (The requester side is `dse-api`'s
//! `RequesterSpans`.)
//!
//! Every span id minted here is *derived*: ids both endpoints of an
//! exchange (or two runs of the same seed) must agree on are never drawn
//! from a counter — they are hashes of ids the endpoints already share
//! (`dse_obs::serve_span_id` and the two below), or, for a `cpu_queue`
//! span, of who queued and when. The salt keeps the derivation families
//! disjoint.

use dse_msg::{Message, TraceCtx};
use dse_obs::{
    derived_span_id, serve_span_id, TraceRecorder, TraceRole, TraceSpanKind, TraceSpanRec,
};

/// Barrier-release span for one `(barrier, epoch)` round.
pub fn barrier_span_id(barrier: u32, epoch: u32) -> u64 {
    derived_span_id(((barrier as u64) << 24) ^ epoch as u64, 2)
}

/// Lock-grant span for the request `req` issued by PE `owner`.
pub fn lock_span_id(owner: u32, req: u64) -> u64 {
    derived_span_id(((owner as u64) << 40) ^ req, 3)
}

/// What a message brought to the kernel that handles it: the sending PE,
/// the trace context that rode beside it (`None` on an untraced run), and
/// its arrival time — which the answer's span starts from, however long
/// the answer was queued or gated.
#[derive(Debug, Clone, Copy)]
pub struct Origin {
    /// Sending PE.
    pub pe: u32,
    /// Trace context that came with the message.
    pub ctx: Option<TraceCtx>,
    /// When the message reached the kernel, engine clock.
    pub at_ns: u64,
}

/// The causal spans one kernel records.
#[derive(Debug)]
pub struct HomeSpans {
    rec: TraceRecorder,
}

impl HomeSpans {
    /// The spans of PE `pe`'s kernel; kept only when `tracing`.
    pub fn new(pe: u32, tracing: bool) -> HomeSpans {
        let rec = if tracing {
            TraceRecorder::new(pe, TraceRole::Kernel)
        } else {
            TraceRecorder::disabled(pe, TraceRole::Kernel)
        };
        HomeSpans { rec }
    }

    /// A span of `c`'s trace, `[start_ns, now_ns]`, child of the span `c`
    /// names.
    fn span(
        &self,
        kind: TraceSpanKind,
        c: TraceCtx,
        id: u64,
        start_ns: u64,
        now_ns: u64,
    ) -> TraceSpanRec {
        let pe = self.rec.pe();
        TraceSpanRec::new(kind, c.trace, id, c.parent, pe, start_ns, now_ns)
    }

    /// The `replay`-th answer (0 = fresh) to `from`'s GM request `seq` is
    /// ready at `now_ns`, `bytes` long on the wire: its serve span, from
    /// the request's arrival.
    pub fn serve(&mut self, now_ns: u64, from: Origin, replay: u32, seq: u64, bytes: u64) {
        if let Some(c) = from.ctx {
            let id = serve_span_id(c.parent, replay);
            let mut span = self.span(TraceSpanKind::Serve, c, id, from.at_ns, now_ns);
            (span.peer, span.seq) = (from.pe, seq);
            (span.bytes, span.dedup) = (bytes, replay > 0);
            self.rec.push(span);
        }
    }

    /// The context the `replay`-th answer to a request that came with `ctx`
    /// carries: the serve span as its parent, so the requester's redemption
    /// links back to it.
    pub fn response_ctx(ctx: Option<TraceCtx>, replay: u32) -> Option<TraceCtx> {
        ctx.map(|c| TraceCtx {
            trace: c.trace,
            parent: serve_span_id(c.parent, replay),
        })
    }

    /// The context `msg` carries to `to` when it is sent at `now_ns` while
    /// the kernel handles a message that came with `handling`.
    pub fn reply_ctx(
        &mut self,
        now_ns: u64,
        handling: Option<TraceCtx>,
        to: Origin,
        msg: &Message,
    ) -> Option<TraceCtx> {
        match *msg {
            // Every release of a round rides under the completing enter's
            // trace, as a child of the round's one release span.
            Message::BarrierRelease { barrier, epoch } => handling.map(|c| TraceCtx {
                trace: c.trace,
                parent: barrier_span_id(barrier, epoch),
            }),
            // The grant span starts when the request reached the
            // coordinator, so it covers the time spent queued.
            Message::LockGrant { req, .. } => to.ctx.map(|c| {
                let id = lock_span_id(to.pe, req.0);
                let mut span = self.span(TraceSpanKind::LockGrant, c, id, to.at_ns, now_ns);
                (span.peer, span.seq) = (to.pe, req.0);
                self.rec.push(span);
                TraceCtx {
                    trace: c.trace,
                    parent: id,
                }
            }),
            _ => HomeSpans::response_ctx(to.ctx, 0),
        }
    }

    /// `completer`'s enter completed round `epoch` of `barrier` at `now_ns`:
    /// one release span covers the whole round, from the first enter
    /// (`first_at_ns`). Its id is derived from (barrier, epoch) so both
    /// runs of a seed agree; its parent is the completing enter's wait.
    pub fn barrier_completed(
        &mut self,
        now_ns: u64,
        completer: Origin,
        barrier: u32,
        epoch: u32,
        first_at_ns: u64,
    ) {
        if let Some(c) = completer.ctx {
            let id = barrier_span_id(barrier, epoch);
            let mut span = self.span(TraceSpanKind::BarrierRelease, c, id, first_at_ns, now_ns);
            (span.peer, span.seq) = (completer.pe, barrier as u64);
            self.rec.push(span);
        }
    }

    /// The kernel, working on what `serving` sent it, asked for its
    /// machine's CPU at `asked_ns` and was granted it at `granted_ns`. The
    /// span names the PE served as its peer, as a serve does, and joins the
    /// request's trace when it had one.
    pub fn cpu_queue(&mut self, asked_ns: u64, granted_ns: u64, serving: Origin) {
        if self.rec.enabled() && granted_ns > asked_ns {
            let no_trace = TraceCtx {
                trace: 0,
                parent: 0,
            };
            let c = serving.ctx.unwrap_or(no_trace);
            let id = self.rec.cpu_queue_id(asked_ns, granted_ns);
            let mut span = self.span(TraceSpanKind::CpuQueue, c, id, asked_ns, granted_ns);
            span.peer = serving.pe;
            self.rec.push(span);
        }
    }

    /// Drain the recorded spans.
    pub fn take(&mut self) -> Vec<TraceSpanRec> {
        self.rec.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_msg::ReqId;

    fn from(pe: u32, parent: u64, at_ns: u64) -> Origin {
        let ctx = Some(TraceCtx { trace: 77, parent });
        Origin { pe, ctx, at_ns }
    }

    #[test]
    fn a_serve_links_request_and_response() {
        let mut h = HomeSpans::new(1, true);
        let req = from(0, 500, 10);
        h.serve(40, req, 0, 9, 24);
        let resp = HomeSpans::response_ctx(req.ctx, 0).unwrap();
        let spans = h.take();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!((s.kind, s.pe, s.peer), (TraceSpanKind::Serve, 1, 0));
        assert_eq!(
            (s.trace, s.parent, s.span),
            (77, 500, serve_span_id(500, 0))
        );
        assert_eq!((s.start_ns, s.end_ns, s.seq, s.bytes), (10, 40, 9, 24));
        assert_eq!((resp.trace, resp.parent), (77, s.span), "redeem's parent");
        // A replay is a span of its own, flagged, with its own id.
        h.serve(90, req, 1, 9, 24);
        let replay = h.take()[0];
        assert!(replay.dedup && replay.span == serve_span_id(500, 1));
    }

    #[test]
    fn a_grant_and_a_round_are_spans_of_the_coordinator() {
        let mut h = HomeSpans::new(0, true);
        let waiter = from(2, 600, 100);
        let grant = Message::LockGrant {
            req: ReqId(5),
            lock: 1,
        };
        let ctx = h.reply_ctx(180, None, waiter, &grant).unwrap();
        assert_eq!(ctx.parent, lock_span_id(2, 5));
        let completer = from(1, 700, 300);
        h.barrier_completed(300, completer, 4, 0, 120);
        let release = Message::BarrierRelease {
            barrier: 4,
            epoch: 0,
        };
        let ctx = h.reply_ctx(300, completer.ctx, waiter, &release).unwrap();
        assert_eq!(ctx.parent, barrier_span_id(4, 0));
        let spans = h.take();
        let kinds: Vec<_> = spans.iter().map(|s| (s.kind, s.peer, s.seq)).collect();
        assert_eq!(
            kinds,
            [
                (TraceSpanKind::LockGrant, 2, 5),
                (TraceSpanKind::BarrierRelease, 1, 4)
            ]
        );
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (100, 180), "queued");
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (120, 300), "round");
    }

    #[test]
    fn a_charge_that_queued_names_the_pe_it_was_for() {
        let mut h = HomeSpans::new(1, true);
        h.cpu_queue(30, 30, from(0, 500, 10)); // the CPU was free
        h.cpu_queue(30, 55, from(0, 500, 10));
        let chore = Origin {
            pe: 2,
            ctx: None,
            at_ns: 60,
        };
        h.cpu_queue(60, 70, chore);
        let spans = h.take();
        let got: Vec<_> = spans
            .iter()
            .map(|s| {
                (
                    s.kind, s.pe, s.peer, s.trace, s.parent, s.start_ns, s.end_ns,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (TraceSpanKind::CpuQueue, 1, 0, 77, 500, 30, 55),
                (TraceSpanKind::CpuQueue, 1, 2, 0, 0, 60, 70)
            ]
        );
        assert_ne!(spans[0].span, spans[1].span);
    }

    #[test]
    fn an_untraced_request_leaves_nothing() {
        let mut h = HomeSpans::new(0, true);
        let plain = Origin {
            pe: 1,
            ctx: None,
            at_ns: 5,
        };
        h.serve(9, plain, 0, 1, 8);
        h.barrier_completed(9, plain, 1, 0, 5);
        let ack = Message::GmWriteAck { req: ReqId(1) };
        assert_eq!(h.reply_ctx(9, None, plain, &ack), None);
        assert!(h.take().is_empty());
        // And a kernel that does not trace keeps nothing of a traced one.
        let mut off = HomeSpans::new(0, false);
        off.serve(9, from(1, 3, 5), 0, 1, 8);
        off.cpu_queue(5, 9, from(1, 3, 5));
        assert!(off.take().is_empty());
    }
}
