//! `RequesterSpans` — the requester side of the causal trace, defined once.
//!
//! What an application process records about its own waiting: the `app`
//! root span of its lifetime, a `gm_req` span per request put on the wire
//! (dispatch to completion) with the `redeem` span that links it back to
//! the home kernel's serve, a `gm_block` span per blocking wait, a
//! `barrier_wait` / `lock_wait` span around each round trip to the
//! coordinator, a `cpu_queue` span per CPU charge that had to queue (the
//! simulator's port only: a live process's queueing is the host's), and the
//! trace context each of those sends carries. It sits
//! beside [`GmClient`](crate::GmClient) and, like it, knows no clock: every
//! call takes `now_ns`, so the live port stamps the wall clock, the
//! simulator's port virtual time, and the same program yields the same
//! spans on both. (The home side is `dse-kernel`'s `HomeSpans`.)

use dse_msg::TraceCtx;
use dse_obs::{TraceRecorder, TraceRole, TraceSpanKind, TraceSpanRec};

/// What an engine knows about a message handed to its waiter beyond the
/// message itself.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Trace context the message carried.
    pub ctx: Option<TraceCtx>,
    /// When it reached the requester, engine clock.
    pub at_ns: u64,
    /// Its encoded size.
    pub wire_bytes: u64,
}

/// What a traced request keeps while it is in flight.
#[derive(Debug, Clone, Copy)]
pub struct SentReq {
    /// The context the request (and every retransmit of it) carries; its
    /// `parent` is the request's root `gm_req` span.
    pub ctx: TraceCtx,
    /// Dispatch time, engine clock: the root span's start.
    start_ns: u64,
    /// Home PE the request went to, and its request id.
    home: u32,
    req: u64,
}

/// The causal spans one application process records.
#[derive(Debug)]
pub struct RequesterSpans {
    rec: TraceRecorder,
    /// The app root span, which every top-level span parents to. It doubles
    /// as this PE's trace id: every causal chain the PE originates shares
    /// it.
    app_span: u64,
    /// When the process started, engine clock.
    app_start_ns: u64,
}

impl RequesterSpans {
    /// The spans of PE `pe`'s application process, started at `now_ns`;
    /// kept only when `tracing`.
    pub fn new(pe: u32, tracing: bool, now_ns: u64) -> RequesterSpans {
        let mut rec = if tracing {
            TraceRecorder::new(pe, TraceRole::App)
        } else {
            TraceRecorder::disabled(pe, TraceRole::App)
        };
        let app_span = rec.next_id();
        RequesterSpans {
            rec,
            app_span,
            app_start_ns: now_ns,
        }
    }

    /// A span of this PE's trace, `[start_ns, now_ns]`, child of `parent`.
    fn span(
        &self,
        kind: TraceSpanKind,
        span: u64,
        parent: u64,
        start_ns: u64,
        now_ns: u64,
    ) -> TraceSpanRec {
        let (trace, pe) = (self.app_span, self.rec.pe());
        TraceSpanRec::new(kind, trace, span, parent, pe, start_ns, now_ns)
    }

    /// GM request `req` goes on the wire to `home` at `now_ns` (`None` on
    /// an untraced run): mint its root `gm_req` span, whose id rides as the
    /// parent of the context the request carries.
    pub fn request_sent(&mut self, now_ns: u64, home: u32, req: u64) -> Option<SentReq> {
        self.rec.enabled().then(|| SentReq {
            ctx: TraceCtx {
                trace: self.app_span,
                parent: self.rec.next_id(),
            },
            start_ns: now_ns,
            home,
            req,
        })
    }

    /// The request, retransmitted `retries` times, was answered at
    /// `now_ns`: close its root `gm_req` span and — when the answer carried
    /// context — record the `redeem` span whose parent is the serve span
    /// the home stamped on it: the cross-PE link that makes the chain
    /// requester → home → requester.
    pub fn request_done(&mut self, now_ns: u64, sent: SentReq, retries: u32, answer: Arrival) {
        let (id, start_ns, home, req) = (sent.ctx.parent, sent.start_ns, sent.home, sent.req);
        let mut root = self.span(TraceSpanKind::GmReq, id, self.app_span, start_ns, now_ns);
        (root.peer, root.bytes) = (home, answer.wire_bytes);
        (root.seq, root.retries) = (req, retries);
        self.rec.push(root);
        if let Some(c) = answer.ctx {
            let id = self.rec.next_id();
            let mut redeem = self.span(TraceSpanKind::Redeem, id, c.parent, answer.at_ns, now_ns);
            (redeem.peer, redeem.bytes, redeem.seq) = (home, answer.wire_bytes, req);
            self.rec.push(redeem);
        }
    }

    /// The request is retransmitted at `now_ns` after waiting out
    /// `backoff_ns`: attributable dead time inside the request's wall clock.
    pub fn retry_backoff(&mut self, now_ns: u64, sent: SentReq, backoff_ns: u64) {
        let (id, parent) = (self.rec.next_id(), sent.ctx.parent);
        let start_ns = now_ns.saturating_sub(backoff_ns);
        let mut span = self.span(TraceSpanKind::RetryBackoff, id, parent, start_ns, now_ns);
        (span.peer, span.seq) = (sent.home, sent.req);
        self.rec.push(span);
    }

    /// The process blocked on GM completions from `since_ns` to `now_ns`
    /// (`seq` is the handle waited on, 0 for a fence or window
    /// backpressure).
    pub fn blocked(&mut self, since_ns: u64, now_ns: u64, seq: u64) {
        if self.rec.enabled() {
            let id = self.rec.next_id();
            let mut span = self.span(TraceSpanKind::GmBlock, id, self.app_span, since_ns, now_ns);
            span.seq = seq;
            self.rec.push(span);
        }
    }

    /// The process asked for its machine's CPU at `asked_ns` and was
    /// granted it at `granted_ns`: time on its clock that is neither work
    /// nor a wait for a message.
    pub fn cpu_queue(&mut self, asked_ns: u64, granted_ns: u64) {
        if self.rec.enabled() && granted_ns > asked_ns {
            let (id, app) = (self.rec.cpu_queue_id(asked_ns, granted_ns), self.app_span);
            let span = self.span(TraceSpanKind::CpuQueue, id, app, asked_ns, granted_ns);
            self.rec.push(span);
        }
    }

    /// Begin a round trip to the coordinator: the id of its wait span, and
    /// the context the enter carries (`None` on an untraced run).
    pub fn wait_begin(&mut self) -> (u64, Option<TraceCtx>) {
        let wait_span = self.rec.next_id();
        let ctx = self.rec.enabled().then_some(TraceCtx {
            trace: self.app_span,
            parent: wait_span,
        });
        (wait_span, ctx)
    }

    /// The round trip begun as `wait_span` at `start_ns` was answered at
    /// `now_ns`: its `barrier_wait` / `lock_wait` span (`seq` is the
    /// barrier id or the lock request).
    pub fn wait_end(
        &mut self,
        now_ns: u64,
        kind: TraceSpanKind,
        wait_span: u64,
        start_ns: u64,
        seq: u64,
    ) {
        if self.rec.enabled() {
            let mut span = self.span(kind, wait_span, self.app_span, start_ns, now_ns);
            (span.peer, span.seq) = (0, seq);
            self.rec.push(span);
        }
    }

    /// The process ended at `now_ns`, however it ended: close the app root
    /// span (so the blame table has the PE's wall clock) and drain the
    /// recorded spans.
    pub fn finish(&mut self, now_ns: u64) -> Vec<TraceSpanRec> {
        if self.rec.enabled() {
            let app = self.span(
                TraceSpanKind::App,
                self.app_span,
                0,
                self.app_start_ns,
                now_ns,
            );
            self.rec.push(app);
        }
        self.rec.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_yields_its_root_and_the_link_back_to_the_serve() {
        let mut r = RequesterSpans::new(2, true, 5);
        let sent = r
            .request_sent(10, 1, 7)
            .expect("a traced run mints a context");
        let answer = Arrival {
            ctx: Some(TraceCtx {
                trace: sent.ctx.trace,
                parent: 0xfeed,
            }),
            at_ns: 80,
            wire_bytes: 24,
        };
        r.request_done(90, sent, 0, answer);
        r.blocked(12, 90, 3);
        let spans = r.finish(100);
        let kinds: Vec<_> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                TraceSpanKind::GmReq,
                TraceSpanKind::Redeem,
                TraceSpanKind::GmBlock,
                TraceSpanKind::App
            ]
        );
        let (req, redeem, block, app) = (spans[0], spans[1], spans[2], spans[3]);
        assert_eq!((app.parent, app.start_ns, app.end_ns), (0, 5, 100));
        assert!(spans.iter().all(|s| s.trace == app.span && s.pe == 2));
        assert_eq!((req.span, req.parent), (sent.ctx.parent, app.span));
        assert_eq!(
            (req.start_ns, req.end_ns, req.peer, req.seq),
            (10, 90, 1, 7)
        );
        assert_eq!(
            (redeem.parent, redeem.start_ns, redeem.end_ns),
            (0xfeed, 80, 90)
        );
        assert_eq!((block.parent, block.seq), (app.span, 3));
    }

    #[test]
    fn a_coordinator_round_is_one_wait_span_named_by_its_context() {
        let mut r = RequesterSpans::new(1, true, 0);
        let (wait, ctx) = r.wait_begin();
        assert_eq!(ctx.map(|c| c.parent), Some(wait));
        r.wait_end(70, TraceSpanKind::LockWait, wait, 20, 9);
        let s = r.finish(80)[0];
        assert_eq!(
            (s.kind, s.span, s.peer, s.seq),
            (TraceSpanKind::LockWait, wait, 0, 9)
        );
        assert_eq!((s.start_ns, s.end_ns), (20, 70));
    }

    #[test]
    fn a_charge_that_queued_is_a_span_on_the_apps_own_lane() {
        let mut r = RequesterSpans::new(3, true, 0);
        r.cpu_queue(40, 40); // the CPU was free: nothing to say
        r.cpu_queue(50, 75);
        let spans = r.finish(100);
        assert_eq!(spans.len(), 2);
        let (q, app) = (spans[0], spans[1]);
        assert_eq!((q.kind, q.parent), (TraceSpanKind::CpuQueue, app.span));
        assert_eq!((q.start_ns, q.end_ns, q.peer), (50, 75, dse_obs::NO_PEER));
    }

    #[test]
    fn an_untraced_process_mints_no_context_and_keeps_nothing() {
        let mut r = RequesterSpans::new(0, false, 0);
        assert!(r.request_sent(1, 1, 1).is_none());
        assert_eq!(r.wait_begin().1, None);
        r.blocked(1, 2, 0);
        r.cpu_queue(2, 3);
        r.wait_end(3, TraceSpanKind::BarrierWait, 1, 2, 4);
        assert!(r.finish(9).is_empty());
    }
}
