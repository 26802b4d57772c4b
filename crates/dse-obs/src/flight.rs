//! Flight recorder: a fixed-size ring of the most recent runtime events.
//!
//! Unlike the full span/trace exports (which keep everything), the flight
//! recorder keeps only the last `capacity` events and is meant to be
//! dumped *post mortem* — when a live run aborts, the ring holds the wire
//! sends leading up to the failure and the `stall` line of a request that
//! ran out of retries, exactly the context needed to diagnose a lost
//! response or a protocol deadlock.
//!
//! Recording is cheap and shares no lock between writers: an event takes a
//! sequence number from an atomic head and is stored in the slot that
//! number picks, under that slot's own mutex. A recorder with capacity 0 is
//! a no-op, so the hooks can stay in the hot paths unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::util;

/// What operation a request/response exchange covers: the vocabulary of
/// the latency series and of the flight recorder's `stall` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Remote global-memory read.
    GmRead,
    /// Remote global-memory write.
    GmWrite,
    /// Remote fetch-and-add.
    GmFetchAdd,
    /// Coalesced batch of split-phase GM operations (one request message,
    /// one response for the whole batch).
    GmBatch,
    /// Barrier enter-to-release.
    Barrier,
    /// Cluster lock acquire.
    Lock,
}

impl SpanKind {
    /// Stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::GmRead => "gm_read",
            SpanKind::GmWrite => "gm_write",
            SpanKind::GmFetchAdd => "gm_fetch_add",
            SpanKind::GmBatch => "gm_batch",
            SpanKind::Barrier => "barrier",
            SpanKind::Lock => "lock",
        }
    }
}

/// What happened, at the granularity useful for post-mortem debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A runtime message left a PE.
    Bus {
        /// Message kind label (`Message::label`).
        label: &'static str,
        /// Destination PE.
        to_pe: u32,
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A request ran out of retries past its deadline.
    Stall {
        /// Operation kind of the stalled request.
        kind: SpanKind,
        /// Correlation sequence number.
        seq: u64,
        /// How long the request had been open when it was given up.
        waited_ns: u64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Engine clock (ns) when the event happened.
    pub t_ns: u64,
    /// PE the event is attributed to (sender / requester).
    pub pe: u32,
    /// Causal trace id of the in-flight operation (0 = not traced).
    pub trace: u64,
    /// Causal span id of the in-flight operation (0 = not traced).
    pub span: u64,
    /// The event itself.
    pub kind: FlightEventKind,
}

/// Fixed-capacity ring buffer of recent [`FlightEvent`]s.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    /// Sequence number of the next event: event `n` goes to slot
    /// `n % slots.len()`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// The newest event a slot was given, with its sequence number.
type Slot = Mutex<Option<(u64, FlightEvent)>>;

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (0 disables it).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Record one event, evicting the oldest when full.
    pub fn record(&self, t_ns: u64, pe: u32, kind: FlightEventKind) {
        self.record_traced(t_ns, pe, 0, 0, kind);
    }

    /// Record one event tagged with the causal trace/span ids of the
    /// operation in flight (0/0 when the operation is untraced), so a
    /// post-mortem dump can be joined against the assembled cluster trace.
    pub fn record_traced(&self, t_ns: u64, pe: u32, trace: u64, span: u64, kind: FlightEventKind) {
        if self.slots.is_empty() {
            return;
        }
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.slots[(n % self.slots.len() as u64) as usize].lock();
        // A writer `capacity` events behind that reaches the slot late
        // must not overwrite the newer event.
        if slot.is_none_or(|(held, _)| held < n) {
            let event = FlightEvent {
                t_ns,
                pe,
                trace,
                span,
                kind,
            };
            *slot = Some((n, event));
        }
    }

    /// Copy out the ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut held: Vec<(u64, FlightEvent)> =
            self.slots.iter().filter_map(|s| *s.lock()).collect();
        held.sort_unstable_by_key(|(n, _)| *n);
        held.into_iter().map(|(_, e)| e).collect()
    }

    /// Dump the ring as JSONL, oldest first: one object per event with a
    /// `"type"` discriminator (`bus`/`stall`). Events recorded with causal
    /// ids carry `"trace"`/`"span"` fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!("{{\"t_ns\":{},\"pe\":{},", e.t_ns, e.pe));
            if e.trace != 0 {
                out.push_str(&format!("\"trace\":{},\"span\":{},", e.trace, e.span));
            }
            match e.kind {
                FlightEventKind::Bus {
                    label,
                    to_pe,
                    bytes,
                } => {
                    out.push_str(&format!(
                        "\"type\":\"bus\",\"msg\":{},\"to_pe\":{to_pe},\"bytes\":{bytes}",
                        util::json_str(label)
                    ));
                }
                FlightEventKind::Stall {
                    kind,
                    seq,
                    waited_ns,
                } => {
                    out.push_str(&format!(
                        "\"type\":\"stall\",\"kind\":{},\"seq\":{seq},\"waited_ns\":{waited_ns}",
                        util::json_str(kind.label())
                    ));
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(bytes: u64) -> FlightEventKind {
        FlightEventKind::Bus {
            label: "gm_read_req",
            to_pe: 1,
            bytes,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let f = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            f.record(i * 10, 0, bus(i));
        }
        let ev = f.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].t_ns, 20, "oldest two evicted");
        assert_eq!(ev[2].t_ns, 40);
    }

    #[test]
    fn disabled_recorder_is_noop() {
        let f = FlightRecorder::with_capacity(0);
        f.record(1, 0, bus(8));
        assert!(f.events().is_empty());
        assert_eq!(f.to_jsonl(), "");
    }

    #[test]
    fn traced_events_carry_causal_ids_in_jsonl() {
        let f = FlightRecorder::with_capacity(4);
        f.record_traced(
            100,
            1,
            0xabc,
            0xdef,
            FlightEventKind::Stall {
                kind: SpanKind::GmRead,
                seq: 7,
                waited_ns: 90,
            },
        );
        f.record(200, 1, bus(8));
        let dump = f.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"trace\":2748,\"span\":3567,"),
            "traced event carries ids: {}",
            lines[0]
        );
        assert!(
            !lines[1].contains("\"trace\""),
            "untraced event stays id-free: {}",
            lines[1]
        );
    }

    #[test]
    fn jsonl_covers_every_event_type() {
        let f = FlightRecorder::with_capacity(8);
        f.record(5, 1, bus(33));
        f.record(
            900,
            2,
            FlightEventKind::Stall {
                kind: SpanKind::GmWrite,
                seq: 11,
                waited_ns: 800,
            },
        );
        let dump = f.to_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"type\":\"bus\",\"msg\":\"gm_read_req\""));
        assert!(dump.contains("\"type\":\"stall\",\"kind\":\"gm_write\""));
    }

    #[test]
    fn concurrent_writers_leave_the_last_events_untorn_and_in_order() {
        const THREADS: u32 = 8;
        const EACH: u64 = 10_000;
        let f = FlightRecorder::with_capacity(256);
        // Every field of an event is a function of its writer and index,
        // so a torn event shows as a mismatch.
        let event = |t: u32, i: u64| {
            let kind = FlightEventKind::Bus {
                label: "gm_read_req",
                to_pe: t + 100,
                bytes: i * 3,
            };
            (i, t, u64::from(t) << 32 | i, i ^ 0x5555, kind)
        };
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let f = &f;
                s.spawn(move || {
                    for i in 0..EACH {
                        let (t_ns, pe, trace, span, kind) = event(t, i);
                        f.record_traced(t_ns, pe, trace, span, kind);
                    }
                });
            }
        });
        let got = f.events();
        assert_eq!(got.len(), 256);
        for e in &got {
            let (t_ns, pe, trace, span, kind) = event(e.pe, e.t_ns);
            assert_eq!(
                (e.t_ns, e.pe, e.trace, e.span, e.kind),
                (t_ns, pe, trace, span, kind)
            );
        }
        // The ring holds the last 256 events of the run, so each writer's
        // share is its own last events, in the order it wrote them.
        for t in 0..THREADS {
            let mine: Vec<u64> = got.iter().filter(|e| e.pe == t).map(|e| e.t_ns).collect();
            let want: Vec<u64> = (EACH - mine.len() as u64..EACH).collect();
            assert_eq!(mine, want, "writer {t}");
        }
    }

    #[test]
    fn a_single_writer_keeps_its_order_across_wraps() {
        let f = FlightRecorder::with_capacity(7);
        for i in 0..100u64 {
            f.record(i, 0, bus(i));
        }
        let t: Vec<u64> = f.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(t, (93..100).collect::<Vec<_>>());
    }
}
