//! Flight recorder: a fixed-size ring of the most recent runtime events.
//!
//! Unlike the full span/trace exports (which keep everything), the flight
//! recorder keeps only the last `capacity` events and is meant to be
//! dumped *post mortem* — when a live run aborts, the ring holds the wire
//! sends leading up to the failure and the `stall` line of a request that
//! ran out of retries, exactly the context needed to diagnose a lost
//! response or a protocol deadlock.
//!
//! Recording is cheap (one ring push under a mutex) and a recorder with
//! capacity 0 is a no-op, so the hooks can stay in the hot paths
//! unconditionally.

use std::collections::VecDeque;

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
    capacity: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (0 disables it).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
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
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(FlightEvent {
            t_ns,
            pe,
            trace,
            span,
            kind,
        });
    }

    /// Copy out the ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().iter().copied().collect()
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
}
