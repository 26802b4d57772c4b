//! Chrome trace-event export of an assembled cluster trace, with flow
//! arrows stitching the causal chains across PE tracks — the one Chrome
//! exporter, for both engines.
//!
//! Layout: pid 0 carries one track per app thread (`pe0.app`, ...), pid 1
//! one track per kernel thread (`pe0.kernel`, ...). Every span becomes an
//! "X" slice on its thread's track; every linked GM chain becomes a flow
//! (`ph:"s"` → `"t"` → `"f"`) from the requester's dispatch through the
//! home kernel's serve to the redemption, and every barrier/lock round an
//! arrow from the waiter into the coordinator's release/grant slice.
//! Load the file in Perfetto and the arrows draw the cross-PE causality
//! the per-track view hides.
//!
//! A `cpu_queue` span (simulated runs) sits on the lane of whoever queued:
//! the app's own, or the kernel's when it names the PE being served. A
//! simulated run also has its shared bus to show, appended as counter
//! tracks on pid 3 — utilization, collisions and queue depth per sampling
//! bin.
//!
//! Output is deterministic string formatting over the assembled span
//! order — no floats beyond fixed 3-decimal µs, no hash iteration.

use std::fmt::Write as _;

use dse_obs::{escape_json_into, us_from_ns, BusInterval, TraceSpanKind, TraceSpanRec, NO_PEER};

use crate::cluster::ClusterTrace;

/// pid of the app-thread tracks.
pub const PID_APP: u32 = 0;
/// pid of the kernel-thread tracks.
pub const PID_KERNEL: u32 = 1;
/// pid of the network counter tracks.
pub const PID_NET: u32 = 3;

fn pid_of(s: &TraceSpanRec) -> u32 {
    match s.kind {
        TraceSpanKind::Serve | TraceSpanKind::BarrierRelease | TraceSpanKind::LockGrant => {
            PID_KERNEL
        }
        TraceSpanKind::CpuQueue if s.peer != NO_PEER => PID_KERNEL,
        _ => PID_APP,
    }
}

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Open one event of phase `ph` on `pid`, up to and including its
    /// quoted `name`.
    fn open(&mut self, ph: &str, pid: u32, tid: Option<u32>, name: &str) {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
        let _ = write!(self.out, "{{\"ph\":\"{ph}\",\"pid\":{pid},");
        if let Some(tid) = tid {
            let _ = write!(self.out, "\"tid\":{tid},");
        }
        self.out.push_str("\"name\":\"");
        escape_json_into(&mut self.out, name);
        self.out.push('"');
    }

    fn ts(&mut self, key: &str, ns: u64) {
        let _ = write!(self.out, ",\"{key}\":");
        us_from_ns(&mut self.out, ns);
    }

    /// "X" complete event.
    fn slice(&mut self, pid: u32, tid: u32, name: &str, start_ns: u64, dur_ns: u64) {
        self.open("X", pid, Some(tid), name);
        self.ts("ts", start_ns);
        self.ts("dur", dur_ns);
        self.out.push('}');
    }

    /// "C" counter event with one series.
    fn counter(&mut self, pid: u32, name: &str, series: &str, ts_ns: u64, value: u64) {
        self.open("C", pid, None, name);
        self.ts("ts", ts_ns);
        let _ = write!(self.out, ",\"args\":{{\"{series}\":{value}}}}}");
    }

    /// Flow event: phase "s" (start), "t" (step) or "f" (finish).
    fn flow(&mut self, ph: &str, id: u64, pid: u32, tid: u32, name: &str, ts_ns: u64) {
        self.open(ph, pid, Some(tid), name);
        let _ = write!(self.out, ",\"cat\":\"causal\",\"id\":{id}");
        self.ts("ts", ts_ns);
        if ph == "f" {
            self.out.push_str(",\"bp\":\"e\"");
        }
        self.out.push('}');
    }

    /// "M" metadata: thread or process name.
    fn name_meta(&mut self, which: &str, pid: u32, tid: Option<u32>, name: &str) {
        self.open("M", pid, tid, which);
        self.out.push_str(",\"args\":{\"name\":\"");
        escape_json_into(&mut self.out, name);
        self.out.push_str("\"}}");
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

// Flow ids must be unique per arrow chain. Span ids keep bits 62..40
// structured (bit 63 = derived, bit 62 unused), so salting bit 62 yields
// a second id space for the return arrows.
const RETURN_FLOW: u64 = 1 << 62;

/// Render the assembled trace as Chrome trace-event JSON with causal
/// flow arrows across PE tracks.
pub fn chrome_flow_json(trace: &ClusterTrace) -> String {
    chrome_flow_json_with(trace, &[])
}

/// [`chrome_flow_json`], followed by a simulated run's bus counter tracks
/// (`bus` is empty for a switched fabric, or a live run).
pub fn chrome_flow_json_with(trace: &ClusterTrace, bus: &[BusInterval]) -> String {
    let mut e = Emitter::new();
    e.name_meta("process_name", PID_APP, None, "app threads");
    e.name_meta("process_name", PID_KERNEL, None, "kernel threads");
    let mut name = String::new();
    for pe in 0..trace.nprocs as u32 {
        name.clear();
        let _ = write!(name, "pe{pe}.app");
        e.name_meta("thread_name", PID_APP, Some(pe), &name);
        name.clear();
        let _ = write!(name, "pe{pe}.kernel");
        e.name_meta("thread_name", PID_KERNEL, Some(pe), &name);
    }

    // --- Slices: one per span, on its thread's track. ---------------------
    let mut label = String::new();
    for s in trace.spans() {
        label.clear();
        label.push_str(s.kind.label());
        if s.dedup {
            label.push_str(" (replay)");
        }
        if s.seq != 0 {
            let _ = write!(label, " #{}", s.seq);
        }
        if s.bytes > 0 {
            let _ = write!(label, " {}B", s.bytes);
        }
        e.slice(pid_of(s), s.pe, &label, s.start_ns, s.dur_ns());
    }

    // --- GM chains: dispatch -> serve -> redeem. --------------------------
    for s in trace.spans() {
        if s.kind != TraceSpanKind::GmReq {
            continue;
        }
        let Some(sv) = trace.serve_of(s.span) else {
            continue;
        };
        e.flow("s", s.span, PID_APP, s.pe, "gm", s.start_ns);
        e.flow("t", s.span, PID_KERNEL, sv.pe, "gm", sv.start_ns);
        if let Some(rd) = trace.redeem_of(sv.span) {
            e.flow("f", s.span, PID_APP, rd.pe, "gm", rd.start_ns);
        }
    }

    // --- Barrier and lock rounds: waiter -> coordinator -> waiter. --------
    for s in trace.spans() {
        let name = match s.kind {
            TraceSpanKind::BarrierWait => "barrier",
            TraceSpanKind::LockWait => "lock",
            _ => continue,
        };
        let Some(c) = trace.answer_of(s) else {
            continue;
        };
        let back = s.span | RETURN_FLOW;
        e.flow("s", s.span, PID_APP, s.pe, name, s.start_ns);
        e.flow("f", s.span, PID_KERNEL, c.pe, name, c.start_ns);
        e.flow(
            "s",
            back,
            PID_KERNEL,
            c.pe,
            name,
            c.end_ns.saturating_sub(1),
        );
        e.flow("f", back, PID_APP, s.pe, name, s.end_ns.saturating_sub(1));
    }

    if !bus.is_empty() {
        bus_tracks(&mut e, bus);
    }
    e.finish()
}

/// The shared bus: one counter sample per bin and series.
fn bus_tracks(e: &mut Emitter, bus: &[BusInterval]) {
    e.name_meta("process_name", PID_NET, None, "network");
    for b in bus {
        let pct = b.utilization_pct();
        e.counter(PID_NET, "bus_utilization", "pct", b.start_ns, pct);
    }
    for b in bus.iter().filter(|b| b.collisions > 0) {
        e.counter(PID_NET, "bus_collisions", "n", b.start_ns, b.collisions);
    }
    for b in bus.iter().filter(|b| b.queue_depth_max > 0) {
        let depth = b.queue_depth_max;
        e.counter(PID_NET, "bus_queue_depth", "max", b.start_ns, depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assemble;
    use dse_obs::serve_span_id;
    use dse_obs::TraceSpanRec;

    #[test]
    fn emits_slices_flows_and_balanced_json() {
        // Reuse the linked chain from the cluster tests: one GM round
        // trip plus a barrier round.
        let app = TraceSpanRec::new(TraceSpanKind::App, 100, 100, 0, 0, 0, 500);
        let mut req = TraceSpanRec::new(TraceSpanKind::GmReq, 100, 101, 100, 0, 10, 60);
        req.seq = 7;
        let sid = serve_span_id(101, 0);
        let mut serve = TraceSpanRec::new(TraceSpanKind::Serve, 100, sid, 101, 1, 25, 40);
        serve.peer = 0;
        serve.seq = 7;
        let mut redeem = TraceSpanRec::new(TraceSpanKind::Redeem, 100, 102, sid, 0, 55, 60);
        redeem.seq = 7;
        let mut bw = TraceSpanRec::new(TraceSpanKind::BarrierWait, 100, 103, 100, 0, 100, 200);
        bw.seq = 9;
        let mut rel = TraceSpanRec::new(TraceSpanKind::BarrierRelease, 100, 104, 103, 0, 100, 200);
        rel.seq = 9;
        let t = assemble(&[vec![app, req, redeem, bw], vec![serve, rel]]);
        let json = chrome_flow_json(&t);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"pe0.app\""));
        assert!(json.contains("\"pe1.kernel\""));
        assert!(json.contains("\"gm_req #7\""));
        assert!(json.contains("\"ph\":\"s\""), "flow start present");
        assert!(json.contains("\"ph\":\"t\""), "flow step through serve");
        assert!(json.contains("\"ph\":\"f\""), "flow finish present");
        assert!(json.contains("\"bp\":\"e\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Deterministic.
        assert_eq!(json, chrome_flow_json(&t));
    }

    #[test]
    fn bus_tracks_follow_the_causal_lanes_and_a_queue_sits_where_it_queued() {
        let bus = [BusInterval {
            start_ns: 0,
            width_ns: 1_000_000,
            busy_ns: 250_000,
            frames: 3,
            wire_bytes: 192,
            collisions: 1,
            backoff_ns: 50_000,
            queue_depth_max: 2,
        }];
        let app = TraceSpanRec::new(TraceSpanKind::App, 1, 1, 0, 0, 0, 5_000);
        let own = TraceSpanRec::new(TraceSpanKind::CpuQueue, 1, 2, 1, 0, 100, 400);
        let mut home = TraceSpanRec::new(TraceSpanKind::CpuQueue, 1, 3, 1, 1, 500, 700);
        home.peer = 0;
        let t = assemble(&[vec![app, own], vec![home]]);
        let json = chrome_flow_json_with(&t, &bus);
        // The causal lanes come first and are those of the plain export.
        let plain = chrome_flow_json(&t);
        let shared = plain.rfind("\n]").unwrap();
        assert!(json.starts_with(&plain[..shared]));
        for want in [
            "\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"cpu_queue\",\"ts\":0.100,\"dur\":0.300}",
            "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"cpu_queue\",\"ts\":0.500,\"dur\":0.200}",
            "\"ph\":\"C\",\"pid\":3,\"name\":\"bus_utilization\",\"ts\":0.000,\"args\":{\"pct\":25}}",
            "\"name\":\"bus_collisions\",\"ts\":0.000,\"args\":{\"n\":1}}",
            "\"name\":\"bus_queue_depth\",\"ts\":0.000,\"args\":{\"max\":2}}",
        ] {
            assert!(json.contains(want), "missing {want} in\n{json}");
        }
        assert!(!json.contains("\"pid\":2,"), "there is no process timeline");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, chrome_flow_json_with(&t, &bus), "deterministic");
    }
}
