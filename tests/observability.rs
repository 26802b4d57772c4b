//! Acceptance tests for the observability subsystem (ISSUE tentpole):
//! a real Gauss-Seidel run on the paper's SunOS cluster must export
//! schema-valid metrics JSONL and a Perfetto-loadable Chrome trace, both
//! byte-identical across runs, its per-PE `kernel/*` counters must show
//! the work spread over the PEs, and the causal spans must agree with the
//! counters.

use std::collections::HashMap;

use dse::apps::gauss_seidel;
use dse::obs::{serve_span_id, TraceSpanKind};
use dse::prelude::*;
use dse_trace::{assemble, chrome_flow_json_with, PID_APP, PID_KERNEL};

// ---------------------------------------------------------------------------
// A minimal JSON parser — enough to validate the exporters without serde.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }
    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
    fn as_num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing garbage after JSON value");
    v
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert!(
            self.i < self.b.len() && self.b[self.i] == c,
            "expected '{}' at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        assert!(self.i < self.b.len(), "unexpected end of JSON");
        self.b[self.i]
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }
    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.ws();
        assert!(
            self.b[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }
    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut m = HashMap::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(m);
        }
        loop {
            let k = self.string();
            self.eat(b':');
            m.insert(k, self.value());
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(m);
                }
                c => panic!("expected ',' or '}}', got '{}'", c as char),
            }
        }
    }
    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut v = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(v);
        }
        loop {
            v.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(v);
                }
                c => panic!("expected ',' or ']', got '{}'", c as char),
            }
        }
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut s = String::new();
        loop {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => return s,
                b'\\' => {
                    let e = self.b[self.i];
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                            let cp = u32::from_str_radix(hex, 16).unwrap();
                            s.push(char::from_u32(cp).unwrap());
                            self.i += 4;
                        }
                        other => panic!("bad escape \\{}", other as char),
                    }
                }
                other => s.push(other as char),
            }
        }
    }
    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number '{text}'")),
        )
    }
}

// ---------------------------------------------------------------------------
// The reference run: gauss --platform sunos --procs 6 (paper setup).
// ---------------------------------------------------------------------------

fn reference_run() -> RunResult {
    let program =
        DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::paper().with_tracing(true));
    let params = gauss_seidel::GaussSeidelParams::paper(120);
    let (run, sol) = gauss_seidel::solve_parallel(&program, 6, params);
    assert!(sol.delta <= params.eps, "solver must converge");
    run
}

#[test]
fn more_than_one_pe_moves_traffic() {
    let run = reference_run();
    let sent = |pe| run.metrics.counter("kernel", "messages", Some(pe));
    assert!(
        (0..6).all(|pe| sent(pe).is_some()),
        "every PE has the series"
    );
    let active = (0..6).filter(|&pe| sent(pe) > Some(0)).count();
    assert!(active > 1, "expected multiple active PEs, saw {active}");
}

#[test]
fn metrics_jsonl_schema_and_content() {
    let run = reference_run();
    let jsonl = run.metrics_jsonl();
    let mut counters = 0usize;
    let mut per_pe_kernel_counters = 0usize;
    let mut remote_read_hist = None;
    for line in jsonl.lines() {
        let v = parse_json(line);
        let ty = v.get("type").expect("every metric has a type").as_str();
        for key in ["subsystem", "name", "pe", "machine"] {
            assert!(v.get(key).is_some(), "metric line missing '{key}': {line}");
        }
        match ty {
            "counter" => {
                counters += 1;
                if v.get("subsystem").unwrap().as_str() == "kernel"
                    && v.get("pe") != Some(&Json::Null)
                {
                    per_pe_kernel_counters += 1;
                    assert!(
                        v.get("machine") != Some(&Json::Null),
                        "per-PE kernel counters carry their machine: {line}"
                    );
                }
            }
            "gauge" => {}
            "histogram" => {
                for key in [
                    "count", "sum", "min", "max", "p50", "p90", "p99", "p999", "buckets",
                ] {
                    assert!(v.get(key).is_some(), "histogram missing '{key}': {line}");
                }
                let count = v.get("count").unwrap().as_num() as u64;
                let bucket_total: u64 = v
                    .get("buckets")
                    .unwrap()
                    .as_arr()
                    .iter()
                    .map(|b| b.as_arr()[1].as_num() as u64)
                    .sum();
                assert_eq!(bucket_total, count, "bucket counts must sum to count");
                if v.get("subsystem").unwrap().as_str() == "gm"
                    && v.get("name").unwrap().as_str() == "remote_read_ns"
                    && remote_read_hist.is_none()
                {
                    remote_read_hist = Some(v.clone());
                }
            }
            other => panic!("unknown metric type '{other}'"),
        }
    }
    assert!(counters > 0, "expected counters in the export");
    assert!(
        per_pe_kernel_counters >= 6 * 10,
        "expected the per-PE kernel counters, saw {per_pe_kernel_counters}"
    );
    let h = remote_read_hist.expect("remote GM read latency histogram must be exported");
    let p50 = h.get("p50").unwrap().as_num();
    let p99 = h.get("p99").unwrap().as_num();
    let p999 = h.get("p999").unwrap().as_num();
    let min = h.get("min").unwrap().as_num();
    let max = h.get("max").unwrap().as_num();
    assert!(h.get("count").unwrap().as_num() > 0.0);
    assert!(
        min <= p50 && p50 <= p99 && p99 <= p999 && p999 <= max,
        "quantile ordering"
    );
}

/// The run's Chrome trace, from the one exporter: causal lanes with flow
/// arrows, then the simulator's bus counters.
fn chrome_trace(run: &RunResult) -> String {
    chrome_flow_json_with(&assemble(&run.trace_spans), &run.bus_intervals)
}

#[test]
fn chrome_trace_has_per_process_and_bus_tracks() {
    let run = reference_run();
    let doc = parse_json(&chrome_trace(&run));
    let events = doc.get("traceEvents").expect("traceEvents").as_arr();
    assert!(!events.is_empty());
    let is = |e: &Json, key: &str, want: &str| e.get(key).map(Json::as_str) == Some(want);
    let on = |e: &Json, pid: u32| e.get("pid").map(Json::as_num) == Some(pid as f64);
    let tracks = |pid: u32| {
        let named = |e: &&Json| is(e, "ph", "M") && is(e, "name", "thread_name") && on(e, pid);
        events.iter().filter(named).count()
    };

    // An app and a kernel lane per PE.
    assert_eq!((tracks(PID_APP), tracks(PID_KERNEL)), (6, 6));

    // A bus-utilization counter track under the network pid.
    let bus_samples = events
        .iter()
        .filter(|e| is(e, "ph", "C") && is(e, "name", "bus_utilization"))
        .count();
    assert!(bus_samples > 0, "expected bus_utilization counter samples");
    assert_eq!(bus_samples, run.bus_intervals.len());

    // One slice per causal span on the app and kernel lanes, and a flow
    // arrow out of every GM request.
    let spans: Vec<_> = run.trace_spans.iter().flatten().collect();
    let slices = events
        .iter()
        .filter(|e| is(e, "ph", "X") && (on(e, PID_APP) || on(e, PID_KERNEL)))
        .count();
    assert_eq!(slices, spans.len());
    let gm_reqs = spans
        .iter()
        .filter(|s| s.kind == TraceSpanKind::GmReq)
        .count();
    assert!(gm_reqs > 0, "expected GM request spans");
    let arrows = events
        .iter()
        .filter(|e| is(e, "ph", "s") && is(e, "name", "gm"))
        .count();
    assert_eq!(arrows, gm_reqs);
}

#[test]
fn exports_are_deterministic_across_runs() {
    let a = reference_run();
    let b = reference_run();
    assert_eq!(
        a.metrics_jsonl(),
        b.metrics_jsonl(),
        "metrics JSONL must be byte-identical"
    );
    assert_eq!(
        a.metrics_csv(),
        b.metrics_csv(),
        "metrics CSV must be byte-identical"
    );
    assert_eq!(
        chrome_trace(&a),
        chrome_trace(&b),
        "Chrome trace must be byte-identical"
    );
}

#[test]
fn spans_are_consistent_with_stats() {
    let run = reference_run();
    let of = |pe: usize, kind| run.trace_spans[pe].iter().filter(move |s| s.kind == kind);
    let mut requests = 0;
    for pe in 0..6 {
        // One gm_req span per request message this PE put on the wire ...
        let sent = run
            .metrics
            .counter("kernel", "gm_request_msgs", Some(pe as u32));
        let reqs: Vec<_> = of(pe, TraceSpanKind::GmReq).collect();
        assert_eq!(reqs.len() as u64, sent.unwrap_or(0), "pe{pe}");
        requests += reqs.len();
        // ... each answered by exactly one serve span at its home, inside
        // it, and redeemed once.
        for req in reqs {
            let id = serve_span_id(req.span, 0);
            let mut serves = of(req.peer as usize, TraceSpanKind::Serve).filter(|s| s.span == id);
            let serve = serves.next().expect("every request is served");
            assert!(serves.next().is_none(), "once");
            assert_eq!((serve.peer, serve.seq), (req.pe, req.seq));
            assert!(
                req.start_ns <= serve.start_ns
                    && serve.start_ns <= serve.end_ns
                    && serve.end_ns <= req.end_ns,
                "the serve lies inside the request: {req:?} {serve:?}"
            );
            let redeems = of(pe, TraceSpanKind::Redeem).filter(|s| s.parent == id);
            assert_eq!(redeems.count(), 1);
        }
    }
    // One serve span per request served, and none besides.
    let serves: usize = (0..6).map(|pe| of(pe, TraceSpanKind::Serve).count()).sum();
    assert_eq!(serves, requests);
    assert!(requests > 0, "the workload issues remote requests");
}
