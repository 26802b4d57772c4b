//! The benchmark's own spans, recorded around its calls into each layer:
//! `workload > repetition > op` and one span per layer probe. They are
//! kept in memory and written out once, when the run ends. Spans inside
//! the program are a later change; these come from outside it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// Identifier of a recorded span; 0 is "no parent".
pub type SpanId = u32;

struct Span {
    parent: SpanId,
    name: String,
    /// Processing element the span ran on, for per-client op spans.
    pe: Option<u32>,
    start_ns: u64,
    /// `None` while the span is open.
    end_ns: Option<u64>,
    note: Option<String>,
}

/// An in-memory span recorder. Span ids are positions in the log plus one.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, parent: SpanId, name: impl Into<String>) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            parent,
            name: name.into(),
            pe: None,
            start_ns,
            end_ns: None,
            note: None,
        });
        self.spans.len() as SpanId
    }

    /// Close an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = Some(end);
    }

    /// Attach a free-form note to a span (counts, what was dropped).
    pub fn note(&mut self, id: SpanId, note: impl Into<String>) {
        self.spans[id as usize - 1].note = Some(note.into());
    }

    /// Record a span that already ended (an operation a client timed).
    pub fn record(&mut self, parent: SpanId, name: &str, pe: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            pe: Some(pe),
            start_ns,
            end_ns: Some(end_ns),
            note: None,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the log as one JSON document: a header and a `spans` array
    /// of `{id, parent, name, start_ns, end_ns[, pe][, note]}`. A span
    /// still open is written with `end_ns` null.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": {}, \"seed\": {}, \"clock\": \"ns since the benchmark process started measuring\", \"spans\": [",
            json::string(workload),
            seed
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}",
                i + 1,
                s.parent,
                json::string(&s.name),
                s.start_ns,
                s.end_ns.map_or("null".to_string(), |e| e.to_string()),
            )?;
            if let Some(pe) = s.pe {
                write!(out, ", \"pe\": {pe}")?;
            }
            if let Some(note) = &s.note {
                write!(out, ", \"note\": {}", json::string(note))?;
            }
            write!(out, "}}")?;
        }
        writeln!(out, "\n]}}")?;
        // A dropped BufWriter discards write errors; flush reports them.
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise_to_valid_json() {
        let mut log = SpanLog::new();
        let w = log.open(0, "workload:test");
        let r = log.open(w, "repetition");
        let t = Instant::now();
        log.record(
            r,
            "op:read",
            3,
            t,
            t + std::time::Duration::from_nanos(1500),
        );
        log.note(r, "ops 1, \"quoted\"");
        log.close(r);
        log.close(w);
        let dangling = log.open(0, "never closed");
        assert_eq!((w, r, dangling, log.len()), (1, 2, 4, 4));

        // Under this package's ignored out/ directory, not the system's.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        log.write_json(&path, "test", 9).unwrap();
        let doc = dse_sweep::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].get("parent").unwrap().as_u64(), Some(2));
        assert_eq!(spans[2].get("pe").unwrap().as_u64(), Some(3));
        let dur = spans[2].get("end_ns").unwrap().as_u64().unwrap()
            - spans[2].get("start_ns").unwrap().as_u64().unwrap();
        assert_eq!(dur, 1500);
        assert_eq!(spans[3].get("end_ns"), Some(&dse_sweep::json::Value::Null));
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(9));
    }
}
