//! In-memory span recording for traced runs.
//!
//! A span is one timed call into a layer's public function, made from the
//! benchmark's own code: request id, layer, start, end (nanoseconds since
//! the tracer was built) and the span that caused it. Spans stay in memory
//! and are written as JSONL when the run ends; only the first
//! [`KEEP_SPANS`] are kept, which bounds memory on long runs. The per-layer
//! metrics are computed by the workloads from the same timings, so the cap
//! never changes a reported number.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Spans kept for the JSONL file.
const KEEP_SPANS: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    req: u64,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    recorded: usize,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), recorded: 0 }
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        crate::stats::nanos(t.saturating_duration_since(self.origin))
    }

    /// Record one span and return its id (usable as a later span's
    /// parent). Ids keep counting past the storage cap.
    pub fn record(
        &mut self,
        req: u64,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let id = self.recorded;
        self.recorded += 1;
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span { req, layer, start_ns, end_ns, parent });
        }
        id
    }

    /// Spans recorded in total (stored or not).
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Write the kept spans to `out/trace-<workload>-seed<seed>.jsonl` in
    /// the benchmark's directory and return the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"req\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.layer, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}
