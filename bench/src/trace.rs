//! Benchmark-owned spans around the calls into each layer.
//!
//! Spans stay in memory and are written out once, when the traced run
//! ends. Each records its name, start, end and parent; self time is a
//! span's duration minus what its children cover.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One closed span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Index of this span in the trace.
    pub id: u64,
    /// What the span covers, e.g. `study` or `probe/tier.touch_ns`.
    pub name: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// The enclosing span's id (`None` for a root).
    pub parent: Option<u64>,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len() as u64;
        let start = Instant::now();
        self.spans.push(SpanRecord {
            id,
            name: name.to_string(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id as usize].end_us = end.duration_since(self.origin).as_secs_f64() * 1e6;
        (out, end.duration_since(start).as_secs_f64())
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }
}
