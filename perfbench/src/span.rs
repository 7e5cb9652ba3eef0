//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around each call
//! into a layer's public functions. They are kept in memory, written out
//! when the run ends, and reduced to per-layer self time: a span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::{json_num, json_str};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The question or event the span belongs to.
    pub id: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn end(&mut self, index: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name, id);
        let out = f();
        self.end(index);
        out
    }

    /// Per-name self time in milliseconds: each span's duration minus
    /// its direct children's (spans nest and never overlap siblings).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).saturating_sub(covered[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total self time of the named spans, in milliseconds.
    pub fn self_total_ms(&self, names: &[&str]) -> f64 {
        self.self_ms()
            .iter()
            .filter(|(n, _)| names.contains(n))
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Summed duration of spans with this name, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start) as f64 / 1e6)
    }

    /// The spans and their reduction as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\n\"self_ms\": {{");
        let selfs: Vec<String> = self
            .self_ms()
            .iter()
            .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
            .collect();
        out.push_str(&selfs.join(", "));
        out.push_str("},\n\"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}",
                    json_str(s.name),
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.id
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}
