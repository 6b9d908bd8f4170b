//! Host-time spans around the layer calls the benchmark makes.
//!
//! A span records its name, start, end, parent span and, where one
//! request caused it, the request id. Spans stay in memory and are
//! written once, as a chrome trace, after the traced pass. Spans inside
//! the library crates are not recorded.

use gpu_sim::{chrome_trace_envelope, json_escape};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// A span recorder. When off, [`Spans::span`] only runs its closure.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// The spans as chrome://tracing JSON (microsecond timestamps).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let request = s.request.map_or("null".to_string(), |r| r.to_string());
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":0,\"tid\":0,\"args\":{{\"id\":{i},\
                     \"parent\":{parent},\"request\":{request}}}}}",
                    json_escape(s.name),
                    s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6,
                )
            })
            .collect();
        chrome_trace_envelope(&events)
    }
}
