//! In-memory span recording for the traced run.
//!
//! A span covers one call into a layer made by the benchmark's own code:
//! its name (`<layer>.<call>`), start and end, the span that contains it,
//! and the item (frame, inference, request run) it belongs to. Spans stay
//! in memory until the run ends, then are written once as Chrome
//! trace-event JSON (opens in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.infer`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (equal to `start_ns` while
    /// the span is open).
    pub end_ns: u64,
    /// Index of the containing span.
    pub parent: Option<usize>,
    /// The item the span belongs to; spans of one item share it.
    pub item: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, item: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            item,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let t = self.now_ns();
        self.spans[id].end_ns = t;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, item);
        let out = f();
        self.end(id);
        out
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover (children never overlap one another here).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Summed self time, in seconds, of the spans whose name starts with
    /// `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// Durations, in microseconds, of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-3)
            .collect()
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// microsecond timestamps, parent and item ids as arguments).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"item\": {}}}}}{}",
                quote(s.name),
                quote(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                s.item,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out + "]}\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_excludes_children_and_trace_parses() {
        let mut t = Tracer::new();
        let root = t.begin("frame", None, 7);
        t.time("sensor.frame", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let own = t.self_ns();
        assert_eq!(own[0] + t.spans()[1].dur_ns(), t.spans()[0].dur_ns());
        assert!(t.self_s("sensor.") >= 0.002);
        let doc = Json::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
