//! The benchmark's own spans: one per public call it makes into the
//! program, kept in memory and written out as JSON Lines when the run
//! ends. Spans of one goal share its id (the goal's index in the
//! workload's pinned list).

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    goal: Option<usize>,
    start: f64,
    end: Option<f64>,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// The id of an open span, handed back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        goal: Option<usize>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            goal,
            start: self.epoch.elapsed().as_secs_f64(),
            end: None,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64();
        let span = &mut self.spans[id.0];
        span.end = Some(now);
        now - span.start
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        goal: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, goal);
        let value = f();
        (value, self.end(id))
    }

    /// One JSON object per span: `id`, `parent`, `goal`, `name`, and
    /// `start_s`/`end_s` since the benchmark started.
    pub fn to_jsonl(&self) -> String {
        fn opt<T: ToString>(v: Option<T>) -> String {
            v.map_or("null".to_string(), |v| v.to_string())
        }
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"goal\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                opt(span.parent),
                opt(span.goal),
                span.name,
                span.start,
                opt(span.end)
            );
        }
        out
    }
}
