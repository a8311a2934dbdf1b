//! Benchmark-side spans around calls into the solver's layers.
//!
//! Spans live in memory (name, start, end, parent) and are written out
//! once, when the run ends. A disabled tracer records nothing.

use famg_prof::json::Json;
use std::time::Instant;

/// Sentinel id returned while tracing is off.
const OFF: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.on {
            return OFF;
        }
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        let now = self.at(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Records a span measured elsewhere (e.g. on a rank thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start: self.at(start),
            end: self.at(end),
            parent: self.stack.last().copied(),
        };
        self.spans.push(span);
    }

    /// Number of spans recorded so far.
    pub fn spans_recorded(&self) -> usize {
        self.spans.len()
    }

    /// Time spent in span `id` not covered by its direct children.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start) - children
    }

    /// All spans as a JSON array (`name`, `start_s`, `end_s`, `self_s`,
    /// `parent` index or null).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_s".into(), Json::Num(s.start)),
                        ("end_s".into(), Json::Num(s.end)),
                        ("self_s".into(), Json::Num(self.self_time(i))),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Seconds the bookkeeping of one span (`begin` + `end` inside an open
/// parent) costs: the median over `reps` batches of 1000 spans, each
/// batch on a fresh tracer.
pub fn span_cost_s(reps: usize) -> f64 {
    const PER: usize = 1000;
    let per_span: Vec<f64> = (0..reps)
        .map(|_| {
            let mut t = Tracer::new(true);
            let root = t.begin("cycle");
            let start = Instant::now();
            for _ in 0..PER {
                let id = t.begin("core.solve");
                t.end(id);
            }
            let s = start.elapsed().as_secs_f64() / PER as f64;
            t.end(root);
            std::hint::black_box(t.spans_recorded());
            s
        })
        .collect();
    crate::median(&per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        let root = t.begin("cycle");
        let child = t.begin("setup");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let Json::Arr(spans) = t.to_json() else {
            panic!("array expected")
        };
        assert_eq!(spans.len(), 2);
        assert!(t.self_time(root) >= 0.0);
        assert!(t.self_time(root) < t.self_time(child));
        assert!(t.to_json().dump().contains("\"parent\":0"));
    }

    #[test]
    fn span_cost_is_small_and_positive() {
        let c = span_cost_s(3);
        assert!(c > 0.0 && c < 1e-3, "{c}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        t.record("y", Instant::now(), Instant::now());
        assert_eq!(t.to_json().dump(), "[]");
    }
}
