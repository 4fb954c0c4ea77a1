//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start and end (seconds since the recorder was
//! made) and the span that caused it. They stay in memory until the
//! benchmark writes them out at the end of a traced run.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `io.parse`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span log with a stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span, and returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[idx].end = end;
        (out, end - start)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, one
    /// track, microseconds), loadable in a trace viewer.
    pub fn to_chrome_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                    s.name,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut spans = Spans::default();
        let ((), outer) = spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let [o, i] = spans.spans() else {
            panic!("two spans")
        };
        assert_eq!((o.parent, i.parent), (None, Some(0)));
        assert!(i.end - i.start >= 0.005 && outer >= i.end - i.start);
        assert!(spans.to_chrome_json().contains("\"parent\":0"));
    }
}
