//! In-memory spans around the benchmark's calls into the library's
//! public functions. A disabled tracer records nothing, so untraced
//! passes pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The public function called (`cafa_core::Analyzer::analyze_with`, ...).
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the call served: workload pass and trace, e.g. `3/Camera`.
    pub request: String,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: String,
}

/// Token returned by [`Tracer::enter`] and consumed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`; times are relative to `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: String::new(),
        }
    }

    /// Whether this tracer records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Names the request later spans belong to.
    pub fn set_request(&mut self, request: String) {
        if self.on {
            self.request = request;
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let at = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: at,
            end: at,
            parent: self.open.last().copied(),
            request: self.request.clone(),
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes the span `open` and returns its duration.
    pub fn exit(&mut self, open: Open) -> Duration {
        let Some(i) = open.0 else {
            return Duration::ZERO;
        };
        self.spans[i].end = self.origin.elapsed();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(i), "spans close innermost first");
        self.spans[i].end - self.spans[i].start
    }

    /// Summed duration and summed self time (duration minus the part
    /// covered by child spans) per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, Duration)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let d = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.0 += d;
            e.1 += d.saturating_sub(children);
        }
        out
    }

    /// All spans, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": \"{}\"}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request.replace('"', "'"),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer");
        std::thread::sleep(Duration::from_millis(2));
        let inner = t.enter("inner");
        std::thread::sleep(Duration::from_millis(4));
        let inner_d = t.exit(inner);
        let outer_d = t.exit(outer);
        let totals = t.totals();
        assert_eq!(totals["inner"].0, inner_d);
        assert_eq!(totals["outer"].0, outer_d);
        assert_eq!(totals["outer"].1, outer_d - inner_d);
        assert!(t.to_jsonl().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.enter("x");
        assert_eq!(t.exit(s), Duration::ZERO);
        assert!(t.totals().is_empty());
    }
}
