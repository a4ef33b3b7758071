//! The benchmark's own spans, recorded around each call it makes into a
//! crate's public functions. Spans are kept in memory and summarised when
//! the run ends. Every span is timed (the workload needs the durations for
//! its end-to-end metrics); recording is what tracing adds.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ms: f64,
    /// Duration minus the part covered by child spans.
    pub self_ms: f64,
}

#[derive(Debug)]
pub struct Tracer {
    /// Whether this run traces at all.
    tracing: bool,
    epoch: Instant,
    enabled: Cell<bool>,
    reps: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer for a run; with `tracing` off it only times calls.
    /// Set-up is recorded whenever the run traces.
    pub fn new(tracing: bool) -> Self {
        Tracer {
            tracing,
            epoch: Instant::now(),
            enabled: Cell::new(tracing),
            reps: Cell::new(0),
            spans: RefCell::default(),
            stack: RefCell::default(),
        }
    }

    /// Start a repetition of the measured phase: a tracing run records
    /// every other one, so that untraced repetitions state the overhead.
    /// Returns whether this one is recorded.
    pub fn start_rep(&self) -> bool {
        let n = self.reps.get();
        self.reps.set(n + 1);
        self.enabled.set(self.tracing && n.is_multiple_of(2));
        self.enabled.get()
    }

    /// Leave the measured phase: record set-up and checks again.
    pub fn end_rep(&self) {
        self.enabled.set(self.tracing);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f`, returning its result and its wall time in seconds. While
    /// tracing is on, the call is also recorded as a span named `name`,
    /// nested under the span that is open around it.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let recording = self.enabled.get();
        let idx = recording.then(|| {
            let start_ns = self.now_ns();
            let parent = self.stack.borrow().last().copied();
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, parent, start_ns, end_ns: start_ns });
            let idx = spans.len() - 1;
            self.stack.borrow_mut().push(idx);
            idx
        });
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if let Some(idx) = idx {
            self.stack.borrow_mut().pop();
            self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        }
        (out, secs)
    }

    /// Calls, total and self time per span name, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untraced_calls_are_not_recorded() {
        let tr = Tracer::new(true);
        assert!(tr.start_rep());
        let ((), outer) = tr.span("outer", || {
            let ((), _) =
                tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        assert!(!tr.start_rep());
        let ((), _) = tr.span("off", || ());
        tr.end_rep();
        let totals = tr.totals();
        assert!(!totals.contains_key("off"));
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.calls, i.calls), (1, 1));
        assert!(i.total_ms >= 5.0 && o.total_ms >= i.total_ms);
        assert!((o.self_ms - (o.total_ms - i.total_ms)).abs() < 1e-6);
        assert!(outer * 1e3 >= i.total_ms);
    }
}
