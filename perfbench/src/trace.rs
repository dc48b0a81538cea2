//! The benchmark's own spans, recorded around its calls into the
//! program's public functions.
//!
//! A traced run opens one span per call (name, start, end, parent, run
//! id), diffs the program's `falcon-obs` registry across it, and emits
//! it as a `bench.span` event into the installed sink, so the spans and
//! the program's own events land in one in-memory stream that is
//! written out when the run ends. An untraced [`Tracer`] only runs the
//! closures.

use crate::host;
use falcon_obs as obs;
use std::collections::BTreeMap;
use std::time::Instant;

/// Registry movement across one span: counter increases and histogram
/// `(count, sum)` increases, nonzero entries only.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, f64)>,
}

impl Delta {
    fn between(before: &obs::MetricsSnapshot, after: &obs::MetricsSnapshot) -> Delta {
        let counters = after
            .counters
            .keys()
            .map(|k| (k.clone(), after.counter_delta(before, k)))
            .filter(|(_, v)| *v > 0)
            .collect();
        let hists = after
            .histograms
            .keys()
            .map(|k| {
                (
                    k.clone(),
                    (after.histogram_count_delta(before, k), after.histogram_sum_delta(before, k)),
                )
            })
            .filter(|(_, (c, _))| *c > 0)
            .collect();
        Delta { counters, hists }
    }

    fn add(&mut self, other: &Delta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (c, s)) in &other.hists {
            let e = self.hists.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
    }

    /// Counter increase (0 when the counter did not move).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram observation-count increase.
    pub fn count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.0)
    }

    /// Histogram sum increase (seconds for `span.*` histograms).
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-call name, e.g. `attack.recover`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Registry movement while the span was open.
    pub delta: Delta,
}

impl SpanRec {
    /// Wall duration.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder; a no-op unless created with [`Tracer::on`].
#[derive(Debug)]
pub struct Tracer {
    run: Option<u64>,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<(usize, obs::MetricsSnapshot)>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { run: None, origin: host::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A recording tracer; `run` tags every span it emits.
    pub fn on(run: u64) -> Tracer {
        Tracer { run: Some(run), ..Tracer::off() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(run) = self.run else {
            return f(self);
        };
        let id = self.spans.len();
        let parent = self.open.last().map(|(p, _)| *p);
        let before = obs::metrics().snapshot();
        let start_s = host::secs_since(self.origin);
        self.spans.push(SpanRec { name, parent, start_s, end_s: start_s, delta: Delta::default() });
        self.open.push((id, before));
        let out = f(self);
        let end_s = host::secs_since(self.origin);
        let (_, before) = self.open.pop().expect("span stack holds the span being closed");
        let rec = &mut self.spans[id];
        rec.end_s = end_s;
        rec.delta = Delta::between(&before, &obs::metrics().snapshot());
        obs::emit(|| {
            obs::Event::new("bench.span")
                .with_str("name", name)
                .with_u64("id", id as u64)
                .with_i64("parent", parent.map_or(-1, |p| p as i64))
                .with_u64("run", run)
                .with_f64("start_s", start_s)
                .with_f64("end_s", end_s)
        });
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(SpanRec::secs).collect()
    }

    /// Registry movement summed over every span named `name`.
    pub fn delta_of(&self, name: &str) -> Delta {
        let mut total = Delta::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            total.add(&s.delta);
        }
        total
    }

    /// Span `id`'s duration minus the time its direct children cover.
    pub fn self_s(&self, id: usize) -> f64 {
        let children =
            host::total(self.spans.iter().filter(|s| s.parent == Some(id)).map(SpanRec::secs));
        self.spans[id].secs() - children
    }

    /// Per-name `(calls, total s, self s)`, sorted by self time, largest
    /// first.
    pub fn self_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += self.self_s(id);
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_deltas_are_scoped() {
        let mut t = Tracer::on(7);
        t.span("outer", |t| {
            obs::counter("perfbench.test.outer").incr();
            t.span("inner", |_| {
                obs::counter("perfbench.test.inner").add(3);
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.self_s(0) < spans[0].secs());
        assert!((t.self_s(0) + spans[1].secs() - spans[0].secs()).abs() < 1e-12);
        assert_eq!(spans[1].delta.counter("perfbench.test.inner"), 3);
        assert_eq!(spans[1].delta.counter("perfbench.test.outer"), 0);
        assert_eq!(spans[0].delta.counter("perfbench.test.outer"), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
