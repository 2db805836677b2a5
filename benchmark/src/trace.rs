//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public functions in a span (name, start, end,
//! parent, operation id), keeps the spans in memory and writes them out
//! as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer name, e.g. `plan` or `sat.solve`.
    pub name: &'static str,
    /// The analysis or request the span belongs to.
    pub op: u64,
    /// Recording thread (client index on `serve_eco`, 0 otherwise).
    pub tid: u64,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

/// In-memory span store. A disabled tracer records nothing and hands
/// out id 0, so traced and untraced code paths are the same calls.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is this tracer recording?
    pub fn on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span that was timed elsewhere and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        tid: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            op,
            tid,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        id
    }

    /// Runs `f` inside a span. `f` receives the span's id so it can
    /// parent child spans; the span is stored when `f` returns.
    pub fn span<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            op,
            tid: 0,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Share of `[from, to]`, less `untraced` seconds spent there with
    /// tracing off, covered by the union of root spans.
    pub fn coverage(&self, from: Instant, to: Instant, untraced: f64) -> f64 {
        let (lo, hi) = (self.us(from), self.us(to));
        let roots: Vec<(f64, f64)> = self
            .spans()
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.start_us.max(lo), s.end_us.min(hi)))
            .filter(|(a, b)| b > a)
            .collect();
        let traced = hi - lo - untraced * 1e6;
        if traced > 0.0 {
            union_len(roots) / traced
        } else {
            0.0
        }
    }

    /// Self time per layer name, seconds: each span's duration minus the
    /// part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let kids: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            let own = (s.end_us - s.start_us - union_len(kids)).max(0.0);
            *out.entry(s.name).or_insert(0.0) += own / 1e6;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph": "X"`) event per span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let spans = self.spans();
        for (k, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \
                 \"parent\": {}, \"op\": {}}}}}{}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                s.id,
                s.parent,
                s.op,
                if k + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(Vec::new()), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let t0 = t.epoch;
        let ms = |k: u64| t0 + std::time::Duration::from_millis(k);
        let root = t.record("root", 0, 1, 0, ms(0), ms(10));
        t.record("child", root, 1, 0, ms(2), ms(5));
        t.record("child", root, 1, 0, ms(4), ms(7));
        let st = t.self_times();
        assert!((st["root"] - 0.005).abs() < 1e-9);
        assert!((st["child"] - 0.006).abs() < 1e-9);
        assert!((t.coverage(ms(0), ms(20), 0.0) - 0.5).abs() < 1e-9);
        assert!((t.coverage(ms(0), ms(20), 0.01) - 1.0).abs() < 1e-9);
    }
}
