//! Spans recorded from the benchmark's own side of each public call, and
//! the delegating backend shim that makes `prepare` visible.
//!
//! Spans live in memory and are written out when the run ends. A span's
//! *self time* is its duration minus what its direct children cover.
//! Nothing here reaches inside the program: spans inside the product are a
//! later change.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use morestress_linalg::{CsrMatrix, LinalgError, PartitionHint, PreparedSolver, SolverBackend};

use crate::json::{obj, Value};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`global.solve`, `factor.prepare`, …).
    pub name: &'static str,
    /// The op the span belongs to (spans of one op share it); `None` for
    /// run-level phases such as set-up.
    pub op: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// untraced run executes the same op code with the probes compiled to two
/// branches.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos())
            .expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: Option<usize>) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced probe is a harness bug).
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end() without begin()");
        self.spans[index].end_ns = self.ns(Instant::now());
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span — how the shim's `prepare` timings enter the tree.
    pub fn child(&mut self, name: &'static str, op: Option<usize>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span called `name` whose op index
    /// satisfies `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(Option<usize>) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.op))
            .map(Span::ms)
            .collect()
    }

    /// The spans as a JSON array of `{name, op, parent, start_ns, end_ns,
    /// self_ns}` objects.
    pub fn to_json(&self) -> Value {
        let selfs = self_times(&self.spans);
        let index = |i: Option<usize>| i.map_or(Value::Null, |i| Value::Num(i as f64));
        Value::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    obj([
                        ("name", s.name.into()),
                        ("op", index(s.op)),
                        ("parent", index(s.parent)),
                        ("start_ns", (s.start_ns as f64).into()),
                        ("end_ns", (s.end_ns as f64).into()),
                        ("self_ns", (self_ns as f64).into()),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the summed duration of its
/// direct children (children of one parent never overlap here — the
/// benchmark records from one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            selfs[parent] = selfs[parent].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

/// Share (%) of each span named `parent_name` that its direct children
/// cover, smallest first — the "children sum to the parent" check.
pub fn child_cover_pct(spans: &[Span], parent_name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    let mut cover: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == parent_name && s.end_ns > s.start_ns)
        .map(|(s, self_ns)| {
            let total = (s.end_ns - s.start_ns) as f64;
            100.0 * (total - self_ns as f64) / total
        })
        .collect();
    cover.sort_by(|a, b| a.partial_cmp(b).expect("finite shares"));
    cover
}

/// What one `prepare` call through the [`Shim`] looked like.
#[derive(Debug, Clone)]
pub struct PrepareEvent {
    /// When the inner backend's `prepare` started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// The operator it was handed.
    pub matrix: Arc<CsrMatrix>,
}

/// A [`SolverBackend`] that forwards everything to the backend it wraps
/// and remembers each `prepare` (interval + operator) and the latest
/// partition hint. Passed to `GlobalStage::with_backend` on traced ops; it
/// answers `config_fingerprint`/`accepts_cached` with the inner backend's
/// values, so cache keys — and therefore hits, misses and result bits —
/// are exactly those of the unwrapped backend.
#[derive(Debug)]
pub struct Shim {
    inner: Box<dyn SolverBackend>,
    events: Mutex<Vec<PrepareEvent>>,
    hint: Mutex<Option<Arc<PartitionHint>>>,
}

impl Shim {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SolverBackend>) -> Self {
        Self {
            inner,
            events: Mutex::new(Vec::new()),
            hint: Mutex::new(None),
        }
    }

    /// Removes and returns the `prepare` calls seen since the last drain.
    pub fn drain(&self) -> Vec<PrepareEvent> {
        std::mem::take(&mut *self.events.lock().expect("shim events poisoned"))
    }

    /// The partition hint most recently handed down by the global stage.
    pub fn hint(&self) -> Option<Arc<PartitionHint>> {
        self.hint.lock().expect("shim hint poisoned").clone()
    }
}

impl SolverBackend for Shim {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        let matrix = Arc::clone(&a);
        let start = Instant::now();
        let prepared = self.inner.prepare(a);
        let end = Instant::now();
        self.events
            .lock()
            .expect("shim events poisoned")
            .push(PrepareEvent { start, end, matrix });
        prepared
    }

    fn config_fingerprint(&self) -> u64 {
        self.inner.config_fingerprint()
    }

    fn accepts_cached(&self, prepared: &PreparedSolver, a: &CsrMatrix) -> bool {
        self.inner.accepts_cached(prepared, a)
    }

    fn set_partition_hint(&self, hint: Option<Arc<PartitionHint>>) {
        *self.hint.lock().expect("shim hint poisoned") = hint.clone();
        self.inner.set_partition_hint(hint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: Some(0),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = vec![
            span("op", None, 0, 100),
            span("global.solve", Some(0), 2, 70),
            span("factor.prepare", Some(1), 10, 50),
            span("reconstruct.sample", Some(0), 70, 95),
            span("runner.checksum", Some(0), 95, 99),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3, 28, 40, 25, 4]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        assert_eq!(child_cover_pct(&spans, "op"), vec![97.0]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("op", Some(3));
        t.begin("global.solve", Some(3));
        let (a, b) = (Instant::now(), Instant::now());
        t.child("factor.prepare", Some(3), a, b);
        t.end();
        t.begin("reconstruct.sample", Some(3));
        t.end();
        t.end();
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations("op", |op| op == Some(3)).len(), 1);
        assert_eq!(t.durations("op", |op| op == Some(4)).len(), 0);
        let json = t.to_json();
        assert_eq!(json.as_array().unwrap().len(), 4);

        let mut off = Tracer::new(false);
        off.begin("op", None);
        off.child("factor.prepare", None, a, b);
        off.end();
        assert!(off.spans().is_empty());
    }
}
