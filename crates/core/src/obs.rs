//! `ofd-obs`: observability — counters, gauges, fixed-bucket histograms and
//! lightweight span timers — for the long-running engines.
//!
//! An [`Obs`] is a cheap, cloneable handle that threads through the system
//! exactly like [`ExecGuard`](crate::ExecGuard): engines take it
//! unconditionally and callers who don't care pass [`Obs::disabled`] (the
//! default), whose every operation is a branch-on-`None` no-op. An enabled
//! handle shares one registry between all clones, so counters accumulated on
//! worker threads and in nested phases land in a single
//! [`MetricsSnapshot`].
//!
//! Determinism contract: engines must emit *count-like* metrics (counters,
//! histograms over data-dependent quantities) so their totals are identical
//! run-to-run and independent of worker-thread count; anything wall-clock
//! derived (span durations, utilization) goes into spans or gauges. The
//! metrics-invariance tests rely on this split.
//!
//! A snapshot is a serde_json document ([`ToJson`]); the schema is
//! versioned and checked by a plain-Rust test in CI:
//!
//! ```json
//! {
//!   "version": 1,
//!   "enabled": true,
//!   "counters": {"discovery.candidates": 42},
//!   "gauges": {"discovery.verify.utilization": 0.93},
//!   "histograms": {"discovery.partition.class_count":
//!       {"bounds": [1.0, 2.0], "counts": [0, 1, 0], "count": 1, "sum": 2.0}},
//!   "spans": [{"name": "fastofd.run", "parent": null,
//!              "start_us": 0, "elapsed_us": 1234}]
//! }
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{json, ToJson, Value};

/// A fixed-boundary monotonic histogram: `counts[i]` tallies observations
/// `≤ bounds[i]`, with one overflow bucket at the end
/// (`counts.len() == bounds.len() + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket boundaries, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (one extra overflow bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// One closed span: a named timed section with its parent (an index into
/// the snapshot's span list) when it was opened inside another span on the
/// same thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset from the registry's creation, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub elapsed_us: u64,
}

/// A point-in-time copy of an [`Obs`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Whether the handle was enabled (a disabled handle snapshots empty).
    pub enabled: bool,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values (last write wins), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Closed spans in close order.
    pub spans: Vec<SpanSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's total, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// A gauge's value, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Serializes the snapshot to the versioned JSON schema; `pretty` adds
    /// newlines and two-space indentation.
    pub fn to_json_string(&self, pretty: bool) -> String {
        let text = if pretty {
            serde_json::to_string_pretty(self)
        } else {
            serde_json::to_string(self)
        };
        text.expect("a metrics document always prints")
    }

    /// Renders the span tree as indented text (for `--trace` on stderr).
    pub fn render_trace(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) if p < self.spans.len() => children[p].push(i),
                _ => roots.push(i),
            }
        }
        // Render children (and roots) in start order.
        let by_start = |ids: &mut Vec<usize>, spans: &[SpanSnapshot]| {
            ids.sort_by_key(|&i| (spans[i].start_us, i));
        };
        by_start(&mut roots, &self.spans);
        for c in &mut children {
            by_start(c, &self.spans);
        }
        let mut out = String::new();
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((i, depth)) = stack.pop() {
            let s = &self.spans[i];
            let _ = writeln!(
                out,
                "{:indent$}{} {:.3}ms",
                "",
                s.name,
                s.elapsed_us as f64 / 1000.0,
                indent = depth * 2
            );
            for &c in children[i].iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        out
    }
}

impl ToJson for MetricsSnapshot {
    /// The versioned metrics document; non-finite floats print as `null`.
    fn to_json(&self) -> Value {
        json!({
            "version": 1,
            "enabled": self.enabled,
            "counters": members(&self.counters, |&v| json!(v)),
            "gauges": members(&self.gauges, |&v| json!(v)),
            "histograms": members(&self.histograms, |h| json!({
                "bounds": h.bounds.clone(),
                "counts": h.counts.clone(),
                "count": h.count,
                "sum": h.sum,
            })),
            "spans": Value::Array(self.spans.iter().map(|s| json!({
                "name": s.name.as_str(),
                "parent": s.parent,
                "start_us": s.start_us,
                "elapsed_us": s.elapsed_us,
            })).collect()),
        })
    }
}

/// A JSON object with one member per named item, in order.
fn members<T>(items: &[(String, T)], value: impl Fn(&T) -> Value) -> Value {
    Value::Object(items.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

#[derive(Debug, Default)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

#[derive(Debug)]
struct SpanRecord {
    name: String,
    parent: Option<usize>,
    start_us: u64,
    elapsed_us: u64,
    closed: bool,
}

#[derive(Debug)]
struct ObsInner {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<Vec<SpanRecord>>,
    /// Whether [`Obs::span`] records anything; see [`Obs::metrics_only`].
    keep_spans: bool,
    epoch: Instant,
}

thread_local! {
    /// Per-thread stack of open spans: (registry identity, span index).
    /// Spans opened on worker threads (empty stack for their registry)
    /// become roots — cross-thread parenting is intentionally not modeled.
    static SPAN_STACK: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// A cloneable observability handle; clones share one metrics registry.
///
/// The default handle is disabled: every operation is a no-op costing one
/// branch, so engines thread an `Obs` unconditionally the same way they
/// thread an [`ExecGuard`](crate::ExecGuard).
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A no-op handle (the default).
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// A handle with a live registry; the span epoch starts now.
    pub fn enabled() -> Obs {
        Obs::live(true)
    }

    /// A live registry of counters, gauges and histograms that retains no
    /// spans: [`Obs::span`] is a no-op on it. A long-lived handle, such as
    /// a server's, would otherwise keep every span each request closes,
    /// and its snapshot would grow without bound.
    pub fn metrics_only() -> Obs {
        Obs::live(false)
    }

    fn live(keep_spans: bool) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
                keep_spans,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether this handle records anything. Engines may use this to skip
    /// metric *computation* (not just recording) that would otherwise cost
    /// time on the hot path.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            if n > 0 {
                let mut c = inner.counters.lock().unwrap();
                *c.entry(name.to_owned()).or_insert(0) += n;
            }
        }
    }

    /// Ensures the named counter exists (at zero) without incrementing it.
    /// Schema-pinned counters use this so a zero total still appears in
    /// snapshots — [`Obs::add`] deliberately drops zero increments.
    pub fn touch_counter(&self, name: &str) {
        if let Some(inner) = &self.inner {
            let mut c = inner.counters.lock().unwrap();
            c.entry(name.to_owned()).or_insert(0);
        }
    }

    /// Adds one to the named counter.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named gauge (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.gauges.lock().unwrap().insert(name.to_owned(), value);
        }
    }

    /// Records `value` into the named histogram. The bucket boundaries are
    /// fixed at the histogram's first observation; later calls reuse them
    /// (pass the same constant slice).
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut hs = inner.histograms.lock().unwrap();
        let h = hs.entry(name.to_owned()).or_insert_with(|| Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        });
        let bucket = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[bucket] += 1;
        h.count += 1;
        h.sum += value;
    }

    /// Opens a named span; the span closes (and records its duration) when
    /// the returned guard drops. Spans nest per thread: a span opened while
    /// another span of the same registry is open on the same thread records
    /// it as its parent.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = self.inner.as_ref().filter(|inner| inner.keep_spans) else {
            return SpanGuard { active: None };
        };
        let id = Arc::as_ptr(inner) as usize;
        let start = Instant::now();
        let start_us = start.duration_since(inner.epoch).as_micros() as u64;
        let index = {
            let mut spans = inner.spans.lock().unwrap();
            let parent = SPAN_STACK.with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|&&(rid, _)| rid == id)
                    .map(|&(_, i)| i)
            });
            spans.push(SpanRecord {
                name: name.to_owned(),
                parent,
                start_us,
                elapsed_us: 0,
                closed: false,
            });
            spans.len() - 1
        };
        SPAN_STACK.with(|s| s.borrow_mut().push((id, index)));
        SpanGuard {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                index,
                started: start,
            }),
        }
    }

    /// Copies the registry into a [`MetricsSnapshot`]. Open spans are
    /// omitted (they have no duration yet); a disabled handle snapshots
    /// empty with `enabled: false`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters: Vec<(String, u64)> = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        let gauges: Vec<(String, f64)> = inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        let histograms: Vec<(String, HistogramSnapshot)> = inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        counts: h.counts.clone(),
                        count: h.count,
                        sum: h.sum,
                    },
                )
            })
            .collect();
        // Open spans are dropped, so parent indexes must be remapped onto
        // the compacted list.
        let spans_guard = inner.spans.lock().unwrap();
        let mut remap: Vec<Option<usize>> = vec![None; spans_guard.len()];
        let mut spans: Vec<SpanSnapshot> = Vec::new();
        for (i, s) in spans_guard.iter().enumerate() {
            if !s.closed {
                continue;
            }
            remap[i] = Some(spans.len());
            spans.push(SpanSnapshot {
                name: s.name.clone(),
                parent: s.parent.and_then(|p| remap[p]),
                start_us: s.start_us,
                elapsed_us: s.elapsed_us,
            });
        }
        MetricsSnapshot {
            enabled: true,
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

struct ActiveSpan {
    inner: Arc<ObsInner>,
    index: usize,
    started: Instant,
}

/// RAII guard returned by [`Obs::span`]; closes the span on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed_us = active.started.elapsed().as_micros() as u64;
        {
            let mut spans = active.inner.spans.lock().unwrap();
            let rec = &mut spans[active.index];
            rec.elapsed_us = elapsed_us;
            rec.closed = true;
        }
        let id = Arc::as_ptr(&active.inner) as usize;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(rid, i)| rid == id && i == active.index)
            {
                stack.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.inc("x");
        obs.add("x", 5);
        obs.set_gauge("g", 1.0);
        obs.observe("h", &[1.0], 0.5);
        {
            let _s = obs.span("s");
        }
        let snap = obs.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        assert_eq!(Obs::default().snapshot(), snap);
    }

    #[test]
    fn counters_accumulate_across_clones_and_threads() {
        let obs = Obs::enabled();
        obs.add("a", 2);
        obs.inc("a");
        let clone = obs.clone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = clone.clone();
                scope.spawn(move || c.add("a", 10));
            }
        });
        assert_eq!(obs.snapshot().counter("a"), Some(43));
        assert_eq!(obs.snapshot().counter("missing"), None);
    }

    #[test]
    fn counter_sum_matches_prefix() {
        let obs = Obs::enabled();
        obs.add("level.1.c", 3);
        obs.add("level.2.c", 4);
        obs.add("other", 100);
        assert_eq!(obs.snapshot().counter_sum("level."), 7);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let obs = Obs::enabled();
        obs.set_gauge("g", 1.5);
        obs.set_gauge("g", 2.5);
        assert_eq!(obs.snapshot().gauge("g"), Some(2.5));
    }

    #[test]
    fn histograms_bucket_observations() {
        let obs = Obs::enabled();
        let bounds = [1.0, 4.0, 16.0];
        for v in [0.5, 2.0, 3.0, 20.0] {
            obs.observe("h", &bounds, v);
        }
        let snap = obs.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.bounds, vec![1.0, 4.0, 16.0]);
        assert_eq!(h.counts, vec![1, 2, 0, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 25.5).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_on_one_thread_and_root_on_workers() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
            let worker = obs.clone();
            std::thread::spawn(move || {
                let _w = worker.span("worker");
            })
            .join()
            .unwrap();
        }
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"worker"));
        let outer = snap.spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        let worker = snap.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, None, "cross-thread spans are roots");
        assert_eq!(snap.spans[outer].parent, None);
    }

    #[test]
    fn open_spans_are_omitted_and_parents_remapped() {
        let obs = Obs::enabled();
        let _open = obs.span("still-open");
        {
            let _closed = obs.span("closed-child");
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "closed-child");
        // Its parent (the open span) is not in the snapshot.
        assert_eq!(snap.spans[0].parent, None);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let obs = Obs::enabled();
        obs.add("a\"b", 1);
        obs.set_gauge("g", 0.5);
        obs.observe("h", &[1.0], 2.0);
        {
            let _s = obs.span("root");
        }
        let compact = obs.snapshot().to_json_string(false);
        assert!(compact.starts_with('{') && compact.ends_with('}'));
        assert!(compact.contains("\"version\":1"));
        assert!(compact.contains("\"a\\\"b\":1"));
        assert!(compact.contains("\"enabled\":true"));
        assert!(!compact.contains('\n'));
        let pretty = obs.snapshot().to_json_string(true);
        assert!(pretty.contains('\n'));
        assert!(pretty.contains("\"version\": 1"));
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let obs = Obs::enabled();
        obs.set_gauge("bad", f64::NAN);
        let json = obs.snapshot().to_json_string(false);
        assert!(json.contains("\"bad\":null"));
    }

    #[test]
    fn trace_renders_the_span_tree() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
        }
        let trace = obs.snapshot().render_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("outer "));
        assert!(lines[1].starts_with("  inner "));
    }

    #[test]
    fn a_metrics_only_handle_counts_but_keeps_no_spans() {
        let obs = Obs::metrics_only();
        assert!(obs.is_enabled());
        for _ in 0..3 {
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
            obs.inc("requests");
            obs.observe("h", &[1.0], 0.5);
        }
        let snap = obs.snapshot();
        assert!(snap.enabled);
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counter("requests"), Some(3));
        assert_eq!(snap.histograms[0].1.count, 3);
        assert!(snap.render_trace().is_empty());
    }

    #[test]
    fn empty_snapshot_serializes() {
        let snap = Obs::enabled().snapshot();
        let json = snap.to_json_string(true);
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"spans\": []"));
        assert!(snap.render_trace().is_empty());
    }
}
