//! HA-Trace: the workspace's hand-rolled observability core.
//!
//! Every subsystem of the suite — the MapReduce runner, the replicated
//! DFS, the MRHA pipeline driver, and the HA-Serve query service — emits
//! into this one crate: **hierarchical spans** with monotonic timings,
//! a **typed event log** (task retries, DFS failovers, served batches),
//! and a **central metrics registry** (named counters + power-of-two
//! latency histograms). Drained traces go to pluggable [`Sink`]s: an
//! in-memory sink for tests, a JSON-lines writer (the `--trace <path>`
//! flag of the experiments binary), and a flame-style span-tree dump.
//!
//! # Design constraints
//!
//! * **Disabled by default, near-zero cost when off.** Tracing is a
//!   process-global switch; with it off, every instrumentation point is
//!   one relaxed atomic load — no clock reads, no allocation, no locks.
//!   The benchmark's `obs.on_slowdown` and `bench.trace_overhead` price
//!   it end to end.
//! * **Dependency-free.** This crate sits below everything else in the
//!   workspace graph (even the vendored shims), so it is std-only.
//! * **Cross-thread parentage.** The MapReduce runner executes tasks on
//!   worker threads; [`current_context`]/[`span_under`] carry the parent
//!   link across the spawn so per-task spans nest under their job.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//!
//! ha_obs::reset(); // enable with a fresh collector
//! {
//!     let _job = ha_obs::span("job");
//!     let ctx = ha_obs::current_context();
//!     std::thread::scope(|s| {
//!         s.spawn(move || {
//!             // Runs on another thread, still nests under "job".
//!             let _task = ha_obs::span_under("task", &ctx);
//!             ha_obs::add("records", 42);
//!             ha_obs::observe("latency", Duration::from_micros(7));
//!         });
//!     });
//! }
//! let trace = ha_obs::take_trace();
//! ha_obs::disable();
//!
//! let job = trace.spans.iter().find(|s| s.name == "job").unwrap();
//! let task = trace.spans.iter().find(|s| s.name == "task").unwrap();
//! assert_eq!(task.parent, Some(job.id));
//! assert_eq!(trace.metrics.counter("records"), 42);
//! assert_eq!(trace.metrics.histogram("latency").count(), 1);
//! ```

#![forbid(unsafe_code)]

mod event;
mod json;
mod registry;
mod sink;
mod span;

pub use event::{Event, EventRecord};
pub use registry::{Histogram, MetricsSnapshot, Registry};
pub use sink::{FlameSink, JsonLinesSink, MemorySink, Sink};
pub use span::{SpanContext, SpanGuard, SpanId, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

use span::SPAN_STACK;

/// Fast-path switch: instrumentation points check this (relaxed) before
/// doing anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The active collector. Swapped atomically under the lock by
/// [`reset`]/[`take_trace`]/[`disable`]; guards capture their collector
/// `Arc` at open time, so a swap mid-span is safe (the straddling span
/// records into the old, already-drained collector and is dropped with
/// it).
static COLLECTOR: OnceLock<RwLock<Option<Arc<Collector>>>> = OnceLock::new();

/// Dense thread ids for span/event attribution (`std::thread::ThreadId`
/// has no stable integer form).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn collector_cell() -> &'static RwLock<Option<Arc<Collector>>> {
    COLLECTOR.get_or_init(|| RwLock::new(None))
}

fn current_collector() -> Option<Arc<Collector>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    collector_cell()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Everything one enable…take cycle accumulates.
struct Collector {
    epoch: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    registry: Registry,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            registry: Registry::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn drain(&self) -> Trace {
        let mut spans = std::mem::take(
            &mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner),
        );
        let mut events = std::mem::take(
            &mut *self.events.lock().unwrap_or_else(PoisonError::into_inner),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        events.sort_by_key(|e| e.at_ns);
        Trace {
            spans,
            events,
            metrics: self.registry.snapshot(),
        }
    }

    fn snapshot(&self) -> Trace {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        events.sort_by_key(|e| e.at_ns);
        Trace {
            spans,
            events,
            metrics: self.registry.snapshot(),
        }
    }
}

/// Turns tracing on, keeping any collector already installed (idempotent
/// — an earlier capture continues). Use [`reset`] for a guaranteed-fresh
/// collector.
pub fn enable() {
    let mut cell = collector_cell()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    if cell.is_none() {
        *cell = Some(Arc::new(Collector::new()));
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing on with a fresh, empty collector, discarding anything
/// previously accumulated. The collector's epoch (timestamp zero) is the
/// moment of this call.
pub fn reset() {
    let mut cell = collector_cell()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    *cell = Some(Arc::new(Collector::new()));
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off and discards the collector. Spans still open keep
/// their guards valid (they record into the dropped collector, which
/// vanishes with the last guard).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    let mut cell = collector_cell()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    *cell = None;
}

/// Whether tracing is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains the active collector: returns everything recorded since
/// [`enable`]/[`reset`]/the last take, leaving tracing on with an empty
/// collector (a fresh epoch). Returns an empty [`Trace`] when disabled.
/// Spans still open at the moment of the take are dropped, not carried
/// over — drain at quiescent points.
pub fn take_trace() -> Trace {
    let mut cell = collector_cell()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    match cell.take() {
        Some(old) => {
            *cell = Some(Arc::new(Collector::new()));
            old.drain()
        }
        None => Trace::default(),
    }
}

/// Clones the current contents without draining — tracing continues to
/// accumulate into the same collector. Empty when disabled.
pub fn snapshot() -> Trace {
    match current_collector() {
        Some(c) => c.snapshot(),
        None => Trace::default(),
    }
}

/// Internal state of one open span; moved into the collector's record
/// vector when the guard drops.
pub(crate) struct ActiveSpan {
    pub(crate) id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    label: String,
    start_ns: u64,
    collector: Arc<Collector>,
}

fn open_span(
    name: &'static str,
    label: String,
    explicit_parent: Option<Option<SpanId>>,
) -> SpanGuard {
    let Some(collector) = current_collector() else {
        return SpanGuard { active: None };
    };
    let parent = match explicit_parent {
        Some(p) => p,
        None => SPAN_STACK.with(|s| s.borrow().last().copied()),
    };
    let id = collector.next_span.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            label,
            start_ns: collector.now_ns(),
            collector,
        }),
    }
}

pub(crate) fn close_span(active: ActiveSpan) {
    let end_ns = active.collector.now_ns();
    // Pop this span (and anything opened above it that leaked) off the
    // thread's stack; guards dropped out of order still yield a tree.
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
            stack.truncate(pos);
        }
    });
    let record = SpanRecord {
        id: active.id,
        parent: active.parent,
        name: active.name,
        label: active.label,
        start_ns: active.start_ns,
        end_ns,
        thread: THREAD_ID.with(|t| *t),
    };
    active
        .collector
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(record);
}

/// Opens a span named `name` as a child of the innermost span open on
/// this thread (a root if none). Close it by dropping the guard.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, String::new(), None)
}

/// [`span`] with a lazily-built label — the closure only runs when
/// tracing is on, so call sites pay nothing for formatting when off.
pub fn span_labeled(name: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    open_span(name, label(), None)
}

/// Opens a span parented by `ctx` instead of this thread's stack — the
/// cross-thread form. Capture [`current_context`] on the spawning thread
/// and pass it into the worker.
pub fn span_under(name: &'static str, ctx: &SpanContext) -> SpanGuard {
    open_span(name, String::new(), Some(ctx.parent))
}

/// [`span_under`] with a lazily-built label.
pub fn span_labeled_under(
    name: &'static str,
    label: impl FnOnce() -> String,
    ctx: &SpanContext,
) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    open_span(name, label(), Some(ctx.parent))
}

/// Captures this thread's innermost open span as a sendable parent link
/// for [`span_under`]. Detached (no parent) when no span is open or
/// tracing is off.
pub fn current_context() -> SpanContext {
    if !is_enabled() {
        return SpanContext::default();
    }
    SpanContext {
        parent: SPAN_STACK.with(|s| s.borrow().last().copied()),
    }
}

/// Logs a typed event, attributed to the innermost open span of this
/// thread. The closure only runs when tracing is on.
pub fn emit(make: impl FnOnce() -> Event) {
    let Some(collector) = current_collector() else {
        return;
    };
    let record = EventRecord {
        at_ns: collector.now_ns(),
        span: SPAN_STACK.with(|s| s.borrow().last().copied()),
        thread: THREAD_ID.with(|t| *t),
        event: make(),
    };
    collector
        .events
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(record);
}

/// Adds `delta` to the registry counter `name`. No-op when disabled.
pub fn add(name: &str, delta: u64) {
    if let Some(collector) = current_collector() {
        collector.registry.add(name, delta);
    }
}

/// [`add`] for several counters at once: one collector lookup and one
/// registry lock for the whole slice. No-op when disabled.
pub fn add_many(deltas: &[(&str, u64)]) {
    if let Some(collector) = current_collector() {
        collector.registry.add_many(deltas);
    }
}

/// Records `sample` into the registry histogram `name`. No-op when
/// disabled.
pub fn observe(name: &str, sample: Duration) {
    if let Some(collector) = current_collector() {
        collector.registry.observe(name, sample);
    }
}

/// A drained capture: closed spans, logged events, and a metrics
/// snapshot. Spans are sorted by `(start_ns, id)`, events by `at_ns`.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Closed spans.
    pub spans: Vec<SpanRecord>,
    /// Logged events.
    pub events: Vec<EventRecord>,
    /// Registry contents at drain time.
    pub metrics: MetricsSnapshot,
}

impl Trace {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.events.is_empty()
            && self.metrics.counters.is_empty()
            && self.metrics.histograms.is_empty()
    }

    /// Spans with no parent, in start order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of `id`, in start order.
    pub fn children(&self, id: SpanId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// The last-starting span with this name, if any.
    pub fn last_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Number of spans with this name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// `id` plus all its descendants, in start order.
    pub fn subtree(&self, id: SpanId) -> Vec<&SpanRecord> {
        let mut keep: Vec<&SpanRecord> = Vec::new();
        let mut frontier = vec![id];
        while let Some(cur) = frontier.pop() {
            if let Some(s) = self.spans.iter().find(|s| s.id == cur) {
                keep.push(s);
            }
            for c in self.spans.iter().filter(|s| s.parent == Some(cur)) {
                frontier.push(c.id);
            }
        }
        keep.sort_by_key(|s| (s.start_ns, s.id));
        keep
    }

    /// Shortcut for `self.metrics.counter(name)`.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Renders the span tree as indented text: one line per span with
    /// its label, duration, and share of its root's duration.
    pub fn render_flame(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            let us = ns as f64 / 1e3;
            if us < 1000.0 {
                format!("{us:.1}µs")
            } else if us < 1e6 {
                format!("{:.2}ms", us / 1e3)
            } else {
                format!("{:.3}s", us / 1e6)
            }
        }
        fn walk(trace: &Trace, span: &SpanRecord, depth: usize, root_ns: u64, out: &mut String) {
            let dur = span.duration().as_nanos() as u64;
            let pct = if root_ns == 0 {
                100.0
            } else {
                100.0 * dur as f64 / root_ns as f64
            };
            let label = if span.label.is_empty() {
                String::new()
            } else {
                format!(" [{}]", span.label)
            };
            out.push_str(&format!(
                "{}{}{}  {}  ({:.1}%)\n",
                "  ".repeat(depth),
                span.name,
                label,
                fmt_ns(dur),
                pct
            ));
            for child in trace.children(span.id) {
                walk(trace, child, depth + 1, root_ns, out);
            }
        }
        let mut out = String::new();
        for root in self.roots() {
            walk(self, root, 0, root.duration().as_nanos() as u64, &mut out);
        }
        out
    }

    /// Encodes the trace as JSON lines: spans, then events, then
    /// counters, then histograms — one RFC 8259 object per line.
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"label\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::json_string(s.name),
                json::json_string(&s.label),
                s.start_ns,
                s.end_ns,
                s.thread
            );
            out.push('\n');
        }
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"type\":\"event\",\"kind\":{},\"at_ns\":{},\"span\":{},\"thread\":{}",
                json::json_string(e.event.kind()),
                e.at_ns,
                e.span.map_or("null".to_string(), |p| p.to_string()),
                e.thread
            );
            for (field, value) in e.event.fields() {
                let _ = write!(
                    out,
                    ",{}:{}",
                    json::json_string(field),
                    json::json_string(&value)
                );
            }
            out.push_str("}\n");
        }
        for (name, value) in &self.metrics.counters {
            let _ = write!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                json::json_string(name),
                value
            );
            out.push('\n');
        }
        for (name, hist) in &self.metrics.histograms {
            let _ = write!(
                out,
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                json::json_string(name),
                hist.count(),
                hist.quantile(0.5).as_nanos(),
                hist.quantile(0.99).as_nanos(),
                hist.quantile(1.0).as_nanos()
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The collector is process-global; tests that touch it serialize
    /// through this lock (the pattern `tests/observability.rs` at the
    /// workspace root also uses).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        let _g = lock();
        disable();
        let _span = span("never");
        add("never", 1);
        observe("never", Duration::from_nanos(1));
        emit(|| panic!("closure must not run when disabled"));
        assert!(take_trace().is_empty());
        assert!(snapshot().is_empty());
        assert!(current_context().parent().is_none());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = lock();
        reset();
        {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
            }
            let _d = span("d");
        }
        let trace = take_trace();
        disable();
        let get = |n: &str| trace.spans.iter().find(|s| s.name == n).unwrap().clone();
        let (a, b, c, d) = (get("a"), get("b"), get("c"), get("d"));
        assert_eq!(a.parent, None);
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(c.parent, Some(b.id));
        assert_eq!(d.parent, Some(a.id), "stack popped back to a");
        for s in &trace.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        // Parent intervals contain child intervals.
        assert!(a.start_ns <= b.start_ns && b.end_ns <= a.end_ns);
    }

    #[test]
    fn context_carries_parent_across_threads() {
        let _g = lock();
        reset();
        {
            let _job = span_labeled("job", || "j1".to_string());
            let ctx = current_context();
            std::thread::scope(|s| {
                for i in 0..3 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _t = span_labeled_under("task", move || format!("t{i}"), &ctx);
                        emit(|| Event::TaskAttempt {
                            task: format!("t{i}"),
                            attempt: 0,
                        });
                    });
                }
            });
        }
        let trace = take_trace();
        disable();
        let job = trace.last_named("job").unwrap();
        let tasks: Vec<_> = trace.spans.iter().filter(|s| s.name == "task").collect();
        assert_eq!(tasks.len(), 3);
        for t in &tasks {
            assert_eq!(t.parent, Some(job.id));
            assert_ne!(t.thread, job.thread, "tasks ran off-thread");
        }
        assert_eq!(trace.events.len(), 3);
        for e in &trace.events {
            assert_eq!(e.event.kind(), "task.attempt");
            assert!(tasks.iter().any(|t| Some(t.id) == e.span));
        }
    }

    #[test]
    fn take_trace_leaves_a_fresh_collector() {
        let _g = lock();
        reset();
        add("x", 1);
        let first = take_trace();
        assert_eq!(first.counter("x"), 1);
        add("x", 5);
        let second = take_trace();
        disable();
        assert_eq!(second.counter("x"), 5, "drain resets the registry");
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _g = lock();
        reset();
        add("y", 2);
        {
            let _s = span("s");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("y"), 2);
        assert_eq!(snap.count_named("s"), 1);
        let taken = take_trace();
        disable();
        assert_eq!(taken.counter("y"), 2, "snapshot left everything in place");
    }

    #[test]
    fn enable_is_idempotent_reset_is_not() {
        let _g = lock();
        reset();
        add("k", 1);
        enable(); // keeps the collector
        assert_eq!(snapshot().counter("k"), 1);
        reset(); // discards it
        assert_eq!(snapshot().counter("k"), 0);
        disable();
    }

    #[test]
    fn trace_helpers_navigate_the_tree() {
        let _g = lock();
        reset();
        {
            let _a = span("pipeline");
            {
                let _b = span("phase");
                let _c = span("phase");
            }
        }
        let trace = take_trace();
        disable();
        assert_eq!(trace.roots().len(), 1);
        let root = trace.roots()[0];
        assert_eq!(trace.children(root.id).len(), 1);
        assert_eq!(trace.count_named("phase"), 2);
        assert_eq!(trace.subtree(root.id).len(), 3);
        let flame = trace.render_flame();
        assert!(flame.contains("pipeline"), "{flame}");
        let json = trace.to_json_lines();
        assert_eq!(json.lines().count(), 3, "{json}");
        assert!(json.lines().all(|l| l.starts_with("{\"type\":\"span\"")));
    }

    #[test]
    fn json_lines_cover_all_record_types() {
        let _g = lock();
        reset();
        {
            let _s = span("s");
            emit(|| Event::ServeKnn { k: 3 });
        }
        add("c", 7);
        observe("h", Duration::from_micros(9));
        let trace = take_trace();
        disable();
        let json = trace.to_json_lines();
        for tag in ["\"span\"", "\"event\"", "\"counter\"", "\"histogram\""] {
            assert!(
                json.contains(&format!("{{\"type\":{tag}")),
                "missing {tag} in {json}"
            );
        }
        assert!(json.contains("\"kind\":\"serve.knn\""));
        assert!(json.contains("\"k\":\"3\""));
    }
}
