//! Hierarchical spans: RAII enter/exit guards, monotonic timings, and
//! parent propagation — including across threads via [`SpanContext`].
//!
//! A span is *open* between [`crate::span`] (or one of its variants) and
//! the drop of the returned [`SpanGuard`]; only closed spans appear in a
//! [`crate::Trace`]. Parentage comes from a thread-local stack: a span
//! opened while another span is open on the same thread becomes its
//! child. To parent work running on a *different* thread (the MapReduce
//! worker pool), capture [`crate::current_context`] on the spawning
//! thread and open the remote span with [`crate::span_under`].

use std::time::Duration;

/// Identifier of one recorded span, unique within a collector lifetime.
pub type SpanId = u64;

/// A captured parent link, safe to send across threads. Obtained from
/// [`crate::current_context`] on the thread whose innermost open span
/// should adopt the remote work. The default context has no parent:
/// spans opened under it become roots.
#[derive(Clone, Debug, Default)]
pub struct SpanContext {
    pub(crate) parent: Option<SpanId>,
}

impl SpanContext {
    /// The span that will adopt children opened under this context.
    pub fn parent(&self) -> Option<SpanId> {
        self.parent
    }
}

/// One closed span as it appears in a [`crate::Trace`]. Timestamps are
/// nanoseconds since the collector's epoch (the matching
/// [`crate::enable`]/[`crate::reset`] call), measured with
/// `std::time::Instant`, so `end_ns >= start_ns` always holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id of this span.
    pub id: SpanId,
    /// Id of the enclosing span, `None` for roots.
    pub parent: Option<SpanId>,
    /// Static span name (e.g. `"mr.map_task"`).
    pub name: &'static str,
    /// Free-form detail (task id, path, …); empty when none was given.
    pub label: String,
    /// Open time, nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// Close time, nanoseconds since the collector epoch.
    pub end_ns: u64,
    /// Dense id of the thread the span ran on.
    pub thread: u64,
}

impl SpanRecord {
    /// Wall-clock the span was open for (non-negative by construction).
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

thread_local! {
    /// Innermost-open-span stack of this thread; the top is the parent
    /// of the next span opened here.
    pub(crate) static SPAN_STACK: std::cell::RefCell<Vec<SpanId>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII guard of one open span. Dropping it closes the span and records
/// it into the collector that was active when it was opened; when tracing
/// is disabled the guard is inert and costs one atomic load.
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    pub(crate) active: Option<crate::ActiveSpan>,
}

impl SpanGuard {
    /// Id of the open span, if tracing was enabled when it was opened.
    pub fn id(&self) -> Option<SpanId> {
        self.active.as_ref().map(|a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            crate::close_span(active);
        }
    }
}
