//! Hierarchical trace spans in a bounded ring buffer.
//!
//! Span parentage is threaded *explicitly* (a [`SpanId`] parameter)
//! rather than through thread-locals: the query path fans out across
//! scoped worker threads (`DbaasServer::scan_partitions`), where implicit
//! ambient context would silently detach children. Completed spans are
//! pushed as [`TraceEvent`]s into a fixed-capacity ring — when full,
//! the oldest event is dropped and a registry counter
//! (`trace_events_dropped_total`) records the loss, so the hot path
//! never blocks on trace growth and truncation is observable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the trace ring. Roughly: a partition-parallel join emits
/// a few dozen events, so this holds on the order of a hundred recent
/// queries before evicting.
const TRACE_CAPACITY: usize = 8192;

/// Identifier of a live or completed span. `SpanId::NONE` (0) marks a
/// root: an event whose `parent` is 0 has no enclosing span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The absent parent: events with this parent are trace roots.
    pub const NONE: SpanId = SpanId(0);

    /// The raw numeric id (0 for [`SpanId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One completed span, in the "complete event" shape of the Chrome
/// trace format (`ph: "X"`): a start timestamp plus a duration.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Unique id of this span within the [`crate::obs::Obs`] instance.
    pub id: u64,
    /// Id of the enclosing span, or 0 for roots.
    pub parent: u64,
    /// Span name, e.g. `"partition"` or `"ecall.search"`.
    pub name: &'static str,
    /// Span category: `"query"`, `"ecall"`, `"compaction"` or
    /// `"durability"`.
    pub cat: &'static str,
    /// Start offset in nanoseconds since the `Obs` epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// A compact hash of the recording thread's id (Chrome trace `tid`).
    pub tid: u64,
    /// One free-form numeric argument (partition id, byte count, …);
    /// meaning depends on `name`.
    pub arg: u64,
}

/// The bounded ring of completed [`TraceEvent`]s.
#[derive(Debug)]
pub(crate) struct TraceBuffer {
    next_id: AtomicU64,
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl TraceBuffer {
    pub(crate) fn new() -> Self {
        TraceBuffer {
            // Ids start at 1 so 0 stays reserved for SpanId::NONE.
            next_id: AtomicU64::new(1),
            events: Mutex::new(VecDeque::with_capacity(128)),
            capacity: TRACE_CAPACITY,
        }
    }

    pub(crate) fn fresh_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Pushes one completed event; returns `true` if an old event was
    /// evicted to make room (the caller counts drops in the registry).
    pub(crate) fn push(&self, ev: TraceEvent) -> bool {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let dropped = events.len() >= self.capacity;
        if dropped {
            events.pop_front();
        }
        events.push_back(ev);
        dropped
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        events.iter().copied().collect()
    }
}

/// A compact per-thread id for Chrome trace rows: the std `ThreadId`
/// hashed down to 16 bits (collisions only blur row assignment in the
/// viewer, never correctness).
pub(crate) fn current_tid() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() & 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> TraceEvent {
        TraceEvent {
            id,
            parent: 0,
            name: "t",
            cat: "query",
            start_ns: id,
            dur_ns: 1,
            tid: 0,
            arg: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_reports_drops() {
        let buf = TraceBuffer::new();
        let mut drops = 0u64;
        for i in 0..(TRACE_CAPACITY as u64 + 10) {
            if buf.push(ev(i)) {
                drops += 1;
            }
        }
        assert_eq!(drops, 10);
        let snap = buf.snapshot();
        assert_eq!(snap.len(), TRACE_CAPACITY);
        assert_eq!(snap.first().expect("non-empty").id, 10);
    }

    #[test]
    fn ids_are_unique_and_never_none() {
        let buf = TraceBuffer::new();
        let a = buf.fresh_id();
        let b = buf.fresh_id();
        assert_ne!(a, b);
        assert_ne!(a, SpanId::NONE);
        assert_ne!(b.raw(), 0);
    }
}
