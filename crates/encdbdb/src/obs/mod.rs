//! End-to-end observability: a lock-free metrics registry, hierarchical
//! trace spans, and an ECALL leakage ledger, shared by every clone of a
//! server handle.
//!
//! One [`Obs`] instance lives on each [`crate::server::DbaasServer`]
//! (and is therefore shared by all its clones, reader sessions, the
//! background compactor, and attached durable storage). It bundles
//! three sinks:
//!
//! * [`registry`] — monotone atomic counters plus log₂-bucketed
//!   nanosecond histograms, snapshotted as a [`MetricsReport`];
//! * [`trace`] — per-query and per-background-op spans in a bounded
//!   ring, exportable as Chrome trace JSON (`Session::export_trace`),
//!   and the one clock every duration here is read from;
//! * [`ledger`] — one record per enclave transition, the observable
//!   leakage surface checked by `tests/security.rs`.
//!
//! Every ECALL is recorded through `Obs::ecall`, which appends the
//! ledger record, bumps the registry, **and** emits the matching
//! `"ecall.*"` trace span in one call — so a trace's ECALL span count
//! always equals the ledger's call count over the same interval.
//!
//! See DESIGN.md §13 for the span taxonomy, ledger field semantics and
//! the leakage-audit methodology.

pub mod export;
pub mod ledger;
pub mod registry;
pub mod trace;

pub use ledger::{EcallKind, EcallRecord, KindTotals, LedgerReport};
pub use registry::{Counter, Hist, HistogramSummary, MetricsReport};
pub(crate) use trace::now_ns;
pub use trace::{Layer, LayerTimes, SpanId, TraceEvent};

use std::sync::Arc;
use trace::Request;

/// Cheap-clonable handle to one observability domain (registry +
/// trace ring + ledger). All methods are safe to call from any thread.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

#[derive(Debug)]
struct ObsInner {
    registry: registry::MetricsRegistry,
    trace: trace::TraceBuffer,
    ledger: ledger::Ledger,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Creates an empty observability domain.
    pub fn new() -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                registry: registry::MetricsRegistry::new(),
                trace: trace::TraceBuffer::new(),
                ledger: ledger::Ledger::new(),
            }),
        }
    }

    /// Adds `n` to a registry counter.
    pub(crate) fn add(&self, key: Counter, n: u64) {
        self.inner.registry.add(key, n);
    }

    /// Records one nanosecond sample into a registry histogram.
    pub(crate) fn record(&self, key: Hist, ns: u64) {
        self.inner.registry.record(key, ns);
    }

    /// Opens a span; it is recorded when the guard is dropped (or
    /// [`SpanGuard::finish`]ed). Under [`SpanId::NONE`] it is a root and
    /// opens a request: its tree moves to the trace ring when it closes.
    pub(crate) fn span(&self, name: &'static str, cat: &'static str, parent: &SpanId) -> SpanGuard {
        self.span_arg(name, cat, parent, 0)
    }

    /// [`Obs::span`] with a numeric argument (partition id, row count …).
    pub(crate) fn span_arg(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: &SpanId,
        arg: u64,
    ) -> SpanGuard {
        let id = self.inner.trace.fresh_id();
        let request = match &parent.request {
            Some(r) => Arc::clone(r),
            None => Request::new(),
        };
        SpanGuard {
            obs: self.clone(),
            me: SpanId {
                id,
                request: Some(request),
            },
            parent: parent.id,
            name,
            cat,
            arg,
            start_ns: now_ns(),
            done: false,
        }
    }

    /// Records a completed span `[start_ns, end_ns)` under `parent`, for an
    /// interval whose ends were read on different threads or before the
    /// span could be opened. Returns its duration.
    pub(crate) fn interval(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: &SpanId,
        (start_ns, end_ns): (u64, u64),
        arg: u64,
    ) -> u64 {
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.emit(
            parent,
            TraceEvent {
                id: self.inner.trace.fresh_id(),
                parent: parent.raw(),
                name,
                cat,
                start_ns,
                dur_ns,
                tid: trace::current_tid(),
                arg,
            },
        );
        dur_ns
    }

    /// Records a closed span into the request of `span` (its parent, or
    /// itself), or into the ring when there is none or it has closed.
    fn emit(&self, span: &SpanId, ev: TraceEvent) {
        let stray = match &span.request {
            Some(request) => request.push(ev),
            None => Some(ev),
        };
        if let Some(ev) = stray {
            self.push_events([ev]);
        }
    }

    fn push_events(&self, events: impl IntoIterator<Item = TraceEvent>) {
        let dropped = self.inner.trace.push_all(events);
        if dropped > 0 {
            self.add(Counter::TraceEventsDroppedTotal, dropped);
        }
    }

    /// Records one completed enclave transition: appends the ledger
    /// record, bumps the ECALL registry counters and histogram, and
    /// emits the matching `"ecall.*"` trace span over `interval` (so trace
    /// span counts and ledger call counts always agree). A transition that
    /// coalesced `batch_size` ≥ 2 sub-calls (the cross-session ECALL
    /// scheduler) is still ONE record, ONE `ecalls_total` increment and ONE
    /// span, but the record carries the batch size and the batch
    /// counters/occupancy histogram are bumped so batching stays auditable.
    pub(crate) fn ecall(
        &self,
        kind: EcallKind,
        io: EcallIo,
        interval: (u64, u64),
        parent: &SpanId,
        batch_size: u64,
    ) {
        let dur_ns = self.interval(
            kind.span_name(),
            "ecall",
            parent,
            interval,
            io.values_decrypted,
        );
        self.inner.ledger.append(EcallRecord {
            seq: 0,
            kind,
            bytes_in: io.bytes_in,
            bytes_out: io.bytes_out,
            values_decrypted: io.values_decrypted,
            untrusted_loads: io.untrusted_loads,
            untrusted_bytes: io.untrusted_bytes,
            cache_hits: io.cache_hits,
            batch_size,
        });
        if batch_size > 1 {
            self.add(Counter::EcallBatchesTotal, 1);
            self.add(Counter::BatchedCallsTotal, batch_size);
            self.record(Hist::BatchOccupancy, batch_size);
        }
        self.add(Counter::EcallsTotal, 1);
        self.add(Counter::ValuesDecryptedTotal, io.values_decrypted);
        self.add(Counter::UntrustedLoadsTotal, io.untrusted_loads);
        self.add(Counter::UntrustedBytesTotal, io.untrusted_bytes);
        self.add(Counter::ValueCacheHitsTotal, io.cache_hits);
        self.add(Counter::ValueCacheMissesTotal, io.cache_misses);
        self.record(Hist::EcallNs, dur_ns);
    }

    /// Snapshots every counter and histogram.
    pub fn metrics_report(&self) -> MetricsReport {
        self.inner.registry.report()
    }

    /// Snapshots the ledger's per-kind totals.
    pub fn ledger_report(&self) -> LedgerReport {
        self.inner.ledger.report()
    }

    /// The retained per-call ledger records, oldest first (bounded; see
    /// [`ledger`] docs).
    pub fn ledger_records(&self) -> Vec<EcallRecord> {
        self.inner.ledger.records()
    }

    /// The completed requests' spans currently in the trace ring, oldest
    /// first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.trace.snapshot()
    }

    /// Renders the trace ring as Chrome-trace-format JSON (load in
    /// `chrome://tracing` or Perfetto).
    pub fn export_trace(&self) -> String {
        export::chrome_trace_json(&self.trace_events())
    }
}

/// Per-call payload/traffic observations handed to [`Obs::ecall`].
/// Field semantics per kind are documented in DESIGN.md §13.3.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EcallIo {
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) values_decrypted: u64,
    pub(crate) untrusted_loads: u64,
    pub(crate) untrusted_bytes: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
}

/// An open span. Dropping (or [`SpanGuard::finish`]ing) the guard
/// records the completed interval; children created with this guard's
/// [`SpanGuard::id`] as parent therefore always close before it does.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    /// This span as its children's parent; its request is the parent's,
    /// or its own for a root.
    me: SpanId,
    /// The parent's id, 0 for a root.
    parent: u64,
    name: &'static str,
    cat: &'static str,
    arg: u64,
    start_ns: u64,
    done: bool,
}

impl SpanGuard {
    /// This span, for parenting child spans.
    pub fn id(&self) -> &SpanId {
        &self.me
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}

    /// Closes the span now and records its duration into `hist`.
    pub(crate) fn finish_into(mut self, hist: Hist) {
        let dur_ns = self.close();
        self.obs.record(hist, dur_ns);
    }

    fn close(&mut self) -> u64 {
        self.done = true;
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let ev = TraceEvent {
            id: self.me.raw(),
            parent: self.parent,
            name: self.name,
            cat: self.cat,
            start_ns: self.start_ns,
            dur_ns,
            tid: trace::current_tid(),
            arg: self.arg,
        };
        if self.parent != SpanId::NONE.id {
            self.obs.emit(&self.me, ev);
        } else if let Some(request) = &self.me.request {
            // A root: its tree, itself last, moves to the ring.
            let mut tree = request.take();
            tree.push(ev);
            self.obs.push_events(tree);
        }
        dur_ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.done {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_child_first() {
        let obs = Obs::new();
        let root = obs.span("query", "query", &SpanId::NONE);
        let child = obs.span_arg("partition", "query", root.id(), 3);
        let root_id = root.id().raw();
        let child_id = child.id().raw();
        child.finish();
        assert!(
            obs.trace_events().is_empty(),
            "a request's spans reach the ring when its root closes"
        );
        let open = root.id().closed_layers();
        assert_eq!(open.total(), open.get(Layer::Fanout));
        root.finish();
        let events = obs.trace_events();
        assert_eq!(events.len(), 2);
        // Child closes first, so it is recorded first.
        assert_eq!(events[0].id, child_id);
        assert_eq!(events[0].parent, root_id);
        assert_eq!(events[0].arg, 3);
        assert_eq!(events[1].parent, 0);
        // The child's interval lies within the parent's.
        assert!(events[0].start_ns >= events[1].start_ns);
        assert!(
            events[0].start_ns + events[0].dur_ns <= events[1].start_ns + events[1].dur_ns,
            "child must end before its parent"
        );
        let layers = LayerTimes::of_tree(&events, root_id).expect("root in the ring");
        assert_eq!(layers.total(), events[1].dur_ns);
    }

    #[test]
    fn a_request_buffers_no_more_than_the_ring_holds() {
        let obs = Obs::new();
        let root = obs.span("insert", "query", &SpanId::NONE);
        let limit = trace::TRACE_CAPACITY as u64;
        for _ in 0..limit + 3 {
            obs.span("ecall.reencrypt", "ecall", root.id()).finish();
        }
        assert_eq!(obs.trace_events().len(), 3, "the overflow went to the ring");
        root.finish();
        let events = obs.trace_events();
        assert_eq!(events.last().expect("the root").name, "insert");
        assert_eq!(
            obs.metrics_report().counter("trace_events_dropped_total"),
            4
        );
    }

    #[test]
    fn ecall_keeps_trace_and_ledger_in_lockstep() {
        let obs = Obs::new();
        for i in 0..5 {
            obs.ecall(
                EcallKind::Search,
                EcallIo {
                    bytes_in: 64,
                    bytes_out: 16,
                    values_decrypted: i,
                    untrusted_loads: 2 * i,
                    untrusted_bytes: 128,
                    cache_hits: i,
                    cache_misses: 1,
                },
                (now_ns(), now_ns() + 10),
                &SpanId::NONE,
                1,
            );
        }
        let ledger = obs.ledger_report();
        assert_eq!(ledger.kind(EcallKind::Search).calls, 5);
        assert_eq!(ledger.kind(EcallKind::Search).values_decrypted, 10);
        assert_eq!(ledger.kind(EcallKind::Search).cache_hits, 10);
        let ecall_spans = obs
            .trace_events()
            .iter()
            .filter(|e| e.cat == "ecall")
            .count() as u64;
        assert_eq!(ecall_spans, ledger.total_calls());
        let report = obs.metrics_report();
        assert_eq!(report.counter("ecalls_total"), 5);
        assert_eq!(report.histogram("ecall_ns").expect("hist").count, 5);
        assert_eq!(report.counter("value_cache_hits_total"), 10);
        assert_eq!(report.counter("value_cache_misses_total"), 5);
    }

    #[test]
    fn export_trace_is_wellformed_json_shape() {
        let obs = Obs::new();
        obs.span("query", "query", &SpanId::NONE).finish();
        let json = obs.export_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"query\""));
    }
}
