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
//!   ring, exportable as Chrome trace JSON (`Session::export_trace`);
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
pub use trace::{SpanId, TraceEvent};

use std::sync::Arc;
use std::time::Instant;

/// Cheap-clonable handle to one observability domain (registry +
/// trace ring + ledger). All methods are safe to call from any thread.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

#[derive(Debug)]
struct ObsInner {
    /// Zero point of every `start_ns` timestamp in traces.
    epoch: Instant,
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
    /// Creates an empty observability domain; its trace epoch is now.
    pub fn new() -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                epoch: Instant::now(),
                registry: registry::MetricsRegistry::new(),
                trace: trace::TraceBuffer::new(),
                ledger: ledger::Ledger::new(),
            }),
        }
    }

    /// Nanoseconds since this domain's epoch (the `start_ns` clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Adds `n` to a registry counter.
    pub(crate) fn add(&self, key: Counter, n: u64) {
        self.inner.registry.add(key, n);
    }

    /// Records one nanosecond sample into a registry histogram.
    pub(crate) fn record(&self, key: Hist, ns: u64) {
        self.inner.registry.record(key, ns);
    }

    /// Opens a span; it is recorded into the trace ring when the guard
    /// is dropped (or [`SpanGuard::finish`]ed). Pass
    /// [`SpanId::NONE`] for a root span.
    pub(crate) fn span(&self, name: &'static str, cat: &'static str, parent: SpanId) -> SpanGuard {
        self.span_arg(name, cat, parent, 0)
    }

    /// [`Obs::span`] with a numeric argument (partition id, row count …).
    pub(crate) fn span_arg(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        arg: u64,
    ) -> SpanGuard {
        SpanGuard {
            obs: self.clone(),
            id: self.inner.trace.fresh_id(),
            parent,
            name,
            cat,
            arg,
            start_ns: self.now_ns(),
            start: Instant::now(),
            done: false,
        }
    }

    fn push_event(&self, ev: TraceEvent) {
        if self.inner.trace.push(ev) {
            self.add(Counter::TraceEventsDroppedTotal, 1);
        }
    }

    /// Records one completed enclave transition: appends the ledger
    /// record, bumps the ECALL registry counters and histogram, and
    /// emits the matching `"ecall.*"` trace span (so trace span counts
    /// and ledger call counts always agree).
    pub(crate) fn ecall(
        &self,
        kind: EcallKind,
        io: EcallIo,
        start_ns: u64,
        dur_ns: u64,
        parent: SpanId,
    ) {
        self.ecall_batched(kind, io, start_ns, dur_ns, parent, 1);
    }

    /// [`Obs::ecall`] for a transition that coalesced `batch_size`
    /// sub-calls (the cross-session ECALL scheduler). Still ONE ledger
    /// record, ONE `ecalls_total` increment and ONE trace span — the
    /// whole point is that the transition count stays 1 — but the record
    /// carries the batch size and the batch counters/occupancy histogram
    /// are bumped so batching stays auditable.
    pub(crate) fn ecall_batched(
        &self,
        kind: EcallKind,
        io: EcallIo,
        start_ns: u64,
        dur_ns: u64,
        parent: SpanId,
        batch_size: u64,
    ) {
        self.inner.ledger.append(EcallRecord {
            seq: 0,
            kind,
            bytes_in: io.bytes_in,
            bytes_out: io.bytes_out,
            values_decrypted: io.values_decrypted,
            untrusted_loads: io.untrusted_loads,
            untrusted_bytes: io.untrusted_bytes,
            cache_hits: io.cache_hits,
            dur_ns,
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
        self.push_event(TraceEvent {
            id: self.inner.trace.fresh_id().raw(),
            parent: parent.raw(),
            name: kind.span_name(),
            cat: "ecall",
            start_ns,
            dur_ns,
            tid: trace::current_tid(),
            arg: io.values_decrypted,
        });
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

    /// The completed spans currently in the trace ring, oldest first.
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
/// records the completed interval into the trace ring; children created
/// with this guard's [`SpanGuard::id`] as parent therefore always close
/// before it does.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    cat: &'static str,
    arg: u64,
    start_ns: u64,
    start: Instant,
    done: bool,
}

impl SpanGuard {
    /// This span's id, for parenting child spans.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let ev = TraceEvent {
            id: self.id.raw(),
            parent: self.parent.raw(),
            name: self.name,
            cat: self.cat,
            start_ns: self.start_ns,
            dur_ns: self.start.elapsed().as_nanos() as u64,
            tid: trace::current_tid(),
            arg: self.arg,
        };
        self.obs.push_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_child_first() {
        let obs = Obs::new();
        let root = obs.span("query", "query", SpanId::NONE);
        let child = obs.span_arg("partition", "query", root.id(), 3);
        let root_id = root.id().raw();
        let child_id = child.id().raw();
        child.finish();
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
                obs.now_ns(),
                10,
                SpanId::NONE,
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
        obs.span("query", "query", SpanId::NONE).finish();
        let json = obs.export_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"query\""));
    }
}
