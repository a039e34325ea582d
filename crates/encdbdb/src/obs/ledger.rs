//! The ECALL leakage ledger: one record per enclave transition.
//!
//! Everything the untrusted server learns from the enclave crosses the
//! ECALL boundary, so the ledger *is* the observable leakage surface:
//! per call it records the call kind, payload bytes in/out, the number
//! of distinct values decrypted inside the enclave, and the untrusted
//! memory traffic the enclave generated (loads and bytes, from
//! `enclave::EcallCounters`). Security tests replay a fixed query set
//! per ED kind and assert these observations against the bounds in
//! DESIGN.md §2/§10/§11 — the leakage tables as checked invariants
//! rather than prose.
//!
//! Counter deltas are captured while the caller still holds the enclave
//! mutex, so a record's loads/bytes are exactly the traffic of its own
//! call even when other threads share the enclave.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bound on retained per-call records; kind totals are unbounded
/// atomics, so evicting old records never loses aggregate counts.
const LEDGER_CAPACITY: usize = 65_536;

/// The kind of an enclave transition: one per kind of call
/// `encdict::DictEnclave` serves, plus `Batch` for a transition several
/// read-path calls shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcallKind {
    /// Dictionary range/point search (main or delta dictionary).
    Search,
    /// Re-encryption of one inserted value into a delta entry.
    Reencrypt,
    /// Batched aggregate finalization (decrypt each distinct group/agg
    /// value once).
    Aggregate,
    /// Join bridge construction (ValueID↔ValueID match table).
    JoinBridge,
    /// Compaction merge (rebuild one column's main dictionary).
    Merge,
    /// A cross-session batched transition: several sessions' read calls
    /// coalesced into one enclave entry by the ECALL scheduler. The
    /// record's `batch_size` says how many sub-calls rode along; its
    /// payload totals are the union (sum) of the coalesced requests.
    Batch,
}

impl EcallKind {
    /// Every kind, in declaration (= report) order.
    pub const ALL: [EcallKind; 6] = [
        EcallKind::Search,
        EcallKind::Reencrypt,
        EcallKind::Aggregate,
        EcallKind::JoinBridge,
        EcallKind::Merge,
        EcallKind::Batch,
    ];

    /// Stable lowercase name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            EcallKind::Search => "search",
            EcallKind::Reencrypt => "reencrypt",
            EcallKind::Aggregate => "aggregate",
            EcallKind::JoinBridge => "join_bridge",
            EcallKind::Merge => "merge",
            EcallKind::Batch => "batch",
        }
    }

    /// The trace-span name emitted for this kind (`cat: "ecall"`).
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            EcallKind::Search => "ecall.search",
            EcallKind::Reencrypt => "ecall.reencrypt",
            EcallKind::Aggregate => "ecall.aggregate",
            EcallKind::JoinBridge => "ecall.join_bridge",
            EcallKind::Merge => "ecall.merge",
            EcallKind::Batch => "ecall.batch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded enclave transition. Payload accounting per kind is
/// documented in DESIGN.md §13.3.
#[derive(Debug, Clone, Copy)]
pub struct EcallRecord {
    /// Monotone sequence number (order of completion).
    pub seq: u64,
    /// Which enclave entry point was called.
    pub kind: EcallKind,
    /// Request payload bytes crossing into the enclave.
    pub bytes_in: u64,
    /// Reply payload bytes crossing back out.
    pub bytes_out: u64,
    /// Distinct ciphertext values decrypted inside the enclave during
    /// this call.
    pub values_decrypted: u64,
    /// Untrusted-memory load operations issued by the enclave.
    pub untrusted_loads: u64,
    /// Untrusted-memory bytes read by the enclave.
    pub untrusted_bytes: u64,
    /// Values served from the in-enclave decrypted-value cache during
    /// this call (each hit saved two untrusted loads and one decrypt).
    pub cache_hits: u64,
    /// Coalesced sub-calls executed in this transition: 1 for a native
    /// call, ≥ 2 for an [`EcallKind::Batch`] record.
    pub batch_size: u64,
}

#[derive(Debug, Default)]
struct KindCell {
    calls: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    values_decrypted: AtomicU64,
    untrusted_loads: AtomicU64,
    untrusted_bytes: AtomicU64,
    cache_hits: AtomicU64,
}

/// Aggregate totals for one [`EcallKind`], as reported by
/// [`LedgerReport`]. All fields are monotone.
#[derive(Debug, Clone, Copy)]
pub struct KindTotals {
    /// The kind these totals cover.
    pub kind: EcallKind,
    /// Number of calls of this kind.
    pub calls: u64,
    /// Total request payload bytes.
    pub bytes_in: u64,
    /// Total reply payload bytes.
    pub bytes_out: u64,
    /// Total distinct values decrypted.
    pub values_decrypted: u64,
    /// Total untrusted-memory loads.
    pub untrusted_loads: u64,
    /// Total untrusted-memory bytes read.
    pub untrusted_bytes: u64,
    /// Total in-enclave decrypted-value cache hits.
    pub cache_hits: u64,
}

/// The ledger itself: per-kind atomic totals plus a bounded ring of
/// recent [`EcallRecord`]s.
#[derive(Debug)]
pub(crate) struct Ledger {
    seq: AtomicU64,
    kinds: [KindCell; 6],
    records: Mutex<VecDeque<EcallRecord>>,
}

impl Ledger {
    pub(crate) fn new() -> Self {
        Ledger {
            seq: AtomicU64::new(0),
            kinds: Default::default(),
            records: Mutex::new(VecDeque::with_capacity(128)),
        }
    }

    /// Appends one record, assigning its sequence number.
    pub(crate) fn append(&self, mut record: EcallRecord) -> EcallRecord {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let cell = &self.kinds[record.kind.index()];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.bytes_in.fetch_add(record.bytes_in, Ordering::Relaxed);
        cell.bytes_out
            .fetch_add(record.bytes_out, Ordering::Relaxed);
        cell.values_decrypted
            .fetch_add(record.values_decrypted, Ordering::Relaxed);
        cell.untrusted_loads
            .fetch_add(record.untrusted_loads, Ordering::Relaxed);
        cell.untrusted_bytes
            .fetch_add(record.untrusted_bytes, Ordering::Relaxed);
        cell.cache_hits
            .fetch_add(record.cache_hits, Ordering::Relaxed);
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        if records.len() >= LEDGER_CAPACITY {
            records.pop_front();
        }
        records.push_back(record);
        record
    }

    pub(crate) fn report(&self) -> LedgerReport {
        LedgerReport {
            kinds: EcallKind::ALL
                .iter()
                .map(|&kind| {
                    let c = &self.kinds[kind.index()];
                    KindTotals {
                        kind,
                        calls: c.calls.load(Ordering::Relaxed),
                        bytes_in: c.bytes_in.load(Ordering::Relaxed),
                        bytes_out: c.bytes_out.load(Ordering::Relaxed),
                        values_decrypted: c.values_decrypted.load(Ordering::Relaxed),
                        untrusted_loads: c.untrusted_loads.load(Ordering::Relaxed),
                        untrusted_bytes: c.untrusted_bytes.load(Ordering::Relaxed),
                        cache_hits: c.cache_hits.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    pub(crate) fn records(&self) -> Vec<EcallRecord> {
        let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        records.iter().copied().collect()
    }
}

/// A point-in-time snapshot of the ledger's per-kind totals. Totals are
/// monotone, so differential tests take a report before and after a
/// query set and subtract with [`LedgerReport::since`].
#[derive(Debug, Clone)]
pub struct LedgerReport {
    /// Per-kind totals in [`EcallKind::ALL`] order.
    pub kinds: Vec<KindTotals>,
}

impl LedgerReport {
    /// The totals for one kind.
    pub fn kind(&self, kind: EcallKind) -> KindTotals {
        self.kinds[kind.index()]
    }

    /// Total enclave transitions across all kinds.
    pub fn total_calls(&self) -> u64 {
        self.kinds.iter().map(|k| k.calls).sum()
    }

    /// The per-kind difference `self - earlier`, for differential
    /// leakage assertions over a bounded workload.
    pub fn since(&self, earlier: &LedgerReport) -> LedgerReport {
        LedgerReport {
            kinds: self
                .kinds
                .iter()
                .zip(&earlier.kinds)
                .map(|(now, then)| {
                    debug_assert_eq!(now.kind, then.kind);
                    KindTotals {
                        kind: now.kind,
                        calls: now.calls - then.calls,
                        bytes_in: now.bytes_in - then.bytes_in,
                        bytes_out: now.bytes_out - then.bytes_out,
                        values_decrypted: now.values_decrypted - then.values_decrypted,
                        untrusted_loads: now.untrusted_loads - then.untrusted_loads,
                        untrusted_bytes: now.untrusted_bytes - then.untrusted_bytes,
                        cache_hits: now.cache_hits - then.cache_hits,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: EcallKind, vd: u64) -> EcallRecord {
        EcallRecord {
            seq: 0,
            kind,
            bytes_in: 10,
            bytes_out: 20,
            values_decrypted: vd,
            untrusted_loads: 4,
            untrusted_bytes: 64,
            cache_hits: 0,
            batch_size: 1,
        }
    }

    #[test]
    fn totals_accumulate_per_kind_and_diff() {
        let ledger = Ledger::new();
        ledger.append(rec(EcallKind::Search, 3));
        let before = ledger.report();
        ledger.append(rec(EcallKind::Search, 5));
        ledger.append(rec(EcallKind::Merge, 7));
        let delta = ledger.report().since(&before);
        assert_eq!(delta.kind(EcallKind::Search).calls, 1);
        assert_eq!(delta.kind(EcallKind::Search).values_decrypted, 5);
        assert_eq!(delta.kind(EcallKind::Merge).calls, 1);
        assert_eq!(delta.kind(EcallKind::Aggregate).calls, 0);
        assert_eq!(delta.total_calls(), 2);
    }

    #[test]
    fn records_are_sequenced_in_completion_order() {
        let ledger = Ledger::new();
        ledger.append(rec(EcallKind::Search, 1));
        ledger.append(rec(EcallKind::Reencrypt, 1));
        let records = ledger.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[1].kind, EcallKind::Reencrypt);
    }
}
