//! The cross-session ECALL scheduler (DESIGN.md §15): the one path by
//! which a read-path call — dictionary search, aggregate finalization,
//! join-key bridging — reaches the query enclave, and the one place that
//! writes such a call into the leakage ledger.
//!
//! A session submits a typed request ([`EcallScheduler::search`],
//! [`aggregate`](EcallScheduler::aggregate),
//! [`bridge`](EcallScheduler::bridge)) and gets back the typed reply plus
//! an [`EcallCost`]. Underneath there is one request family
//! ([`encdict::batch::ReadCall`]) and one executor,
//! `EcallScheduler::execute_round`: a *round* of K ≥ 1 requests is ONE
//! enclave transition ([`DictEnclave::batch`]). Who runs the round is
//! flat combining over the query enclave's mutex:
//!
//! * A session that finds no leader claims **leadership** and runs its
//!   own request as the first round (one state-mutex touch, no queueing —
//!   single-client latency is a round of one).
//! * A session that finds a leader active **enqueues** its request with a
//!   reply slot and blocks on the slot's condvar.
//! * After each round the leader drains every compatible request pending
//!   at that moment into the next round and demultiplexes the per-sub-call
//!   replies (each tagged by the enclave with its own counter deltas)
//!   back to the waiting sessions. It keeps running rounds until the
//!   queue is empty, then resigns; under the state mutex, so no request
//!   is ever orphaned.
//! * With batching switched off ([`EcallScheduler::set_enabled`], the
//!   reference leg of the differential tests and benches) a session runs
//!   its request as a round of one through the same executor without
//!   joining the queue.
//!
//! Compatibility is a `BatchKey`: call kind (search / aggregate /
//! join-bridge) plus store generation. Requests pinned to different
//! snapshot epochs never share a round — a compaction publish mid-batch
//! splits the queue at the epoch flip instead of mixing generations.
//! (Correctness never depends on this: every request holds the stores it
//! names by `Arc`, so it always executes against the snapshot it was
//! built from. The key is dispatch policy, keeping a round's
//! combined payload describable as "K requests against one store
//! generation" for the leakage analysis.)
//!
//! Accounting: the executor records every round exactly once, from the
//! requests' and replies' own `payload_bytes()`. A round of one is
//! recorded under its native [`EcallKind`], parented under the span its
//! submitter passed in — whichever thread led it — so single-session
//! ledgers are those of an unscheduled call. A round of K ≥ 2 is one
//! parentless [`EcallKind::Batch`] entry whose totals are the sums over
//! the coalesced requests, plus `ecall_batches_total` /
//! `batched_calls_total` and the batch-occupancy histogram. Each submitter
//! then records its own queue wait as a `sched.wait` span (and the
//! `ecall_wait_ns` histogram), and its share of a K ≥ 2 round as a
//! `shared.*` span, so its request's span tree covers the whole submit.
//! The unscheduled calls — an insert's re-encryption, a compaction merge —
//! are recorded by [`direct_ecall`].
//!
//! Crash-safety: a leader that panics mid-round (an enclave bug, or the
//! injected test hook) must not wedge its followers' condvar waits. The
//! round is wrapped in a `RoundGuard` whose `Drop` — running during
//! unwind — resigns leadership and fills every undelivered slot (the
//! round's own plus everything still queued) with
//! [`EncdictError::Poisoned`], so followers fail their query instead of
//! blocking forever. Poisoned requests were never executed: no transition
//! happened for them, so no ledger entry exists.

use super::{lock, QueryStats};
use crate::error::DbError;
use crate::obs::{now_ns, EcallIo, EcallKind, Hist, Obs, SpanId};
use encdict::batch::{AggregateRequest, JoinBridgeRequest, ReadCall, SearchCall};
use encdict::enclave_ops::{AggregateReply, JoinBridgeReply, ReadReply};
use encdict::{DictEnclave, DictSearchResult, EncdictError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Dispatch-compatibility key: only requests with equal keys coalesce
/// into one combined transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchKey {
    /// The call's native kind (search, aggregate or join bridge).
    kind: EcallKind,
    /// The store generation the request is pinned to (snapshot epoch;
    /// multi-partition requests use the maximum epoch in scope).
    generation: u64,
}

/// What one request's (possibly shared) transition cost its query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EcallCost {
    kind: EcallKind,
    /// The transition's interval on the process clock.
    round: (u64, u64),
    /// Batch occupancy of the transition (1 = ran alone).
    peers: usize,
    /// Value-cache hits scored by this sub-call.
    cache_hits: u64,
    /// Values this sub-call decrypted, as its ledger entry counts them.
    values_decrypted: u64,
}

impl EcallCost {
    /// Folds this call into its query's stats: the logical enclave-call
    /// count (per request, shared transition or not), cache hits and the
    /// number of peer requests that shared the transition. An aggregate
    /// or bridge also counts the values it decrypted. Times come from the
    /// query's span tree.
    pub(crate) fn absorb_into(&self, stats: &mut QueryStats) {
        stats.enclave_calls += 1;
        stats.cache_hits += self.cache_hits as usize;
        stats.batch_peers += self.peers - 1;
        if self.kind != EcallKind::Search {
            stats.values_decrypted += self.values_decrypted as usize;
        }
    }
}

/// What a reply slot delivers: the request's own reply and cost, or the
/// poison left by a leader that died before dispatching it.
type Delivery = Result<(ReadReply, EcallCost), EncdictError>;

/// One queued request: the call, its compatibility key, the span its
/// ledger entry belongs under and the reply slot its session is blocked
/// on.
struct Pending {
    call: ReadCall,
    key: BatchKey,
    parent: SpanId,
    slot: Arc<ReplySlot>,
}

/// A one-shot reply mailbox.
#[derive(Default)]
struct ReplySlot {
    filled: Mutex<Option<Delivery>>,
    cv: Condvar,
}

impl ReplySlot {
    fn fill(&self, delivery: Delivery) {
        *lock(&self.filled) = Some(delivery);
        self.cv.notify_one();
    }

    fn wait(&self) -> Delivery {
        let mut guard = lock(&self.filled);
        loop {
            if let Some(delivery) = guard.take() {
                return delivery;
            }
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[derive(Default)]
struct SchedState {
    /// Requests awaiting dispatch, in arrival order.
    queue: Vec<Pending>,
    /// Whether a leader currently owns dispatch. Enqueueing is only
    /// legal while true — the leader re-checks the queue under the
    /// state mutex before resigning, so no request is orphaned.
    leader_active: bool,
}

/// The shared enclave scheduler; see the module docs.
#[derive(Debug)]
pub(crate) struct EcallScheduler {
    enclave: Arc<Mutex<DictEnclave>>,
    state: Mutex<SchedState>,
    obs: Obs,
    /// Batching switch. Off = every submit runs as its own round of one
    /// without joining the queue (a lock-per-call convoy), the reference
    /// leg of the differential tests and the concurrency bench.
    enabled: AtomicBool,
    /// Test hook: when set, the next round panics right after acquiring
    /// the enclave lock (then auto-disarms). Exercises the poisoned-round
    /// unwind path from real integration tests.
    panic_armed: AtomicBool,
}

impl std::fmt::Debug for SchedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedState")
            .field("queued", &self.queue.len())
            .field("leader_active", &self.leader_active)
            .finish()
    }
}

impl EcallScheduler {
    pub(crate) fn new(enclave: Arc<Mutex<DictEnclave>>, obs: Obs) -> Self {
        EcallScheduler {
            enclave,
            state: Mutex::new(SchedState::default()),
            obs,
            enabled: AtomicBool::new(true),
            panic_armed: AtomicBool::new(false),
        }
    }

    /// Arms the injected-leader-panic test hook: the next round's leader
    /// panics after taking the enclave lock, exercising the
    /// [`RoundGuard`] poisoning path end-to-end.
    pub(crate) fn arm_leader_panic(&self) {
        self.panic_armed.store(true, Ordering::SeqCst);
    }

    /// Turns cross-session batching on or off (on by default).
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether batching is currently on.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Runs one dictionary search (main or delta store, the whole
    /// disjunction) pinned to store `generation`; its ledger entry goes
    /// under `parent`.
    pub(crate) fn search(
        &self,
        call: SearchCall,
        generation: u64,
        parent: &SpanId,
    ) -> Result<(Vec<DictSearchResult>, EcallCost), DbError> {
        let (reply, cost) = self.submit(ReadCall::Search(call), generation, parent)?;
        Ok((reply.into_search()?, cost))
    }

    /// Runs one grouped aggregation; see [`EcallScheduler::search`].
    pub(crate) fn aggregate(
        &self,
        req: AggregateRequest,
        generation: u64,
        parent: &SpanId,
    ) -> Result<(AggregateReply, EcallCost), DbError> {
        let (reply, cost) = self.submit(ReadCall::Aggregate(req), generation, parent)?;
        Ok((reply.into_aggregated()?, cost))
    }

    /// Runs one join-key bridge; see [`EcallScheduler::search`].
    pub(crate) fn bridge(
        &self,
        req: JoinBridgeRequest,
        generation: u64,
        parent: &SpanId,
    ) -> Result<(JoinBridgeReply, EcallCost), DbError> {
        let (reply, cost) = self.submit(ReadCall::JoinBridge(req), generation, parent)?;
        Ok((reply.into_bridged()?, cost))
    }

    /// Submits one call and blocks until its reply is available — by
    /// executing it (as leader, possibly coalescing peers, or alone when
    /// batching is off) or by waiting for the active leader to dispatch
    /// it — then records the wait, and a shared round's interval, under
    /// `parent`.
    fn submit(&self, call: ReadCall, generation: u64, parent: &SpanId) -> Delivery {
        let (kind, shared) = match call {
            ReadCall::Search(_) => (EcallKind::Search, "shared.search"),
            ReadCall::Aggregate(_) => (EcallKind::Aggregate, "shared.aggregate"),
            ReadCall::JoinBridge(_) => (EcallKind::JoinBridge, "shared.join_bridge"),
        };
        let enqueued_ns = now_ns();
        let slot = Arc::new(ReplySlot::default());
        let pending = Pending {
            call,
            key: BatchKey { kind, generation },
            parent: parent.clone(),
            slot: Arc::clone(&slot),
        };
        if !self.enabled() {
            self.execute_round(vec![pending], false);
        } else {
            let mut state = lock(&self.state);
            if state.leader_active {
                state.queue.push(pending);
            } else {
                state.leader_active = true;
                drop(state);
                self.lead(pending);
            }
        }
        let (reply, cost) = slot.wait()?;
        let waited = (enqueued_ns, cost.round.0);
        let wait_ns = self.obs.interval("sched.wait", "query", parent, waited, 0);
        self.obs.record(Hist::EcallWaitNs, wait_ns);
        if cost.peers > 1 {
            self.obs.interval(shared, "query", parent, cost.round, 0);
        }
        Ok((reply, cost))
    }

    /// Leader loop: run the own call's round, then keep draining rounds
    /// until the queue is empty, then resign.
    fn lead(&self, own: Pending) {
        // First round: the leader's own call plus every compatible
        // request already queued (possible when the previous leader
        // resigned between a follower's enqueue decision and ours).
        let mut round = drain_matching(&mut lock(&self.state).queue, own.key);
        round.push(own);
        loop {
            self.execute_round(round, true);
            let mut state = lock(&self.state);
            let Some(next) = state.queue.first() else {
                state.leader_active = false;
                break;
            };
            let next_key = next.key;
            round = drain_matching(&mut state.queue, next_key);
        }
    }

    /// Executes one round — ONE enclave transition for however many
    /// requests it carries — records it in the ledger and demultiplexes
    /// the replies.
    ///
    /// The round is held by a [`RoundGuard`] for the duration: if the
    /// transition panics, the guard's unwind path poisons every
    /// undelivered reply slot (and, when `leading`, resigns leadership)
    /// instead of leaving the followers wedged on their condvars.
    fn execute_round(&self, round: Vec<Pending>, leading: bool) {
        let peers = round.len();
        let start_ns = now_ns();
        let mut guard = RoundGuard {
            sched: self,
            round,
            leading,
        };
        let mut enclave = lock(&self.enclave);
        if self.panic_armed.swap(false, Ordering::SeqCst) {
            panic!("injected leader panic (scheduler test hook)");
        }
        let items = enclave.batch(guard.round.iter().map(|p| &p.call).collect());
        drop(enclave);
        let round = (start_ns, now_ns());
        debug_assert_eq!(items.len(), peers, "one reply per coalesced request");

        // One ledger entry per transition, written before any session
        // wakes: the round's payload totals are the sums over its
        // requests. A round of one is the request's own native-kind call
        // under its submitter's span; a shared round belongs to K queries
        // at once, so it is a parentless `Batch`.
        let mut io = EcallIo::default();
        for (pending, item) in guard.round.iter().zip(&items) {
            io.bytes_in += pending.call.payload_bytes();
            io.bytes_out += item.reply.payload_bytes();
            io.values_decrypted += item.reply.values_decrypted(item.untrusted_loads);
            io.untrusted_loads += item.untrusted_loads;
            io.untrusted_bytes += item.untrusted_bytes;
            io.cache_hits += item.cache_hits;
            io.cache_misses += item.cache_misses;
        }
        let (kind, parent) = match guard.round.as_slice() {
            [only] => (only.key.kind, &only.parent),
            _ => (EcallKind::Batch, &SpanId::NONE),
        };
        self.obs.ecall(kind, io, round, parent, peers as u64);
        // Drain leaves the guard's round empty, so its Drop is a no-op
        // on the normal path.
        for (pending, item) in guard.round.drain(..).zip(items) {
            let cost = EcallCost {
                kind: pending.key.kind,
                round,
                peers,
                cache_hits: item.cache_hits,
                values_decrypted: item.reply.values_decrypted(item.untrusted_loads),
            };
            pending.slot.fill(Ok((item.reply, cost)));
        }
    }
}

/// Runs one unscheduled enclave call — an insert's re-encryption or a
/// compaction merge — and records it as one `kind` transition under
/// `parent`. The enclave's untrusted-traffic counters are read before and
/// after while the lock is held, and `io` completes the payload
/// accounting from the call's result and those deltas. A refused call
/// records nothing. Returns the result and the transition's duration.
pub(crate) fn direct_ecall<T>(
    enclave: &Mutex<DictEnclave>,
    obs: &Obs,
    kind: EcallKind,
    parent: &SpanId,
    call: impl FnOnce(&mut DictEnclave) -> Result<T, EncdictError>,
    io: impl FnOnce(&T, EcallIo) -> EcallIo,
) -> Result<(T, u64), DbError> {
    let start_ns = now_ns();
    let mut guard = lock(enclave);
    let before = guard.enclave().counters();
    let out = call(&mut guard)?;
    let after = guard.enclave().counters();
    drop(guard);
    let traffic = EcallIo {
        untrusted_loads: after.untrusted_loads - before.untrusted_loads,
        untrusted_bytes: after.untrusted_bytes - before.untrusted_bytes,
        ..EcallIo::default()
    };
    let interval = (start_ns, now_ns());
    obs.ecall(kind, io(&out, traffic), interval, parent, 1);
    Ok((out, interval.1 - interval.0))
}

/// Owns a dispatching round for the duration of its enclave transition.
///
/// On the normal path `execute_round` drains the round to fill every
/// reply slot and the guard's `Drop` sees an empty vector. If the round
/// panics, `Drop` runs during unwind and fills all undelivered slots with
/// a poisoned-round error so the blocked followers wake and fail their
/// queries instead of hanging. A *leader* also resigns and takes every
/// request still queued — no leader remains to ever dispatch them.
struct RoundGuard<'a> {
    sched: &'a EcallScheduler,
    round: Vec<Pending>,
    leading: bool,
}

impl Drop for RoundGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            debug_assert!(self.round.is_empty(), "normal exit drains the round");
            return;
        }
        let orphaned = if self.leading {
            let mut state = lock(&self.sched.state);
            state.leader_active = false;
            std::mem::take(&mut state.queue)
        } else {
            Vec::new()
        };
        for pending in self.round.drain(..).chain(orphaned) {
            pending.slot.fill(Err(EncdictError::Poisoned(
                "round leader panicked before this request was dispatched",
            )));
        }
    }
}

/// Removes every queued request whose key equals `key`, preserving
/// arrival order; incompatible requests stay queued for a later round.
fn drain_matching(queue: &mut Vec<Pending>, key: BatchKey) -> Vec<Pending> {
    let mut round = Vec::new();
    let mut rest = Vec::with_capacity(queue.len());
    for pending in queue.drain(..) {
        if pending.key == key {
            round.push(pending);
        } else {
            rest.push(pending);
        }
    }
    *queue = rest;
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A search over an empty delta store — the cheapest call there is.
    fn empty_search() -> SearchCall {
        SearchCall {
            dict: Arc::new(encdict::Dictionary::delta("t", "c", 0)),
            ranges: Vec::new(),
            cache: None,
        }
    }

    fn pending(kind: EcallKind, generation: u64) -> Pending {
        Pending {
            call: ReadCall::Search(empty_search()),
            key: BatchKey { kind, generation },
            parent: SpanId::NONE,
            slot: Arc::new(ReplySlot::default()),
        }
    }

    #[test]
    fn drain_matching_splits_by_class_and_generation() {
        let mut queue = vec![
            pending(EcallKind::Search, 3),
            pending(EcallKind::Aggregate, 3),
            pending(EcallKind::Search, 4),
            pending(EcallKind::Search, 3),
        ];
        let round = drain_matching(
            &mut queue,
            BatchKey {
                kind: EcallKind::Search,
                generation: 3,
            },
        );
        // Same kind, same generation only: requests pinned to another
        // store generation (epoch 4) or another kind stay queued.
        assert_eq!(round.len(), 2);
        assert_eq!(queue.len(), 2);
        assert!(round
            .iter()
            .all(|p| p.key.kind == EcallKind::Search && p.key.generation == 3));
        assert_eq!(queue[0].key.kind, EcallKind::Aggregate);
        assert_eq!(queue[1].key.generation, 4);
    }

    #[test]
    fn drain_matching_preserves_arrival_order() {
        let mut queue = vec![
            pending(EcallKind::JoinBridge, 1),
            pending(EcallKind::Search, 1),
            pending(EcallKind::JoinBridge, 1),
        ];
        let key = queue[0].key;
        let before: Vec<*const ReplySlot> = queue
            .iter()
            .filter(|p| p.key == key)
            .map(|p| Arc::as_ptr(&p.slot))
            .collect();
        let round = drain_matching(&mut queue, key);
        let after: Vec<*const ReplySlot> = round.iter().map(|p| Arc::as_ptr(&p.slot)).collect();
        assert_eq!(before, after);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn round_guard_poisons_round_and_queue_on_panic() {
        let enclave = Arc::new(Mutex::new(DictEnclave::new()));
        let sched = EcallScheduler::new(enclave, Obs::new());
        // Simulate a leader holding a two-request round while one more
        // request of another kind sits queued, then panic inside the
        // guarded section.
        let round = vec![pending(EcallKind::Search, 1), pending(EcallKind::Search, 1)];
        let queued = pending(EcallKind::Aggregate, 1);
        let slots: Vec<Arc<ReplySlot>> = round
            .iter()
            .chain([&queued])
            .map(|p| Arc::clone(&p.slot))
            .collect();
        {
            let mut state = lock(&sched.state);
            state.leader_active = true;
            state.queue.push(queued);
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = RoundGuard {
                sched: &sched,
                round,
                leading: true,
            };
            panic!("boom");
        }));
        assert!(result.is_err());
        // Whatever its kind, every undelivered request gets the same
        // typed error — and was never executed, so nothing was recorded.
        for slot in slots {
            assert!(matches!(slot.wait(), Err(EncdictError::Poisoned(_))));
        }
        assert_eq!(sched.obs.ledger_report().total_calls(), 0);
        let state = lock(&sched.state);
        assert!(!state.leader_active, "leadership resigned during unwind");
        assert!(state.queue.is_empty(), "no request left orphaned");
    }

    #[test]
    fn failed_singleton_is_still_one_ledger_row() {
        // No key provisioned: the enclave refuses, but the transition
        // happened — it is recorded like any other, with an empty reply.
        let enclave = Arc::new(Mutex::new(DictEnclave::with_seed(1)));
        let sched = EcallScheduler::new(enclave, Obs::new());
        let err = sched.search(empty_search(), 1, &SpanId::NONE).unwrap_err();
        assert!(matches!(
            err,
            DbError::Dict(EncdictError::KeyNotProvisioned)
        ));
        let ledger = sched.obs.ledger_report();
        assert_eq!(ledger.total_calls(), 1);
        assert_eq!(ledger.kind(EcallKind::Search).calls, 1);
        assert_eq!(ledger.kind(EcallKind::Search).bytes_out, 0);
    }

    /// Spins until `ready` holds of the scheduler state — forces the
    /// interleaving below without sleeping.
    fn await_state(sched: &EcallScheduler, ready: impl Fn(&SchedState) -> bool) {
        while !ready(&lock(&sched.state)) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn singleton_led_by_another_thread_is_one_native_row_under_its_submitter() {
        let mut enclave = DictEnclave::with_seed(1);
        enclave.provision_direct(encdbdb_crypto::Key128::from_bytes([7; 16]));
        let enclave = Arc::new(Mutex::new(enclave));
        let sched = EcallScheduler::new(Arc::clone(&enclave), Obs::new());
        let obs = &sched.obs;

        // Pin the enclave: the first submitter claims leadership and
        // blocks inside its round. The follower then enqueues a request
        // pinned to another store generation, so the two cannot coalesce
        // and the leader's thread runs the follower's request as a second
        // round of one.
        let pin = lock(&enclave);
        let submit = |generation: u64| {
            let span = obs.span("submitter", "query", &SpanId::NONE);
            sched
                .search(empty_search(), generation, span.id())
                .expect("search");
            span.id().raw()
        };
        let (leader_span, follower_span) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| submit(1));
            await_state(&sched, |s| s.leader_active);
            let follower = scope.spawn(|| submit(2));
            await_state(&sched, |s| s.queue.len() == 1);
            drop(pin);
            (
                leader.join().expect("leader thread"),
                follower.join().expect("follower thread"),
            )
        });

        let ledger = obs.ledger_report();
        assert_eq!(ledger.kind(EcallKind::Search).calls, 2, "two rounds of one");
        assert_eq!(ledger.total_calls(), 2, "and no Batch row");
        let events = obs.trace_events();
        let rows_under = |span: u64| -> Vec<_> {
            events
                .iter()
                .filter(|e| e.cat == "ecall" && e.parent == span)
                .collect()
        };
        let (led, followed) = (rows_under(leader_span), rows_under(follower_span));
        assert_eq!(
            followed.len(),
            1,
            "exactly one row under the submitter's span"
        );
        assert_eq!(followed[0].name, EcallKind::Search.span_name());
        assert_eq!(led.len(), 1);
        assert_eq!(followed[0].tid, led[0].tid, "the leader's thread ran both");
    }
}
