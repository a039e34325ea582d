//! Hierarchical trace spans, the one clock they read, and the fold of a
//! request's span tree into per-layer times.
//!
//! Every duration the server reports is read from `now_ns`: spans, ECALL
//! records, scheduler queue waits and frame receive times. Span parentage
//! is threaded *explicitly* (a [`SpanId`] parameter) rather than through
//! thread-locals: the query path fans out across scoped worker threads
//! (`DbaasServer::scan_partitions`), where implicit ambient context would
//! silently detach children.
//!
//! A root span (one opened under [`SpanId::NONE`]) owns a request buffer
//! that every span of its tree is recorded into, on whichever thread it
//! closes. [`LayerTimes::of_forest`] folds such a tree into per-[`Layer`]
//! times that sum to the root's duration; `QueryStats`' timing fields are
//! read from that fold. When the root closes, its tree moves into a
//! fixed-capacity ring — when full, the oldest event is dropped and a
//! registry counter (`trace_events_dropped_total`) records the loss, so
//! the hot path never blocks on trace growth and truncation is observable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the trace ring. Roughly: a partition-parallel join emits
/// a few dozen events, so this holds on the order of a hundred recent
/// queries before evicting.
pub(crate) const TRACE_CAPACITY: usize = 8192;

/// The one clock: nanoseconds since its first reading in this process,
/// from a monotonic source. Intervals recorded on different threads
/// compare because they all read it.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span children are parented under: its id plus the buffer of the
/// request (root span) it belongs to. `SpanId::NONE` (id 0) opens a root:
/// an event whose `parent` is 0 has no enclosing span.
#[derive(Debug, Clone)]
pub struct SpanId {
    pub(crate) id: u64,
    pub(crate) request: Option<Arc<Request>>,
}

impl SpanId {
    /// The absent parent: spans opened under it are trace roots.
    pub const NONE: SpanId = SpanId {
        id: 0,
        request: None,
    };

    /// The raw numeric id (0 for [`SpanId::NONE`]).
    pub fn raw(&self) -> u64 {
        self.id
    }

    /// The layer times of the spans of this request that have closed so
    /// far; zero outside a request.
    pub(crate) fn closed_layers(&self) -> LayerTimes {
        self.request.as_ref().map_or_else(LayerTimes::default, |r| {
            let events = r.events.lock().unwrap_or_else(|e| e.into_inner());
            events
                .as_deref()
                .map_or_else(LayerTimes::default, LayerTimes::of_forest)
        })
    }
}

/// The closed spans of one request, held until its root closes.
#[derive(Debug)]
pub(crate) struct Request {
    /// `None` once the root has closed and moved the tree to the ring.
    events: Mutex<Option<Vec<TraceEvent>>>,
}

impl Request {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Request {
            events: Mutex::new(Some(Vec::new())),
        })
    }

    /// Records `ev`, or hands it back for the ring when the tree has
    /// already moved there or holds as many events as the ring does (a
    /// bulk insert's re-encryptions): a request never buffers more than
    /// the ring would keep of it.
    pub(crate) fn push(&self, ev: TraceEvent) -> Option<TraceEvent> {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        match events.as_mut() {
            Some(tree) if tree.len() < TRACE_CAPACITY => {
                tree.push(ev);
                None
            }
            _ => Some(ev),
        }
    }

    /// Closes the request: its tree, for the ring.
    pub(crate) fn take(&self) -> Vec<TraceEvent> {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        events.take().unwrap_or_default()
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
    /// Span category: `"query"`, `"ecall"`, `"compaction"`,
    /// `"durability"` or `"net"`.
    pub cat: &'static str,
    /// Start on the process clock, in nanoseconds.
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
}

impl TraceBuffer {
    pub(crate) fn new() -> Self {
        TraceBuffer {
            // Ids start at 1 so 0 stays reserved for SpanId::NONE.
            next_id: AtomicU64::new(1),
            events: Mutex::new(VecDeque::with_capacity(128)),
        }
    }

    pub(crate) fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends completed events; returns how many old events were evicted
    /// to make room (the caller counts drops in the registry).
    pub(crate) fn push_all(&self, new: impl IntoIterator<Item = TraceEvent>) -> u64 {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut dropped = 0;
        for ev in new {
            if events.len() >= TRACE_CAPACITY {
                events.pop_front();
                dropped += 1;
            }
            events.push_back(ev);
        }
        dropped
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        events.iter().copied().collect()
    }
}

/// A compact per-thread id for Chrome trace rows: the std `ThreadId`
/// hashed down to 16 bits once per thread (collisions only blur row
/// assignment in the viewer, never correctness).
pub(crate) fn current_tid() -> u64 {
    thread_local! {
        static TID: u64 = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() & 0xffff
        };
    }
    TID.with(|t| *t)
}

/// The layers a query crosses, in order. Every span name belongs to one
/// layer ([`Layer::of`]); a span's self time — its duration minus what its
/// children cover — is its layer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `parse`: SQL text to statement.
    Parse,
    /// `plan`: plan compilation and bound encryption in the proxy.
    Plan,
    /// `snapshot`: partition scope and snapshot acquisition.
    Snapshot,
    /// `scan`, `partition`: partition fan-out, validity filters and
    /// RecordID intersection.
    Fanout,
    /// `sched.wait`: a read-path ECALL queued in the scheduler.
    SchedWait,
    /// `ecall.search`, `shared.search`, `search.plain`: dictionary search.
    DictSearch,
    /// `av.scan`: attribute-vector and histogram scans.
    AvScan,
    /// `aggregate`, `ecall.aggregate`, `shared.aggregate`.
    Aggregate,
    /// `bridge`, `ecall.join_bridge`, `shared.join_bridge`.
    Bridge,
    /// `render`: result rows from the stores.
    Render,
    /// `insert`, `delete`, `ecall.reencrypt`: the write path.
    Write,
    /// `query` — the proxy's own work, such as result decryption and
    /// ordering — and every span not named above.
    Other,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 12;

    /// The layer a span of this name times.
    pub fn of(span_name: &str) -> Layer {
        match span_name {
            "parse" => Layer::Parse,
            "plan" => Layer::Plan,
            "snapshot" => Layer::Snapshot,
            "scan" | "partition" => Layer::Fanout,
            "sched.wait" => Layer::SchedWait,
            "ecall.search" | "shared.search" | "search.plain" => Layer::DictSearch,
            "av.scan" => Layer::AvScan,
            "aggregate" | "ecall.aggregate" | "shared.aggregate" => Layer::Aggregate,
            "bridge" | "ecall.join_bridge" | "shared.join_bridge" => Layer::Bridge,
            "render" => Layer::Render,
            "insert" | "delete" | "ecall.reencrypt" => Layer::Write,
            _ => Layer::Other,
        }
    }
}

/// Nanoseconds per [`Layer`], folded from a span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes([u64; Layer::COUNT]);

impl LayerTimes {
    /// The time of one layer.
    pub fn get(&self, layer: Layer) -> u64 {
        self.0[layer as usize]
    }

    /// The sum over all layers.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The tree under the event with id `root`; `None` if `events` does
    /// not hold it. Its total is the root's duration.
    pub fn of_tree(events: &[TraceEvent], root: u64) -> Option<LayerTimes> {
        let tree = Tree::new(events);
        events.iter().find(|e| e.id == root).map(|e| tree.fold(e))
    }

    /// Every tree in `events`: a span whose parent is not among them is a
    /// root. Its total is the sum of those roots' durations.
    pub fn of_forest(events: &[TraceEvent]) -> LayerTimes {
        let tree = Tree::new(events);
        let mut ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let mut out = LayerTimes::default();
        for e in events
            .iter()
            .filter(|e| ids.binary_search(&e.parent).is_err())
        {
            out.add(&tree.fold(e));
        }
        out
    }

    fn add(&mut self, other: &LayerTimes) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// Events indexed by parent.
struct Tree<'a> {
    events: &'a [TraceEvent],
    /// Indices into `events`, sorted by parent id.
    by_parent: Vec<usize>,
}

impl<'a> Tree<'a> {
    fn new(events: &'a [TraceEvent]) -> Self {
        let mut by_parent: Vec<usize> = (0..events.len()).collect();
        by_parent.sort_unstable_by_key(|&i| events[i].parent);
        Tree { events, by_parent }
    }

    fn children(&self, id: u64) -> impl Iterator<Item = &'a TraceEvent> + '_ {
        let first = self
            .by_parent
            .partition_point(|&i| self.events[i].parent < id);
        self.by_parent[first..]
            .iter()
            .map(|&i| &self.events[i])
            .take_while(move |e| e.parent == id)
    }

    /// The layer times of `root`'s subtree, summing to its duration: the
    /// root's self time goes to its layer, and each child subtree adds its
    /// own. Children that together outlast their parent ran in parallel
    /// (the partition fan-out); they are scaled to the parent's duration,
    /// so the layers split the wall clock instead of summing thread time.
    fn fold(&self, root: &TraceEvent) -> LayerTimes {
        let mut kids = LayerTimes::default();
        for child in self.children(root.id) {
            kids.add(&self.fold(child));
        }
        let kid_ns = kids.total();
        if kid_ns > root.dur_ns {
            for v in &mut kids.0 {
                *v = (u128::from(*v) * u128::from(root.dur_ns) / u128::from(kid_ns)) as u64;
            }
        }
        // The self time, plus what the scaling rounded away.
        kids.0[Layer::of(root.name) as usize] += root.dur_ns - kids.total();
        kids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: u64, name: &'static str, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            name,
            cat: "query",
            start_ns,
            dur_ns,
            tid: 0,
            arg: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_reports_drops() {
        let buf = TraceBuffer::new();
        let dropped = buf.push_all((0..TRACE_CAPACITY as u64 + 10).map(|i| ev(i, 0, "t", i, 1)));
        assert_eq!(dropped, 10);
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
        assert_ne!(a, SpanId::NONE.raw());
        assert_ne!(b, 0);
    }

    #[test]
    fn every_span_name_in_a_query_tree_has_its_layer() {
        for (name, layer) in [
            ("parse", Layer::Parse),
            ("plan", Layer::Plan),
            ("snapshot", Layer::Snapshot),
            ("partition", Layer::Fanout),
            ("sched.wait", Layer::SchedWait),
            ("shared.search", Layer::DictSearch),
            ("av.scan", Layer::AvScan),
            ("ecall.aggregate", Layer::Aggregate),
            ("ecall.join_bridge", Layer::Bridge),
            ("render", Layer::Render),
            ("ecall.reencrypt", Layer::Write),
            ("query", Layer::Other),
        ] {
            assert_eq!(Layer::of(name), layer, "{name}");
        }
        assert_eq!(Layer::Other as usize + 1, Layer::COUNT);
    }

    /// A query root over parse, a sequential search and scan, and a
    /// fan-out whose two partitions overlap in time.
    fn query_tree() -> Vec<TraceEvent> {
        vec![
            ev(2, 1, "parse", 0, 100),
            ev(4, 3, "ecall.search", 110, 300),
            ev(5, 3, "av.scan", 420, 200),
            ev(3, 1, "partition", 100, 600),
            ev(7, 6, "partition", 700, 400),
            ev(8, 7, "av.scan", 700, 400),
            ev(9, 6, "partition", 700, 400),
            ev(10, 9, "render", 800, 300),
            ev(6, 1, "scan", 700, 500),
            ev(1, 0, "query", 0, 1_300),
        ]
    }

    #[test]
    fn a_tree_folds_into_self_times_that_sum_to_its_root() {
        let events = query_tree();
        let t = LayerTimes::of_tree(&events, 1).expect("root present");
        assert_eq!(t.total(), 1_300, "layers split the root's wall clock");
        assert_eq!(t.get(Layer::Parse), 100);
        assert_eq!(t.get(Layer::DictSearch), 300);
        // The two 400 ns partitions ran in parallel inside a 500 ns scan:
        // their 800 ns of thread time is scaled to the 500 ns they cover.
        assert_eq!(t.get(Layer::AvScan), 200 + 250);
        assert_eq!(t.get(Layer::Render), 187);
        assert_eq!(t.get(Layer::Fanout), 100 + 63);
        assert_eq!(t.get(Layer::Other), 100, "the root's own time");
        assert_eq!(LayerTimes::of_tree(&events, 99), None);
    }

    #[test]
    fn a_forest_sums_the_trees_whose_parents_are_still_open() {
        // The root (id 1) has not closed yet: its closed children are the
        // roots of the fold.
        let mut events = query_tree();
        events.pop();
        let t = LayerTimes::of_forest(&events);
        assert_eq!(t.total(), 100 + 600 + 500);
        assert_eq!(t.get(Layer::Other), 0);
        assert_eq!(LayerTimes::of_forest(&[]), LayerTimes::default());
    }
}
