//! Harness-side trace spans: one record per call into a layer, kept in
//! memory during the traced pass and written out once as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto) when the pass has ended.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into the program; the phases *inside* `execute` come from the
//! program's public `QueryStats` and are laid out back to back under their
//! parent, marked `"measured":"counter"`. Spans inside the program are a
//! later change.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NONE` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef(u32);

impl SpanRef {
    /// "No parent."
    pub const NONE: SpanRef = SpanRef(u32::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanRef,
    /// The op all spans of one request share.
    op: u32,
    /// Timed by the harness (`true`) or derived from a program counter.
    timed: bool,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log with room for `capacity` spans, so recording does not
    /// reallocate inside the measured loop.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanRef, op: u32) -> SpanRef {
        let start_ns = self.now();
        self.push(name, start_ns, start_ns, parent, op, true)
    }

    /// Closes a span now and returns its duration in ns.
    pub fn end(&mut self, span: SpanRef) -> u64 {
        let now = self.now();
        let s = &mut self.spans[span.0 as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Lays counter-derived phases `(name, ns)` back to back under
    /// `parent`, starting at the parent's start.
    pub fn phases(&mut self, parent: SpanRef, op: u32, phases: &[(&'static str, u64)]) {
        let mut at = self.spans[parent.0 as usize].start_ns;
        for &(name, ns) in phases.iter().filter(|(_, ns)| *ns > 0) {
            self.push(name, at, at + ns, parent, op, false);
            at += ns;
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanRef,
        op: u32,
        timed: bool,
    ) -> SpanRef {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            timed,
        });
        SpanRef(self.spans.len() as u32 - 1)
    }

    /// Total self time per span name, in ns: a span's duration minus the
    /// part of it its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanRef::NONE {
                child_ns[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log as Chrome-trace JSON ("X" complete events, µs timestamps).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == SpanRef::NONE {
                -1
            } else {
                i64::from(s.parent.0)
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"measured\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.timed { "timer" } else { "counter" },
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(8);
        let op = t.push("op", 0, 1_000, SpanRef::NONE, 0, true);
        let exec = t.push("proxy.execute", 100, 900, op, 0, true);
        t.phases(
            exec,
            0,
            &[
                ("encdict.search", 300),
                ("skipped", 0),
                ("avsearch.scan", 400),
            ],
        );
        let totals = t.self_times();
        let get = |n: &str| totals.iter().find(|(name, _)| *name == n).unwrap().1;
        assert_eq!(get("op"), 200);
        assert_eq!(get("proxy.execute"), 100);
        assert_eq!(get("encdict.search"), 300);
        assert_eq!(get("avsearch.scan"), 400);
        assert_eq!(t.len(), 4, "zero-length phases are not recorded");
        // Self times sum to the root's duration.
        assert_eq!(totals.iter().map(|(_, ns)| ns).sum::<u64>(), 1_000);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"avsearch.scan\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"measured\":\"counter\""));
        assert_eq!(
            crate::json::parse(&json)
                .unwrap()
                .get("traceEvents")
                .unwrap()
                .len(),
            4
        );
    }
}
