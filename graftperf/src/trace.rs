//! In-memory span recording and self-time arithmetic.
//!
//! The benchmark wraps each public call into a layer in a span
//! (name, start, end, parent, op id). All spans of one round, request
//! or restore share an op id. Spans stay in memory while the run
//! measures and are written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `kernsim.fault`.
    pub name: &'static str,
    /// Label index (the technology for per-technology spans, else 0).
    pub label: u8,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The round, request or restore this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. When off, `record` stores nothing and returns `None`,
/// so the untraced path costs one branch per call site.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// Whether spans are being recorded right now.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording; used to interleave traced and untraced ops
    /// so one run can price its own tracing.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh op id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index when recording.
    pub fn record(
        &mut self,
        name: &'static str,
        label: u8,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            label,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is not known yet, so its children can
    /// name it as parent; finish it with [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        label: u8,
        start: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        self.record(name, label, start, start, parent, op)
    }

    /// Sets the end of a span opened with [`open`](Self::open).
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end = self.ns(end);
        }
    }

    /// Every recorded span, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: index, name, label, start, end, parent, op.
    pub fn dump(&self) -> String {
        let mut out = String::from("idx\tname\tlabel\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.label, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children's intervals cover (overlapping children
/// are counted once; child time outside the parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// Per (name, label): span count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans.
    pub count: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Aggregates the spans recorded from index `from` on by (name, label).
pub fn totals(spans: &[Span], from: usize) -> BTreeMap<(&'static str, u8), Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<(&'static str, u8), Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs).skip(from) {
        let t = out.entry((s.name, s.label)).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            label: 0,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            // Two overlapping children cover 10..50 once: 40 ns.
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            // A disjoint child covers 60..70.
            span(60, 70, Some(0)),
            // A grandchild only reduces its own parent.
            span(62, 65, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 7, 3]);
    }

    #[test]
    fn child_time_outside_the_parent_is_ignored() {
        let spans = [
            span(100, 200, None),
            span(50, 150, Some(0)),
            span(190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn totals_group_by_name_and_label() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = a + std::time::Duration::from_nanos(500);
        let root = t.record("round", 2, a, b, None, 7);
        t.record(
            "leaf",
            2,
            a,
            a + std::time::Duration::from_nanos(200),
            root,
            7,
        );
        let agg = totals(t.spans(), 0);
        assert_eq!(totals(t.spans(), 1).len(), 1);
        assert_eq!(agg[&("round", 2)].self_ns, 300);
        assert_eq!(agg[&("leaf", 2)].total_ns, 200);
        assert!(t.spans().iter().all(|s| s.op == 7));
        let mut off = Tracer::new(false);
        assert_eq!(off.record("round", 0, a, b, None, 1), None);
        assert!(off.spans().is_empty());
    }
}
