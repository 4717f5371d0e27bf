//! In-memory span recording for the traced run.
//!
//! A span is a named interval with a parent and a root id (one per
//! replication or request). Spans are recorded at the benchmark's own
//! call boundaries into the program's public functions, kept in memory,
//! and written out as CSV when the run ends. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover.

use std::io::Write;
use std::time::Instant;

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 16] = [
    "core.replication",
    "core.schedule",
    "core.play",
    "core.evolve",
    "shadow.replication",
    "strategy.decode",
    "game.schedule",
    "game.tournament",
    "game.play_round",
    "game.play_game",
    "net.gossip",
    "net.forget_subject",
    "ga.next_generation",
    "load.request",
    "http.submit",
    "http.poll",
];

/// Index of a span name in [`NAMES`].
pub fn name_id(name: &str) -> u8 {
    NAMES
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("unknown span name {name:?}")) as u8
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u8,
    /// Root id: the replication or request this span belongs to.
    pub id: u32,
    /// Index of the parent span in the log, or [`ROOT`].
    pub parent: u32,
    /// Start, nanoseconds since the log's origin.
    pub start: u64,
    /// End, nanoseconds since the log's origin.
    pub end: u64,
}

/// A single-threaded span log with an open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: u8, id: u32) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        let end = self.now();
        let i = self.open.pop().expect("end without an open span");
        self.spans[i as usize].end = end;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Writes spans as `name,id,parent,start_ns,end_ns` lines (parent -1
/// for a root).
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{},{},{},{},{}",
            NAMES[s.name as usize], s.id, parent, s.start, s.end
        )?;
    }
    out.flush()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
        .collect()
}

/// Per-name totals: (span count, total duration ns, total self ns).
pub fn totals_by_name(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out = vec![(0u64, 0u64, 0u64); NAMES.len()];
    for (s, own) in spans.iter().zip(selfs) {
        let t = &mut out[s.name as usize];
        t.0 += 1;
        t.1 += s.end - s.start;
        t.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0, 100) with children [10, 30) and [50, 60): self 70.
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 50, 60),
            // grandchild: counted against its parent only
            span(3, 1, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 50),
            // a child running past its parent is clipped
            span(3, 0, 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn totals_aggregate_by_name() {
        let spans = [span(0, ROOT, 0, 100), span(1, 0, 0, 40), span(1, 0, 50, 70)];
        let t = totals_by_name(&spans);
        assert_eq!(t[0], (1, 100, 40));
        assert_eq!(t[1], (2, 60, 60));
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tr = Tracer::new();
        tr.begin(0, 7);
        tr.begin(1, 7);
        tr.end();
        tr.begin(2, 7);
        tr.end();
        tr.end();
        let parents: Vec<u32> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, 0]);
        assert!(tr.spans().iter().all(|s| s.end >= s.start && s.id == 7));
    }

    #[test]
    fn span_names_are_known() {
        assert_eq!(NAMES[name_id("net.gossip") as usize], "net.gossip");
    }
}
