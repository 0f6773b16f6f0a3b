//! In-memory spans for the traced run, recorded by the benchmark around
//! its calls into each layer and written out as JSON lines when the run
//! ends.
//!
//! A span has a name (`layer.what`), a start and end in nanoseconds from
//! the run's origin, an optional parent span, and the cell, unit or
//! request it belongs to. A span's *self time* is its duration minus the
//! part of it that its children cover; children may nest or overlap
//! (two parallel cells under one run span), so the covered part is the
//! length of the union of the children's intervals clipped to the
//! parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `core.cell` or `service.queue`.
    pub name: &'static str,
    /// Parent span index, if any.
    pub parent: Option<usize>,
    /// Cell, unit or request id the span belongs to.
    pub key: u64,
    /// Start, in ns from the trace origin.
    pub start_ns: u64,
    /// End, in ns from the trace origin.
    pub end_ns: u64,
}

/// A run's spans, kept in memory until [`Trace::write_jsonl`].
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span between two instants; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.span_ns(name, parent, key, start_ns, end_ns)
    }

    /// Record a span from origin-relative nanoseconds; returns its index.
    pub fn span_ns(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        key: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            key,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Total self time per layer (the span-name prefix before the
    /// first `.`), in ms.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.key, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Self time of a span covering `parent`, given its children's
/// intervals: the parent's length minus the length of the union of the
/// children, each clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = p0;
    for (s, e) in clipped {
        let from = s.max(cursor);
        if e > from {
            covered += e - from;
            cursor = e;
        }
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two parallel cells) count once.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 80)]), 30);
        // A child nested inside another child adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // A child entirely outside the parent is ignored.
        assert_eq!(self_time((0, 10), &[(20, 30)]), 10);
        // Children covering everything leave no self time.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn trace_self_times_follow_parent_links() {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        let run = t.span_ns("core.run", None, 0, 0, 1_000);
        let a = t.span_ns("core.cell", Some(run), 1, 100, 600);
        let _b = t.span_ns("core.cell", Some(run), 2, 400, 900);
        let _cyc = t.span_ns("engine.cycles", Some(a), 1, 150, 550);
        // Grandchildren do not count against the run, only their parent.
        assert_eq!(t.self_times(), vec![200, 100, 500, 400]);
        let layers = t.layer_self_ms();
        assert!((layers["core"] - 800.0 / 1e6).abs() < 1e-12);
        assert!((layers["engine"] - 400.0 / 1e6).abs() < 1e-12);
    }
}
