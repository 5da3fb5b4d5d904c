//! Spans recorded by the benchmark around each call it makes into a
//! layer: kept in memory per generator thread, analysed after the
//! window, and written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// Index of a span within its [`SpanLog`].
pub type SpanId = usize;

/// One timed call.  Spans of one operation share `op`; `parent` is the
/// span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread, timed against a shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span whose end is set later with [`SpanLog::finish`].
    pub fn open(&mut self, name: &'static str, op: u64, start: Instant) -> SpanId {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
        });
        self.spans.len() - 1
    }

    pub fn finish(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Record a complete child span of `parent`.
    pub fn child(&mut self, parent: SpanId, name: &'static str, start: Instant, end: Instant) {
        let op = self.spans[parent].op;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
    }

    /// Move `other`'s spans behind this log's, keeping parent links.
    pub fn append(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as a tab-separated row:
    /// `id name start_ns end_ns parent op` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median self time, in microseconds, of the spans named `name`.
pub fn median_self_us(spans: &[Span], self_ns: &[u64], name: &str) -> Option<f64> {
    let us: Vec<f64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    (!us.is_empty()).then(|| crate::stats::median(&us))
}

/// Median share of root-span (`parent == None`) time that no child span
/// covers: the part of an operation the layer spans do not explain.
pub fn unattributed_fraction(spans: &[Span], self_ns: &[u64]) -> f64 {
    let shares: Vec<f64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.parent.is_none() && s.duration_ns() > 0)
        .map(|(s, &own)| own as f64 / s.duration_ns() as f64)
        .collect();
    crate::stats::median(&shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 130, Some(0)), // clipped to the parent: 90..100
            span("a.inner", 12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20 - 6, 30, 40, 6]);
        assert_eq!(median_self_us(&spans, &own, "a"), Some(0.014));
        assert_eq!(median_self_us(&spans, &own, "zzz"), None);
        assert!((unattributed_fraction(&spans, &own) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn logs_merge_with_parent_links_intact() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let root = a.open("op", 7, epoch);
        a.child(root, "x", epoch, epoch + Duration::from_micros(3));
        a.finish(root, epoch + Duration::from_micros(5));
        let mut b = SpanLog::new(epoch);
        let root_b = b.open("op", 8, epoch);
        b.child(root_b, "y", epoch, epoch + Duration::from_micros(1));
        b.finish(root_b, epoch + Duration::from_micros(2));
        a.append(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[3].op, s[3].name), (8, "y"));
        assert_eq!(self_times(s), vec![2000, 3000, 1000, 1000]);
    }
}
