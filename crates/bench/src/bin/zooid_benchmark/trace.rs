//! Driver-side spans: recorded around the benchmark's own calls into each
//! layer, kept in memory, written when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The session the span belongs to (0 for layer-replay spans).
    pub trace_id: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::since(Instant::now())
    }

    /// A tracer on another's clock, for a second driver thread.
    pub fn since(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            trace_id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span that was pushed when its end was not yet known.
    pub fn set_end(&mut self, span: SpanId, end_ns: u64) {
        let span = &mut self.spans[span as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Times one call as a root span; returns its result and its length
    /// in ns.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let value = call();
        let end = self.now();
        self.push(name, 0, None, start, end);
        (value, (end - start) as f64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover (children may overlap; the union counts once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration_ns() - covered(span.start_ns, span.end_ns, kids))
            .collect()
    }

    /// Sum of self times per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut totals: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            match totals.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += self_ns;
                    entry.2 += 1;
                }
                None => totals.push((span.name, self_ns, 1)),
            }
        }
        totals.sort_by_key(|total| std::cmp::Reverse(total.1));
        totals
    }

    /// Writes one JSON object per line to a new file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut out)?;
        out.flush()
    }

    fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for span in &self.spans {
            let line = Json::obj(vec![
                ("name", Json::str(span.name)),
                ("trace_id", Json::Num(span.trace_id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.write())?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.push("session", 1, None, 100, 200);
        t.push("a", 1, Some(root), 110, 140);
        // Overlaps `a` by 10 and runs past the parent's end by 20.
        t.push("b", 1, Some(root), 130, 220);
        let leaf = t.push("c", 1, Some(root), 100, 105);
        t.push("d", 1, Some(leaf), 101, 103);
        let own = t.self_times();
        // Children cover [100,105] and [110,200]: 95 of the root's 100.
        assert_eq!(own[root as usize], 5);
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 90);
        assert_eq!(own[leaf as usize], 3);
        assert_eq!(own[4], 2);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name[0], ("b", 90, 1));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new();
        main.push("x", 0, None, 0, 1);
        let mut other = Tracer::since(main.epoch());
        let root = other.push("session", 9, None, 10, 10);
        other.push("client.open", 9, Some(root), 10, 12);
        other.set_end(root, 30);
        main.absorb(other);
        assert_eq!(main.spans()[1].end_ns, 30);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times(), vec![1, 18, 2]);
    }

    #[test]
    fn a_span_without_children_owns_its_whole_duration() {
        let mut t = Tracer::new();
        t.push("x", 0, None, 5, 9);
        assert_eq!(t.self_times(), vec![4]);
        assert_eq!(t.durations("x"), vec![4]);
        assert!(t.durations("y").is_empty());
    }

    #[test]
    fn spans_are_written_one_object_per_line() {
        let mut t = Tracer::new();
        let root = t.push("session", 7, None, 1, 10);
        t.push("server.server.submit", 7, Some(root), 2, 3);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("trace_id").and_then(Json::as_f64), Some(7.0));
    }
}
