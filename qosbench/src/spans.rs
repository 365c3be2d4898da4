//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public API, recorded from the
//! benchmark's side: name, start, end, parent span and op id. Spans stay
//! in memory while the run measures and are written out once it ends.
//! With tracing off every call is a single branch and no clock read, so
//! the untraced run that gives the end-to-end metrics pays nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// Total and self time of every span sharing one name.
#[derive(Copy, Clone, Default, Debug, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their child spans cover.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn wrap<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let r = f();
        self.end(id);
        r
    }

    /// Per-name totals; self time subtracts each span's direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent op`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None, 0);
        let inner = t.begin("inner", outer, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.total_ns, o.self_ns + i.total_ns);
        assert!(i.total_ns >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        t.end(id);
        assert_eq!(id, None);
        assert_eq!(t.len(), 0);
    }
}
