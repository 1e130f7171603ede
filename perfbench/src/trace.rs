//! In-memory spans and counters of the traced pass.
//!
//! Spans come only from the benchmark's own code, around its calls into
//! a layer's public functions; counters come from the layers' existing
//! `*_observed` entry points, recorded into [`Trace::sink`]. Nothing is
//! written until the run ends ([`Trace::write_jsonl`]).

use crate::alloc;
use crate::stats::ratio;
use dut_obs::MemorySink;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names starting with this prefix time probe work the traced pass
/// adds on top of the op (a layer's entry point re-run on the same
/// inputs); it is excluded from the tracing overhead.
pub const PROBE_PREFIX: &str = "probe.";

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `congest.run`.
    pub name: &'static str,
    /// The op the call belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
    /// Allocations made while the span was open (all threads).
    pub allocs: u64,
}

/// Count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
}

/// The traced pass's record: spans plus the layers' counters.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    extra_probe_ns: u64,
    /// Counters and histograms recorded by the layers' `*_observed`
    /// entry points.
    pub sink: MemorySink,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            extra_probe_ns: 0,
            sink: MemorySink::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; close it with [`Trace::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            // Holds the allocation count at entry until `exit`.
            allocs: alloc::allocations(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = alloc::allocations() - span.allocs;
    }

    /// Runs `f` inside a span named `name`, handing it the sink for the
    /// layer's `*_observed` entry point.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut MemorySink) -> T) -> T {
        let id = self.enter(name);
        let out = f(&mut self.sink);
        self.exit(id);
        out
    }

    /// Adds probe time measured outside spans (per-trial probes inside
    /// Monte-Carlo workers, as their wall-clock share).
    pub fn add_probe_ns(&mut self, ns: u64) {
        self.extra_probe_ns += ns;
    }

    /// Wall-clock time spent in probes.
    pub fn probe_ns(&self) -> u64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with(PROBE_PREFIX) && !self.in_probe(s.parent))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        spans + self.extra_probe_ns
    }

    fn in_probe(&self, mut parent: Option<usize>) -> bool {
        while let Some(p) = parent {
            if self.spans[p].name.starts_with(PROBE_PREFIX) {
                return true;
            }
            parent = self.spans[p].parent;
        }
        false
    }

    /// Totals of the spans named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut t = SpanTotals::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let d = s.end_ns - s.start_ns;
                t.count += 1;
                t.total_ns += d;
                t.self_ns += d.saturating_sub(children_ns[i]);
                t.allocs += s.allocs;
            }
        }
        t
    }

    /// Mean duration of the spans named `name`, in ns (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.totals(name);
        ratio(t.total_ns as f64, t.count as f64)
    }

    /// Counter `key` of the sink divided by `per` (0 if `per` is 0).
    pub fn per(&self, key: &str, per: f64) -> f64 {
        ratio(self.sink.counter(key) as f64, per)
    }

    /// Writes one JSON line per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }

    /// The number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::default();
        let outer = t.enter("outer");
        let inner = t.enter("probe.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let o = t.totals("outer");
        let i = t.totals("probe.inner");
        assert_eq!((o.count, i.count), (1, 1));
        assert!(o.self_ns < o.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(t.probe_ns(), i.total_ns);
    }
}
