//! The traced run's span recorder.
//!
//! Spans live only in the benchmark: each wraps one call into a layer's
//! public API. A span records its name, start, end, parent and the query
//! it belongs to; spans are kept in memory and written out when the run
//! ends. A span's *self time* is its duration minus the time its direct
//! children cover.
//!
//! Reading the clock costs tens of nanoseconds, and part of that lands
//! inside every span. The recorder measures that floor once, as the
//! median duration of empty spans, and takes it off every duration it
//! reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Query id of spans that belong to no single query (membership events).
pub const NO_QUERY: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span plus one; 0 for a root.
    pub parent: usize,
    pub query: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    /// Median duration of an empty span, taken off every duration.
    pub floor_ns: u64,
    spans: Vec<Span>,
    /// Open spans, innermost last (indices into `spans`).
    open: Vec<usize>,
    /// While false, `span` runs the call without recording (warm-up).
    pub on: bool,
    pub query: u64,
}

impl Tracer {
    /// A recorder that records nothing (for untraced episodes that share
    /// code with traced passes).
    pub fn disabled() -> Tracer {
        Tracer {
            t0: Instant::now(),
            floor_ns: 0,
            spans: Vec::new(),
            open: Vec::new(),
            on: false,
            query: NO_QUERY,
        }
    }

    pub fn new() -> Tracer {
        let mut t = Tracer::disabled();
        t.on = true;
        for _ in 0..2000 {
            t.span("empty", || ());
        }
        let mut empty = t.durations("empty");
        empty.sort_unstable();
        t.floor_ns = empty[empty.len() / 2];
        t.spans.clear();
        t
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| i + 1);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            query: self.query,
        });
        self.open.push(self.spans.len() - 1);
        // Read the clock last, so the span excludes its own bookkeeping.
        let now = self.now_ns();
        let idx = self.spans.len() - 1;
        self.spans[idx].start_ns = now;
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// A span's duration less the clock floor.
    fn net_ns(&self, s: &Span) -> u64 {
        s.dur_ns().saturating_sub(self.floor_ns)
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| self.net_ns(s).saturating_sub(c))
            .collect()
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.net_ns(s))
            .collect()
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Write every span as CSV: `id,parent,query,name,start_ns,end_ns`
    /// (`parent` 0 = root, ids start at 1; `query` empty for membership
    /// spans). Times are raw; the first line records the clock floor.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# floor_ns={}", self.floor_ns)?;
        writeln!(out, "id,parent,query,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let query = if s.query == NO_QUERY {
                String::new()
            } else {
                s.query.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{},{}",
                i + 1,
                s.parent,
                query,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
