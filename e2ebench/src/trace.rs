//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: name, start, end, the enclosing span, and a
//! request id shared by every span of one replayed request. A layer's
//! self time is its span's duration minus the time covered by its child
//! spans. Spans stay in memory and are written out once, when the run
//! ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub kind: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: the same calls, untraced, for
    /// measuring what tracing itself costs.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span, attributed to request `req` of kind `kind`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            kind,
            req,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time of every span, in seconds, indexed like `spans()`.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// The median, over the requests (of `kind`, if given) that have a
    /// span named `name`, of each request's total time in such spans, ms.
    pub fn median_ms(&self, name: &str, kind: Option<&str>) -> f64 {
        let mut per_req: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if kind.is_some_and(|k| k != s.kind) {
                continue;
            }
            *per_req.entry(s.req).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-6;
        }
        let v: Vec<f64> = per_req.into_values().collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Per request of `kind`, the summed self times (seconds) of its
    /// layer spans — every span below the request's root span.
    pub fn attributed(&self, kind: &str) -> BTreeMap<u64, f64> {
        let selfs = self.self_times();
        let mut per_req: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.kind == kind && s.parent.is_some() {
                *per_req.entry(s.req).or_default() += t;
            }
        }
        per_req
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"kind\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.kind,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}
