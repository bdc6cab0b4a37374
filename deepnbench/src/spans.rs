//! Benchmark-side spans: each records a name, start, end, parent and
//! request id around a call the benchmark makes into one layer. Spans stay
//! in memory and are written out when the run ends; a layer's self time
//! is its span minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Recorded request spans per load window are capped so a long traced
/// run keeps a bounded trace file; later requests are counted as dropped.
pub const MAX_REQUEST_SPANS: usize = 100_000;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// An in-memory span log. A disabled log records nothing, so untimed
/// bookkeeping never runs in the end-to-end (untraced) runs.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(origin: Instant, enabled: bool) -> Spans {
        Spans {
            origin,
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let now = self.ns(Instant::now());
            self.spans[i].end_ns = now;
        }
    }

    /// Records a finished span from timestamps taken elsewhere (a load
    /// thread's request start and completion).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Per span name: count, total time and self time, in milliseconds,
    /// sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_within(&mut children[i], s.start_ns, s.end_ns);
            let own = total.saturating_sub(covered);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total as f64 / 1e6;
                    r.3 += own as f64 / 1e6;
                }
                None => rows.push((s.name, 1, total as f64 / 1e6, own as f64 / 1e6)),
            }
        }
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// Writes every span as one JSON array (times in microseconds from
    /// the run's start).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"req\":{}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.req,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}
