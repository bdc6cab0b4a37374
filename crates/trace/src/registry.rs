//! Named instruments — counters, gauges, log-bucketed histograms — and
//! the registry that renders them in the Prometheus text format.
//!
//! Histograms are sharded: each recording thread picks a shard by a
//! process-wide thread ordinal, so concurrent `record_ns` calls from the
//! worker pool mostly touch distinct cache lines; a scrape merges the
//! shards into one [`HistogramSnapshot`]. The bucket ladder is fixed
//! ([`BUCKET_BOUNDS_NS`], a 1–2–5 progression from 100 ns to 60 s), so
//! merging is plain counter addition and therefore associative — which
//! `tests/proptest_trace.rs` checks.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Upper bounds (inclusive, in nanoseconds) of the histogram buckets: a
/// 1–2–5 ladder from 100 ns to 60 s. One implicit `+Inf` bucket follows.
pub const BUCKET_BOUNDS_NS: [u64; 27] = [
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    30_000_000_000,
    60_000_000_000,
];

/// Bucket count including the `+Inf` overflow bucket.
const NBUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// Histogram shard count. Recording threads are spread over the shards by
/// thread ordinal; more shards than this would buy little on the target
/// machines.
const NSHARDS: usize = 8;

/// Locks a mutex, recovering from poisoning (registration and scrape
/// critical sections hold no user code, so the data is always
/// consistent).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small dense per-thread ordinal: 0 for the first thread that asks,
/// 1 for the second, ... Used to pick histogram shards and to label span
/// events, without `thread::current()` (banned by the determinism rule).
pub(crate) fn thread_ordinal() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (or ratchet up via
/// [`set_max`](Gauge::set_max)).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Ratchets the value up to `v` if it is larger — for high-water
    /// marks.
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One histogram shard: bucket counts plus sum/max, all relaxed atomics.
/// There is deliberately no count: a snapshot's count is the sum of its
/// buckets, so a scrape racing a recording thread can never render a
/// `+Inf` bucket or `_count` below the last finite bucket.
struct Shard {
    counts: [AtomicU64; NBUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A latency histogram over the fixed [`BUCKET_BOUNDS_NS`] ladder,
/// sharded per thread ordinal and merged on scrape.
pub struct Histogram {
    shards: [Shard; NSHARDS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum_ns", &snap.sum_ns)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            shards: std::array::from_fn(|_| Shard::new()),
        }
    }

    /// The bucket index a value of `ns` nanoseconds lands in (`le` bounds
    /// are inclusive; past the ladder is the `+Inf` bucket).
    pub fn bucket_index(ns: u64) -> usize {
        BUCKET_BOUNDS_NS.partition_point(|&b| b < ns)
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let shard = &self.shards[thread_ordinal() % NSHARDS];
        shard.counts[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
        shard.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records the time elapsed since a [`crate::tick`] reading.
    pub fn record_since(&self, start_tick_ns: u64) {
        self.record_ns(crate::tick().saturating_sub(start_tick_ns));
    }

    /// Merges every shard into one point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in &self.shards {
            for (i, c) in shard.counts.iter().enumerate() {
                snap.buckets[i] += c.load(Ordering::Relaxed);
            }
            // Wrapping, to match `fetch_add` on the shard atomics: a sum
            // past u64 nanoseconds (585 years) wraps instead of panicking
            // in debug builds.
            snap.sum_ns = snap
                .sum_ns
                .wrapping_add(shard.sum_ns.load(Ordering::Relaxed));
            snap.max_ns = snap.max_ns.max(shard.max_ns.load(Ordering::Relaxed));
        }
        snap.count = snap.buckets.iter().sum();
        snap
    }
}

/// A merged point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative); the last entry is
    /// the `+Inf` overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of every observation, in nanoseconds.
    pub sum_ns: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest single observation, in nanoseconds (exact, not
    /// bucket-resolution).
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NBUCKETS],
            sum_ns: 0,
            count: 0,
            max_ns: 0,
        }
    }

    /// Merges another snapshot into this one (plain addition, so merging
    /// is associative and commutative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_ns = self.sum_ns.wrapping_add(other.sum_ns);
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, interpolated
    /// linearly inside the bucket it falls in — bucket-resolution, except
    /// `q = 1`, which returns the exact maximum.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max_ns as f64;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
                let upper = if i < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[i]
                } else {
                    // The +Inf bucket has no upper bound; the exact max is
                    // the tightest honest one.
                    self.max_ns.max(lower)
                };
                let frac = (target - cum) as f64 / c as f64;
                return lower as f64 + frac * (upper - lower) as f64;
            }
            cum += c;
        }
        self.max_ns as f64
    }
}

/// A point-in-time reading of one registered instrument.
#[derive(Debug, Clone)]
pub enum Reading {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram's merged snapshot.
    Histogram(HistogramSnapshot),
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    help: &'static str,
    instrument: Instrument,
}

/// A set of named instruments, registered once and rendered on scrape.
///
/// Registration is idempotent: asking for an existing name of the same
/// kind returns a handle to the same instrument (so instrumented code
/// can register eagerly without coordination). Asking for an existing
/// name with a *different* kind is a programming error; the call returns
/// a fresh detached instrument rather than panicking, and the registered
/// one is untouched.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = lock_unpoisoned(&self.entries);
        f.debug_struct("Registry")
            .field("instruments", &entries.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let mut entries = lock_unpoisoned(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if let Instrument::Counter(c) = &e.instrument {
                return Arc::clone(c);
            }
            return Arc::new(Counter::new());
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name,
            help,
            instrument: Instrument::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let mut entries = lock_unpoisoned(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if let Instrument::Gauge(g) = &e.instrument {
                return Arc::clone(g);
            }
            return Arc::new(Gauge::new());
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name,
            help,
            instrument: Instrument::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let mut entries = lock_unpoisoned(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if let Instrument::Histogram(h) = &e.instrument {
                return Arc::clone(h);
            }
            return Arc::new(Histogram::new());
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name,
            help,
            instrument: Instrument::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Point-in-time readings of every instrument, sorted by name.
    pub fn readings(&self) -> Vec<(&'static str, &'static str, Reading)> {
        let entries = lock_unpoisoned(&self.entries);
        let mut out: Vec<(&'static str, &'static str, Reading)> = entries
            .iter()
            .map(|e| {
                let reading = match &e.instrument {
                    Instrument::Counter(c) => Reading::Counter(c.get()),
                    Instrument::Gauge(g) => Reading::Gauge(g.get()),
                    Instrument::Histogram(h) => Reading::Histogram(h.snapshot()),
                };
                (e.name, e.help, reading)
            })
            .collect();
        out.sort_by_key(|(name, _, _)| *name);
        out
    }

    /// The reading of one instrument, if registered.
    pub fn reading(&self, name: &str) -> Option<Reading> {
        self.readings()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, r)| r)
    }

    /// Renders every instrument in the Prometheus text exposition format.
    /// Histograms render cumulative `_bucket{le=...}` series (bounds in
    /// seconds) plus `_sum` (seconds) and `_count`.
    pub fn render(&self) -> String {
        let entries = lock_unpoisoned(&self.entries);
        let mut sorted: Vec<&Entry> = entries.iter().collect();
        sorted.sort_by_key(|e| e.name);
        let mut out = String::new();
        for e in sorted {
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} {}\n", e.name, e.instrument.kind()));
            match &e.instrument {
                Instrument::Counter(c) => out.push_str(&format!("{} {}\n", e.name, c.get())),
                Instrument::Gauge(g) => out.push_str(&format!("{} {}\n", e.name, g.get())),
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
                        cum += snap.buckets[i];
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            e.name,
                            seconds_string(bound),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{{le=\"+Inf\"}} {}\n",
                        e.name, snap.count
                    ));
                    out.push_str(&format!("{}_sum {}\n", e.name, seconds_string(snap.sum_ns)));
                    out.push_str(&format!("{}_count {}\n", e.name, snap.count));
                }
            }
        }
        out
    }
}

/// Formats nanoseconds as a decimal seconds string with trailing zeros
/// trimmed (`1500` → `0.0000015`, `2_000_000_000` → `2`).
pub(crate) fn seconds_string(ns: u64) -> String {
    let mut s = format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for w in BUCKET_BOUNDS_NS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn boundary_values_land_in_their_inclusive_bucket() {
        // `le` is inclusive: a value equal to a bound counts in that
        // bucket, one more spills into the next.
        for (i, &b) in BUCKET_BOUNDS_NS.iter().enumerate() {
            assert_eq!(Histogram::bucket_index(b), i, "bound {b}");
            assert_eq!(Histogram::bucket_index(b + 1), i + 1, "bound {b}+1");
        }
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(
            Histogram::bucket_index(u64::MAX),
            BUCKET_BOUNDS_NS.len(),
            "overflow goes to +Inf"
        );
    }

    #[test]
    fn snapshot_sums_and_counts_are_exact() {
        let h = Histogram::new();
        let values = [0u64, 100, 101, 999, 1_000, 70_000_000_000];
        for &v in &values {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, values.len() as u64);
        assert_eq!(s.sum_ns, values.iter().sum::<u64>());
        assert_eq!(s.max_ns, 70_000_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(*s.buckets.last().expect("has +Inf bucket"), 1);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record_ns(v);
            }
            h.snapshot()
        };
        let (a, b, c) = (
            mk(&[10, 2_000]),
            mk(&[500_000]),
            mk(&[5, 5, 61_000_000_000]),
        );
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_ba = c.clone();
        c_ba.merge(&b);
        c_ba.merge(&a);
        assert_eq!(ab_c, c_ba);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record_ns(v * 1_000); // 1µs .. 1ms
        }
        let s = h.snapshot();
        let p50 = s.quantile_ns(0.5);
        let p99 = s.quantile_ns(0.99);
        assert!(p50 > 200_000.0 && p50 < 1_000_000.0, "p50 {p50}");
        assert!(p99 > p50 && p99 <= 1_000_000.0, "p99 {p99}");
        assert_eq!(s.quantile_ns(1.0), 1_000_000.0, "q=1 is the exact max");
        assert_eq!(HistogramSnapshot::empty().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn seconds_strings_trim_trailing_zeros() {
        assert_eq!(seconds_string(0), "0");
        assert_eq!(seconds_string(100), "0.0000001");
        assert_eq!(seconds_string(1_500), "0.0000015");
        assert_eq!(seconds_string(2_000_000_000), "2");
        assert_eq!(seconds_string(60_000_000_000), "60");
        assert_eq!(seconds_string(1_234_567_890), "1.23456789");
    }

    #[test]
    fn render_produces_cumulative_monotone_buckets() {
        let r = Registry::new();
        let h = r.histogram("deepn_test_render_seconds", "test histogram");
        for v in [50u64, 150, 1_000, 2_000_000, 90_000_000_000] {
            h.record_ns(v);
        }
        let text = r.render();
        assert!(text.contains("# TYPE deepn_test_render_seconds histogram"));
        assert!(text.contains("deepn_test_render_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("deepn_test_render_seconds_count 5"));
        let mut prev = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("deepn_test_render_seconds_bucket") {
                let v: u64 = rest
                    .rsplit(' ')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("bucket value");
                assert!(v >= prev, "cumulative buckets never decrease");
                prev = v;
            }
        }
    }

    #[test]
    fn renders_racing_recording_threads_always_validate() {
        let r = Registry::new();
        let h = r.histogram("deepn_test_race_seconds", "test histogram");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (h, stop) = (&h, &stop);
                s.spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record_ns(1_000 + i % 5_000_000);
                        i = i.wrapping_add(7_919);
                    }
                });
            }
            for _ in 0..500 {
                let text = r.render();
                if let Err(e) = crate::prom::validate(&text) {
                    stop.store(true, Ordering::Relaxed);
                    panic!("a scrape racing the recorders must still validate: {e}");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn kind_mismatch_returns_a_detached_instrument() {
        let r = Registry::new();
        let c = r.counter("deepn_test_kind", "as a counter");
        c.inc();
        let g = r.gauge("deepn_test_kind", "as a gauge");
        g.set(7);
        // The registered counter is untouched and still renders.
        assert_eq!(c.get(), 1);
        assert!(r.render().contains("deepn_test_kind 1"));
    }
}
