//! The load/soak harness behind `deepn loadgen`: N concurrent clients
//! driving a live server with mixed serial/pipelined traffic, a
//! concurrent scraper thread polling the `Metrics` op into a
//! [`MetricsSeries`], and a reconciliation pass that cross-checks
//! client-side totals against server-side counter deltas.
//!
//! Library code (not CLI glue) so the scripted-server integration tests
//! can drive a whole storm in-process. The report it produces is
//! `BENCH_*.json`-compatible: client latency distributions land as
//! bench-shaped entries (`mean_ns`/`median_ns`/... per entry), and the
//! soak-specific accounting lands under `loadgen_summary` in the same
//! document.
//!
//! Every reply is checked: before the window opens, one `EncodeBatch`
//! reply reveals the served tables, and the local codec then predicts
//! every `EncodeBatch`/`DecodeBatch` reply of the load mix byte for byte.
//! A reply of the wrong kind or with different bytes is a `mismatch`,
//! never `ok`, and raises the `reply_mismatch` anomaly.
//!
//! Accounting contract (what "reconciles" means): busy rejections happen
//! at connection admission and increment only
//! `deepn_serve_connections_rejected_total`; every other client-visible
//! outcome (ok, mismatch, timeout, server-side error) corresponds to
//! exactly one `deepn_serve_requests_total` increment. The scraper's own
//! `Metrics` requests are counted by the server too, so the window's
//! request delta must equal `ok + mismatch + timeout + error + (scrapes
//! − 1)` — the first scrape predates the window. Tagged (protocol v2)
//! runs add two more server-counted-but-not-client-tallied categories: one `Hello` per
//! (re)connect negotiation, and `parts − 1` per batch a tagged pipeline
//! splits across tags; both fold into the expected delta. Transport
//! (`io`) errors make a request's fate unknowable client-side, so the
//! reconciliation tolerance is exactly the transport-error count:
//! anything beyond that is flagged.

use crate::{Client, PipelineReply, ServeError};
use deepn_codec::{CodecError, Decoder, Encoder, QuantTablePair, RgbImage};
use deepn_trace::export::escape_json;
use deepn_trace::log;
use deepn_trace::prom::MetricsSeries;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How a loadgen run is shaped: how many clients, for how long, with
/// which traffic mix and which anomaly thresholds.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target server address.
    pub addr: SocketAddr,
    /// Number of concurrent load clients.
    pub clients: usize,
    /// How long the load phase runs.
    pub duration: Duration,
    /// Pipelined-client window. `0` makes every client serial; otherwise
    /// odd-indexed clients pipeline this many requests.
    pub pipeline_window: usize,
    /// When set, clients drop and re-establish their connection
    /// periodically — the churn that exercises accept/admission paths.
    pub churn: bool,
    /// When set, every load client negotiates tagged framing (protocol
    /// v2) after each connect and drives the v2 path. The scraper stays
    /// v1 — it is the compatibility witness. Each negotiation is one
    /// server-counted `Hello` request, folded into reconciliation via
    /// [`ClientTotals::negotiations`].
    pub tagged: bool,
    /// Side length of the synthetic square test images.
    pub image_side: usize,
    /// Images per batch request.
    pub batch: usize,
    /// Interval between metrics scrapes.
    pub scrape_interval: Duration,
    /// Anomaly threshold: flagged when hard errors (server-side failures
    /// plus transport errors) exceed this fraction of attempts.
    pub max_error_rate: f64,
    /// Anomaly threshold: flagged when typed rejections (busy + timeout)
    /// exceed this fraction of attempts. Storm tests raise it on
    /// purpose; a clean soak should stay near zero.
    pub max_reject_rate: f64,
}

impl LoadgenConfig {
    /// A moderate default shape against `addr`: 4 clients, 10 s, window
    /// of 4 on the pipelined half, no churn, 32×32 images in pairs, 1 s
    /// scrapes, 1% error and 5% rejection budgets.
    pub fn new(addr: SocketAddr) -> Self {
        LoadgenConfig {
            addr,
            clients: 4,
            duration: Duration::from_secs(10),
            pipeline_window: 4,
            churn: false,
            tagged: false,
            image_side: 32,
            batch: 2,
            scrape_interval: Duration::from_secs(1),
            max_error_rate: 0.01,
            max_reject_rate: 0.05,
        }
    }
}

/// One client's (or the merged fleet's) outcome tally.
#[derive(Debug, Default, Clone)]
pub struct ClientTotals {
    /// Requests answered with exactly the reply the local codec predicts.
    pub ok: u64,
    /// Requests answered with a reply of the wrong kind or with bytes
    /// that differ from the local codec's. The server counted them, so
    /// reconciliation expects them; they are never `ok`.
    pub mismatch: u64,
    /// Typed busy rejections (connection admission).
    pub busy: u64,
    /// Typed deadline rejections.
    pub timeout: u64,
    /// Server-side failures delivered as typed error frames.
    pub error: u64,
    /// Transport/protocol failures — requests whose fate is unknowable.
    pub io_error: u64,
    /// Deliberate reconnects performed (churn).
    pub reconnects: u64,
    /// `Hello` negotiations performed (tagged mode). Each one is a
    /// server-counted request that is not a client-tallied outcome, so
    /// reconciliation adds these to the expected request delta.
    pub negotiations: u64,
    /// Extra server-counted requests from batches split across tags in
    /// tagged pipelines (`parts − 1` per split batch; the client tallies
    /// the whole batch as one outcome). Reconciled like `negotiations`.
    pub split_parts: u64,
    /// Request bodies re-sent by reconnect+replay. Against a sharded
    /// front end each replayed copy is counted as a fresh forwarded
    /// request, so reconciliation adds these to the expected delta —
    /// and widens the slack band by the same amount, because the
    /// *original* copy of a replayed frame may or may not have been
    /// read before the connection died (see `docs/SHARDING.md`).
    pub replays: u64,
    /// Serial clients' per-request wall latencies, nanoseconds.
    pub latency_ns: Vec<u64>,
}

impl ClientTotals {
    /// Requests attempted, however they ended.
    pub fn attempts(&self) -> u64 {
        self.ok + self.mismatch + self.busy + self.timeout + self.error + self.io_error
    }

    fn absorb(&mut self, other: ClientTotals) {
        self.ok += other.ok;
        self.mismatch += other.mismatch;
        self.busy += other.busy;
        self.timeout += other.timeout;
        self.error += other.error;
        self.io_error += other.io_error;
        self.reconnects += other.reconnects;
        self.negotiations += other.negotiations;
        self.split_parts += other.split_parts;
        self.replays += other.replays;
        self.latency_ns.extend(other.latency_ns);
    }

    /// Tallies one serial request: `Ok(true)` is a verified reply, whose
    /// latency is recorded; `Ok(false)` is a mismatch.
    fn tally(&mut self, outcome: Result<bool, ServeError>, elapsed_ns: u64) {
        match outcome {
            Ok(true) => {
                self.ok += 1;
                self.latency_ns.push(elapsed_ns);
            }
            Ok(false) => self.mismatch += 1,
            Err(e) => self.tally_err(&e),
        }
    }

    fn tally_err(&mut self, e: &ServeError) {
        match e {
            ServeError::Busy(_) => self.busy += 1,
            ServeError::Timeout(_) => self.timeout += 1,
            ServeError::Remote(_) => self.error += 1,
            _ => self.io_error += 1,
        }
    }
}

/// The server-side view of the run, distilled from the scrape series.
#[derive(Debug, Default, Clone)]
pub struct ServerWindow {
    /// `deepn_serve_requests_total` growth across the window.
    pub requests_delta: Option<f64>,
    /// `deepn_serve_connections_rejected_total` growth.
    pub rejected_delta: Option<f64>,
    /// `deepn_serve_requests_timed_out_total` growth.
    pub timed_out_delta: Option<f64>,
    /// `deepn_serve_bytes_in_total` growth.
    pub bytes_in_delta: Option<f64>,
    /// `deepn_serve_bytes_out_total` growth.
    pub bytes_out_delta: Option<f64>,
    /// `(min, max)` of `deepn_serve_active_connections` across scrapes.
    pub active_envelope: Option<(f64, f64)>,
    /// Window mean of `deepn_serve_request_seconds`, seconds.
    pub request_mean_s: Option<f64>,
    /// Window p50 of `deepn_serve_request_seconds`, seconds.
    pub request_p50_s: Option<f64>,
    /// Window p90 of `deepn_serve_request_seconds`, seconds.
    pub request_p90_s: Option<f64>,
    /// Window p99 of `deepn_serve_request_seconds`, seconds.
    pub request_p99_s: Option<f64>,
    /// Per-interval request deltas — the stall detector's input.
    pub interval_requests: Vec<f64>,
}

/// Everything a loadgen run produced: fleet totals, the server-side
/// window summary, anomaly flags, and the JSON report writer.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The shape the run was configured with.
    pub clients: usize,
    /// Pipelined-client window (0 = all serial).
    pub pipeline_window: usize,
    /// Whether churn was enabled.
    pub churn: bool,
    /// Whether load clients drove tagged framing (protocol v2).
    pub tagged: bool,
    /// Measured load-phase wall time, seconds.
    pub duration_secs: f64,
    /// Merged client-side outcome tally.
    pub totals: ClientTotals,
    /// Successful requests per second over the load phase.
    pub rps: f64,
    /// Load clients that died to a panic (always an anomaly).
    pub worker_panics: u64,
    /// Successful metrics scrapes (including the pre/post fences).
    pub scrapes: usize,
    /// Scrapes rejected busy.
    pub scraper_busy: u64,
    /// Scrapes that failed outright.
    pub scrape_failures: u64,
    /// Server-side counter deltas and window percentiles.
    pub server: ServerWindow,
    /// Human-readable anomaly flags; empty means the run was clean.
    pub anomalies: Vec<String>,
}

impl LoadReport {
    /// Whether the run violated any anomaly threshold — the CLI's exit
    /// status.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Renders the report as a `BENCH_*.json`-compatible document: the
    /// client latency distribution as a bench-shaped entry plus the
    /// soak accounting under `loadgen_summary`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut sorted = self.totals.latency_ns.clone();
        sorted.sort_unstable();
        out.push_str("  \"loadgen/serial_request\": ");
        out.push_str(&bench_entry(&sorted));
        out.push_str(",\n  \"loadgen_summary\": {\n");
        out.push_str(&format!("    \"clients\": {},\n", self.clients));
        out.push_str(&format!(
            "    \"pipeline_window\": {},\n",
            self.pipeline_window
        ));
        out.push_str(&format!("    \"churn\": {},\n", self.churn));
        out.push_str(&format!("    \"tagged\": {},\n", self.tagged));
        out.push_str(&format!(
            "    \"duration_secs\": {},\n",
            json_f64(self.duration_secs)
        ));
        out.push_str(&format!("    \"requests_ok\": {},\n", self.totals.ok));
        out.push_str(&format!(
            "    \"requests_mismatch\": {},\n",
            self.totals.mismatch
        ));
        out.push_str(&format!("    \"requests_busy\": {},\n", self.totals.busy));
        out.push_str(&format!(
            "    \"requests_timeout\": {},\n",
            self.totals.timeout
        ));
        out.push_str(&format!("    \"requests_error\": {},\n", self.totals.error));
        out.push_str(&format!(
            "    \"requests_io_error\": {},\n",
            self.totals.io_error
        ));
        out.push_str(&format!(
            "    \"reconnects\": {},\n",
            self.totals.reconnects
        ));
        out.push_str(&format!(
            "    \"negotiations\": {},\n",
            self.totals.negotiations
        ));
        out.push_str(&format!(
            "    \"split_parts\": {},\n",
            self.totals.split_parts
        ));
        out.push_str(&format!("    \"replays\": {},\n", self.totals.replays));
        out.push_str(&format!("    \"worker_panics\": {},\n", self.worker_panics));
        out.push_str(&format!("    \"rps\": {},\n", json_f64(self.rps)));
        out.push_str(&format!("    \"scrapes\": {},\n", self.scrapes));
        out.push_str(&format!("    \"scraper_busy\": {},\n", self.scraper_busy));
        out.push_str(&format!(
            "    \"scrape_failures\": {},\n",
            self.scrape_failures
        ));
        out.push_str("    \"server\": {\n");
        let s = &self.server;
        out.push_str(&format!(
            "      \"requests_delta\": {},\n",
            json_opt(s.requests_delta)
        ));
        out.push_str(&format!(
            "      \"rejected_delta\": {},\n",
            json_opt(s.rejected_delta)
        ));
        out.push_str(&format!(
            "      \"timed_out_delta\": {},\n",
            json_opt(s.timed_out_delta)
        ));
        out.push_str(&format!(
            "      \"bytes_in_delta\": {},\n",
            json_opt(s.bytes_in_delta)
        ));
        out.push_str(&format!(
            "      \"bytes_out_delta\": {},\n",
            json_opt(s.bytes_out_delta)
        ));
        out.push_str(&format!(
            "      \"active_connections_min\": {},\n",
            json_opt(s.active_envelope.map(|(lo, _)| lo))
        ));
        out.push_str(&format!(
            "      \"active_connections_max\": {},\n",
            json_opt(s.active_envelope.map(|(_, hi)| hi))
        ));
        out.push_str(&format!(
            "      \"request_mean_s\": {},\n",
            json_opt(s.request_mean_s)
        ));
        out.push_str(&format!(
            "      \"request_p50_s\": {},\n",
            json_opt(s.request_p50_s)
        ));
        out.push_str(&format!(
            "      \"request_p90_s\": {},\n",
            json_opt(s.request_p90_s)
        ));
        out.push_str(&format!(
            "      \"request_p99_s\": {},\n",
            json_opt(s.request_p99_s)
        ));
        out.push_str("      \"interval_requests\": [");
        for (i, d) in s.interval_requests.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_f64(*d));
        }
        out.push_str("]\n    },\n");
        out.push_str("    \"anomalies\": [");
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&escape_json(a));
            out.push('"');
        }
        out.push_str("]\n  }\n}\n");
        out
    }
}

/// Renders one bench-shaped JSON entry from sorted latency samples.
fn bench_entry(sorted_ns: &[u64]) -> String {
    let n = sorted_ns.len();
    if n == 0 {
        return "{\"mean_ns\": 0.0, \"std_dev_ns\": 0.0, \"ci95_ns\": 0.0, \
                \"median_ns\": 0.0, \"min_ns\": 0.0, \"max_ns\": 0.0, \
                \"samples\": 0, \"retained\": 0}"
            .to_string();
    }
    let mean = sorted_ns.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    let var = sorted_ns
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    let std_dev = var.sqrt();
    let ci95 = 1.96 * std_dev / (n as f64).sqrt();
    let median = if n % 2 == 1 {
        sorted_ns[n / 2] as f64
    } else {
        (sorted_ns[n / 2 - 1] as f64 + sorted_ns[n / 2] as f64) / 2.0
    };
    format!(
        "{{\"mean_ns\": {}, \"std_dev_ns\": {}, \"ci95_ns\": {}, \
         \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
         \"samples\": {n}, \"retained\": {n}}}",
        json_f64(mean),
        json_f64(std_dev),
        json_f64(ci95),
        json_f64(median),
        json_f64(sorted_ns[0] as f64),
        json_f64(sorted_ns[n - 1] as f64),
    )
}

/// JSON number formatting: finite, with a decimal point so the value
/// reads back as a float.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// What the scraper thread brings home.
struct ScrapeLog {
    scrapes: Vec<(u64, String)>,
    busy: u64,
    failures: u64,
}

/// The load mix — request `i` of every client is op `i % 4` of ping,
/// `EncodeBatch(images)`, `DecodeBatch(blobs)`, stats — and the replies
/// the local codec predicts for it.
#[derive(Debug)]
struct Workload {
    /// One distinct image per batch slot, so swapped items cannot match.
    images: Vec<RgbImage>,
    /// The images encoded locally at quality 75: the decode payloads.
    blobs: Vec<Vec<u8>>,
    /// The expected `EncodeBatch(images)` reply.
    encoded: Vec<Vec<u8>>,
    /// The expected `DecodeBatch(blobs)` reply.
    decoded: Vec<RgbImage>,
}

impl Workload {
    /// The mix for `batch` images of `side`×`side`, predicted for a
    /// service that encodes with `served` tables and, as every
    /// `EncodeBatch` does, optimized Huffman.
    fn new(side: usize, batch: usize, served: QuantTablePair) -> Result<Workload, CodecError> {
        let images: Vec<RgbImage> = (0..batch).map(|slot| slot_image(side, slot)).collect();
        let encode = |tables| -> Result<Vec<Vec<u8>>, CodecError> {
            let encoder = Encoder::with_tables(tables);
            images.iter().map(|img| encoder.encode(img)).collect()
        };
        let blobs = encode(QuantTablePair::standard(75))?;
        let encoded = encode(served)?;
        let decoder = Decoder::new();
        let decoded = blobs
            .iter()
            .map(|b| decoder.decode(b))
            .collect::<Result<_, _>>()?;
        Ok(Workload {
            images,
            blobs,
            encoded,
            decoded,
        })
    }

    /// Whether `reply` is exactly what a correct service answers to
    /// request `i` of the mix: the right kind and the predicted bytes.
    fn matches(&self, i: u64, reply: &PipelineReply) -> bool {
        match (i % 4, reply) {
            (0, PipelineReply::Pong) | (3, PipelineReply::Stats(_)) => true,
            (1, PipelineReply::Encoded(blobs)) => *blobs == self.encoded,
            (2, PipelineReply::Decoded(images)) => *images == self.decoded,
            _ => false,
        }
    }
}

/// Batch slot `slot`'s image: the gradient with a blue level of its own.
fn slot_image(side: usize, slot: usize) -> RgbImage {
    let mut img = RgbImage::gradient(side, side);
    let blue = (slot as u8).wrapping_mul(53).wrapping_add(128);
    for px in img.as_bytes_mut().chunks_exact_mut(3) {
        px[2] = blue;
    }
    img
}

/// The tables the service encodes with, read off its reply to one
/// `EncodeBatch`. It travels on a short-lived connection: the scraper's
/// carries only `Metrics`, which a sharded front answers itself, so it
/// holds no backend link that a mid-storm kill could tear down.
fn served_tables(addr: SocketAddr, image: RgbImage) -> Result<QuantTablePair, ServeError> {
    let reply = Client::connect_retry(addr, Duration::from_secs(5))?.encode_batch(&[image])?;
    match reply
        .first()
        .map(|stream| Decoder::new().read_quant_tables(stream))
    {
        Some(Ok([Some(luma), Some(chroma)])) => Ok(QuantTablePair { luma, chroma }),
        _ => Err(ServeError::Protocol(
            "served stream carries no luma and chroma tables".into(),
        )),
    }
}

/// Runs a whole load/soak session against a live server: learns the
/// served tables, takes a fenced first scrape, runs `config.clients`
/// concurrent load clients for `config.duration` with periodic scrapes
/// throughout, takes a fenced final scrape, then reconciles and flags
/// anomalies.
///
/// # Errors
///
/// Setup failures only — an unreachable server, a served stream without
/// quantization tables, or an un-encodable test image. Load-phase
/// failures are *data* (counted per category in the report), never
/// errors.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, ServeError> {
    let clients = config.clients.max(1);
    let side = config.image_side.max(8);
    let tables = served_tables(config.addr, slot_image(side, 0))?;
    let work = Workload::new(side, config.batch.max(1), tables)
        .map_err(|e| ServeError::Remote(format!("test image encode failed: {e}")))?;
    let work = Arc::new(work);

    // The first scrape is a fence: it happens before any load request,
    // so the series' first sample is the window's "before" state. The
    // tables' connection may hold its admission slot a moment longer, so
    // busy rejections here, outside the window, are retried.
    let mut scrape_client = Client::connect_retry(config.addr, Duration::from_secs(5))?;
    let mut first = scrape_client.metrics();
    for _ in 0..20 {
        if !matches!(first, Err(ServeError::Busy(_))) {
            break;
        }
        thread::sleep(Duration::from_millis(50));
        first = scrape_client.metrics();
    }
    let first_scrape = (deepn_trace::tick(), first?);
    log::info("loadgen_start")
        .field("addr", config.addr)
        .field("clients", clients)
        .field("duration_secs", config.duration.as_secs_f64())
        .field("pipeline_window", config.pipeline_window)
        .field("churn", config.churn)
        .field("tagged", config.tagged)
        .emit();

    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let done = Arc::clone(&done);
        let interval = config.scrape_interval.max(Duration::from_millis(50));
        thread::spawn(move || scraper_loop(scrape_client, first_scrape, &done, interval))
    };

    let start_ns = deepn_trace::tick();
    let deadline_ns = start_ns + config.duration.as_nanos() as u64;
    let mut workers = Vec::with_capacity(clients);
    for index in 0..clients {
        let cfg = config.clone();
        let work = Arc::clone(&work);
        workers.push(thread::spawn(move || {
            let pipelined = cfg.pipeline_window > 0 && index % 2 == 1;
            // Distinct per-client routing keys so a tagged storm against
            // a sharded front end spreads across every backend instead
            // of pinning the whole fleet's load to one table's shard.
            let routing_key = splitmix64(index as u64 + 1);
            if pipelined {
                pipelined_worker(&cfg, &work, deadline_ns, routing_key)
            } else {
                serial_worker(&cfg, &work, deadline_ns, routing_key)
            }
        }));
    }

    let mut totals = ClientTotals::default();
    let mut worker_panics = 0u64;
    for w in workers {
        match w.join() {
            Ok(t) => totals.absorb(t),
            Err(_) => worker_panics += 1,
        }
    }
    let measured_secs = (deepn_trace::tick().saturating_sub(start_ns)) as f64 / 1e9;
    // Workers are all done: the scraper takes its fenced final scrape
    // and exits.
    done.store(true, Ordering::SeqCst);
    let scrape_log = match scraper.join() {
        Ok(log) => log,
        Err(_) => ScrapeLog {
            scrapes: Vec::new(),
            busy: 0,
            failures: 1,
        },
    };

    let mut series = MetricsSeries::new();
    let mut scrape_failures = scrape_log.failures;
    for (at, text) in &scrape_log.scrapes {
        if series.push(*at, text).is_err() {
            scrape_failures += 1;
        }
    }

    let report = analyze(
        config,
        clients,
        measured_secs,
        totals,
        worker_panics,
        &series,
        scrape_log.busy,
        scrape_failures,
    );
    log::info("loadgen_done")
        .field("ok", report.totals.ok)
        .field("mismatch", report.totals.mismatch)
        .field("busy", report.totals.busy)
        .field("timeout", report.totals.timeout)
        .field("error", report.totals.error + report.totals.io_error)
        .field("rps", format!("{:.1}", report.rps))
        .field("anomalies", report.anomalies.len())
        .emit();
    Ok(report)
}

/// Builds the report: server window distillation, reconciliation, and
/// anomaly flags.
#[allow(clippy::too_many_arguments)]
fn analyze(
    config: &LoadgenConfig,
    clients: usize,
    duration_secs: f64,
    totals: ClientTotals,
    worker_panics: u64,
    series: &MetricsSeries,
    scraper_busy: u64,
    scrape_failures: u64,
) -> LoadReport {
    let server = ServerWindow {
        requests_delta: series.counter_delta("deepn_serve_requests_total"),
        rejected_delta: series.counter_delta("deepn_serve_connections_rejected_total"),
        timed_out_delta: series.counter_delta("deepn_serve_requests_timed_out_total"),
        bytes_in_delta: series.counter_delta("deepn_serve_bytes_in_total"),
        bytes_out_delta: series.counter_delta("deepn_serve_bytes_out_total"),
        active_envelope: series.gauge_envelope("deepn_serve_active_connections"),
        request_mean_s: series.histogram_delta_mean("deepn_serve_request_seconds"),
        request_p50_s: series.histogram_delta_quantile("deepn_serve_request_seconds", 0.5),
        request_p90_s: series.histogram_delta_quantile("deepn_serve_request_seconds", 0.9),
        request_p99_s: series.histogram_delta_quantile("deepn_serve_request_seconds", 0.99),
        interval_requests: series.counter_interval_deltas("deepn_serve_requests_total"),
    };

    let mut anomalies = Vec::new();
    let attempts = totals.attempts();
    if totals.ok == 0 {
        anomalies.push("zero_throughput: no request completed successfully".to_string());
    }
    if worker_panics > 0 {
        anomalies.push(format!(
            "worker_panics: {worker_panics} load client(s) died"
        ));
    }
    if totals.mismatch > 0 {
        anomalies.push(format!(
            "reply_mismatch: {} of {attempts} replies differ from the local codec",
            totals.mismatch
        ));
    }
    if attempts > 0 {
        let hard = (totals.error + totals.io_error) as f64 / attempts as f64;
        if hard > config.max_error_rate {
            anomalies.push(format!(
                "error_rate: {:.4} of {attempts} attempts failed hard (budget {:.4})",
                hard, config.max_error_rate
            ));
        }
        let rejected = (totals.busy + totals.timeout) as f64 / attempts as f64;
        if rejected > config.max_reject_rate {
            anomalies.push(format!(
                "reject_rate: {:.4} of {attempts} attempts were rejected busy/timeout \
                 (budget {:.4})",
                rejected, config.max_reject_rate
            ));
        }
    }
    // Throughput stall: an interior scrape interval in which the server
    // counted nothing at all while load clients were live.
    let interior = server.interval_requests.len().saturating_sub(1);
    if interior >= 2 {
        let stalled = server.interval_requests[..interior]
            .iter()
            .filter(|&&d| d <= 0.0)
            .count();
        if stalled > 0 {
            anomalies.push(format!(
                "throughput_stall: {stalled} of {interior} scrape interval(s) saw zero requests"
            ));
        }
    }
    if series.len() >= 2 {
        // Reconciliation: every non-busy client outcome, every replayed
        // frame, and every mid-window scrape is one server-counted
        // request. `value_at` sums across label sets, so against a
        // sharded front end `requests_delta` is already the fleet-wide
        // total. Honest slack: transport errors (fate unknowable), plus
        // one per replay — the *original* copy of a replayed frame may
        // or may not have been read before its connection died (see
        // `docs/SHARDING.md`; both terms are 0 in a clean run, keeping
        // single-server reconciliation exact).
        if let Some(requests_delta) = server.requests_delta {
            let expected = (totals.ok
                + totals.mismatch
                + totals.timeout
                + totals.error
                + totals.negotiations
                + totals.split_parts
                + totals.replays) as f64
                + (series.len() as f64 - 1.0);
            let slack = (totals.io_error + totals.replays) as f64;
            if (requests_delta - expected).abs() > slack {
                anomalies.push(format!(
                    "reconcile_mismatch: server counted {requests_delta} requests in the \
                     window but clients account for {expected} (± {} io, ± {} replay)",
                    totals.io_error, totals.replays
                ));
            }
        }
        if let Some(rejected_delta) = server.rejected_delta {
            let client_busy = (totals.busy + scraper_busy) as f64;
            if rejected_delta < client_busy {
                anomalies.push(format!(
                    "reconcile_mismatch: clients saw {client_busy} busy rejections but the \
                     server counted only {rejected_delta}"
                ));
            }
        }
    } else {
        anomalies.push(format!(
            "scrape_starvation: only {} scrape(s) landed; no server-side window",
            series.len()
        ));
    }
    if scrape_failures > 0 {
        anomalies.push(format!(
            "scrape_failures: {scrape_failures} scrape(s) failed outright"
        ));
    }

    let rps = if duration_secs > 0.0 {
        totals.ok as f64 / duration_secs
    } else {
        0.0
    };
    LoadReport {
        clients,
        pipeline_window: config.pipeline_window,
        churn: config.churn,
        tagged: config.tagged,
        duration_secs,
        totals,
        rps,
        worker_panics,
        scrapes: series.len(),
        scraper_busy,
        scrape_failures,
        server,
        anomalies,
    }
}

/// The scraper thread: periodic mid-window scrapes, then one fenced
/// final scrape (retried through a storm) once the load phase is done.
fn scraper_loop(
    mut client: Client,
    first: (u64, String),
    done: &AtomicBool,
    interval: Duration,
) -> ScrapeLog {
    let mut log = ScrapeLog {
        scrapes: vec![first],
        busy: 0,
        failures: 0,
    };
    const SLICE: Duration = Duration::from_millis(20);
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval && !done.load(Ordering::SeqCst) {
            thread::sleep(SLICE);
            waited += SLICE;
        }
        if done.load(Ordering::SeqCst) {
            // The final fence: workers have joined, so this scrape must
            // see every load request. Retry through lingering busyness.
            for attempt in 0..20 {
                match client.metrics() {
                    Ok(text) => {
                        log.scrapes.push((deepn_trace::tick(), text));
                        return log;
                    }
                    Err(ServeError::Busy(_)) => log.busy += 1,
                    Err(_) if attempt + 1 < 20 => {}
                    Err(_) => log.failures += 1,
                }
                thread::sleep(Duration::from_millis(50));
            }
            return log;
        }
        match client.metrics() {
            Ok(text) => log.scrapes.push((deepn_trace::tick(), text)),
            Err(ServeError::Busy(_)) => log.busy += 1,
            Err(_) => log.failures += 1,
        }
    }
}

/// How often churning clients tear their connection down, in requests.
const CHURN_EVERY: u64 = 32;

/// Folds a retiring (or finished) client's cumulative reconciliation
/// counters — `Hello` negotiations and tag-split extras — into the
/// worker's totals. Must run exactly once per client, before it is
/// replaced or dropped.
fn harvest(client: &Client, t: &mut ClientTotals) {
    t.negotiations += client.hellos_sent();
    t.split_parts += client.split_requests();
    t.replays += client.replays();
}

/// SplitMix64 — the statelessly seedable mixer used for per-client
/// routing keys (the hash-ring in `deepn-front` uses the same finalizer,
/// so key spread is uniform on its point space).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Negotiates tagged framing on a freshly connected load client when the
/// run asks for it, advertising the worker's routing key in the `Hello`.
/// A negotiation failure is tallied (the transport-error slack covers the
/// `Hello`'s unknowable fate); `want_tagged` stays sticky, so the client
/// re-negotiates on its next reconnect.
fn upgrade_if_tagged(cfg: &LoadgenConfig, client: &mut Client, t: &mut ClientTotals, key: u64) {
    if cfg.tagged {
        client.set_table_fingerprint(key);
        if let Err(e) = client.upgrade_tagged() {
            t.tally_err(&e);
        }
    }
}

/// A serial load client: one request at a time, mixed ops, every reply
/// checked against the workload, latency recorded for verified replies.
fn serial_worker(
    cfg: &LoadgenConfig,
    work: &Workload,
    deadline_ns: u64,
    routing_key: u64,
) -> ClientTotals {
    let mut t = ClientTotals::default();
    let mut client = match Client::connect_retry(cfg.addr, Duration::from_secs(2)) {
        Ok(c) => c,
        Err(e) => {
            t.tally_err(&e);
            return t;
        }
    };
    upgrade_if_tagged(cfg, &mut client, &mut t, routing_key);
    let mut i = 0u64;
    while deepn_trace::tick() < deadline_ns {
        if cfg.churn && i > 0 && i.is_multiple_of(CHURN_EVERY) {
            if let Ok(fresh) = Client::connect(cfg.addr) {
                harvest(&client, &mut t);
                client = fresh;
                t.reconnects += 1;
                upgrade_if_tagged(cfg, &mut client, &mut t, routing_key);
            }
        }
        let t0 = deepn_trace::tick();
        let outcome = match i % 4 {
            0 => client.ping().map(|()| PipelineReply::Pong),
            1 => client
                .encode_batch(&work.images)
                .map(PipelineReply::Encoded),
            2 => client.decode_batch(&work.blobs).map(PipelineReply::Decoded),
            _ => client.stats().map(PipelineReply::Stats),
        };
        // The latency ends at the reply; the check is not part of it.
        let elapsed_ns = deepn_trace::tick().saturating_sub(t0);
        let rejected = matches!(outcome, Err(ServeError::Busy(_) | ServeError::Io(_)));
        t.tally(outcome.map(|reply| work.matches(i, &reply)), elapsed_ns);
        if rejected {
            // Back off a beat so a storm rejects at a bounded rate
            // instead of hammering the accept queue in a tight loop.
            thread::sleep(Duration::from_millis(2));
        }
        i += 1;
    }
    harvest(&client, &mut t);
    t
}

/// A pipelined load client: submits a full window of mixed ops, then
/// drains and checks it, reconnecting when the pipeline dies.
fn pipelined_worker(
    cfg: &LoadgenConfig,
    work: &Workload,
    deadline_ns: u64,
    routing_key: u64,
) -> ClientTotals {
    let mut t = ClientTotals::default();
    let mut client = match Client::connect_retry(cfg.addr, Duration::from_secs(2)) {
        Ok(c) => c,
        Err(e) => {
            t.tally_err(&e);
            return t;
        }
    };
    upgrade_if_tagged(cfg, &mut client, &mut t, routing_key);
    let window = cfg.pipeline_window.max(1);
    let mut round = 0u64;
    while deepn_trace::tick() < deadline_ns {
        if cfg.churn && round > 0 && (round * window as u64).is_multiple_of(CHURN_EVERY) {
            if let Ok(fresh) = Client::connect(cfg.addr) {
                harvest(&client, &mut t);
                client = fresh;
                t.reconnects += 1;
                upgrade_if_tagged(cfg, &mut client, &mut t, routing_key);
            }
        }
        let mut fatal = false;
        {
            let mut p = client.pipeline(window);
            let mut submitted = 0usize;
            for j in 0..window {
                let sub = match j % 4 {
                    0 => p.submit_ping(),
                    1 => p.submit_encode_batch(&work.images),
                    2 => p.submit_decode_batch(&work.blobs),
                    _ => p.submit_stats(),
                };
                match sub {
                    Ok(()) => submitted += 1,
                    Err(e) => {
                        t.tally_err(&e);
                        fatal = true;
                        break;
                    }
                }
            }
            // Drain every submitted request; replies arrive in submission
            // order. A fatal transport error strands the rest of the
            // window as unknowable io errors.
            let mut drained = 0usize;
            while drained < submitted && p.pending() > 0 {
                match p.recv() {
                    Ok(reply) => {
                        if work.matches(drained as u64, &reply) {
                            t.ok += 1;
                        } else {
                            t.mismatch += 1;
                        }
                        drained += 1;
                    }
                    Err(e @ (ServeError::Io(_) | ServeError::Protocol(_))) => {
                        t.tally_err(&e);
                        t.io_error += (submitted - drained - 1) as u64;
                        fatal = true;
                        break;
                    }
                    Err(e) => {
                        t.tally_err(&e);
                        drained += 1;
                    }
                }
            }
        }
        if fatal {
            // The pipeline died; its connection is torn down. Start
            // fresh, pacing the retry like the serial rejection path.
            thread::sleep(Duration::from_millis(2));
            if let Ok(fresh) = Client::connect(cfg.addr) {
                harvest(&client, &mut t);
                client = fresh;
                upgrade_if_tagged(cfg, &mut client, &mut t, routing_key);
            }
        }
        round += 1;
    }
    harvest(&client, &mut t);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_merge_and_classify() {
        let mut a = ClientTotals::default();
        a.tally(Ok(true), 1_000);
        a.tally(Ok(false), 0);
        a.tally(Err(ServeError::Busy("b".into())), 0);
        a.tally(Err(ServeError::Timeout("t".into())), 0);
        a.tally(Err(ServeError::Remote("r".into())), 0);
        a.tally(
            Err(ServeError::Io(std::io::ErrorKind::BrokenPipe.into())),
            0,
        );
        assert_eq!(
            (a.ok, a.mismatch, a.busy, a.timeout, a.error, a.io_error),
            (1, 1, 1, 1, 1, 1)
        );
        assert_eq!(a.attempts(), 6);
        let mut b = ClientTotals::default();
        b.tally(Ok(true), 2_000);
        b.absorb(a);
        assert_eq!((b.ok, b.mismatch), (2, 1));
        assert_eq!(b.latency_ns, vec![2_000, 1_000]);
    }

    #[test]
    fn only_the_local_codec_reply_counts_as_ok() {
        let work = Workload::new(16, 2, QuantTablePair::standard(70)).expect("workload");
        assert_ne!(work.images[0], work.images[1], "batch slots must differ");
        let tally = |replies: Vec<(u64, PipelineReply)>| {
            let mut t = ClientTotals::default();
            for (i, reply) in replies {
                t.tally(Ok(work.matches(i, &reply)), 0);
            }
            t
        };

        let exact = tally(vec![
            (0, PipelineReply::Pong),
            (1, PipelineReply::Encoded(work.encoded.clone())),
            (2, PipelineReply::Decoded(work.decoded.clone())),
        ]);
        assert_eq!((exact.ok, exact.mismatch), (3, 0));

        let mut flipped_stream = work.encoded.clone();
        let last = flipped_stream[1].len() - 3;
        flipped_stream[1][last] ^= 0x01;
        let mut flipped_pixel = work.decoded.clone();
        flipped_pixel[0].as_bytes_mut()[5] ^= 0x01;
        let mut swapped = work.encoded.clone();
        swapped.swap(0, 1);
        let wrong = tally(vec![
            (1, PipelineReply::Encoded(flipped_stream.clone())),
            (2, PipelineReply::Decoded(flipped_pixel)),
            (1, PipelineReply::Encoded(swapped)),
            (1, PipelineReply::Pong),
            (2, PipelineReply::Encoded(work.encoded.clone())),
        ]);
        assert_eq!(
            (wrong.ok, wrong.mismatch),
            (0, 5),
            "each wrong reply is a mismatch"
        );

        // A run that reconciles exactly and is clean but for one flipped
        // stream: the server counted all four replies plus one scrape.
        let mut run = exact.clone();
        run.absorb(tally(vec![(1, PipelineReply::Encoded(flipped_stream))]));
        let scrape = |n: u64| {
            format!(
                "# HELP deepn_serve_requests_total r\n\
                 # TYPE deepn_serve_requests_total counter\n\
                 deepn_serve_requests_total {n}\n"
            )
        };
        let mut series = MetricsSeries::new();
        series.push(0, &scrape(10)).expect("first scrape");
        series.push(1, &scrape(15)).expect("last scrape");
        let config = LoadgenConfig::new("127.0.0.1:1".parse().map_err(|_| ()).expect("addr"));
        let report = analyze(&config, 1, 1.0, run, 0, &series, 0, 0);
        assert_eq!(report.totals.mismatch, 1);
        assert!(!report.is_clean(), "a mismatched reply must fail the run");
        assert_eq!(
            report.anomalies.len(),
            1,
            "reply_mismatch only: {:?}",
            report.anomalies
        );
        assert!(report.anomalies[0].starts_with("reply_mismatch"));
    }

    #[test]
    fn bench_entry_matches_bench_shape() {
        let entry = bench_entry(&[100, 200, 300, 400]);
        deepn_trace::export::validate_json(&entry).expect("bench entry is JSON");
        assert!(entry.contains("\"mean_ns\": 250.0"), "{entry}");
        assert!(entry.contains("\"median_ns\": 250.0"), "{entry}");
        assert!(entry.contains("\"min_ns\": 100.0"), "{entry}");
        assert!(entry.contains("\"max_ns\": 400.0"), "{entry}");
        assert!(entry.contains("\"samples\": 4"), "{entry}");
        deepn_trace::export::validate_json(&bench_entry(&[])).expect("empty entry is JSON");
    }

    #[test]
    fn error_rate_breach_is_flagged() {
        let config = LoadgenConfig::new("127.0.0.1:1".parse().map_err(|_| ()).expect("addr"));
        let report = analyze(
            &config,
            1,
            1.0,
            ClientTotals {
                ok: 90,
                error: 6,
                io_error: 4,
                latency_ns: vec![1_000; 90],
                ..ClientTotals::default()
            },
            0,
            &MetricsSeries::new(),
            0,
            0,
        );
        // 10 hard failures out of 100 attempts blows the 1% budget.
        assert!(
            report.anomalies.iter().any(|a| a.contains("error_rate")),
            "{:?}",
            report.anomalies
        );
    }

    #[test]
    fn report_json_validates_and_carries_anomalies() {
        let config = LoadgenConfig::new("127.0.0.1:1".parse().map_err(|_| ()).expect("addr"));
        let report = analyze(
            &config,
            2,
            1.5,
            ClientTotals {
                ok: 10,
                busy: 1,
                latency_ns: vec![1_000, 2_000, 3_000],
                ..ClientTotals::default()
            },
            0,
            &MetricsSeries::new(),
            0,
            0,
        );
        // No scrapes landed: that is itself an anomaly, and busy at 1/11
        // attempts breaches the 5% budget.
        assert!(!report.is_clean());
        let json = report.to_json();
        deepn_trace::export::validate_json(&json).expect("report is well-formed JSON");
        assert!(json.contains("\"loadgen/serial_request\""));
        assert!(json.contains("scrape_starvation"), "{json}");
        let parsed = deepn_trace::export::parse_json(&json).expect("parses");
        let summary = parsed.get("loadgen_summary").expect("summary present");
        assert_eq!(
            summary.get("requests_ok").and_then(|v| v.as_f64()),
            Some(10.0)
        );
    }
}
