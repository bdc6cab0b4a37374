//! `deepnbench`: the repository's end-to-end and layer-attributed
//! benchmark of `deepn serve` and `deepn shard`.
//!
//! ```text
//! deepnbench --deepn PATH --work DIR --spec BENCHMARK.json --workload NAME --seed N \
//!     --seconds S --trace 0|1
//! ```
//!
//! Run it through `deepnbench/run.sh`, which builds the release `deepn`
//! binary and this benchmark first. `deepnbench/README.md` explains the
//! workloads, the metrics and the layer map.

mod inputs;
mod layers;
mod load;
mod procs;
mod spans;
mod stats;
mod wire;

use inputs::{Inputs, PoolSpec, SetupTimes, Template};
use layers::CodecLayers;
use load::{ConnReport, Counts, Mix, RequestSource};
use procs::Service;
use spans::Spans;
use stats::{median, quantile_sorted};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::Conn;

/// Set-up is repeated this many times per run and `setup_s` is the
/// median, so one slow process start does not move it.
const SETUP_ROUNDS: usize = 5;

/// Backends of the `deepn shard` fleet the quiet layer matrix starts.
const FLEET_BACKENDS: usize = 2;

/// Target length of one throughput slice of the timed window (printed
/// as a diagnostic).
const SLICE_SECS: f64 = 1.0;

/// Time budget of the in-process codec layer passes (traced runs).
const CODEC_BUDGET: Duration = Duration::from_millis(2500);

/// Time budget of each quiet round-trip row of the layer matrix.
const QUIET_BUDGET: Duration = Duration::from_millis(600);

/// One workload: inputs and connection shape. Every workload is closed
/// loop against one `deepn serve`.
struct Workload {
    name: &'static str,
    pool: PoolSpec,
    conns: usize,
    tagged: bool,
    /// Requests each connection keeps in flight.
    window: usize,
    mix: Mix,
    /// Verified requests per connection before the timed window.
    warmup: u64,
}

const SMALL: PoolSpec = PoolSpec {
    side: 32,
    per_class: 6,
    batch: 4,
    templates: 64,
};

const LARGE: PoolSpec = PoolSpec {
    side: 256,
    per_class: 1,
    batch: 1,
    templates: 10,
};

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "small_burst",
        pool: SMALL,
        conns: 2,
        tagged: true,
        window: 8,
        mix: Mix::EncodesPerDecode(3),
        warmup: 64,
    },
    Workload {
        name: "large_encode",
        pool: LARGE,
        conns: 1,
        tagged: false,
        window: 1,
        mix: Mix::EncodeOnly,
        warmup: 4,
    },
];

/// The metric lists of `BENCHMARK.json`: (name, unit) in file order.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_spec(path: &Path) -> Result<Spec, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = deepn_trace::export::parse_json(&text)?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let bad = || format!("{}: bad {key:?} list", path.display());
        json.get(key)
            .and_then(|v| v.as_arr())
            .ok_or_else(bad)?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                field("name").zip(field("unit")).ok_or_else(bad)
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

struct Args {
    deepn: PathBuf,
    work: PathBuf,
    spec: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let bad = |flag: &str, v: &str| format!("invalid {flag} {v:?}");
    let seed = get("--seed")?;
    let seconds = get("--seconds")?;
    let trace = get("--trace")?;
    let args = Args {
        deepn: PathBuf::from(get("--deepn")?),
        work: PathBuf::from(get("--work")?),
        spec: PathBuf::from(get("--spec")?),
        workload: get("--workload")?,
        seed: seed.parse().map_err(|_| bad("--seed", &seed))?,
        seconds: seconds.parse().map_err(|_| bad("--seconds", &seconds))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace", &trace)),
        },
    };
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(bad("--seconds", &seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before any thread starts and before the codec pool is first used.
    for var in procs::SERVICE_ENV {
        std::env::remove_var(var);
    }
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("deepnbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A service with its open load connections.
struct Live {
    svc: Service,
    conns: Vec<Conn>,
}

impl Live {
    fn stop(self) -> Result<(), Box<dyn Error>> {
        drop(self.conns);
        Ok(self.svc.stop()?)
    }
}

/// Opens `n` tagged connections to a fresh fleet, each on a backend of
/// its own while backends last: the front routes its `k`th accepted
/// connection by `splitmix64(k)` on its public consistent-hash ring, so
/// connections that would share a backend are opened and closed first.
fn fleet_conns(svc: &Service, n: usize) -> Result<Vec<Conn>, Box<dyn Error>> {
    let ring = deepn_front::Ring::with_shards(64, FLEET_BACKENDS as u32);
    let mut used = Vec::new();
    let mut conns = Vec::with_capacity(n);
    let mut accepted = 0;
    while conns.len() < n {
        accepted += 1;
        let shard = ring.route(deepn_front::splitmix64(accepted));
        if used.contains(&shard) && used.len() < FLEET_BACKENDS {
            drop(Conn::connect(svc.addr)?);
            continue;
        }
        used.push(shard);
        conns.push(Conn::connect_tagged(svc.addr)?);
    }
    Ok(conns)
}

/// Sends the workload's warm-up count of verified requests on every
/// connection, closed-loop.
fn warm_up(w: &Workload, live: &mut Live, inputs: &Inputs, seed: u64) -> Counts {
    let mut counts = Counts::default();
    for (i, conn) in live.conns.iter_mut().enumerate() {
        let mut src = RequestSource::new(
            &inputs.encode,
            &inputs.decode,
            w.mix,
            seed ^ 0x3A3A ^ i as u64,
        );
        let rep = load::drive(
            conn,
            live.svc.addr,
            &mut src,
            w.window,
            Instant::now() + Duration::from_secs(10),
            w.warmup,
        );
        counts.add(&rep.counts);
    }
    counts
}

/// Timings of one set-up round.
struct Round {
    times: SetupTimes,
    spawn_ms: f64,
    warmup_ms: f64,
    setup_s: f64,
}

/// One complete set-up: inputs, table artifact, service spawn until its
/// readiness line, load connections and warm-up.
fn set_up(
    w: &Workload,
    args: &Args,
    traced: bool,
    spans: &mut Spans,
    warm: &mut Counts,
) -> Result<(Inputs, Live, Round), Box<dyn Error>> {
    let t0 = Instant::now();
    let root = spans.begin("bench.setup", None);
    let tables = args.work.join(format!("{}.tables", w.name));
    let (inputs, times) = inputs::prepare(w.pool, args.seed, &tables, spans, root)?;
    let t = Instant::now();
    let s = spans.begin("serve.spawn_ready", root);
    let tag = if traced { "traced" } else { "untraced" };
    let log = args.work.join(format!("{}-{tag}.log", w.name));
    let svc = Service::serve(&args.deepn, &tables, &log, traced)?;
    spans.end(s);
    let spawn_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let s = spans.begin("bench.warmup", root);
    let conns = (0..w.conns)
        .map(|_| {
            if w.tagged {
                Conn::connect_tagged(svc.addr)
            } else {
                Conn::connect(svc.addr)
            }
        })
        .collect::<Result<_, _>>()?;
    let mut live = Live { svc, conns };
    warm.add(&warm_up(w, &mut live, &inputs, args.seed));
    spans.end(s);
    let warmup_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.end(root);
    let round = Round {
        times,
        spawn_ms,
        warmup_ms,
        setup_s: t0.elapsed().as_secs_f64(),
    };
    Ok((inputs, live, round))
}

/// What one timed window measured.
struct Window {
    counts: Counts,
    /// Seconds from the window's start to its last completion.
    elapsed_s: f64,
    /// Server CPU seconds over the same span.
    server_cpu_s: f64,
    /// Latency of every successful request in ms, ascending.
    latency_ms: Vec<f64>,
    /// Diagnostics: completions per slice, and the median over chunks of
    /// `LATENCY_CHUNK` requests of each chunk's p50 and p99 (ms).
    slice_rps: Vec<f64>,
    chunk_p50_ms: f64,
    chunk_p99_ms: f64,
    /// Mean send-to-reply time, µs.
    rtt_mean_us: f64,
    rss_mb: f64,
    bench_cpu_frac: f64,
    /// Share of the machine's CPU time the hypervisor stole over the
    /// window (diagnostic).
    host_steal_frac: f64,
    series: deepn_trace::prom::MetricsSeries,
}

impl Window {
    fn req_per_s(&self) -> f64 {
        self.counts.ok as f64 / self.elapsed_s
    }

    fn cpu_ms_per_req(&self) -> f64 {
        self.server_cpu_s * 1e3 / self.counts.ok.max(1) as f64
    }

    fn latency_quantile_ms(&self, q: f64) -> f64 {
        quantile_sorted(&self.latency_ms, q)
    }
}

/// Runs the timed window: fence scrape, `seconds` of load, fence scrape.
/// One client thread per connection drives the load; `/proc` is read at
/// the window's start and after every thread has drained.
fn timed_window(
    w: &Workload,
    live: &mut Live,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Window, Box<dyn Error>> {
    let pid = live.svc.pid;
    let addr = live.svc.addr;
    let origin = Instant::now();
    let mut series = deepn_trace::prom::MetricsSeries::new();
    let first = live.conns[0].scrape()?;
    series.push(origin.elapsed().as_nanos() as u64, &first)?;
    let bench0 = procs::cpu_seconds(std::process::id())?;
    let server0 = procs::cpu_seconds(pid)?;
    let steal0 = procs::host_steal_ticks()?;
    let window_span = spans.begin("load.window", None);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let reports: Vec<ConnReport> = std::thread::scope(|sc| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let mut src = RequestSource::new(
                    &inputs.encode,
                    &inputs.decode,
                    w.mix,
                    seed.wrapping_mul(31) ^ (i as u64 + 1),
                );
                let window = w.window;
                sc.spawn(move || load::drive(conn, addr, &mut src, window, end, u64::MAX))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let server_cpu_s = procs::cpu_seconds(pid)? - server0;
    let bench_cpu = procs::cpu_seconds(std::process::id())? - bench0;
    let steal1 = procs::host_steal_ticks()?;
    let last = live.conns[0].scrape()?;
    series.push(origin.elapsed().as_nanos() as u64, &last)?;
    spans.end(window_span);
    let rss_mb = procs::peak_rss_mb(pid)?;

    let mut counts = Counts::default();
    // (completion time, latency in ms) of every successful request.
    let mut done: Vec<(Instant, f64)> = Vec::new();
    let mut rtt_sum = 0.0;
    for (i, rep) in reports.iter().enumerate() {
        counts.add(&rep.counts);
        for s in &rep.samples {
            done.push((s.done, (s.done - s.start).as_secs_f64() * 1e3));
            rtt_sum += (s.done - s.sent).as_secs_f64() * 1e6;
            if spans.enabled() && done.len() <= spans::MAX_REQUEST_SPANS {
                spans.record(
                    "load.request",
                    window_span,
                    ((i as u64) << 40) | s.req,
                    s.start,
                    s.done,
                );
            } else if spans.enabled() {
                spans.dropped += 1;
            }
        }
    }
    done.sort_by_key(|d| d.0);
    let last_done = done.last().map_or(end, |d| d.0);
    let in_order: Vec<f64> = done.iter().map(|d| d.1).collect();
    let slices = (seconds / SLICE_SECS).round().max(1.0) as usize;
    let slice = Duration::from_secs_f64(seconds / slices as f64);
    let slice_rps = (1..=slices)
        .map(|k| {
            let upto = |k: usize| done.partition_point(|d| d.0 < start + slice * k as u32);
            (upto(k) - upto(k - 1)) as f64 / slice.as_secs_f64()
        })
        .collect();
    let mut latency_ms = in_order.clone();
    latency_ms.sort_by(f64::total_cmp);
    Ok(Window {
        counts,
        elapsed_s: (last_done - start).as_secs_f64(),
        server_cpu_s,
        rtt_mean_us: rtt_sum / in_order.len().max(1) as f64,
        chunk_p50_ms: chunked_quantile(&in_order, 0.5),
        chunk_p99_ms: chunked_quantile(&in_order, 0.99),
        latency_ms,
        slice_rps,
        rss_mb,
        bench_cpu_frac: bench_cpu / (seconds * nproc() as f64),
        host_steal_frac: (steal1.0 - steal0.0) / (steal1.1 - steal0.1).max(1.0),
        series,
    })
}

/// Latencies per chunk of the diagnostic percentiles: at least 10
/// samples lie beyond the p99 of each chunk.
const LATENCY_CHUNK: usize = 1000;

/// Diagnostic: the `q`-quantile of latencies in completion order, as the
/// median over consecutive chunks of at least `LATENCY_CHUNK` requests
/// of each chunk's quantile. Printed beside the pooled figure, so stalls
/// confined to a few chunks show as a gap between the two.
fn chunked_quantile(latency: &[f64], q: f64) -> f64 {
    let chunks = (latency.len() / LATENCY_CHUNK).max(1);
    let per = latency.len().div_ceil(chunks).max(1);
    median(
        latency
            .chunks(per)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(f64::total_cmp);
                quantile_sorted(&c, q)
            })
            .collect(),
    )
}

/// Length of each timed window: a traced run splits its time between an
/// untraced and a traced window, so it takes about as long as an
/// untraced run.
fn window_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Single-image `EncodeBatch` requests for the quiet matrix rows.
fn single_templates(inputs: &Inputs) -> Vec<Template> {
    (0..inputs.images.len().min(16))
        .map(|i| inputs::encode_template(&[i], &inputs.images, &inputs.blobs))
        .collect()
}

/// The quiet matrix's wire rows: median round trip per row, requests
/// per row, replies that differ from the oracle, and the front end's CPU
/// seconds over the shard row's blocks.
struct Quiet {
    rtt_us: [f64; 3],
    requests: [u64; 3],
    mismatches: u64,
    front_cpu_s: f64,
}

/// Quiet serial round trips, one request at a time. The rows take turns
/// in blocks of `QUIET_BLOCK` requests (a row with several connections
/// moves to the next one each block) until every row has had at least
/// `QUIET_BUDGET` and 60 requests; medians keep the first, cold request
/// of each block out of the figure. `front_pid`'s CPU is read around
/// each block of the shard row (the last), so its idle time while the
/// other rows run is not charged to the shard requests.
fn quiet_rtts(
    rows: &mut [Vec<Conn>; 3],
    templates: &[Template],
    front_pid: u32,
    spans: &mut Spans,
) -> Result<Quiet, Box<dyn Error>> {
    const NAMES: [&str; 3] = ["quiet.v1", "quiet.tagged", "quiet.shard"];
    const QUIET_BLOCK: usize = 10;
    let span = spans.begin("quiet.matrix", None);
    let mut rtts: [Vec<f64>; 3] = Default::default();
    let mut mismatches = 0;
    let mut front_cpu_s = 0.0;
    let mut block_cpu0: Option<f64> = None;
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < 3 * 60 || t0.elapsed() < QUIET_BUDGET * 3 {
        let block = i / QUIET_BLOCK;
        let row = block % 3;
        if i.is_multiple_of(QUIET_BLOCK) {
            if let Some(c0) = block_cpu0.take() {
                front_cpu_s += procs::cpu_seconds(front_pid)? - c0;
            }
            if row == 2 {
                block_cpu0 = Some(procs::cpu_seconds(front_pid)?);
            }
        }
        let t = &templates[i % templates.len()];
        let conns = &mut rows[row];
        let n = conns.len();
        let conn = &mut conns[(block / 3) % n];
        let start = Instant::now();
        conn.send(i as u32, &t.body)?;
        let (_, reply) = conn.recv()?;
        let done = Instant::now();
        spans.record(NAMES[row], span, i as u64, start, done);
        if reply != t.expected {
            mismatches += 1;
        }
        rtts[row].push((done - start).as_secs_f64() * 1e6);
        i += 1;
    }
    if let Some(c0) = block_cpu0 {
        front_cpu_s += procs::cpu_seconds(front_pid)? - c0;
    }
    spans.end(span);
    let requests = std::array::from_fn(|r| rtts[r].len() as u64);
    Ok(Quiet {
        rtt_us: rtts.map(median),
        requests,
        mismatches,
        front_cpu_s,
    })
}

/// Named metric values; units come from `BENCHMARK.json`.
type Metrics = Vec<(&'static str, f64)>;

fn hist_sum(series: &deepn_trace::prom::MetricsSeries, name: &str) -> f64 {
    series.counter_delta(&format!("{name}_sum")).unwrap_or(0.0)
}

fn hist_count(series: &deepn_trace::prom::MetricsSeries, name: &str) -> f64 {
    series
        .counter_delta(&format!("{name}_count"))
        .unwrap_or(0.0)
}

fn hist_mean_us(series: &deepn_trace::prom::MetricsSeries, name: &str) -> f64 {
    series.histogram_delta_mean(name).map_or(0.0, |s| s * 1e6)
}

/// Requests per backend shard between two fleet scrapes, from the
/// `deepn_serve_requests_total{shard="N"}` rows.
fn shard_requests(first: &str, last: &str) -> Vec<f64> {
    let per_shard = |text: &str| -> Vec<(String, f64)> {
        deepn_trace::prom::parse(text)
            .unwrap_or_default()
            .into_iter()
            .filter(|f| f.name == "deepn_serve_requests_total")
            .flat_map(|f| f.samples)
            .filter_map(|s| {
                let shard = s.labels.iter().find(|(k, _)| k == "shard")?.1.clone();
                (shard != "front").then_some((shard, s.value))
            })
            .collect()
    };
    let before = per_shard(first);
    per_shard(last)
        .into_iter()
        .map(|(shard, v)| {
            v - before
                .iter()
                .find(|(s, _)| *s == shard)
                .map_or(0.0, |b| b.1)
        })
        .collect()
}

/// Max ÷ min of per-backend request counts (1 = perfectly even; a
/// backend that served nothing counts as 1 request).
fn balance(per_shard: &[f64]) -> f64 {
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    let min = per_shard.iter().copied().fold(f64::INFINITY, f64::min);
    if per_shard.is_empty() {
        0.0
    } else {
        max / min.max(1.0)
    }
}

fn context_line(args: &Args, w: &Workload) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "context: workload={} seed={} seconds={} trace={} commit={commit} nproc={} cpu=\"{}\" \
         binary={} profile=release",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        procs::cpu_model(),
        args.deepn.display(),
    )
}

fn run() -> Result<bool, Box<dyn Error>> {
    let args = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure: this benchmark was built without --release".into());
    }
    if !args.deepn.components().any(|c| c.as_os_str() == "release") || !args.deepn.is_file() {
        return Err(format!(
            "refusing to measure {}: not a release build of `deepn`",
            args.deepn.display()
        )
        .into());
    }
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let spec = read_spec(&args.spec)?;
    std::fs::create_dir_all(&args.work)?;
    println!("{}", context_line(&args, w));

    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);
    let mut warm = Counts::default();
    let mut rounds = Vec::new();
    let mut current: Option<(Inputs, Live)> = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some((_, live)) = current.take() {
            live.stop()?;
        }
        let (inputs, live, round) = set_up(w, &args, false, &mut spans, &mut warm)?;
        rounds.push(round);
        current = Some((inputs, live));
    }
    let (inputs, mut live) = current.ok_or("no set-up round ran")?;
    let setup_s = median(rounds.iter().map(|r| r.setup_s).collect());

    let win = timed_window(
        w,
        &mut live,
        &inputs,
        args.seed,
        window_seconds(&args),
        &mut spans,
    )?;
    let c = &win.counts;
    let server_delta = win
        .series
        .counter_delta("deepn_serve_requests_total")
        .unwrap_or(0.0);
    // The fence scrape that opens the window is itself counted in it.
    let reconcile_gap = server_delta - (c.sent as f64 + 1.0);
    println!(
        "requests: sent {} ok {} failed {} (busy {} timeout {} remote {} io {} mismatch {}); \
         {} reconnects; warm-up sent {} failed {}; server counted {} (reconcile gap {})",
        c.sent,
        c.ok,
        c.failed(),
        c.busy,
        c.timeout,
        c.remote,
        c.io,
        c.mismatch,
        c.reconnects,
        warm.sent,
        warm.failed(),
        server_delta,
        reconcile_gap
    );
    let mut valid = true;
    let correct = c.mismatch == 0 && warm.mismatch == 0;
    let attempted = c.sent;
    let failed = c.failed();

    let mut out: Metrics = Vec::new();
    if !args.trace {
        out.push(("setup_s", setup_s));
        out.push(("req_per_s", win.req_per_s()));
        out.push(("ok_ratio", c.ok as f64 / c.sent.max(1) as f64));
        out.push(("server_cpu_ms_per_req", win.cpu_ms_per_req()));
        out.push(("server_rss_mb", win.rss_mb));
        out.push(("bits_per_pixel", inputs.bits_per_pixel));
        out.push(("psnr_db", inputs.psnr_db));
        println!(
            "notes: setup_s is the median of {SETUP_ROUNDS} set-ups; req_per_s is {} ok over \
             {:.3} s; fail_ratio {}",
            c.ok,
            win.elapsed_s,
            failed as f64 / attempted.max(1) as f64,
        );
        println!(
            "latency (reported, not gated): latency_p50_ms {:.6} ms, latency_p99_ms {:.6} ms, \
             pooled over all {} successful requests",
            win.latency_quantile_ms(0.5),
            win.latency_quantile_ms(0.99),
            win.latency_ms.len(),
        );
        println!(
            "diagnostics: host steal {:.2}% of CPU time over the window; req/s per \
             {SLICE_SECS} s slice {:?}; median over chunks of {LATENCY_CHUNK} requests: p50 \
             {:.3} ms, p99 {:.3} ms",
            win.host_steal_frac * 100.0,
            win.slice_rps.iter().map(|r| r.round()).collect::<Vec<_>>(),
            win.chunk_p50_ms,
            win.chunk_p99_ms,
        );
        live.stop()?;
    } else {
        out = traced_layers(
            w, &args, &inputs, live, &win, &rounds, &mut spans, &mut valid,
        )?;
        out.push(("serve.busy", c.busy as f64));
        out.push(("serve.timeouts", c.timeout as f64));
        out.push(("serve.errors", c.remote as f64));
        out.push(("serve.io_errors", c.io as f64));
        out.push(("serve.mismatches", c.mismatch as f64));
        out.push(("serve.reconcile_gap", reconcile_gap));
        let path = args
            .work
            .join(format!("spans-{}-seed{}.json", w.name, args.seed));
        spans.write_json(&path)?;
        println!(
            "spans: {} dropped; written to {}",
            spans.dropped,
            path.display()
        );
        println!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span (bench side)", "count", "total ms", "self ms"
        );
        for (name, count, total, own) in spans.self_times() {
            println!("{name:<28} {count:>8} {total:>12.3} {own:>12.3}");
        }
    }

    let table = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut json = String::new();
    for (name, unit) in table {
        let value = out
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("{}: metric {name} is not measured", args.spec.display()))?
            .1;
        // JSON has no NaN or infinity; a ratio over an empty count reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name:<28} {value:>14.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        correct && valid
    );
    Ok(correct && valid)
}

/// The traced run's layer figures: codec and pool layers in process, a
/// quiet matrix over the wire, the untraced window's scrape deltas, and
/// a second window against a `DEEPN_TRACE=1` service.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    w: &Workload,
    args: &Args,
    inputs: &Inputs,
    live: Live,
    win: &Window,
    rounds: &[Round],
    spans: &mut Spans,
    valid: &mut bool,
) -> Result<Metrics, Box<dyn Error>> {
    let mut out: Metrics = Vec::new();
    let med = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    out.push(("dataset.generate_ms", med(&|r| r.times.generate_ms)));
    out.push(("core.analyze_ms", med(&|r| r.times.analyze_ms)));
    out.push(("core.table_build_ms", med(&|r| r.times.table_build_ms)));
    out.push(("store.save_ms", med(&|r| r.times.save_ms)));
    out.push(("bench.oracle_ms", med(&|r| r.times.oracle_ms)));
    out.push(("serve.spawn_ready_ms", med(&|r| r.spawn_ms)));
    out.push(("bench.warmup_ms", med(&|r| r.warmup_ms)));

    // Codec and pool layers, in process, on the workload's images.
    let codec_span = spans.begin("codec.layers", None);
    let cl: CodecLayers = layers::measure_codec(inputs, CODEC_BUDGET, spans, codec_span)?;
    spans.end(codec_span);
    out.push(("codec.color_split_us", cl.color_split_us));
    out.push(("codec.fdct_us", cl.fdct_us));
    out.push(("codec.quant_us", cl.quant_us));
    out.push(("codec.tally_us", cl.tally_us));
    out.push(("codec.entropy_enc_us", cl.entropy_enc_us));
    out.push(("codec.stream_encode_us", cl.stream_encode_us));
    out.push(("codec.encode_us", cl.encode_us));
    out.push(("codec.encode_self_us", cl.encode_us - cl.encode_stage_sum()));
    out.push(("codec.dequant_us", cl.dequant_us));
    out.push(("codec.idct_us", cl.idct_us));
    out.push(("codec.decode_color_us", cl.decode_color_us));
    out.push(("codec.stream_decode_us", cl.stream_decode_us));
    out.push(("codec.decode_us", cl.decode_us));
    out.push(("codec.entropy_dec_us", cl.decode_us - cl.decode_stage_sum()));
    out.push(("codec.bytes_per_image", cl.bytes_per_image));
    out.push(("parallel.encode_pool_us", cl.encode_pool_us));
    out.push(("parallel.decode_pool_us", cl.decode_pool_us));
    out.push(("parallel.encode_speedup", cl.encode_us / cl.encode_pool_us));
    out.push(("parallel.decode_speedup", cl.decode_us / cl.decode_pool_us));

    // Serve layers from the untraced window's fence-scrape deltas.
    let s = &win.series;
    let ok = win.counts.ok.max(1) as f64;
    let requests = hist_count(s, "deepn_serve_request_seconds").max(1.0);
    let request_us = hist_mean_us(s, "deepn_serve_request_seconds");
    let parts = hist_sum(s, "deepn_serve_queue_wait_seconds")
        + hist_sum(s, "deepn_serve_execute_seconds")
        + hist_sum(s, "deepn_serve_reply_write_seconds");
    let execute_us = hist_mean_us(s, "deepn_serve_execute_seconds");
    let jobs_per_req = hist_count(s, "deepn_serve_execute_seconds") / requests;
    let images_per_req = w.pool.batch as f64;
    let local_image_us = match w.mix {
        Mix::EncodesPerDecode(n) => {
            (n as f64 * cl.encode_pool_us + cl.decode_pool_us) / (n as f64 + 1.0)
        }
        Mix::EncodeOnly => cl.encode_pool_us,
    };
    let local_job_us = local_image_us * images_per_req / jobs_per_req.max(1e-9);
    out.push(("serve.request_us", request_us));
    out.push((
        "serve.queue_wait_us",
        hist_mean_us(s, "deepn_serve_queue_wait_seconds"),
    ));
    out.push(("serve.execute_us", execute_us));
    out.push((
        "serve.reply_write_us",
        hist_mean_us(s, "deepn_serve_reply_write_seconds"),
    ));
    out.push((
        "serve.reply_wait_us",
        hist_mean_us(s, "deepn_serve_reply_wait_seconds"),
    ));
    out.push((
        "serve.residual_us",
        (hist_sum(s, "deepn_serve_request_seconds") - parts) * 1e6 / requests,
    ));
    out.push(("serve.wire_us", win.rtt_mean_us - request_us));
    out.push(("serve.execute_over_local", execute_us / local_job_us));
    let delta = |name: &str| s.counter_delta(name).unwrap_or(0.0);
    out.push((
        "serve.bytes_in_per_req",
        delta("deepn_serve_bytes_in_total") / requests,
    ));
    out.push((
        "serve.bytes_out_per_req",
        delta("deepn_serve_bytes_out_total") / requests,
    ));
    out.push((
        "parallel.steals_per_req",
        delta("deepn_parallel_steals_total") / ok,
    ));
    out.push((
        "parallel.queue_high_water",
        s.value_at(1, "deepn_parallel_queue_high_water")
            .unwrap_or(0.0),
    ));
    out.push(("bench.latency_p50_ms", win.latency_quantile_ms(0.5)));
    out.push(("bench.latency_p99_ms", win.latency_quantile_ms(0.99)));
    out.push(("bench.client_cpu_frac", win.bench_cpu_frac));

    // The quiet layer matrix over the wire: v1 and tagged straight to the
    // workload's server, and tagged through a fleet only this matrix
    // uses. The three rows take turns block by block, so drift on the
    // machine hits them alike.
    let templates = single_templates(inputs);
    let tables = args.work.join(format!("{}.tables", w.name));
    let fleet_log = args.work.join(format!("{}-matrix.log", w.name));
    let fleet = Service::shard(&args.deepn, &tables, FLEET_BACKENDS, &fleet_log, false)?;
    let mut rows = [
        vec![Conn::connect(live.svc.addr)?],
        vec![Conn::connect_tagged(live.svc.addr)?],
        fleet_conns(&fleet, 2)?,
    ];
    let first = rows[2][0].scrape()?;
    let q = quiet_rtts(&mut rows, &templates, fleet.pid, spans)?;
    let last = rows[2][0].scrape()?;
    drop(rows);
    fleet.stop()?;
    let [v1_rtt, tagged_rtt, shard_rtt] = q.rtt_us;
    if q.mismatches > 0 {
        println!(
            "MISMATCH: {} quiet matrix replies differ from the local codec",
            q.mismatches
        );
        *valid = false;
    }
    out.push(("serve.v1_rtt_us", v1_rtt));
    out.push(("serve.tagged_rtt_us", tagged_rtt));
    out.push(("front.shard_rtt_us", shard_rtt));
    out.push(("front.hop_us", shard_rtt - tagged_rtt));
    let mut fs = deepn_trace::prom::MetricsSeries::new();
    fs.push(0, &first)?;
    fs.push(1, &last)?;
    let fdelta = |name: &str| fs.counter_delta(name).unwrap_or(0.0);
    out.push((
        "front.cpu_ms_per_req",
        q.front_cpu_s * 1e3 / q.requests[2].max(1) as f64,
    ));
    out.push((
        "front.shard_balance",
        balance(&shard_requests(&first, &last)),
    ));
    out.push(("front.failovers", fdelta("deepn_front_failovers_total")));
    out.push((
        "front.backend_restarts",
        fdelta("deepn_front_backend_restarts_total"),
    ));
    let (stages, decode_stages) = (cl.encode_stage_sum(), cl.decode_stage_sum());
    println!("layer matrix (encode over the wire; µs per image, each row adds one layer):");
    for (row, enc, dec) in [
        ("1 bare stage functions", stages, decode_stages),
        (
            "2 StreamEncoder/StreamDecoder",
            cl.stream_encode_us,
            cl.stream_decode_us,
        ),
        ("3 Encoder/Decoder scalar", cl.encode_us, cl.decode_us),
        (
            "4 same on the global pool",
            cl.encode_pool_us,
            cl.decode_pool_us,
        ),
    ] {
        println!("  {row:<34} encode {enc:>10.2}  decode {dec:>10.2}");
    }
    for (row, rtt) in [
        ("5 loopback v1", v1_rtt),
        ("6 loopback tagged", tagged_rtt),
        ("7 through deepn shard", shard_rtt),
    ] {
        println!("  {row:<34} rtt    {rtt:>10.2}");
    }

    // The traced window: the same load against a DEEPN_TRACE=1 service.
    live.stop()?;
    let mut warm = Counts::default();
    let (traced_inputs, mut traced_live, _) = set_up(w, args, true, spans, &mut warm)?;
    let traced = timed_window(
        w,
        &mut traced_live,
        &traced_inputs,
        args.seed,
        window_seconds(args),
        spans,
    )?;
    traced_live.stop()?;
    if warm.mismatch + traced.counts.mismatch > 0 {
        println!("MISMATCH: replies from the traced service differ from the local codec");
        *valid = false;
    }
    let busy_ns = traced
        .series
        .counter_delta("deepn_parallel_worker_busy_ns_total")
        .unwrap_or(0.0);
    out.push((
        "parallel.busy_ms_per_req",
        busy_ns / 1e6 / traced.counts.ok.max(1) as f64,
    ));
    let (plain, with_trace) = (win.req_per_s(), traced.req_per_s());
    out.push((
        "bench.trace_overhead_pct",
        (plain - with_trace) / plain * 100.0,
    ));
    println!(
        "trace overhead: {plain:.1} req/s untraced vs {with_trace:.1} req/s with DEEPN_TRACE=1 \
         (host steal {:.2}% vs {:.2}% of CPU time)",
        win.host_steal_frac * 100.0,
        traced.host_steal_frac * 100.0,
    );
    Ok(out)
}
