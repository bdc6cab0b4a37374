//! The `deepn` command-line tool: build and persist artifacts, run the
//! compression service, drive it with a verifying load generator, and
//! rerun the figure pipeline against the decoded-set cache.
//!
//! Run `deepn help` for the full usage text; `EXPERIMENTS.md` walks
//! through the end-to-end workflow.

use deepn::codec::ppm::{read_ppm, write_ppm, write_ppm_header, PpmRowReader};
use deepn::codec::{
    DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, PixelStrip, QuantTablePair,
};
use deepn::core::experiment::{run_symmetric_cached_with_models, ExperimentConfig, Scale};
use deepn::core::sa_search::{anneal, anneal_restarts, SaConfig};
use deepn::core::{analyze_images, CompressionScheme, DeepnTableBuilder, PlmParams};
use deepn::dataset::ImageSet;
use deepn::serve::{Client, Server, ServerConfig};
use deepn::store::{self, ArtifactKind, FsModelCache, FsRoundTripCache, StoredModel};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
deepn — DeepN-JPEG artifact store + compression service CLI

USAGE:
    deepn <command> [options]

COMMANDS:
    build-table   Analyze a dataset and persist designed quantization tables
                  --out PATH [--scale fast|full] [--seed N] [--sa]
                  [--sa-iters N] [--sa-restarts N] [--stats-out PATH]
    train         Train a zoo model and persist its weights
                  --out PATH [--scale fast|full] [--model NAME] [--epochs N]
    compress      Compress a PPM image, streaming it strip-by-strip so RSS
                  stays bounded at any image size. With --addr the strips
                  travel to a running service (CompressStream op,
                  standard-Huffman, the service's own tables); otherwise
                  the local codec encodes
                  --input IN.ppm --output OUT.jpg [--verify]
                  [--addr HOST:PORT] [--tables PATH (required unless
                  --addr is given without --verify)]
    decompress    Decompress a JFIF stream back to PPM, streaming strips.
                  With --addr the service decodes and streams the pixel
                  strips back (DecompressStream op); either way the
                  decoded image is never materialized
                  --input IN.jpg --output OUT.ppm [--verify]
                  [--addr HOST:PORT]
    gen-ppm       Write a synthetic gradient PPM row-by-row (test input
                  for the streaming paths; never materializes the image)
                  --out PATH [--width N] [--height N]
    serve         Run the compression service on stored tables
                  --tables PATH --addr HOST:PORT [--workers N] [--queue N]
                  [--max-conns N] [--timeout-ms N (0 = no deadline)]
                  [--slow-ms N (log requests at/over N ms; 0 = off)]
                  [--model PATH]
    shard         Run a sharded fleet: one front end on --addr spawning
                  and supervising N `deepn serve` backends on ephemeral
                  ports, routing client connections by consistent hashing
                  with failover, restarting crashed backends with backoff,
                  and answering the Metrics op with a fleet-wide
                  shard-labelled exposition. SIGTERM (or a client
                  Shutdown) drains in-flight requests before exit
                  --tables PATH --addr HOST:PORT [--backends N]
                  [--vnodes N] [--drain-secs N] plus serve pass-throughs:
                  [--workers N] [--queue N] [--max-conns N]
                  [--timeout-ms N] [--slow-ms N] [--model PATH]
    loadgen       Load/soak a running service: N concurrent clients with a
                  mixed serial/pipelined op mix and optional connection
                  churn, a scraper thread polling the Metrics op
                  throughout, and a reconciling BENCH-shaped JSON report
                  (stdout unless --out). Every encode/decode reply is
                  checked byte for byte against the local codec on the
                  served tables. Exits nonzero when any anomaly flag is
                  raised (error or reject rate over budget, throughput
                  stall, client/server accounting mismatch, a reply that
                  differs from the local codec) or the --baseline perf
                  gate fails
                  --addr HOST:PORT [--clients N] [--duration-secs N]
                  [--window W (0 = all serial)] [--churn] [--tagged
                  (drive protocol-v2 tagged framing)] [--image-side N]
                  [--batch N] [--scrape-ms N] [--max-error-rate F]
                  [--max-reject-rate F] [--out PATH] [--baseline PATH]
                  [--min-rps-frac F]
    metrics       Print a running service's Prometheus-style metrics.
                  --pretty summarizes histograms (count/mean/p50/p90/p99);
                  --check validates the exposition and exits nonzero on a
                  malformed scrape
                  --addr HOST:PORT [--pretty] [--check]
    pipeline      Rerun the figure experiment through the decoded-set cache.
                  --profile turns tracing on, times each codec stage
                  (output bytes are identical either way) and prints the
                  stage table and the pool's counters
                  --cache-dir DIR [--scale fast|full] [--profile]
    trace-export  Run a short loadgen workload (one serial and one
                  pipelined client) against an in-process service with
                  tracing (and so stage timing) on, and write the
                  recorded spans as Chrome trace-event JSON
                  (Perfetto-loadable)
                  --out PATH
    inspect       Print an artifact's header
                  PATH
    lint          Run the workspace invariant analyzer (safety-ledger,
                  determinism, panic-policy, protocol-sync, docs-gate,
                  metrics-sync); exits nonzero on any finding
                  [--root DIR (default .)] [--json]
    help          Show this message
";

/// Minimal `--flag value` / `--flag` argument scanner.
struct Args {
    argv: Vec<String>,
}

impl Args {
    fn new(argv: Vec<String>) -> Self {
        Args { argv }
    }

    /// Consumes `--name VALUE`, if present.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        if let Some(i) = self.argv.iter().position(|a| a == name) {
            if i + 1 >= self.argv.len() {
                return Err(format!("{name} requires a value"));
            }
            let v = self.argv.remove(i + 1);
            self.argv.remove(i);
            return Ok(Some(v));
        }
        Ok(None)
    }

    /// Consumes `--name VALUE`, requiring it.
    fn required(&mut self, name: &str) -> Result<String, String> {
        self.value(name)?
            .ok_or_else(|| format!("missing required option {name}"))
    }

    /// Consumes a boolean `--name`.
    fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.argv.iter().position(|a| a == name) {
            self.argv.remove(i);
            return true;
        }
        false
    }

    /// Consumes a parsed `--name N` with a default.
    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: {v}")),
            None => Ok(default),
        }
    }

    /// The scale option (default: the `DEEPN_SCALE` environment variable).
    fn scale(&mut self) -> Result<Scale, String> {
        match self.value("--scale")?.as_deref() {
            Some("fast") => Ok(Scale::Fast),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!("invalid --scale {other} (fast|full)")),
            None => Ok(Scale::from_env()),
        }
    }

    /// Errors on anything left unconsumed.
    fn finish(self) -> Result<(), String> {
        if self.argv.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {}", self.argv.join(" ")))
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = argv.remove(0);
    let args = Args::new(argv);
    let result = match cmd.as_str() {
        "build-table" => cmd_build_table(args),
        "train" => cmd_train(args),
        "compress" => cmd_compress(args),
        "decompress" => cmd_decompress(args),
        "gen-ppm" => cmd_gen_ppm(args),
        "metrics" => cmd_metrics(args),
        "serve" => cmd_serve(args),
        "shard" => cmd_shard(args),
        "loadgen" => cmd_loadgen(args),
        "pipeline" => cmd_pipeline(args),
        "trace-export" => cmd_trace_export(args),
        "inspect" => cmd_inspect(args),
        "lint" => cmd_lint(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("deepn {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The dataset every artifact-producing command derives from: the scale's
/// spec generated at a fixed seed, so `build-table`, `train`, and
/// `pipeline` all agree on the data distribution.
fn dataset_for(scale: Scale, seed: u64) -> ImageSet {
    ImageSet::generate(&scale.dataset_spec(), seed)
}

fn cmd_build_table(mut args: Args) -> Result<(), Box<dyn Error>> {
    let out = args.required("--out")?;
    let scale = args.scale()?;
    let seed = args.parsed("--seed", 0xDEE9u64)?;
    let use_sa = args.flag("--sa");
    let sa_iters = args.parsed("--sa-iters", SaConfig::default().iterations)?;
    let sa_restarts = args.parsed("--sa-restarts", 1usize)?;
    let stats_out = args.value("--stats-out")?;
    args.finish()?;
    if sa_restarts == 0 {
        return Err("--sa-restarts must be at least 1".into());
    }

    let t0 = Instant::now();
    let set = dataset_for(scale, seed);
    let stats = analyze_images(set.sample_per_class(3), 1)?;
    if let Some(path) = &stats_out {
        store::save(&stats, path)?;
        println!("band statistics -> {path}");
    }
    let tables = if use_sa {
        let cfg = SaConfig {
            iterations: sa_iters,
            seed,
            ..SaConfig::default()
        };
        let outcome = if sa_restarts > 1 {
            // Independent chains anneal in parallel on the shared pool.
            anneal_restarts(&stats, &cfg, sa_restarts)
        } else {
            anneal(&stats, &cfg)
        };
        println!(
            "SA search: {} iterations x {} restart(s), objective {:.1}",
            sa_iters, sa_restarts, outcome.objective
        );
        outcome.tables
    } else {
        DeepnTableBuilder::new(PlmParams::paper()).build_from_stats(&stats)?
    };
    store::save(&tables, &out)?;
    println!(
        "quantization tables ({}) -> {out}  [{} images analyzed, {:.2?}]",
        if use_sa { "SA-annealed" } else { "PLM" },
        stats.image_count(),
        t0.elapsed()
    );
    Ok(())
}

fn cmd_train(mut args: Args) -> Result<(), Box<dyn Error>> {
    let out = args.required("--out")?;
    let scale = args.scale()?;
    let model = args
        .value("--model")?
        .unwrap_or_else(|| "MiniAlexNet".into());
    let mut cfg = ExperimentConfig::alexnet(scale).with_model(&model);
    cfg.epochs = args.parsed("--epochs", cfg.epochs)?;
    cfg.seed = args.parsed("--seed", cfg.seed)?;
    args.finish()?;

    let t0 = Instant::now();
    let set = dataset_for(scale, cfg.seed);
    let net = deepn::core::experiment::train_model(&cfg, &set, &CompressionScheme::original())?;
    let img = &set.images()[0];
    let stored = StoredModel::from_network(
        &cfg.model,
        3,
        img.height(),
        img.width(),
        set.class_count(),
        cfg.seed,
        &net,
    );
    store::save(&stored, &out)?;
    println!(
        "trained {} ({} epochs) -> {out}  [{:.2?}]",
        cfg.model,
        cfg.epochs,
        t0.elapsed()
    );
    Ok(())
}

fn cmd_compress(mut args: Args) -> Result<(), Box<dyn Error>> {
    let tables_path = args.value("--tables")?;
    let input = args.required("--input")?;
    let output = args.required("--output")?;
    let verify = args.flag("--verify");
    let addr = args.value("--addr")?;
    args.finish()?;
    // The service encodes with its own tables, so a local artifact is
    // only needed to encode locally or to back --verify.
    let encoder = match &tables_path {
        Some(p) => Some(Encoder::with_tables(store::load::<QuantTablePair>(p)?)),
        None if addr.is_none() || verify => {
            return Err("--tables is required unless --addr is given without --verify".into())
        }
        None => None,
    };

    let mut reader = PpmRowReader::new(BufReader::new(File::open(&input)?))?;
    let (w, h) = (reader.width(), reader.height());
    let mut strip = PixelStrip::new();
    let mut rows = Vec::new();
    let total;
    if let Some(addr) = &addr {
        // Service path: the strips travel over the wire (CompressStream),
        // one frame per strip, and the service answers with the JFIF blob.
        // Network peers cannot be rewound for the optimized-Huffman
        // analysis pass, so this is the single-pass standard-Huffman mode;
        // --verify compares against the same mode locally. The served
        // tables are the service's own — the local --tables only back the
        // verification.
        let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(10))?;
        let mut session = client.begin_compress_stream(w, h)?;
        for s in 0..session.strip_count() {
            let n = reader.read_rows(session.strip_rows(s), &mut rows)?;
            strip.set_rows(w, n, &rows)?;
            session.send_strip(strip.as_bytes())?;
        }
        let jfif = session.finish()?;
        total = jfif.len();
        std::fs::write(&output, &jfif)?;
        if verify {
            let encoder = encoder.as_ref().expect("--verify requires --tables");
            let image = read_ppm(BufReader::new(File::open(&input)?))?;
            let reference = encoder.clone().optimize_huffman(false).encode(&image)?;
            if jfif != reference {
                return Err("service stream differs from the local single-pass codec \
                            (is --tables the artifact the service was started with?)"
                    .into());
            }
            println!("verify OK: service bytes identical to the local single-pass codec");
        }
    } else {
        // Local path: the PPM streams through the codec strip by strip,
        // once. Optimized Huffman tables need the whole image's symbols
        // before the first header byte, so the analysis pass transforms
        // each strip and keeps its entropy tokens in the workspace; the
        // encode pass then emits those tokens without the pixels. Peak
        // pixel memory is one 8-row strip, whatever the image size; the
        // tokens take at most 4 bytes per coefficient.
        let encoder = encoder.as_ref().expect("local encoding requires --tables");
        let mut session = encoder.stream_encoder(w, h)?;
        let mut ws = EncodeWorkspace::new();
        for s in 0..session.strip_count() {
            let n = reader.read_rows(session.strip_rows(s), &mut rows)?;
            strip.set_rows(w, n, &rows)?;
            session.analyze_strip(&strip, &mut ws)?;
        }
        let mut out = BufWriter::new(File::create(&output)?);
        let mut written = 0usize;
        for _ in 0..session.strip_count() {
            session.encode_analyzed_strip(&ws)?;
            let chunk = session.take_output();
            written += chunk.len();
            out.write_all(&chunk)?;
        }
        let tail = session.finish()?;
        written += tail.len();
        out.write_all(&tail)?;
        out.flush()?;
        drop(out);
        total = written;
        if verify {
            let image = read_ppm(BufReader::new(File::open(&input)?))?;
            let reference = encoder.encode(&image)?;
            if std::fs::read(&output)? != reference {
                return Err("streamed output differs from the in-memory codec".into());
            }
            println!("verify OK: streamed bytes identical to the in-memory codec");
        }
    }
    println!(
        "{input} ({w}x{h}) -> {output} ({total} bytes, streamed{})",
        if addr.is_some() { " via service" } else { "" }
    );
    Ok(())
}

fn cmd_decompress(mut args: Args) -> Result<(), Box<dyn Error>> {
    let input = args.required("--input")?;
    let output = args.required("--output")?;
    let verify = args.flag("--verify");
    let addr = args.value("--addr")?;
    args.finish()?;
    let bytes = std::fs::read(&input)?;
    let decoder = Decoder::new();
    let (w, h);
    let mut out = BufWriter::new(File::create(&output)?);
    let mut strip = PixelStrip::new();
    if let Some(addr) = &addr {
        // Service path: the service decodes and frames the pixel strips
        // back over the wire (DecompressStream), and they stream straight
        // into the PPM file — resident memory is the compressed stream
        // plus one 8-row strip on both sides, never the decoded image.
        let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(10))?;
        let mut session = client.begin_decompress_stream(&bytes)?;
        (w, h) = (session.width(), session.height());
        write_ppm_header(&mut out, w, h)?;
        while session.next_strip(&mut strip)? {
            out.write_all(strip.as_bytes())?;
        }
    } else {
        // Local path: same bound, with the entropy decoder in-process.
        let mut session = decoder.stream_decoder(&bytes)?;
        (w, h) = (session.width(), session.height());
        write_ppm_header(&mut out, w, h)?;
        let mut ws = DecodeWorkspace::new();
        while session.next_strip(&mut ws, &mut strip)? {
            out.write_all(strip.as_bytes())?;
        }
    }
    out.flush()?;
    drop(out);
    if verify {
        let image = decoder.decode(&bytes)?;
        let mut reference = Vec::new();
        write_ppm(&image, &mut reference)?;
        if std::fs::read(&output)? != reference {
            return Err("streamed output differs from the in-memory codec".into());
        }
        println!("verify OK: streamed pixels identical to the in-memory codec");
    }
    println!(
        "{input} ({} bytes) -> {output} ({w}x{h}, streamed{})",
        bytes.len(),
        if addr.is_some() { " via service" } else { "" }
    );
    Ok(())
}

fn cmd_gen_ppm(mut args: Args) -> Result<(), Box<dyn Error>> {
    let out = args.required("--out")?;
    let width = args.parsed("--width", 2048usize)?;
    let height = args.parsed("--height", 2048usize)?;
    args.finish()?;
    if width == 0 || height == 0 || width > 0xFFFF || height > 0xFFFF {
        return Err(format!("invalid dimensions {width}x{height}").into());
    }
    // Row-streamed writer: the same gradient as `RgbImage::gradient`, but
    // one row resident at a time.
    let mut writer = BufWriter::new(File::create(&out)?);
    write_ppm_header(&mut writer, width, height)?;
    let mut row = vec![0u8; width * 3];
    for y in 0..height {
        for (x, px) in row.chunks_exact_mut(3).enumerate() {
            px[0] = (x * 255 / width) as u8;
            px[1] = (y * 255 / height) as u8;
            px[2] = 128;
        }
        writer.write_all(&row)?;
    }
    writer.flush()?;
    drop(writer);
    println!(
        "{out}: {width}x{height} gradient ({} bytes)",
        std::fs::metadata(&out)?.len()
    );
    Ok(())
}

fn cmd_metrics(mut args: Args) -> Result<(), Box<dyn Error>> {
    let addr = args.required("--addr")?;
    let pretty = args.flag("--pretty");
    let check = args.flag("--check");
    args.finish()?;
    let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(10))?;
    let text = client.metrics()?;
    if check {
        let families =
            deepn::trace::prom::validate(&text).map_err(|e| format!("bad scrape: {e}"))?;
        println!("scrape OK: {} metric families validate", families.len());
        return Ok(());
    }
    if pretty {
        print!("{}", deepn::trace::prom::pretty(&text)?);
    } else {
        print!("{text}");
    }
    Ok(())
}

fn cmd_serve(mut args: Args) -> Result<(), Box<dyn Error>> {
    let tables_path = args.required("--tables")?;
    let addr = args.required("--addr")?;
    let mut config = ServerConfig::default();
    config.workers = args.parsed("--workers", config.workers)?;
    config.queue_depth = args.parsed("--queue", config.queue_depth)?;
    config.max_connections = args.parsed("--max-conns", config.max_connections)?;
    let default_timeout_ms = config.request_timeout.map_or(0, |t| t.as_millis() as u64);
    let timeout_ms = args.parsed("--timeout-ms", default_timeout_ms)?;
    config.request_timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    let slow_ms = args.parsed("--slow-ms", 0u64)?;
    config.slow_threshold = (slow_ms > 0).then(|| Duration::from_millis(slow_ms));
    let model_path = args.value("--model")?;
    args.finish()?;

    let tables: QuantTablePair = store::load(&tables_path)?;
    let model = match &model_path {
        Some(p) => {
            let stored: StoredModel = store::load(p)?;
            let net = stored.instantiate()?;
            println!("model {} loaded from {p}", stored.arch);
            Some(net)
        }
        None => None,
    };
    // A worker panic would otherwise die silently with the thread; the
    // flight recorder dumps the last structured events from every thread.
    deepn::trace::log::install_panic_hook();
    let server = Server::bind(addr.as_str(), tables, model, config.clone())?;
    // Machine-parsable readiness line (the CI smoke job and the shard
    // front end's supervisor wait for it).
    println!(
        "deepn-serve listening on {} ({} workers, queue {}, {} conns max, \
         timeout {})",
        server.local_addr()?,
        config.workers,
        config.queue_depth,
        config.max_connections,
        config
            .request_timeout
            .map_or("off".to_owned(), |t| format!("{t:?}")),
    );
    // A piped stdout is block-buffered: without this flush a supervising
    // parent would never see the readiness line.
    std::io::stdout().flush()?;
    server.run()?;
    println!("deepn-serve stopped");
    Ok(())
}

fn cmd_shard(mut args: Args) -> Result<(), Box<dyn Error>> {
    use deepn::front::{signal, BackendCommand, Front, FrontConfig};

    let tables = args.required("--tables")?;
    let addr = args.required("--addr")?;
    let backends = args.parsed("--backends", 3usize)?;
    let vnodes = args.parsed("--vnodes", 64u32)?;
    let drain_secs = args.parsed("--drain-secs", 30u64)?;
    // Pass-throughs handed verbatim to every backend `deepn serve`.
    let passthrough = [
        ("--workers", args.value("--workers")?),
        ("--queue", args.value("--queue")?),
        ("--max-conns", args.value("--max-conns")?),
        ("--timeout-ms", args.value("--timeout-ms")?),
        ("--slow-ms", args.value("--slow-ms")?),
        ("--model", args.value("--model")?),
    ];
    args.finish()?;

    deepn::trace::log::init_from_env();
    deepn::trace::log::install_panic_hook();

    let exe = std::env::current_exe()?;
    let mut backend_args = vec![
        "serve".to_string(),
        "--tables".to_string(),
        tables,
        "--addr".to_string(),
        // Ephemeral: each backend reports where it landed via its
        // readiness line, which the supervisor parses.
        "127.0.0.1:0".to_string(),
    ];
    for (flag, value) in passthrough {
        if let Some(v) = value {
            backend_args.push(flag.to_string());
            backend_args.push(v);
        }
    }

    let mut config = FrontConfig::new(backends, BackendCommand::new(exe, backend_args));
    config.vnodes = vnodes;
    config.drain_timeout = Duration::from_secs(drain_secs);
    // SIGTERM starts the drain instead of killing the fleet mid-request.
    signal::install_term_handler();
    let front = Front::bind(addr.as_str(), config)?;
    // Machine-parsable readiness + pid lines (the CI shard job waits for
    // the first and injects faults with the second).
    println!(
        "deepn-front listening on {} ({backends} backends, {vnodes} vnodes, \
         drain {drain_secs}s)",
        front.local_addr()?
    );
    let pids: Vec<String> = front
        .backend_pids()
        .into_iter()
        .map(|p| p.map_or("-".to_string(), |p| p.to_string()))
        .collect();
    println!("deepn-front backend pids: {}", pids.join(" "));
    std::io::stdout().flush()?;
    front.run()?;
    println!("deepn-front drained");
    Ok(())
}

fn cmd_loadgen(mut args: Args) -> Result<(), Box<dyn Error>> {
    use std::net::ToSocketAddrs;
    let addr_arg = args.required("--addr")?;
    let addr = addr_arg
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| format!("--addr {addr_arg} resolved to no address"))?;
    let mut cfg = deepn::serve::loadgen::LoadgenConfig::new(addr);
    cfg.clients = args.parsed("--clients", cfg.clients)?;
    cfg.duration = Duration::from_secs(args.parsed("--duration-secs", 10u64)?);
    cfg.pipeline_window = args.parsed("--window", cfg.pipeline_window)?;
    cfg.churn = args.flag("--churn");
    cfg.tagged = args.flag("--tagged");
    cfg.image_side = args.parsed("--image-side", cfg.image_side)?;
    cfg.batch = args.parsed("--batch", cfg.batch)?;
    cfg.scrape_interval = Duration::from_millis(args.parsed("--scrape-ms", 1000u64)?);
    cfg.max_error_rate = args.parsed("--max-error-rate", cfg.max_error_rate)?;
    cfg.max_reject_rate = args.parsed("--max-reject-rate", cfg.max_reject_rate)?;
    let out = args.value("--out")?;
    let baseline = args.value("--baseline")?;
    let min_rps_frac = args.parsed("--min-rps-frac", 0.25f64)?;
    args.finish()?;

    deepn::trace::log::init_from_env();
    deepn::trace::log::install_panic_hook();
    let report = deepn::serve::loadgen::run(&cfg)?;
    let json = report.to_json();
    deepn::trace::export::validate_json(&json)
        .map_err(|e| format!("internal error: loadgen report JSON malformed: {e}"))?;
    // Stdout carries only the report, so it parses as JSON; every
    // human-readable line goes to stderr.
    if let Some(path) = &out {
        std::fs::write(path, &json)?;
        eprintln!("loadgen report written to {path}");
    } else {
        print!("{json}");
    }
    eprintln!(
        "loadgen: {} ok, {} mismatch, {} busy, {} timeout, {} error, {} io \
         over {:.1}s ({:.1} req/s, {} scrapes)",
        report.totals.ok,
        report.totals.mismatch,
        report.totals.busy,
        report.totals.timeout,
        report.totals.error,
        report.totals.io_error,
        report.duration_secs,
        report.rps,
        report.scrapes,
    );

    // Perf gate: compare throughput against a committed baseline report,
    // with a deliberately loose floor — a shared 1-core CI box is noisy.
    if let Some(bp) = &baseline {
        let text = std::fs::read_to_string(bp)?;
        let doc = deepn::trace::export::parse_json(&text)
            .map_err(|e| format!("bad baseline {bp}: {e}"))?;
        let base_rps = doc
            .get("loadgen_summary")
            .and_then(|s| s.get("rps"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline {bp} has no loadgen_summary.rps"))?;
        let floor = base_rps * min_rps_frac;
        eprintln!(
            "perf gate: {:.1} req/s vs baseline {base_rps:.1} (floor {floor:.1})",
            report.rps
        );
        if report.rps < floor {
            return Err(format!(
                "perf gate failed: {:.1} req/s is below the floor of {floor:.1} \
                 ({min_rps_frac} × baseline {base_rps:.1})",
                report.rps
            )
            .into());
        }
    }
    if !report.is_clean() {
        for a in &report.anomalies {
            eprintln!("loadgen anomaly: {a}");
        }
        return Err(format!("{} anomaly flag(s) raised", report.anomalies.len()).into());
    }
    Ok(())
}

fn cmd_pipeline(mut args: Args) -> Result<(), Box<dyn Error>> {
    let cache_dir = args.required("--cache-dir")?;
    let scale = args.scale()?;
    let seed = args.parsed("--seed", 0xDEE9u64)?;
    let profile = args.flag("--profile");
    args.finish()?;
    if profile {
        // The codec's stage timers and the pool's busy time record only
        // while tracing is on.
        deepn::trace::set_enabled(true);
    }

    let t0 = Instant::now();
    let set = dataset_for(scale, seed);
    let tables = DeepnTableBuilder::new(PlmParams::paper())
        .sample_interval(3)
        .build(set.images())?;
    let schemes = [
        CompressionScheme::original(),
        CompressionScheme::Jpeg(50),
        CompressionScheme::SameQ(30),
        CompressionScheme::Deepn(tables),
    ];
    let mut cache = FsRoundTripCache::new(&cache_dir)?;
    // Trained models persist beside the decoded sets, so reruns skip the
    // training stage as well as the codec round trips.
    let mut models = FsModelCache::new(std::path::Path::new(&cache_dir).join("models"))?;
    let cfg = ExperimentConfig::alexnet(scale);

    // Phase 1 — materialize the decoded sets every case needs. On a cold
    // cache this pays the serial per-image codec round trip; on a warm
    // one it loads the persisted artifacts, which is where the cache's
    // speedup is directly measurable.
    let (train_imgs, _) = set.train();
    let (test_imgs, _) = set.test();
    let mat0 = Instant::now();
    for scheme in &schemes {
        for split in [train_imgs, test_imgs] {
            deepn::core::experiment::round_trip_set_cached(scheme, split, &mut cache)?;
        }
    }
    let materialize = mat0.elapsed();
    println!(
        "decoded-set materialization: {materialize:.2?} ({} hits, {} misses)",
        cache.hits(),
        cache.misses()
    );

    // Phase 2 — the accuracy comparison itself, fed from the cache.
    println!(
        "{:<24} {:>8} {:>12} {:>10}",
        "scheme", "acc", "bytes", "elapsed"
    );
    for scheme in &schemes {
        let t = Instant::now();
        let outcome =
            run_symmetric_cached_with_models(&cfg, &set, scheme, &mut cache, &mut models)?;
        println!(
            "{:<24} {:>7.1}% {:>12} {:>10.2?}",
            scheme.to_string(),
            outcome.accuracy * 100.0,
            outcome.train_bytes + outcome.test_bytes,
            t.elapsed()
        );
    }
    println!(
        "cache: {} decoded-set hits, {} misses; {} model hits, {} misses \
         ({cache_dir}); materialization {materialize:.2?}; total {:.2?}",
        cache.hits(),
        cache.misses(),
        models.hits(),
        models.misses(),
        t0.elapsed()
    );
    println!("rerun the same command to reuse the cached decoded sets and models");
    if profile {
        print_profile_report();
    }
    Ok(())
}

/// Prints the per-stage codec timing table and the pool instruments from
/// the process-global registry — the sink every `--profile` run and
/// traced pool feeds.
fn print_profile_report() {
    use deepn::trace::{prom::human_seconds, Reading};
    let g = deepn::trace::global();
    println!(
        "\ncodec stage profile (per strip):\n{:<16} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "stage", "strips", "mean", "p50", "p90", "p99"
    );
    for stage in deepn::codec::profile::Stage::ALL {
        let Some(Reading::Histogram(snap)) = g.reading(stage.metric()) else {
            continue;
        };
        if snap.count == 0 {
            continue;
        }
        let s = |ns: f64| human_seconds(ns / 1e9);
        println!(
            "{:<16} {:>9} {:>10} {:>10} {:>10} {:>10}",
            stage.name(),
            snap.count,
            s(snap.mean_ns()),
            s(snap.quantile_ns(0.5)),
            s(snap.quantile_ns(0.9)),
            s(snap.quantile_ns(0.99)),
        );
    }
    let counter = |name: &str| match g.reading(name) {
        Some(Reading::Counter(v)) | Some(Reading::Gauge(v)) => v,
        _ => 0,
    };
    println!(
        "pool: queue high-water {}, workers busy {}",
        counter("deepn_parallel_queue_high_water"),
        human_seconds(counter("deepn_parallel_worker_busy_ns_total") as f64 / 1e9),
    );
}

/// Span names `trace-export` asserts before writing: loadgen's request
/// mix and its scraper exercise each of these paths, so their absence
/// means the instrumentation regressed, not that the run was quiet.
const EXPECTED_SPANS: &[&str] = &[
    "serve.request.ping",
    "serve.request.encode_batch",
    "serve.request.decode_batch",
    "serve.request.stats",
    "serve.request.metrics",
    "serve.queue_wait",
    "serve.execute",
    "serve.reply_write",
];

fn cmd_trace_export(mut args: Args) -> Result<(), Box<dyn Error>> {
    let out = args.required("--out")?;
    args.finish()?;

    deepn::trace::set_enabled(true);

    // An in-process service on standard tables: the workload needs spans,
    // not designed quantization.
    let server = Server::bind(
        "127.0.0.1:0",
        QuantTablePair::standard(75),
        None,
        ServerConfig::default(),
    )?;
    let addr = server.local_addr()?;
    let handle = server.spawn();

    // loadgen's verified mix from one serial and one pipelined client:
    // pairs of 64×64 images run on the pool, and the pipeline keeps
    // queue-wait spans non-trivial. The run is short so that no thread's
    // span ring overflows.
    let mut cfg = deepn::serve::loadgen::LoadgenConfig::new(addr);
    cfg.clients = 2;
    cfg.pipeline_window = 8;
    cfg.image_side = 64;
    cfg.duration = Duration::from_millis(50);
    cfg.scrape_interval = Duration::from_millis(50);
    let report = deepn::serve::loadgen::run(&cfg);
    Client::connect_retry(addr, Duration::from_secs(10))?.shutdown()?;
    handle.join();
    let report = report?;
    if !report.is_clean() {
        return Err(format!("loadgen anomalies: {}", report.anomalies.join("; ")).into());
    }

    let events = deepn::trace::snapshot_spans();
    for name in EXPECTED_SPANS {
        if !events.iter().any(|e| e.name == *name) {
            return Err(format!("workload produced no `{name}` span").into());
        }
    }
    let json = deepn::trace::export::chrome_trace_json(&events);
    deepn::trace::export::validate_json(&json).map_err(|e| format!("bad trace JSON: {e}"))?;
    std::fs::write(&out, &json)?;
    println!(
        "{out}: {} span events from {} verified requests ({} dropped), {} bytes; \
         load it at https://ui.perfetto.dev",
        events.len(),
        report.totals.ok,
        deepn::trace::dropped_spans(),
        json.len()
    );
    Ok(())
}

fn cmd_inspect(mut args: Args) -> Result<(), Box<dyn Error>> {
    let path = args
        .value("--path")?
        .or_else(|| {
            if args.argv.is_empty() {
                None
            } else {
                Some(args.argv.remove(0))
            }
        })
        .ok_or("usage: deepn inspect PATH")?;
    args.finish()?;
    let bytes = std::fs::read(&path)?;
    let (version, kind) = store::peek(&bytes)?;
    println!(
        "{path}: deepn artifact v{version}, kind {}, {} bytes",
        kind.map_or("unknown", ArtifactKind::name),
        bytes.len()
    );
    Ok(())
}

fn cmd_lint(mut args: Args) -> Result<(), Box<dyn Error>> {
    let root = args.value("--root")?.unwrap_or_else(|| ".".into());
    let json = args.flag("--json");
    args.finish()?;
    let findings = deepn::lint::run(std::path::Path::new(&root))?;
    for f in &findings {
        if json {
            println!("{}", f.json());
        } else {
            println!("{}", f.human());
        }
    }
    if findings.is_empty() {
        if !json {
            println!("deepn lint: clean ({root})");
        }
        Ok(())
    } else {
        Err(format!("{} finding(s)", findings.len()).into())
    }
}
