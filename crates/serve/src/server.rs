//! The service: acceptor + per-connection readers + a bounded job queue
//! drained by a fixed worker pool.
//!
//! Each connection has one write path ([`ConnOut`]): its reader writes
//! the replies it produces itself, its writer thread writes pool replies,
//! and both write under one lock. The writer of a reply releases the
//! reply's tag under that lock just before writing, so v1 arrival order
//! and immediate tag reuse hold by construction, in both framings.

use crate::metrics::{Ctr, ServeMetrics};
use crate::protocol::{self, Opcode, STATUS_BUSY, STATUS_ERR, STATUS_OK, STATUS_TIMEOUT};
use crate::ServeError;
use deepn_codec::{
    DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, PixelStrip, QuantTablePair, RgbImage,
};
use deepn_nn::Sequential;
use deepn_store::{ByteReader, ByteWriter};
use deepn_tensor::Tensor;
use deepn_trace::log;
use std::cell::Cell;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Worker-pool sizing and admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of codec worker threads, one per core by default. These
    /// workers are the service's only parallelism for encode and decode:
    /// each runs one whole request, and the codec runs every image on the
    /// thread that calls it, so requests never nest a second fan-out on
    /// the `deepn-parallel` pool.
    pub workers: usize,
    /// Bound of the job queue; submissions block when it is full, so an
    /// overloaded service applies backpressure instead of buffering
    /// without limit.
    pub queue_depth: usize,
    /// Maximum concurrently served connections. Connections over the
    /// limit receive a typed [`STATUS_BUSY`] rejection frame (surfacing
    /// client-side as [`ServeError::Busy`]) instead of a silent drop;
    /// `Shutdown` is honored even over the limit so a saturated service
    /// stays stoppable.
    pub max_connections: usize,
    /// Per-request time budget, measured from request dispatch. A request
    /// that exceeds it receives a typed [`STATUS_TIMEOUT`] rejection
    /// frame ([`ServeError::Timeout`] client-side). `None` disables the
    /// deadline.
    pub request_timeout: Option<Duration>,
    /// Slow-request log threshold: a request whose whole-frame handling
    /// takes at least this long is logged to stderr with its opcode and
    /// wall time (`deepn serve --slow-ms`). `None` disables the log.
    pub slow_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        ServerConfig {
            workers,
            queue_depth: 256,
            max_connections: 64,
            request_timeout: Some(Duration::from_secs(30)),
            slow_threshold: None,
        }
    }
}

/// Per-connection in-flight window under tagged framing (protocol v2):
/// how many of one connection's requests may be admitted at once before
/// the reader stops reading new frames. The cap is what bounds the
/// completed-reply buffer — workers never block on a slow client's
/// writer. Until a `Hello` grants tagged framing the window is 1, which
/// is what keeps v1 replies in arrival order.
const TAGGED_WINDOW: usize = 16;

/// A point-in-time copy of the service counters and configuration,
/// as returned by [`crate::Client::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests handled (all opcodes).
    pub requests: u64,
    /// Images compressed.
    pub images_encoded: u64,
    /// Streams decompressed.
    pub images_decoded: u64,
    /// Images classified.
    pub images_classified: u64,
    /// Connections rejected with a typed busy frame.
    pub connections_rejected: u64,
    /// Requests rejected with a typed timeout frame.
    pub requests_timed_out: u64,
    /// Total request-frame bytes received (length prefixes included).
    pub bytes_in: u64,
    /// Total reply-frame bytes sent (length prefixes included).
    pub bytes_out: u64,
    /// Connections currently being served.
    pub active_connections: u32,
    /// Configured worker count.
    pub workers: u32,
    /// Configured queue bound.
    pub queue_depth: u32,
    /// Configured connection limit.
    pub max_connections: u32,
    /// Configured per-request budget in milliseconds (0 = disabled).
    pub request_timeout_ms: u64,
    /// Whether a model artifact was loaded for `Classify`.
    pub has_model: bool,
    /// Connections that negotiated tagged framing (protocol v2). A
    /// trailing `Stats` field: 0 when the service predates it.
    pub tagged_connections: u64,
    /// Requests executed under tagged framing. A trailing `Stats` field:
    /// 0 when the service predates it.
    pub tagged_requests: u64,
}

/// One queued unit of pool work: a whole request, executed by one
/// worker on its own thread (the codec never forks an image's strips),
/// so a request occupies a single queue slot and a single worker and a
/// tagged connection's window runs *across* workers. The worker builds
/// the complete reply body (status byte included) and hands it to the
/// connection's writer thread.
struct Job {
    work: WholeWork,
    meta: ReqMeta,
    deadline: Option<(Duration, Instant)>,
    /// Trace timestamp of the (last) submission attempt, for the
    /// queue-wait histogram and span.
    submitted_ns: u64,
    reply: ReplySink,
}

enum WholeWork {
    Encode(Vec<RgbImage>),
    Decode(Vec<Vec<u8>>),
    Classify(Vec<RgbImage>),
}

/// Requests at or under this cost (pixels for encode, compressed bytes
/// for decode) may run inline on the connection's reader when nothing
/// else of the connection is in flight, instead of on the pool: small
/// enough that holding the reader off the socket costs less than two
/// thread hand-offs, while anything larger keeps the window's
/// out-of-order concurrency.
const INLINE_WORK_BUDGET: usize = 4096;

impl WholeWork {
    /// A unit-less size proxy for the inline-execution decision.
    /// `Classify` never inlines: model inference is the heaviest op and
    /// the reader does not hold the model anyway.
    fn inline_cost(&self) -> usize {
        match self {
            WholeWork::Encode(images) => images.iter().map(|i| i.width() * i.height()).sum(),
            WholeWork::Decode(blobs) => blobs.iter().map(Vec::len).sum(),
            WholeWork::Classify(_) => usize::MAX,
        }
    }
}

/// One thread's codec state: the service's encoder and decoder with
/// their workspaces, reused across every request the thread ever runs —
/// after the first image of a given width, the block-strip hot loops
/// allocate nothing. Each pool worker owns one, and so does each
/// connection reader for its inline and streamed work.
struct Codec {
    encoder: Encoder,
    decoder: Decoder,
    enc_ws: EncodeWorkspace,
    dec_ws: DecodeWorkspace,
    model: Option<Arc<Sequential>>,
}

impl Codec {
    fn new(tables: &QuantTablePair, model: Option<Arc<Sequential>>) -> Codec {
        Codec {
            encoder: Encoder::with_tables(tables.clone()),
            decoder: Decoder::new(),
            enc_ws: EncodeWorkspace::new(),
            dec_ws: DecodeWorkspace::new(),
            model,
        }
    }
}

/// The compression service. [`bind`](Server::bind) it, then either
/// [`run`](Server::run) on the current thread or [`spawn`](Server::spawn)
/// it onto a background one.
pub struct Server {
    listener: TcpListener,
    tables: Arc<QuantTablePair>,
    model: Option<Arc<Sequential>>,
    config: ServerConfig,
    counters: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    rejecting: Arc<AtomicUsize>,
}

/// Upper bound on concurrent polite-rejection threads. Beyond it an
/// over-limit connection is closed immediately instead of waiting for a
/// request frame — a connect flood must not be able to pin an unbounded
/// number of threads (and sockets) in the rejection path.
const REJECTION_THREAD_CAP: usize = 32;

/// A handle to a [`spawn`](Server::spawn)ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop without a client round trip.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server thread to exit.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds the service to `addr` with the given quantization tables and
    /// optional classification model.
    ///
    /// # Errors
    ///
    /// Socket errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        tables: QuantTablePair,
        model: Option<Sequential>,
        mut config: ServerConfig,
    ) -> io::Result<Self> {
        // Zero workers would park every job forever; zero queue depth
        // would make sync_channel a rendezvous that deadlocks single
        // submitters; zero connections would reject everything including
        // the shutdown request. Clamp rather than error: there is no
        // useful interpretation of any of the zeros.
        config.workers = config.workers.max(1);
        config.queue_depth = config.queue_depth.max(1);
        config.max_connections = config.max_connections.max(1);
        // Honor DEEPN_TRACE=1 and DEEPN_LOG for servers embedded in other
        // binaries; never disables tracing a host process enabled
        // explicitly.
        deepn_trace::enable_from_env();
        log::init_from_env();
        let counters = Arc::new(ServeMetrics::new(&config));
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            tables: Arc::new(tables),
            model: model.map(Arc::new),
            config,
            counters,
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            rejecting: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until a shutdown request
    /// arrives, then drains the worker pool and returns.
    ///
    /// # Errors
    ///
    /// Fatal socket errors from the accept loop.
    pub fn run(self) -> io::Result<()> {
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(self.config.queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let rx = Arc::clone(&job_rx);
            let codec = Codec::new(&self.tables, self.model.clone());
            let metrics = Arc::clone(&self.counters);
            workers.push(thread::spawn(move || worker_loop(&rx, codec, &metrics)));
        }
        let addr = self
            .listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string());
        log::info("server_listening")
            .field("addr", &addr)
            .field("workers", self.config.workers)
            .field("queue_depth", self.config.queue_depth)
            .field("max_connections", self.config.max_connections)
            .emit();

        // Monotone connection ids, assigned at accept: the correlation
        // key every per-connection and per-request event carries.
        let conn_seq = AtomicU64::new(0);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Admission decision happens here, before the next
                    // accept, so the active count is exact. The guard
                    // decrements when the connection thread exits.
                    let guard = ConnGuard {
                        active: Arc::clone(&self.active),
                    };
                    let limited =
                        guard.active.fetch_add(1, Ordering::SeqCst) >= self.config.max_connections;
                    let ctx = ConnCtx {
                        job_tx: job_tx.clone(),
                        tables: Arc::clone(&self.tables),
                        counters: Arc::clone(&self.counters),
                        shutdown: Arc::clone(&self.shutdown),
                        config: self.config.clone(),
                        has_model: self.model.is_some(),
                        active: Arc::clone(&self.active),
                        rejecting: Arc::clone(&self.rejecting),
                        limited,
                        conn_id: conn_seq.fetch_add(1, Ordering::Relaxed) + 1,
                    };
                    thread::spawn(move || ctx.serve(stream, guard));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Workers exit once every sender is gone: ours now, the
        // connection threads' as they notice the flag (bounded by their
        // read timeout) or hit EOF.
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        log::info("server_stopped")
            .field("addr", &addr)
            .field("connections", conn_seq.load(Ordering::Relaxed))
            .emit();
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address.
    ///
    /// # Panics
    ///
    /// Panics if the bound address cannot be read back (the listener is
    /// already live, so this cannot happen in practice).
    pub fn spawn(self) -> ServerHandle {
        // lint:allow(panic-policy): startup, not request handling — the
        // listener is already bound, so `local_addr` failing here means
        // the socket itself is broken and there is no service to run.
        let addr = self.local_addr().expect("listener has an address");
        let shutdown = Arc::clone(&self.shutdown);
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

/// Decrements the active-connection gauge when a connection thread exits,
/// however it exits.
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything a connection reader needs.
struct ConnCtx {
    job_tx: SyncSender<Job>,
    tables: Arc<QuantTablePair>,
    counters: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    has_model: bool,
    active: Arc<AtomicUsize>,
    rejecting: Arc<AtomicUsize>,
    limited: bool,
    /// Monotone per-server connection id — the correlation key on every
    /// event this connection emits.
    conn_id: u64,
}

/// Emits `conn_close` when the reader thread exits, however it exits, so
/// every accepted connection's event stream is closed by construction.
struct CloseLogger {
    conn_id: u64,
    requests: Cell<u64>,
}

impl Drop for CloseLogger {
    fn drop(&mut self) {
        log::debug("conn_close")
            .field("conn_id", self.conn_id)
            .field("requests", self.requests.get())
            .emit();
    }
}

/// Who a request is and when it started, carried from the reader to the
/// code that closes the request out after its reply is written.
#[derive(Clone, Copy)]
struct ReqMeta {
    /// The request's key in the connection's [`TagWindow`]: the wire
    /// tag under tagged framing, the reader's own request number under
    /// v1.
    tag: u32,
    /// Whether the request arrived tagged, so its reply goes out
    /// tag-prefixed.
    tagged: bool,
    req_id: u64,
    span: &'static str,
    /// Frame-read timestamp (whole-request clock).
    start_ns: u64,
}

impl ReqMeta {
    /// The tag the reply frame carries on the wire, if any.
    fn wire_tag(&self) -> Option<u32> {
        self.tagged.then_some(self.tag)
    }
}

/// One completed reply on its way to the socket: the reply body plus
/// everything needed to close out the request's observability after the
/// write.
struct Reply {
    meta: ReqMeta,
    /// `status | payload`; a tagged reply gets its tag prefixed on the wire.
    body: Vec<u8>,
    /// Whether writing this reply retires its tag from the in-flight
    /// window. `false` for duplicate-tag error replies, whose tag still
    /// belongs to the original in-flight request.
    release: bool,
    /// Completion timestamp (start of the wait for the write).
    done_ns: u64,
    status: &'static str,
}

impl Reply {
    /// The reply to `meta`: its ok-payload behind a [`STATUS_OK`] byte,
    /// or its typed error frame.
    fn new(meta: ReqMeta, outcome: Result<Vec<u8>, ServeError>) -> Reply {
        let (body, status) = match outcome {
            Ok(payload) => {
                let mut body = Vec::with_capacity(1 + payload.len());
                body.push(STATUS_OK);
                body.extend_from_slice(&payload);
                (body, "ok")
            }
            Err(e) => {
                let status = error_status(&e);
                (error_reply(e), status)
            }
        };
        Reply {
            meta,
            body,
            release: true,
            done_ns: deepn_trace::tick(),
            status,
        }
    }
}

/// The producer half of a connection's pool-reply queue. Unbounded so
/// pool workers never block on one connection's slow reader; occupancy
/// is bounded anyway because the reader admits at most a window of
/// requests into flight.
#[derive(Clone)]
struct ReplySink {
    tx: mpsc::Sender<Reply>,
    /// Pool replies queued for the writer thread, not yet taken up.
    pending: Arc<AtomicUsize>,
    metrics: Arc<ServeMetrics>,
}

impl ReplySink {
    fn send(&self, reply: Reply) {
        let occupancy = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics
            .reply_buffer_high_water
            .set_max(occupancy as u64);
        // A dropped receiver means the connection died; nothing to do.
        let _ = self.tx.send(reply);
    }
}

/// A connection's in-flight window: the set of admitted tags. The reader
/// blocks admission while the window is full. A reply's tag is released
/// under the write lock, just before the reply is written
/// ([`ConnOut::deliver`]).
struct TagWindow {
    tags: Mutex<std::collections::HashSet<u32>>,
    freed: Condvar,
}

enum Admit {
    /// Admitted; `sole` is true when the tag is the window's only
    /// occupant, i.e. nothing else of this connection is in flight in
    /// the pool queue, on a worker, or in the reply queue (all of those
    /// hold their tag until their reply is about to be written).
    Admitted { sole: bool },
    /// The tag is already in flight on this connection.
    Duplicate,
    /// The service shut down while waiting for window room.
    Shutdown,
}

impl TagWindow {
    fn new() -> Self {
        TagWindow {
            tags: Mutex::new(std::collections::HashSet::new()),
            freed: Condvar::new(),
        }
    }

    /// Admits `tag` into a window of `limit` tags, waiting for room when
    /// it is full.
    fn admit(&self, tag: u32, limit: usize, shutdown: &AtomicBool) -> Admit {
        let Ok(mut tags) = self.tags.lock() else {
            return Admit::Shutdown;
        };
        loop {
            if tags.contains(&tag) {
                return Admit::Duplicate;
            }
            if tags.len() < limit {
                tags.insert(tag);
                return Admit::Admitted {
                    sole: tags.len() == 1,
                };
            }
            if shutdown.load(Ordering::SeqCst) {
                return Admit::Shutdown;
            }
            match self.freed.wait_timeout(tags, Duration::from_millis(100)) {
                Ok((guard, _)) => tags = guard,
                Err(_) => return Admit::Shutdown,
            }
        }
    }

    fn release(&self, tag: u32) {
        if let Ok(mut tags) = self.tags.lock() {
            tags.remove(&tag);
            self.freed.notify_all();
        }
    }
}

/// Writes one reply frame — `u32 tag`-prefixed when `tag` is set —
/// counting its bytes and timing the write. Returns whether the write
/// succeeded.
fn write_frame_timed(
    stream: &mut TcpStream,
    tag: Option<u32>,
    body: &[u8],
    metrics: &ServeMetrics,
) -> bool {
    let start = deepn_trace::tick();
    let (result, header) = match tag {
        Some(tag) => (protocol::write_tagged_frame(stream, tag, body), 8),
        None => (protocol::write_frame(stream, body), 4),
    };
    let end = deepn_trace::tick();
    metrics.add(Ctr::BytesOut, header + body.len() as u64);
    metrics
        .reply_write_seconds
        .record_ns(end.saturating_sub(start));
    deepn_trace::record_span("serve.reply_write", start, end);
    result.is_ok()
}

/// The socket's write half, owned by whoever holds [`ConnOut`]'s lock.
struct WriteHalf {
    stream: TcpStream,
    /// Set by the first failed write: the peer is gone, and a later
    /// reply must not splice its bytes behind a partial frame. Replies
    /// are still closed out (tags released, requests logged).
    dead: bool,
}

/// A connection's one write path, shared by its reader and its writer
/// thread: the socket's write half behind one lock, and the in-flight
/// window whose tags the replies retire. Whoever writes a reply takes
/// the lock, releases the reply's tag, then writes, so a v1 reader that
/// admits its next request can write that request's reply only after
/// the previous one — v1 replies leave in arrival order, and a tagged
/// client may reuse a tag the moment its reply arrives.
struct ConnOut {
    half: Mutex<WriteHalf>,
    window: TagWindow,
    metrics: Arc<ServeMetrics>,
    conn_id: u64,
    slow: Option<Duration>,
}

impl ConnOut {
    /// Takes the write lock. A thread that panicked while holding it may
    /// have left a partial frame on the socket, so a poisoned lock marks
    /// the peer gone.
    fn lock(&self) -> MutexGuard<'_, WriteHalf> {
        self.half.lock().unwrap_or_else(|poisoned| {
            let mut half = poisoned.into_inner();
            half.dead = true;
            half
        })
    }

    /// Delivers one reply and closes out its request — the only place a
    /// tag leaves the window. Under the write lock: releases the reply's
    /// tag, records how long the reply waited (lock wait included),
    /// writes it unless the peer is already gone, then records the
    /// request histogram and span and emits the structured `request` /
    /// `request_timeout` / `request_error` / `slow_request` events.
    fn deliver(&self, reply: &Reply) {
        let mut half = self.lock();
        if reply.release {
            self.window.release(reply.meta.tag);
        }
        let wait_end = deepn_trace::tick();
        self.metrics
            .reply_wait_seconds
            .record_ns(wait_end.saturating_sub(reply.done_ns));
        deepn_trace::record_span("serve.reply_wait", reply.done_ns, wait_end);
        let meta = &reply.meta;
        half.dead = half.dead
            || !write_frame_timed(
                &mut half.stream,
                meta.wire_tag(),
                &reply.body,
                &self.metrics,
            );
        drop(half);
        let end = deepn_trace::tick();
        let dur_ns = end.saturating_sub(meta.start_ns);
        self.metrics.request_seconds.record_ns(dur_ns);
        deepn_trace::record_span(meta.span, meta.start_ns, end);
        let op = meta
            .span
            .strip_prefix("serve.request.")
            .unwrap_or(meta.span);
        let ms = format!("{:.3}", dur_ns as f64 / 1e6);
        // The correlation fields every per-request event leads with; `tag`
        // only where the client chose one.
        let event = |ev: log::Event| {
            let ev = ev
                .field("conn_id", self.conn_id)
                .field("req_id", meta.req_id);
            let ev = match meta.wire_tag() {
                Some(tag) => ev.field("tag", tag),
                None => ev,
            };
            ev.field("op", op)
        };
        event(log::trace("request"))
            .field("status", reply.status)
            .field("ms", &ms)
            .emit();
        match reply.status {
            "timeout" => event(log::warn("request_timeout")).field("ms", &ms).emit(),
            "error" => event(log::warn("request_error")).field("ms", &ms).emit(),
            _ => {}
        }
        if let Some(t) = self.slow {
            if dur_ns >= t.as_nanos() as u64 {
                event(log::warn("slow_request"))
                    .field("ms", &ms)
                    .field("threshold_ms", format!("{:.3}", t.as_nanos() as f64 / 1e6))
                    .emit();
            }
        }
    }
}

/// The writer thread of a connection: delivers pool replies in completion
/// order. Exits once every [`ReplySink`] clone (reader + queued jobs) is
/// gone.
struct Writer {
    rx: Receiver<Reply>,
    out: Arc<ConnOut>,
    pending: Arc<AtomicUsize>,
}

impl Writer {
    fn run(self) {
        while let Ok(reply) = self.rx.recv() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            self.out.deliver(&reply);
        }
    }
}

/// The reader's side of one connection: its socket's read half, the
/// shared write path, and the reply queue it shares with pool jobs.
struct Conn {
    stream: TcpStream,
    out: Arc<ConnOut>,
    replies: ReplySink,
    /// The connection's writer thread, until the first pool job spawns
    /// it: a serial client whose every request runs on the reader never
    /// pays the thread spawn at all — which matters under connection
    /// churn, where the spawn would otherwise tax every reconnect.
    writer: Option<Writer>,
}

impl Conn {
    /// Spawns the writer thread if it is not running yet. Must run
    /// before a pool job holding the sink can reach the queue.
    fn spawn_writer(&mut self) {
        // Detached on purpose: queued jobs hold `ReplySink` clones, so
        // the writer outlives the reader exactly until the last
        // in-flight reply is delivered (or drained to a dead socket).
        if let Some(writer) = self.writer.take() {
            thread::spawn(move || writer.run());
        }
    }

    /// Writes a reply the reader produced itself. A failed write
    /// surfaces on the next read as EOF/error.
    fn answer(&self, reply: Reply) {
        self.out.deliver(&reply);
    }
}

/// Splits a request (tag already removed) into its opcode and payload.
fn parse_op(request: &[u8]) -> Result<(Opcode, &[u8]), ServeError> {
    let (&b, payload) = request
        .split_first()
        .ok_or_else(|| ServeError::Protocol("empty request frame".into()))?;
    let op =
        Opcode::from_u8(b).ok_or_else(|| ServeError::Protocol(format!("unknown opcode {b}")))?;
    Ok((op, payload))
}

impl ConnCtx {
    /// Serves one connection. Every request, v1 or tagged, takes the
    /// same path: the reader admits it into the connection's
    /// [`TagWindow`], then answers it itself (cheap ops, small work when
    /// it is the window's only request, typed rejections, and the v1-only
    /// ops) or submits it whole to the worker pool, whose reply a
    /// per-connection writer thread delivers. Both write under one lock
    /// ([`ConnOut`]). Until a `Hello` grants tagged framing the reader
    /// numbers requests itself and the window holds one request, so each
    /// request waits for its predecessor's tag, which leaves the window
    /// under the write lock just before its reply is written: v1 replies
    /// leave in arrival order. After the grant, frames carry
    /// client-chosen tags and up to [`TAGGED_WINDOW`] requests execute at
    /// once, answered in completion order.
    fn serve(self, mut stream: TcpStream, guard: ConnGuard) {
        let _ = stream.set_nodelay(true);
        if self.limited {
            // Over the connection limit: this connection is not being
            // *served*, so free its slot immediately — a burst of
            // rejected peers must not crowd out admittable ones.
            drop(guard);
            self.counters.inc(Ctr::ConnectionsRejected);
            // The polite reply itself is bounded: past the cap, close
            // immediately so a connect flood cannot pin unbounded threads
            // here.
            let hard_drop = self.rejecting.fetch_add(1, Ordering::SeqCst) >= REJECTION_THREAD_CAP;
            log::warn("conn_busy")
                .field("conn_id", self.conn_id)
                .field("limit", self.config.max_connections)
                .field("replied", !hard_drop)
                .emit();
            if hard_drop {
                self.rejecting.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            let _reject_guard = ConnGuard {
                active: Arc::clone(&self.rejecting),
            };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            // Consume one request so the peer's write is not met with a
            // reset, answer with a typed busy frame, and close. Never a
            // silent drop.
            if let Ok(Some(request)) = protocol::read_frame(&mut stream) {
                // Carve-out: a saturated service must still be stoppable.
                // Shutdown carries no payload and runs no jobs, so honor
                // it even over the limit.
                if request.first() == Some(&(Opcode::Shutdown as u8)) {
                    self.shutdown.store(true, Ordering::SeqCst);
                    let mut w = ByteWriter::new();
                    w.put_u8(STATUS_OK);
                    let _ = protocol::write_frame(&mut stream, w.as_bytes());
                    return;
                }
                let mut w = ByteWriter::new();
                w.put_u8(STATUS_BUSY);
                w.put_string(&format!(
                    "service at its {}-connection limit; retry later",
                    self.config.max_connections
                ));
                let _ = protocol::write_frame(&mut stream, w.as_bytes());
            }
            return;
        }
        // The guard holds this connection's slot until the reader exits.
        let _guard = guard;
        log::debug("conn_accept")
            .field("conn_id", self.conn_id)
            .field(
                "peer",
                stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".to_string()),
            )
            .emit();
        let closer = CloseLogger {
            conn_id: self.conn_id,
            requests: Cell::new(0),
        };
        // The timeout bounds how long a dead-idle connection pins this
        // thread after shutdown; it is not a per-request deadline.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let write_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                log::warn("conn_split_failed")
                    .field("conn_id", self.conn_id)
                    .field("error", e.to_string())
                    .emit();
                return;
            }
        };
        let out = Arc::new(ConnOut {
            half: Mutex::new(WriteHalf {
                stream: write_stream,
                dead: false,
            }),
            window: TagWindow::new(),
            metrics: Arc::clone(&self.counters),
            conn_id: self.conn_id,
            slow: self.config.slow_threshold,
        });
        let (reply_tx, reply_rx) = mpsc::channel();
        let replies = ReplySink {
            tx: reply_tx,
            pending: Arc::new(AtomicUsize::new(0)),
            metrics: Arc::clone(&self.counters),
        };
        let writer = Writer {
            rx: reply_rx,
            out: Arc::clone(&out),
            pending: Arc::clone(&replies.pending),
        };
        let mut conn = Conn {
            stream,
            out,
            replies,
            writer: Some(writer),
        };
        // Codec state for the reader's own work, mirroring the pool
        // workers' setup so inline replies are byte-identical. Streamed
        // compression uses the standard-Huffman encoder: single-pass
        // streaming cannot rewind the peer for an optimized-table
        // analysis pass.
        let mut codec = Codec::new(&self.tables, None);
        let stream_encoder = codec.encoder.clone().optimize_huffman(false);
        let mut strip = PixelStrip::new();
        let mut tagged = false;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let body = match protocol::read_frame_resuming(&mut conn.stream, |stalled| {
                self.keep_reading(stalled)
            }) {
                Ok(Some(body)) => body,
                Ok(None) => return,
                Err(ServeError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            };
            self.counters.inc(Ctr::Requests);
            self.counters.add(Ctr::BytesIn, 4 + body.len() as u64);
            let req_id = closer.requests.get() + 1;
            closer.requests.set(req_id);
            let start_ns = deepn_trace::tick();
            let (tag, request, limit) = if tagged {
                self.counters.inc(Ctr::TaggedRequests);
                let Ok((tag, request)) = protocol::split_tagged(&body) else {
                    // A frame too short to carry a tag cannot be answered
                    // tag-matched: the framing contract is broken, so
                    // close on this (still intact) frame boundary.
                    log::warn("tagged_runt_frame")
                        .field("conn_id", self.conn_id)
                        .field("req_id", req_id)
                        .field("bytes", body.len())
                        .emit();
                    return;
                };
                (tag, request, TAGGED_WINDOW)
            } else {
                (req_id as u32, &body[..], 1)
            };
            let meta = ReqMeta {
                tag,
                tagged,
                req_id,
                span: opcode_span_name(request.first().copied()),
                start_ns,
            };
            let sole = match conn.out.window.admit(tag, limit, &self.shutdown) {
                Admit::Shutdown => return,
                Admit::Duplicate => {
                    // Not admitted, so `release: false`: the tag still
                    // belongs to the original in-flight request, whose
                    // reply must not be forgotten because of the
                    // client's reuse.
                    let e = ServeError::Protocol(format!(
                        "tag {tag} is already in flight on this connection"
                    ));
                    conn.answer(Reply {
                        release: false,
                        ..Reply::new(meta, Err(e))
                    });
                    continue;
                }
                Admit::Admitted { sole } => sole,
            };
            let (op, payload) = match parse_op(request) {
                Ok(parsed) => parsed,
                Err(e) => {
                    conn.answer(Reply::new(meta, Err(e)));
                    continue;
                }
            };
            match op {
                Opcode::Ping => conn.answer(Reply::new(meta, Ok(Vec::new()))),
                Opcode::Stats => conn.answer(Reply::new(meta, Ok(self.stats_payload()))),
                Opcode::Metrics => {
                    let mut w = ByteWriter::new();
                    let active = self.active.load(Ordering::SeqCst) as u64;
                    w.put_string(&self.counters.render(active));
                    conn.answer(Reply::new(meta, Ok(w.into_bytes())));
                }
                Opcode::Shutdown => {
                    conn.answer(Reply::new(meta, Ok(Vec::new())));
                    self.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                Opcode::Hello if !tagged => {
                    // Feature negotiation. Granting FEATURE_TAGGED
                    // switches every later frame, both directions, to
                    // tagged framing; the grant itself goes out untagged,
                    // and the window is empty once it is written.
                    let requested = ByteReader::new(payload).u32().unwrap_or(0);
                    let granted = requested & protocol::FEATURE_TAGGED;
                    conn.answer(Reply::new(meta, Ok(granted.to_le_bytes().to_vec())));
                    if granted != 0 {
                        tagged = true;
                        self.counters.inc(Ctr::TaggedConnections);
                        log::debug("conn_tagged")
                            .field("conn_id", self.conn_id)
                            .field("window", TAGGED_WINDOW)
                            .emit();
                    }
                }
                Opcode::CompressStream if !tagged => {
                    let outcome = self.compress_stream(
                        &mut conn.stream,
                        payload,
                        &stream_encoder,
                        &mut codec.enc_ws,
                        &mut strip,
                    );
                    let failed = outcome.is_err();
                    conn.answer(Reply::new(meta, outcome));
                    // After a mid-stream failure the frame boundary with
                    // the peer is unknown: the typed frame went out, now
                    // close.
                    if failed {
                        return;
                    }
                }
                Opcode::DecompressStream if !tagged => {
                    // The request holds the window's only tag, so no pool
                    // reply can wait for the lock while the strips go out.
                    let outcome = self.decompress_stream(
                        &mut conn.out.lock().stream,
                        payload,
                        &codec.decoder,
                        &mut codec.dec_ws,
                        &mut strip,
                    );
                    let peer_gone = matches!(outcome, Err(ServeError::Io(_)));
                    conn.answer(Reply::new(meta, outcome));
                    if peer_gone {
                        return;
                    }
                }
                // The v1-only ops inside a tagged window: typed errors,
                // and the connection stays usable.
                Opcode::Hello => {
                    let e = ServeError::Protocol(
                        "tagged framing is already negotiated on this connection".into(),
                    );
                    conn.answer(Reply::new(meta, Err(e)));
                }
                Opcode::CompressStream | Opcode::DecompressStream => {
                    let e = ServeError::Protocol(
                        "streaming ops are not available on a tagged connection; \
                         open an untagged (v1) connection"
                            .into(),
                    );
                    conn.answer(Reply::new(meta, Err(e)));
                }
                Opcode::EncodeBatch | Opcode::DecodeBatch | Opcode::Classify => {
                    match self.parse_work(op, payload) {
                        Err(e) => conn.answer(Reply::new(meta, Err(e))),
                        Ok(work) if sole && work.inline_cost() <= INLINE_WORK_BUDGET => {
                            // Inline execution: nothing else is in
                            // flight, so blocking the reader for this
                            // small request trades no window concurrency
                            // away and skips both thread hand-offs (pool
                            // submit, writer wake).
                            let reply = run_whole(
                                work,
                                meta,
                                self.deadline(),
                                deepn_trace::tick(),
                                &mut codec,
                                &self.counters,
                            );
                            conn.answer(reply);
                        }
                        Ok(work) => self.submit(&mut conn, work, meta),
                    }
                }
            }
        }
    }

    /// Whether a reader whose peer has been sending one frame for
    /// `stalled` should keep waiting for the rest: until shutdown, and at
    /// most the request budget when one is set. The socket's read timeout
    /// is only the poll interval at which this is asked.
    fn keep_reading(&self, stalled: Duration) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
            && self.config.request_timeout.is_none_or(|t| stalled < t)
    }

    /// The deadline of a request dispatched now, with its budget.
    fn deadline(&self) -> Option<(Duration, Instant)> {
        self.config.request_timeout.map(|t| (t, Instant::now() + t))
    }

    /// Parses a work op's payload into its whole-request job.
    fn parse_work(&self, op: Opcode, payload: &[u8]) -> Result<WholeWork, ServeError> {
        let mut r = ByteReader::new(payload);
        match op {
            Opcode::EncodeBatch => {
                let count = r.len(8)?;
                let mut images = Vec::with_capacity(count);
                for _ in 0..count {
                    images.push(protocol::get_image(&mut r)?);
                }
                Ok(WholeWork::Encode(images))
            }
            Opcode::DecodeBatch => {
                let count = r.len(4)?;
                let mut blobs = Vec::with_capacity(count);
                for _ in 0..count {
                    blobs.push(protocol::get_blob(&mut r)?);
                }
                Ok(WholeWork::Decode(blobs))
            }
            Opcode::Classify => {
                if !self.has_model {
                    return Err(ServeError::Remote(
                        "service started without a model artifact".into(),
                    ));
                }
                let count = r.len(8)?;
                let mut images = Vec::with_capacity(count);
                for _ in 0..count {
                    images.push(protocol::get_image(&mut r)?);
                }
                Ok(WholeWork::Classify(images))
            }
            _ => Err(ServeError::Protocol(format!("op {op:?} is not pool work"))),
        }
    }

    /// Submits one whole request to the bounded pool queue, retrying
    /// while the queue is full but never past the request's deadline.
    /// The reader writes a submission failure's typed reply itself.
    fn submit(&self, conn: &mut Conn, work: WholeWork, meta: ReqMeta) {
        // The job's reply goes through the writer thread.
        conn.spawn_writer();
        let deadline = self.deadline();
        let mut job = Job {
            work,
            meta,
            deadline,
            submitted_ns: deepn_trace::tick(),
            reply: conn.replies.clone(),
        };
        let failure = loop {
            match self.job_tx.try_send(job) {
                Ok(()) => return,
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    break ServeError::Remote("service is shutting down".into());
                }
                Err(mpsc::TrySendError::Full(back)) => {
                    if let Some((budget, end)) = &deadline {
                        if Instant::now() >= *end {
                            self.counters.inc(Ctr::RequestsTimedOut);
                            break ServeError::Timeout(format!(
                                "request exceeded its {budget:?} budget"
                            ));
                        }
                    }
                    job = back;
                    thread::sleep(Duration::from_millis(1));
                    // Queue wait measures queued time, not the
                    // submitter's backoff: restamp on each retry.
                    job.submitted_ns = deepn_trace::tick();
                }
            }
        };
        conn.answer(Reply::new(meta, Err(failure)));
    }

    /// Handles one `CompressStream` request after its begin frame: reads
    /// one raw-RGB frame per strip, feeds the per-connection streaming
    /// session, and returns the ok-payload carrying the JFIF blob. Strip
    /// frames bound the resident pixel memory to O(strip) no matter how
    /// large the image is; the per-request deadline covers the whole
    /// stream.
    fn compress_stream(
        &self,
        stream: &mut TcpStream,
        payload: &[u8],
        encoder: &Encoder,
        ws: &mut EncodeWorkspace,
        strip: &mut PixelStrip,
    ) -> Result<Vec<u8>, ServeError> {
        let mut r = ByteReader::new(payload);
        let width = r.u32()? as usize;
        let height = r.u32()? as usize;
        let deadline = self.deadline();
        let mut session = encoder
            .stream_encoder(width, height)
            .map_err(|e| ServeError::Remote(format!("compress-stream rejected: {e}")))?;
        let mut jfif = Vec::new();
        for s in 0..session.strip_count() {
            let frame = loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    return Err(ServeError::Remote("service is shutting down".into()));
                }
                if let Some((budget, end)) = &deadline {
                    if Instant::now() >= *end {
                        self.counters.inc(Ctr::RequestsTimedOut);
                        return Err(ServeError::Timeout(format!(
                            "stream exceeded its {budget:?} budget"
                        )));
                    }
                }
                let within_budget = |_| {
                    !self.shutdown.load(Ordering::SeqCst)
                        && deadline.is_none_or(|(_, end)| Instant::now() < end)
                };
                match protocol::read_frame_resuming(stream, within_budget) {
                    Ok(Some(frame)) => break frame,
                    Ok(None) => {
                        return Err(ServeError::Protocol(format!(
                            "peer closed after {s} of {} strips",
                            session.strip_count()
                        )))
                    }
                    Err(ServeError::Io(e))
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            };
            self.counters.add(Ctr::BytesIn, 4 + frame.len() as u64);
            strip
                .set_rows(width, session.strip_rows(s), &frame)
                .map_err(|e| ServeError::Protocol(e.to_string()))?;
            session
                .encode_strip(strip, ws)
                .map_err(|e| ServeError::Remote(format!("encode failed: {e}")))?;
            jfif.extend(session.take_output());
        }
        jfif.extend(
            session
                .finish()
                .map_err(|e| ServeError::Remote(format!("encode failed: {e}")))?,
        );
        self.counters.inc(Ctr::ImagesEncoded);
        let mut w = ByteWriter::new();
        protocol::put_blob(&mut w, &jfif);
        Ok(w.into_bytes())
    }

    /// Handles one `DecompressStream` request: parses the JFIF blob from
    /// the request payload, then frames the decoded image back as a begin
    /// frame (`status | u32 width | u32 height`) followed by one
    /// `status | raw RGB rows` frame per 8-row strip. The decoded image is
    /// never materialized — peak reply-side memory is one strip, no matter
    /// how large the image is.
    ///
    /// Every frame but the last is written here; the last one's payload
    /// is returned as the request's reply. A failure returns the typed
    /// error that replaces the next strip frame — on an intact frame
    /// boundary, so only [`ServeError::Io`] (the peer is gone) ends the
    /// connection.
    fn decompress_stream(
        &self,
        stream: &mut TcpStream,
        payload: &[u8],
        decoder: &Decoder,
        ws: &mut DecodeWorkspace,
        strip: &mut PixelStrip,
    ) -> Result<Vec<u8>, ServeError> {
        let deadline = self.deadline();
        let mut r = ByteReader::new(payload);
        let jfif = protocol::get_blob(&mut r)?;
        let mut session = decoder
            .stream_decoder(&jfif)
            .map_err(|e| ServeError::Remote(format!("decode failed: {e}")))?;
        let mut frame = ByteWriter::new();
        frame.put_u8(STATUS_OK);
        frame.put_u32(session.width() as u32);
        frame.put_u32(session.height() as u32);
        let mut frame = frame.into_bytes();
        // `next_strip` yields exactly `strip_count` strips (or an error).
        for _ in 0..session.strip_count() {
            if !write_frame_timed(stream, None, &frame, &self.counters) {
                return Err(ServeError::Io(io::ErrorKind::BrokenPipe.into()));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::Remote("service is shutting down".into()));
            }
            if let Some((budget, end)) = &deadline {
                if Instant::now() >= *end {
                    self.counters.inc(Ctr::RequestsTimedOut);
                    return Err(ServeError::Timeout(format!(
                        "stream exceeded its {budget:?} budget"
                    )));
                }
            }
            session
                .next_strip(ws, strip)
                .map_err(|e| ServeError::Remote(format!("decode failed: {e}")))?;
            frame.truncate(1);
            frame.extend_from_slice(strip.as_bytes());
        }
        self.counters.inc(Ctr::ImagesDecoded);
        Ok(frame.split_off(1))
    }

    /// The `Stats` ok-payload: the frozen eight-counter prefix, the
    /// config echo, then every trailing field in append order
    /// (docs/PROTOCOL.md — trailing fields are how `Stats` grows without
    /// shifting what old clients read).
    fn stats_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        // The counter array's declaration order IS the wire order
        // (docs/PROTOCOL.md) — one source of truth for both.
        for v in self.counters.wire_counters() {
            w.put_u64(v);
        }
        w.put_u32(self.active.load(Ordering::SeqCst) as u32);
        w.put_u32(self.config.workers as u32);
        w.put_u32(self.config.queue_depth as u32);
        w.put_u32(self.config.max_connections as u32);
        // 0 means "no deadline"; an enabled sub-millisecond budget
        // (e.g. `Some(Duration::ZERO)` in tests) reports as 1 so it
        // cannot masquerade as disabled.
        w.put_u64(
            self.config
                .request_timeout
                .map_or(0, |t| (t.as_millis() as u64).max(1)),
        );
        w.put_u8(u8::from(self.has_model));
        // Trailing fields, append-only past this point.
        w.put_u64(self.counters.get(Ctr::TaggedConnections));
        w.put_u64(self.counters.get(Ctr::TaggedRequests));
        w.into_bytes()
    }
}

/// The span name for a request frame's opcode byte — static strings so
/// recording a span never allocates.
fn opcode_span_name(op: Option<u8>) -> &'static str {
    match op.and_then(Opcode::from_u8) {
        Some(Opcode::Ping) => "serve.request.ping",
        Some(Opcode::EncodeBatch) => "serve.request.encode_batch",
        Some(Opcode::DecodeBatch) => "serve.request.decode_batch",
        Some(Opcode::Classify) => "serve.request.classify",
        Some(Opcode::Stats) => "serve.request.stats",
        Some(Opcode::Shutdown) => "serve.request.shutdown",
        Some(Opcode::CompressStream) => "serve.request.compress_stream",
        Some(Opcode::Metrics) => "serve.request.metrics",
        Some(Opcode::DecompressStream) => "serve.request.decompress_stream",
        Some(Opcode::Hello) => "serve.request.hello",
        None => "serve.request.unknown",
    }
}

/// Renders an error as a typed reply body. Admission failures travel as
/// their own status bytes so clients can distinguish "back off" from
/// "request broken".
fn error_reply(e: ServeError) -> Vec<u8> {
    let (status, message) = match e {
        ServeError::Busy(m) => (STATUS_BUSY, m),
        ServeError::Timeout(m) => (STATUS_TIMEOUT, m),
        other => (STATUS_ERR, other.to_string()),
    };
    let mut w = ByteWriter::new();
    w.put_u8(status);
    w.put_string(&message);
    w.into_bytes()
}

/// Normalizes an image exactly as `deepn_core::experiment::to_tensors`
/// does, so a model trained by the pipeline classifies service traffic
/// identically.
fn image_to_tensor(img: &RgbImage) -> Tensor {
    let mut chw = img.to_chw_f32();
    for v in &mut chw {
        *v -= 0.5;
    }
    Tensor::from_vec(chw, &[1, 3, img.height(), img.width()])
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, mut codec: Codec, metrics: &ServeMetrics) {
    loop {
        // Hold the lock only while dequeuing, not while working.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else {
            return;
        };
        let reply = run_whole(
            job.work,
            job.meta,
            job.deadline,
            job.submitted_ns,
            &mut codec,
            metrics,
        );
        job.reply.send(reply);
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".into())
}

/// The status label a typed failure carries in the `request` event.
fn error_status(e: &ServeError) -> &'static str {
    match e {
        ServeError::Busy(_) => "busy",
        ServeError::Timeout(_) => "timeout",
        ServeError::Io(_) => "io",
        _ => "error",
    }
}

/// Executes one whole request — on a pool worker, or inline on the
/// connection's reader — to a finished [`Reply`], with identical bytes,
/// deadline checks, panic isolation, and metrics either way. The
/// deadline is checked at dequeue and before each batch item (an item
/// already running finishes), and the first failing item, in item
/// order, fails the whole request.
fn run_whole(
    work: WholeWork,
    meta: ReqMeta,
    deadline: Option<(Duration, Instant)>,
    submitted_ns: u64,
    codec: &mut Codec,
    metrics: &ServeMetrics,
) -> Reply {
    let dequeued_ns = deepn_trace::tick();
    metrics
        .queue_wait_seconds
        .record_ns(dequeued_ns.saturating_sub(submitted_ns));
    deepn_trace::record_span("serve.queue_wait", submitted_ns, dequeued_ns);
    let over_budget = || -> Option<ServeError> {
        deadline.as_ref().and_then(|(budget, end)| {
            (Instant::now() >= *end)
                .then(|| ServeError::Timeout(format!("request exceeded its {budget:?} budget")))
        })
    };
    let outcome = match over_budget() {
        // Dead on arrival: the deadline passed while queued, so skip the
        // work entirely instead of computing a reply past its budget.
        Some(e) => Err(e),
        // A panic (e.g. an image whose geometry violates a model layer's
        // invariants) must cost one request, not one pool thread: an
        // unreplaced dead worker would eventually wedge the whole service.
        None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<Vec<u8>, ServeError> {
                match work {
                    WholeWork::Encode(images) => {
                        let mut w = ByteWriter::new();
                        w.put_len(images.len());
                        for img in &images {
                            if let Some(e) = over_budget() {
                                return Err(e);
                            }
                            let bytes = codec
                                .encoder
                                .encode_with(img, &mut codec.enc_ws)
                                .map_err(|e| ServeError::Remote(format!("encode failed: {e}")))?;
                            protocol::put_blob(&mut w, &bytes);
                        }
                        metrics.add(Ctr::ImagesEncoded, images.len() as u64);
                        Ok(w.into_bytes())
                    }
                    WholeWork::Decode(blobs) => {
                        let mut w = ByteWriter::new();
                        w.put_len(blobs.len());
                        for blob in &blobs {
                            if let Some(e) = over_budget() {
                                return Err(e);
                            }
                            let img = codec
                                .decoder
                                .decode_with(blob, &mut codec.dec_ws)
                                .map_err(|e| ServeError::Remote(format!("decode failed: {e}")))?;
                            protocol::put_image(&mut w, &img);
                        }
                        metrics.add(Ctr::ImagesDecoded, blobs.len() as u64);
                        Ok(w.into_bytes())
                    }
                    WholeWork::Classify(images) => {
                        let Some(net) = &codec.model else {
                            return Err(ServeError::Remote("no model loaded".into()));
                        };
                        let mut w = ByteWriter::new();
                        w.put_len(images.len());
                        for img in &images {
                            if let Some(e) = over_budget() {
                                return Err(e);
                            }
                            let labels = net.predict(&image_to_tensor(img));
                            w.put_u32(labels[0] as u32);
                        }
                        metrics.add(Ctr::ImagesClassified, images.len() as u64);
                        Ok(w.into_bytes())
                    }
                }
            },
        ))
        .unwrap_or_else(|panic| {
            Err(ServeError::Remote(format!(
                "request rejected: {}",
                panic_message(&panic)
            )))
        }),
    };
    if matches!(outcome, Err(ServeError::Timeout(_))) {
        metrics.inc(Ctr::RequestsTimedOut);
    }
    let reply = Reply::new(meta, outcome);
    metrics
        .execute_seconds
        .record_ns(reply.done_ns.saturating_sub(dequeued_ns));
    deepn_trace::record_span("serve.execute", dequeued_ns, reply.done_ns);
    reply
}
