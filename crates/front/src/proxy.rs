//! The per-connection frame splice: client ↔ front ↔ backend.
//!
//! Each accepted client connection gets two threads. The **upstream**
//! thread reads request frames from the client, intercepts the ops the
//! front answers itself (`Metrics`, `Shutdown`), and forwards everything
//! else to one sticky backend chosen on the first forwarded frame — by
//! the `Hello` table fingerprint when the client advertises one, by the
//! connection id otherwise. The **downstream** thread reads reply frames
//! from that backend and forwards them to the client, tracking reply
//! boundaries so multi-frame exchanges (`DecompressStream`) and the
//! `Hello` upgrade to tagged framing are spliced intact.
//!
//! The front never replays: when a backend dies mid-exchange both
//! directions are torn down and the client's own reconnect+replay
//! contract re-sends the unacknowledged window through a fresh
//! connection, which the ring then routes to the next live shard.
//!
//! Request accounting happens on the *reply* side: one completed,
//! non-busy logical reply increments the owning shard's splice counter.
//! Counting completions (rather than forwards) keeps the fleet-wide
//! `deepn_serve_requests_total` aligned with the single-server
//! convention — a connection-limit `BUSY` rejection is not a counted
//! request there either — and a request that dies with its backend is
//! exactly the client-visible transport error the load generator's
//! reconciliation slack already covers.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use deepn_serve::protocol::{self, Opcode, FEATURE_TAGGED, STATUS_BUSY, STATUS_OK};
use deepn_serve::ServeError;
use deepn_trace::log;

use crate::FrontState;

/// Read-timeout used on both spliced sockets: short enough that the
/// threads notice drain/teardown promptly, long enough to stay off the
/// hot path.
const POLL_TIMEOUT: Duration = Duration::from_millis(200);

/// How long the upstream thread waits for a live shard to appear before
/// rejecting the connection busy — covers the supervisor's restart
/// backoff after a whole-fleet stumble.
const ROUTE_WAIT: Duration = Duration::from_secs(2);

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the downstream thread must do with the next backend frame, in
/// request order. An entry stays queued until its whole reply has been
/// written to the client, so front-answered replies never jump ahead of
/// a backend reply already in flight.
enum ReplyKind {
    /// One reply frame, forwarded as-is.
    Simple,
    /// One reply frame; a `FEATURE_TAGGED` grant flips the connection to
    /// tagged framing (flag set *before* the grant reaches the client).
    Hello,
    /// A begin frame followed by strip frames, early-terminated by any
    /// non-OK status on an intact boundary.
    DecompressStream,
    /// A front-answered reply queued behind in-flight backend replies
    /// (the v1 pipelined case); written when it reaches the queue head.
    Intercepted(Vec<u8>),
}

/// State shared by a connection's two splice threads.
struct ConnShared {
    /// Write half of the client socket, shared by both threads.
    client_out: Mutex<TcpStream>,
    /// Reply descriptors for v1 framing, in request order.
    pending: Mutex<VecDeque<ReplyKind>>,
    /// Whether the connection upgraded to tagged (protocol v2) framing.
    tagged: AtomicBool,
    /// Requests forwarded to the backend whose replies have not finished.
    outstanding: AtomicI64,
    /// Set by whichever side tears down first.
    done: AtomicBool,
}

/// Writes one frame to the client, returning `false` on failure.
fn write_client(shared: &ConnShared, body: &[u8]) -> bool {
    protocol::write_frame(&mut *lock(&shared.client_out), body).is_ok()
}

/// Whether a read error is the idle-poll timeout (retryable) rather than
/// a real failure.
fn retryable(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io(io) if matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

/// Reads one frame, looping over idle-poll timeouts until `done` is set;
/// a peer that pauses mid-frame is waited for on the same terms.
fn read_frame_patient(
    stream: &mut TcpStream,
    shared: &ConnShared,
) -> Result<Option<Vec<u8>>, ServeError> {
    loop {
        match protocol::read_frame_resuming(stream, |_| !shared.done.load(Ordering::SeqCst)) {
            Err(e) if retryable(&e) => {
                if shared.done.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            other => return other,
        }
    }
}

/// Drives one client connection to completion. Spawned per accept by
/// [`crate::Front::run`].
pub(crate) fn handle_conn(state: Arc<FrontState>, mut client_in: TcpStream, conn_id: u64) {
    let _ = client_in.set_nodelay(true);
    let _ = client_in.set_read_timeout(Some(POLL_TIMEOUT));
    let Ok(client_out) = client_in.try_clone() else {
        return;
    };
    let shared = Arc::new(ConnShared {
        client_out: Mutex::new(client_out),
        pending: Mutex::new(VecDeque::new()),
        tagged: AtomicBool::new(false),
        outstanding: AtomicI64::new(0),
        done: AtomicBool::new(false),
    });
    state.connections_total.inc();
    state.set_active(state.active_conns.fetch_add(1, Ordering::SeqCst) + 1);

    let mut backend: Option<BackendLink> = None;
    upstream(&state, &shared, &mut client_in, &mut backend, conn_id);

    // Teardown: kick both sockets so the peer thread unblocks, then
    // reconcile the global in-flight count with whatever this connection
    // still had outstanding.
    shared.done.store(true, Ordering::SeqCst);
    let _ = client_in.shutdown(Shutdown::Both);
    if let Some(link) = backend {
        let _ = link.write.shutdown(Shutdown::Both);
        let _ = link.reader.join();
    }
    let residue = shared.outstanding.swap(0, Ordering::SeqCst);
    if residue != 0 {
        state.outstanding.fetch_sub(residue, Ordering::SeqCst);
    }
    state.set_active(state.active_conns.fetch_sub(1, Ordering::SeqCst) - 1);
}

/// The sticky backend leg of one client connection.
struct BackendLink {
    write: TcpStream,
    reader: thread::JoinHandle<()>,
}

/// The upstream loop: client frames in, backend frames (or intercepted
/// replies) out. Returns when the client closes, a socket fails, or a
/// drain completes.
fn upstream(
    state: &Arc<FrontState>,
    shared: &Arc<ConnShared>,
    client_in: &mut TcpStream,
    backend: &mut Option<BackendLink>,
    conn_id: u64,
) {
    // Strip frames still owed by an in-progress CompressStream exchange;
    // they are spliced verbatim, not parsed as requests.
    let mut strips_remaining: u64 = 0;
    loop {
        // Idle or mid-frame, the connection ends on teardown, or on drain
        // once nothing it sent is still outstanding.
        let finished = || {
            shared.done.load(Ordering::SeqCst)
                || (state.draining() && shared.outstanding.load(Ordering::SeqCst) == 0)
        };
        let body = match protocol::read_frame_resuming(client_in, |_| !finished()) {
            Ok(Some(b)) => b,
            Ok(None) => return,
            Err(e) if retryable(&e) => {
                if finished() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if strips_remaining > 0 {
            strips_remaining -= 1;
            let Some(link) = backend.as_mut() else { return };
            if protocol::write_frame(&mut link.write, &body).is_err() {
                return;
            }
            continue;
        }
        let tagged = shared.tagged.load(Ordering::SeqCst);
        let (tag, inner): (u32, &[u8]) = if tagged {
            match protocol::split_tagged(&body) {
                Ok((t, i)) => (t, i),
                Err(_) => return,
            }
        } else {
            (0, &body[..])
        };
        let Some(&op) = inner.first() else { return };

        // Front-answered ops.
        if op == Opcode::Metrics as u8 {
            let reply = metrics_reply(state);
            if !send_intercepted(shared, tagged, tag, reply) {
                return;
            }
            continue;
        }
        if op == Opcode::Shutdown as u8 {
            state.front_requests.fetch_add(1, Ordering::SeqCst);
            log::info("front_shutdown_requested")
                .field("conn_id", conn_id)
                .emit();
            let sent = send_intercepted(shared, tagged, tag, vec![STATUS_OK]);
            state.begin_drain();
            if !sent {
                return;
            }
            continue;
        }

        // Everything else needs the sticky backend leg.
        if backend.is_none() {
            let key = routing_key(conn_id, tagged, inner);
            match connect_backend(state, shared, key, conn_id) {
                Some(link) => *backend = Some(link),
                None => {
                    // Count the rejection so the fleet exposition's
                    // `shard="front"` rejected sample keeps the loadgen
                    // busy cross-check (`rejected_delta >= busy`) exact
                    // even during a full outage.
                    state.front_rejected.fetch_add(1, Ordering::SeqCst);
                    let mut reply = vec![STATUS_BUSY];
                    put_string(&mut reply, "no live backend shard; retry later");
                    let _ = send_intercepted(shared, tagged, tag, reply);
                    return;
                }
            }
        }
        let Some(link) = backend.as_mut() else { return };

        if !tagged {
            let kind = if op == Opcode::Hello as u8 {
                ReplyKind::Hello
            } else if op == Opcode::DecompressStream as u8 {
                ReplyKind::DecompressStream
            } else {
                if op == Opcode::CompressStream as u8 {
                    strips_remaining = compress_strips(inner);
                }
                ReplyKind::Simple
            };
            lock(&shared.pending).push_back(kind);
        }
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        state.outstanding.fetch_add(1, Ordering::SeqCst);
        if protocol::write_frame(&mut link.write, &body).is_err() {
            return;
        }
    }
}

/// The routing key for a connection's first forwarded frame: the table
/// fingerprint when the frame is a `Hello` advertising one (so every
/// connection working one table lands on the shard whose caches hold
/// it), a mixed connection id otherwise.
fn routing_key(conn_id: u64, tagged: bool, inner: &[u8]) -> u64 {
    if !tagged && inner.first() == Some(&(Opcode::Hello as u8)) && inner.len() >= 13 {
        let mut fp = [0u8; 8];
        fp.copy_from_slice(&inner[5..13]);
        let fp = u64::from_le_bytes(fp);
        if fp != 0 {
            return fp;
        }
    }
    crate::ring::splitmix64(conn_id)
}

/// Strip frames owed after a v1 `CompressStream` begin frame
/// (`op | u32 width | u32 height`): `ceil(height / 8)`.
fn compress_strips(inner: &[u8]) -> u64 {
    if inner.len() < 9 {
        return 0;
    }
    let mut h = [0u8; 4];
    h.copy_from_slice(&inner[5..9]);
    (u32::from_le_bytes(h) as u64).div_ceil(8)
}

/// Appends a length-prefixed UTF-8 string (the reply-payload string
/// encoding).
fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// One fleet-wide `Metrics` exposition, counted against the front itself
/// *before* rendering so a scrape's own request is visible in it — the
/// single-server convention the load generator's `scrapes − 1`
/// reconciliation term assumes.
fn metrics_reply(state: &FrontState) -> Vec<u8> {
    state.front_requests.fetch_add(1, Ordering::SeqCst);
    let text = state.render_metrics();
    let mut reply = Vec::with_capacity(5 + text.len());
    reply.push(STATUS_OK);
    put_string(&mut reply, &text);
    reply
}

/// Delivers a front-answered reply without ever overtaking a backend
/// reply already in flight: written directly when nothing is pending
/// (the serial-scraper fast path; the `pending` lock is held across the
/// write so the check and the write are one atomic step against the
/// downstream thread), queued as [`ReplyKind::Intercepted`] otherwise.
/// Tagged connections carry the reply's tag and may reorder freely.
fn send_intercepted(shared: &ConnShared, tagged: bool, tag: u32, reply: Vec<u8>) -> bool {
    if tagged {
        return protocol::write_tagged_frame(&mut *lock(&shared.client_out), tag, &reply).is_ok();
    }
    let mut pending = lock(&shared.pending);
    if pending.is_empty() {
        return write_client(shared, &reply);
    }
    pending.push_back(ReplyKind::Intercepted(reply));
    true
}

/// Routes `key` on the ring, skipping dead shards, and connects — the
/// failover walk. Waits out a whole-fleet outage up to [`ROUTE_WAIT`]
/// before giving up. On success the downstream splice thread is already
/// running on the returned link.
fn connect_backend(
    state: &Arc<FrontState>,
    shared: &Arc<ConnShared>,
    key: u64,
    conn_id: u64,
) -> Option<BackendLink> {
    let home = state.ring.route(key);
    let ticks = (ROUTE_WAIT.as_millis() / 50).max(1);
    for _ in 0..ticks {
        if shared.done.load(Ordering::SeqCst) {
            return None;
        }
        let fleet = state.view.snapshot();
        // Shards whose connect failed this pass: the view is a snapshot,
        // so a just-died backend can still be listed as up. The exclusion
        // resets every tick — a restarted shard comes back at a new
        // address.
        let mut failed: Vec<u32> = Vec::new();
        while let Some(shard) = state.ring.route_live(key, |s| {
            !failed.contains(&s) && fleet.get(s as usize).map(|v| v.addr.is_some()) == Some(true)
        }) {
            let Some(addr) = fleet.get(shard as usize).and_then(|v| v.addr) else {
                break;
            };
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(stream) => {
                    if home.is_some() && home != Some(shard) {
                        state.failovers_total.inc();
                        log::info("conn_failover")
                            .field("conn_id", conn_id)
                            .field("home", home.unwrap_or(u32::MAX))
                            .field("shard", shard)
                            .emit();
                    }
                    return open_link(state, shared, shard, stream);
                }
                Err(_) => failed.push(shard),
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
    None
}

/// Finishes a connected backend leg: socket options plus the downstream
/// splice thread.
fn open_link(
    state: &Arc<FrontState>,
    shared: &Arc<ConnShared>,
    shard: u32,
    stream: TcpStream,
) -> Option<BackendLink> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
    let read = stream.try_clone().ok()?;
    let state = Arc::clone(state);
    let shared_dn = Arc::clone(shared);
    let reader = thread::Builder::new()
        .name(format!("front-dn-{shard}"))
        .spawn(move || downstream(state, shared_dn, shard, read))
        .ok()?;
    Some(BackendLink {
        write: stream,
        reader,
    })
}

/// The downstream loop: backend reply frames in, client frames out, one
/// shard-counter increment per completed non-busy logical reply.
fn downstream(state: Arc<FrontState>, shared: Arc<ConnShared>, shard: u32, mut from: TcpStream) {
    while let Ok(Some(frame)) = read_frame_patient(&mut from, &shared) {
        // Pop up to the descriptor this frame answers, flushing any
        // front-answered replies queued ahead of it. The lock is held
        // until the whole logical reply is on the client socket, which is
        // what keeps `send_intercepted`'s fast path ordered.
        let mut pending = lock(&shared.pending);
        let kind = loop {
            match pending.pop_front() {
                Some(ReplyKind::Intercepted(reply)) => {
                    if !write_client(&shared, &reply) {
                        drop(pending);
                        teardown(&shared, &from);
                        return;
                    }
                }
                Some(other) => break Some(other),
                None => break None,
            }
        };
        let counted = match kind {
            None => {
                // No descriptor means tagged framing: every frame is one
                // complete reply, tag spliced through inside the body.
                let busy = protocol::split_tagged(&frame)
                    .map(|(_, inner)| inner.first() == Some(&STATUS_BUSY))
                    .unwrap_or(false);
                if !write_client(&shared, &frame) {
                    break;
                }
                !busy
            }
            Some(ReplyKind::Simple) => {
                let busy = frame.first() == Some(&STATUS_BUSY);
                if !write_client(&shared, &frame) {
                    break;
                }
                !busy
            }
            Some(ReplyKind::Intercepted(reply)) => {
                // Unreachable by construction — the flush loop above pops
                // every queued intercept — but stay lossless if it ever
                // happens: deliver the intercept, then the backend frame
                // as a simple reply.
                let busy = frame.first() == Some(&STATUS_BUSY);
                if !write_client(&shared, &reply) || !write_client(&shared, &frame) {
                    break;
                }
                !busy
            }
            Some(ReplyKind::Hello) => {
                if frame.first() == Some(&STATUS_OK) && frame.len() >= 5 {
                    let mut g = [0u8; 4];
                    g.copy_from_slice(&frame[1..5]);
                    if u32::from_le_bytes(g) & FEATURE_TAGGED != 0 {
                        // Set before the grant is forwarded: the client
                        // only sends tagged frames after reading it, so
                        // the upstream thread observes the flag in time.
                        shared.tagged.store(true, Ordering::SeqCst);
                    }
                }
                let busy = frame.first() == Some(&STATUS_BUSY);
                if !write_client(&shared, &frame) {
                    break;
                }
                !busy
            }
            Some(ReplyKind::DecompressStream) => {
                let busy = frame.first() == Some(&STATUS_BUSY);
                let strips = if frame.first() == Some(&STATUS_OK) && frame.len() >= 9 {
                    let mut h = [0u8; 4];
                    h.copy_from_slice(&frame[5..9]);
                    (u32::from_le_bytes(h) as u64).div_ceil(8)
                } else {
                    0
                };
                if !write_client(&shared, &frame) {
                    break;
                }
                let mut failed = false;
                for _ in 0..strips {
                    let strip = match read_frame_patient(&mut from, &shared) {
                        Ok(Some(s)) => s,
                        Ok(None) | Err(_) => {
                            failed = true;
                            break;
                        }
                    };
                    // A typed error frame replaces a strip and ends the
                    // session on an intact boundary.
                    let terminal = strip.first() != Some(&STATUS_OK);
                    if !write_client(&shared, &strip) {
                        failed = true;
                        break;
                    }
                    if terminal {
                        break;
                    }
                }
                if failed {
                    // The session died mid-stream: the client sees the
                    // broken connection, not a completed reply, so it is
                    // neither counted nor left outstanding.
                    drop(pending);
                    complete(&state, &shared, shard, false);
                    teardown(&shared, &from);
                    return;
                }
                !busy
            }
        };
        drop(pending);
        complete(&state, &shared, shard, counted);
    }
    teardown(&shared, &from);
}

/// Marks one logical reply finished: in-flight counters down, shard
/// splice counter up (unless the reply was a connection-limit `BUSY`
/// rejection, which a directly-served backend would not have counted as
/// a request either).
fn complete(state: &FrontState, shared: &ConnShared, shard: u32, counted: bool) {
    shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    state.outstanding.fetch_sub(1, Ordering::SeqCst);
    if counted {
        if let Some(ctr) = state.shard_requests.get(shard as usize) {
            ctr.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Downstream-side teardown: mark the connection done and kick both
/// sockets so the upstream thread unblocks; the client's next read sees
/// a closed connection and its reconnect+replay takes over.
fn teardown(shared: &ConnShared, backend: &TcpStream) {
    shared.done.store(true, Ordering::SeqCst);
    let _ = backend.shutdown(Shutdown::Both);
    let _ = lock(&shared.client_out).shutdown(Shutdown::Both);
}
