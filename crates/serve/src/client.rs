//! Blocking client for the compression service.
//!
//! A [`Client`] holds **one persistent TCP connection** and reuses it
//! across requests. When the pooled connection turns out to be dead at the
//! next request (service restart, an idle reap, the close that follows a
//! busy rejection), the client transparently reconnects once and replays
//! the request — safe because every service op is idempotent. A failure
//! *after* reply bytes started arriving is never replayed.
//!
//! Three request shapes share the connection:
//!
//! - **Request/response** ([`Client::ping`], [`Client::encode_batch`],
//!   ...): one frame out, one frame back. Each call is a [`Pipeline`]
//!   with a window of 1, so framing, tag matching and reconnect+replay
//!   exist once, for both shapes.
//! - **Streamed exchanges** ([`Client::begin_compress_stream`],
//!   [`Client::begin_decompress_stream`]): pixel strips travel as
//!   individual frames so neither side materializes a whole image.
//! - **Pipelined requests** ([`Client::pipeline`]): a bounded window of
//!   request/response ops kept in flight at once. The service answers a
//!   v1 connection's requests in arrival order and a tagged one's by tag;
//!   the [`Pipeline`] returns replies in submission order either way,
//!   applies backpressure when the window is full, and extends
//!   reconnect+replay to the whole unacknowledged window.

use crate::protocol::{self, Opcode, STATUS_BUSY, STATUS_ERR, STATUS_OK, STATUS_TIMEOUT};
use crate::{ServeError, StatsSnapshot};
use deepn_codec::stream::{strip_count_for, strip_rows_for};
use deepn_codec::{PixelStrip, RgbImage};
use deepn_store::{ByteReader, ByteWriter};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A connection to a running [`crate::Server`].
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Whether the *current* connection negotiated tagged framing
    /// (protocol v2). Reset on every fresh connection, before the
    /// negotiation that may set it again.
    tagged: bool,
    /// Whether (re)connections should negotiate tagged framing. Sticky
    /// across reconnects — set by [`Client::upgrade_tagged`], cleared
    /// when the service denies the feature.
    want_tagged: bool,
    /// `Hello` negotiations performed, one per (re)connect in tagged
    /// mode; load generators fold these into server-side request
    /// reconciliation.
    hellos_sent: u64,
    /// Extra service-counted requests created by splitting batch
    /// requests across tags in pipelines (`parts − 1` per split batch);
    /// the reconciliation twin of [`Client::hellos_sent`].
    split_requests: u64,
    /// Request bodies re-sent by the reconnect+replay machinery, one per
    /// replayed frame. A front end counts the replayed copy as a fresh
    /// request, so load generators fold these into reconciliation like
    /// [`Client::hellos_sent`].
    replays: u64,
    /// Table fingerprint advertised in `Hello` (0 = none): a sharded
    /// front end routes the connection by it so per-backend caches stay
    /// hot. See `docs/SHARDING.md`.
    table_fingerprint: u64,
    /// Next request tag. Monotone, so tags are unique among in-flight
    /// requests by construction.
    next_tag: u32,
}

impl Client {
    /// Connects to the service. The connection persists across requests;
    /// see the module docs for the reconnect contract.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            addr,
            stream: Some(stream),
            tagged: false,
            want_tagged: false,
            hellos_sent: 0,
            split_requests: 0,
            replays: 0,
            table_fingerprint: 0,
            next_tag: 0,
        })
    }

    /// Connects, retrying until `timeout` elapses — for scripts that start
    /// the service as a separate process and must wait for the socket.
    ///
    /// # Errors
    ///
    /// The last connection error once the deadline passes.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        timeout: Duration,
    ) -> Result<Self, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// The connection, re-established first if a previous request tore it
    /// down. A fresh connection re-runs the `Hello` negotiation when
    /// tagged framing was requested, so the upgrade survives reconnects.
    fn ensure_connected(&mut self) -> Result<&mut TcpStream, ServeError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.tagged = false;
            if self.want_tagged {
                self.negotiate_tagged()?;
            }
        }
        match self.stream.as_mut() {
            Some(stream) => Ok(stream),
            None => Err(ServeError::Protocol(
                "connection slot empty after connect".into(),
            )),
        }
    }

    /// Requests tagged framing (protocol v2) on this client: negotiates
    /// on the current connection immediately and on every reconnect
    /// after. Returns whether the service granted the feature — a denial
    /// (an old service answers `Hello` with a typed error) degrades the
    /// client to v1 cleanly and stops it from re-asking.
    ///
    /// # Errors
    ///
    /// Socket or protocol errors from the negotiation exchange itself.
    pub fn upgrade_tagged(&mut self) -> Result<bool, ServeError> {
        self.want_tagged = true;
        if self.stream.is_none() {
            self.ensure_connected().map(|_| ())?;
        } else if !self.tagged {
            self.negotiate_tagged()?;
        }
        if !self.tagged {
            self.want_tagged = false;
        }
        Ok(self.tagged)
    }

    /// Whether the current connection operates in tagged framing.
    pub fn is_tagged(&self) -> bool {
        self.stream.is_some() && self.tagged
    }

    /// `Hello` negotiations this client has performed — one per
    /// (re)connect while tagged framing is requested. Load generators
    /// add these to the expected server-side request count.
    pub fn hellos_sent(&self) -> u64 {
        self.hellos_sent
    }

    /// Extra service-counted requests created by tag-splitting batch
    /// requests in pipelines — `parts − 1` per split batch, since the
    /// client tallies the whole batch as one outcome. Load generators
    /// add these to the expected server-side request count, like
    /// [`Client::hellos_sent`].
    pub fn split_requests(&self) -> u64 {
        self.split_requests
    }

    /// Request bodies re-sent by reconnect+replay — one per replayed
    /// frame. A sharded front end counts each replayed copy as a fresh
    /// forwarded request, so load generators add these to the expected
    /// fleet-side request count (see `docs/SHARDING.md`).
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Sets the table fingerprint advertised in every subsequent `Hello`
    /// negotiation (0 clears it). A sharded front end uses it as the
    /// consistent-hashing key so connections working one table land on
    /// the backend whose caches already hold it; a plain server ignores
    /// the trailing field.
    pub fn set_table_fingerprint(&mut self, fingerprint: u64) {
        self.table_fingerprint = fingerprint;
    }

    /// One `Hello` exchange on the live connection. Leaves `self.tagged`
    /// reflecting the grant; a typed service-side error (an old service
    /// that does not know the opcode) degrades to v1 instead of failing.
    fn negotiate_tagged(&mut self) -> Result<(), ServeError> {
        let result = (|| {
            let Some(stream) = self.stream.as_mut() else {
                return Err(ServeError::Protocol(
                    "negotiation needs a live connection".into(),
                ));
            };
            let mut w = ByteWriter::new();
            w.put_u8(Opcode::Hello as u8);
            w.put_u32(protocol::FEATURE_TAGGED);
            if self.table_fingerprint != 0 {
                // Optional trailing routing hint (append-only field): a
                // sharded front end reads it, a plain server ignores it.
                w.put_u64(self.table_fingerprint);
            }
            protocol::write_frame(stream, w.as_bytes())?;
            self.hellos_sent += 1;
            let reply = protocol::read_frame(stream)?
                .ok_or_else(|| ServeError::Protocol(CLOSED_BEFORE_REPLY.into()))?;
            match parse_reply(reply) {
                Ok(payload) => {
                    let granted = ByteReader::new(&payload).u32().unwrap_or(0);
                    self.tagged = granted & protocol::FEATURE_TAGGED != 0;
                    Ok(())
                }
                // An old service answers `Hello` with a typed error
                // (unknown opcode): degrade to v1 on the same, still
                // frame-aligned connection.
                Err(ServeError::Remote(_)) => {
                    self.tagged = false;
                    Ok(())
                }
                Err(e) => Err(e),
            }
        })();
        if result.is_err() {
            self.stream = None;
            self.tagged = false;
        }
        result
    }

    /// Hands out the next request tag.
    fn take_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        tag
    }

    /// Whether an error means "the pooled connection was already dead" —
    /// the only case a request is transparently replayed on a fresh one.
    /// Deliberately excludes `UnexpectedEof`: a frame that ends mid-body
    /// means reply bytes already arrived, and a request whose reply
    /// started is never replayed.
    fn is_stale_connection(e: &ServeError) -> bool {
        match e {
            ServeError::Io(io) => matches!(
                io.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::NotConnected
            ),
            ServeError::Protocol(m) => m == CLOSED_BEFORE_REPLY,
            _ => false,
        }
    }

    /// One request/reply round trip: a pipeline with a window of 1,
    /// whose one part is never split, so the framing, tag matching and
    /// reconnect+replay are the pipeline's own. Returns the ok-payload.
    fn call(&mut self, op: Opcode, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        let mut pipe = self.pipeline(1);
        pipe.submit(op, payload)?;
        parse_reply(pipe.next_entry()?.into_reply()?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Socket or protocol errors.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.call(Opcode::Ping, &[])?;
        Ok(())
    }

    /// Compresses a batch of images with the service's tables, returning
    /// one JFIF stream per image, in order.
    ///
    /// # Errors
    ///
    /// Socket, protocol, or service-side codec errors.
    pub fn encode_batch(&mut self, images: &[RgbImage]) -> Result<Vec<Vec<u8>>, ServeError> {
        let reply = self.call(Opcode::EncodeBatch, &image_batch_payload(images))?;
        parse_blob_list(&mut ByteReader::new(&reply))
    }

    /// Decompresses a batch of JFIF streams, returning the images in
    /// order.
    ///
    /// # Errors
    ///
    /// Socket, protocol, or service-side codec errors.
    pub fn decode_batch(&mut self, streams: &[Vec<u8>]) -> Result<Vec<RgbImage>, ServeError> {
        let reply = self.call(Opcode::DecodeBatch, &blob_batch_payload(streams))?;
        parse_image_list(&mut ByteReader::new(&reply))
    }

    /// Classifies a batch of images with the service's model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] if the service has no model; socket or
    /// protocol errors otherwise.
    pub fn classify(&mut self, images: &[RgbImage]) -> Result<Vec<usize>, ServeError> {
        let reply = self.call(Opcode::Classify, &image_batch_payload(images))?;
        parse_label_list(&mut ByteReader::new(&reply))
    }

    /// Fetches the service counters.
    ///
    /// # Errors
    ///
    /// Socket or protocol errors.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        let reply = self.call(Opcode::Stats, &[])?;
        parse_stats(&mut ByteReader::new(&reply))
    }

    /// Fetches the service counters as Prometheus text-format metrics.
    ///
    /// # Errors
    ///
    /// Socket or protocol errors.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let reply = self.call(Opcode::Metrics, &[])?;
        let mut r = ByteReader::new(&reply);
        Ok(r.string()?)
    }

    /// Begins a streaming compression of a `width` × `height` image: feed
    /// raw RGB rows with [`StreamCompression::send_strip`], then collect
    /// the JFIF stream from [`StreamCompression::finish`]. Neither side
    /// ever buffers more than a strip of pixels.
    ///
    /// # Errors
    ///
    /// Socket errors from sending the begin frame.
    pub fn begin_compress_stream(
        &mut self,
        width: usize,
        height: usize,
    ) -> Result<StreamCompression<'_>, ServeError> {
        // The streamed exchanges are defined only for v1 framing: the
        // service rejects them inside a tagged window with the same typed
        // error, so fail fast client-side rather than round-tripping.
        if self.want_tagged {
            return Err(ServeError::Protocol(
                "streaming ops are not available on a tagged connection; \
                 open an untagged (v1) connection"
                    .into(),
            ));
        }
        // A dead pooled connection would not surface on the begin-frame
        // write (the first write to a closed socket usually lands in the
        // local buffer) but only once strips start failing — and a
        // mid-stream session is not replayable. Probe with a ping, which
        // carries the transparent reconnect, so the session opens on a
        // connection known to be live.
        self.ping()?;
        let mut w = ByteWriter::new();
        w.put_u8(Opcode::CompressStream as u8);
        w.put_u32(width as u32);
        w.put_u32(height as u32);
        self.send_frame(w.as_bytes())?;
        Ok(StreamCompression {
            client: self,
            width,
            height,
            sent: 0,
            strip_count: strip_count_for(height),
        })
    }

    /// Begins a streaming decompression of a complete JFIF stream: the
    /// service decodes it and frames the pixels back one 8-row strip at a
    /// time, collected with [`StreamDecompression::next_strip`]. The
    /// decoded image is never materialized on either side.
    ///
    /// # Errors
    ///
    /// Socket errors; [`ServeError::Remote`] when the stream's headers do
    /// not parse service-side.
    pub fn begin_decompress_stream(
        &mut self,
        jfif: &[u8],
    ) -> Result<StreamDecompression<'_>, ServeError> {
        // Defined only for v1 framing — see `begin_compress_stream`.
        if self.want_tagged {
            return Err(ServeError::Protocol(
                "streaming ops are not available on a tagged connection; \
                 open an untagged (v1) connection"
                    .into(),
            ));
        }
        // Same liveness probe as `begin_compress_stream`: a mid-stream
        // session is not replayable, so open it on a connection known to
        // be live.
        self.ping()?;
        let mut w = ByteWriter::new();
        w.put_u8(Opcode::DecompressStream as u8);
        protocol::put_blob(&mut w, jfif);
        self.send_frame(w.as_bytes())?;
        let begin = parse_reply(self.recv_reply()?)?;
        let mut r = ByteReader::new(&begin);
        let width = r.u32()? as usize;
        let height = r.u32()? as usize;
        if width == 0 || height == 0 {
            self.stream = None;
            return Err(ServeError::Protocol(format!(
                "service announced an empty {width}x{height} image"
            )));
        }
        Ok(StreamDecompression {
            client: self,
            width,
            height,
            received: 0,
            strip_count: strip_count_for(height),
            failed: false,
        })
    }

    /// Opens a pipelined request window on this client's connection: up to
    /// `window` request/response ops stay in flight at once (a `window` of
    /// 0 is treated as 1, plain request/response). Submitting into a full
    /// window blocks until the oldest reply is read back — backpressure,
    /// not unbounded buffering.
    pub fn pipeline(&mut self, window: usize) -> Pipeline<'_> {
        // Tagged when the upgrade is requested; the first part sent
        // settles the framing on the connection's actual grant.
        let tagged = self.want_tagged;
        Pipeline {
            client: self,
            window: window.max(1),
            prefetched: VecDeque::new(),
            replay_armed: true,
            tagged,
            entries: VecDeque::new(),
            unacked: 0,
        }
    }

    /// Writes one frame on the current connection, tearing it down on
    /// failure.
    fn send_frame(&mut self, body: &[u8]) -> Result<(), ServeError> {
        let result = {
            let stream = self.ensure_connected()?;
            protocol::write_frame(stream, body)
        };
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Reads one reply frame on the current connection, tearing it down on
    /// failure.
    fn recv_reply(&mut self) -> Result<Vec<u8>, ServeError> {
        let result = self.recv_reply_inner();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn recv_reply_inner(&mut self) -> Result<Vec<u8>, ServeError> {
        let stream = self.ensure_connected()?;
        protocol::read_frame(stream)?
            .ok_or_else(|| ServeError::Protocol(CLOSED_BEFORE_REPLY.into()))
    }

    /// Asks the service to exit after acknowledging.
    ///
    /// # Errors
    ///
    /// Socket or protocol errors.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call(Opcode::Shutdown, &[])?;
        Ok(())
    }
}

const CLOSED_BEFORE_REPLY: &str = "service closed the connection";

/// Splits a reply frame into its status byte and payload, mapping non-ok
/// statuses to their typed errors.
fn parse_reply(reply: Vec<u8>) -> Result<Vec<u8>, ServeError> {
    let (&status, payload) = reply
        .split_first()
        .ok_or_else(|| ServeError::Protocol("empty reply frame".into()))?;
    if status == STATUS_OK {
        return Ok(payload.to_vec());
    }
    let mut r = ByteReader::new(payload);
    let message = r.string()?;
    Err(match status {
        STATUS_BUSY => ServeError::Busy(message),
        STATUS_TIMEOUT => ServeError::Timeout(message),
        STATUS_ERR => ServeError::Remote(message),
        other => ServeError::Protocol(format!("unknown reply status {other}: {message}")),
    })
}

/// Marshals a request payload of counted images.
fn image_batch_payload(images: &[RgbImage]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_len(images.len());
    for img in images {
        protocol::put_image(&mut w, img);
    }
    w.into_bytes()
}

/// Marshals a request payload of counted byte blobs.
fn blob_batch_payload(blobs: &[Vec<u8>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_len(blobs.len());
    for b in blobs {
        protocol::put_blob(&mut w, b);
    }
    w.into_bytes()
}

/// Parses an `EncodeBatch` ok-payload: a counted list of blobs.
fn parse_blob_list(r: &mut ByteReader<'_>) -> Result<Vec<Vec<u8>>, ServeError> {
    let n = r.len(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(protocol::get_blob(r)?);
    }
    Ok(out)
}

/// Parses a `DecodeBatch` ok-payload: a counted list of images.
fn parse_image_list(r: &mut ByteReader<'_>) -> Result<Vec<RgbImage>, ServeError> {
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(protocol::get_image(r)?);
    }
    Ok(out)
}

/// Parses a `Classify` ok-payload: a counted list of `u32` labels.
fn parse_label_list(r: &mut ByteReader<'_>) -> Result<Vec<usize>, ServeError> {
    let n = r.len(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()? as usize);
    }
    Ok(out)
}

/// Parses a `Stats` ok-payload.
fn parse_stats(r: &mut ByteReader<'_>) -> Result<StatsSnapshot, ServeError> {
    Ok(StatsSnapshot {
        requests: r.u64()?,
        images_encoded: r.u64()?,
        images_decoded: r.u64()?,
        images_classified: r.u64()?,
        connections_rejected: r.u64()?,
        requests_timed_out: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        active_connections: r.u32()?,
        workers: r.u32()?,
        queue_depth: r.u32()?,
        max_connections: r.u32()?,
        request_timeout_ms: r.u64()?,
        has_model: r.u8()? != 0,
        // Trailing fields, absent (0) when the service predates them —
        // how the `Stats` payload grows without breaking old parsers.
        tagged_connections: if r.remaining() >= 8 { r.u64()? } else { 0 },
        tagged_requests: if r.remaining() >= 8 { r.u64()? } else { 0 },
    })
}

/// An in-flight [`Client::begin_compress_stream`] session.
#[derive(Debug)]
pub struct StreamCompression<'c> {
    client: &'c mut Client,
    width: usize,
    height: usize,
    sent: usize,
    strip_count: usize,
}

impl StreamCompression<'_> {
    /// Number of strips the session must send.
    pub fn strip_count(&self) -> usize {
        self.strip_count
    }

    /// Rows the strip at `index` must carry (8, except a shorter final
    /// strip).
    ///
    /// # Panics
    ///
    /// Panics if `index >= strip_count()`.
    pub fn strip_rows(&self, index: usize) -> usize {
        strip_rows_for(self.height, index)
    }

    /// Sends the next strip's raw interleaved RGB rows, top to bottom.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on a mis-sized strip or one past the last;
    /// socket errors otherwise (a service-side rejection frame, when one
    /// is pending, is surfaced in its place).
    pub fn send_strip(&mut self, rows_rgb: &[u8]) -> Result<(), ServeError> {
        if self.sent == self.strip_count {
            return Err(ServeError::Protocol(format!(
                "all {} strips already sent",
                self.strip_count
            )));
        }
        let expected = self.strip_rows(self.sent) * self.width * 3;
        if rows_rgb.len() != expected {
            return Err(ServeError::Protocol(format!(
                "strip {}: {} bytes, expected {expected}",
                self.sent,
                rows_rgb.len()
            )));
        }
        // Write on the held stream directly — not through `send_frame`,
        // whose teardown-on-error would discard the stream before any
        // pending rejection frame could be read back.
        let write_result = match self.client.stream.as_mut() {
            Some(stream) => protocol::write_frame(stream, rows_rgb),
            None => Err(ServeError::Protocol(
                "stream session's connection is gone".into(),
            )),
        };
        if let Err(e) = write_result {
            return Err(self.surface_pending_rejection(e));
        }
        self.sent += 1;
        Ok(())
    }

    /// Collects the complete JFIF stream after the last strip.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if strips are missing; socket, protocol,
    /// or service-side errors otherwise.
    pub fn finish(self) -> Result<Vec<u8>, ServeError> {
        if self.sent != self.strip_count {
            return Err(ServeError::Protocol(format!(
                "finish after {}/{} strips",
                self.sent, self.strip_count
            )));
        }
        let reply = self.client.recv_reply()?;
        let payload = parse_reply(reply)?;
        let mut r = ByteReader::new(&payload);
        protocol::get_blob(&mut r)
    }

    /// Whether every strip has been sent (the reply is ready to collect).
    pub fn is_complete(&self) -> bool {
        self.sent == self.strip_count
    }

    /// A send failure mid-stream usually means the service already wrote a
    /// typed rejection (timeout, shutdown) and closed; prefer surfacing
    /// that frame over the raw socket error.
    fn surface_pending_rejection(&mut self, send_error: ServeError) -> ServeError {
        if let Some(stream) = self.client.stream.as_mut() {
            // Bounded: a closed peer answers immediately; a wedged one
            // must not hang the error path.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            if let Ok(Some(reply)) = protocol::read_frame(stream) {
                if let Err(typed) = parse_reply(reply) {
                    self.client.stream = None;
                    return typed;
                }
            }
        }
        self.client.stream = None;
        send_error
    }
}

impl Drop for StreamCompression<'_> {
    fn drop(&mut self) {
        // An abandoned session leaves the service mid-stream, where it
        // would misread the client's next request frame as a strip. Tear
        // the connection down so the service unblocks (peer-closed) and
        // the client's next call transparently opens a fresh one.
        if self.sent != self.strip_count {
            self.client.stream = None;
        }
    }
}

/// An in-flight [`Client::begin_decompress_stream`] session: the service
/// has announced the image geometry and is framing decoded pixel strips
/// back, top to bottom.
#[derive(Debug)]
pub struct StreamDecompression<'c> {
    client: &'c mut Client,
    width: usize,
    height: usize,
    received: usize,
    strip_count: usize,
    /// Set when a typed error frame ended the session early: the session
    /// is over but incomplete, and (unlike an abandonment) the connection
    /// ended on an intact frame boundary.
    failed: bool,
}

impl StreamDecompression<'_> {
    /// Decoded image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Decoded image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of strips the session will produce.
    pub fn strip_count(&self) -> usize {
        self.strip_count
    }

    /// Rows carried by the strip at `index` (8, except a shorter final
    /// strip).
    ///
    /// # Panics
    ///
    /// Panics if `index >= strip_count()`.
    pub fn strip_rows(&self, index: usize) -> usize {
        strip_rows_for(self.height, index)
    }

    /// Receives the next decoded strip into `strip`. Returns `Ok(false)`
    /// once every strip has arrived.
    ///
    /// # Errors
    ///
    /// Typed service-side errors (a mid-scan decode failure, a deadline
    /// overrun) surface as the strip they replace and end the session;
    /// socket or framing errors tear the connection down.
    pub fn next_strip(&mut self, strip: &mut PixelStrip) -> Result<bool, ServeError> {
        if self.failed || self.received == self.strip_count {
            return Ok(false);
        }
        let frame = self.client.recv_reply()?;
        let payload = match parse_reply(frame) {
            Ok(p) => p,
            Err(e) => {
                // A typed error frame replaces a strip frame on an intact
                // frame boundary: the session is over (and incomplete),
                // but the connection remains usable for the client's next
                // request.
                self.failed = true;
                return Err(e);
            }
        };
        let index = self.received;
        let rows = self.strip_rows(index);
        if let Err(e) = strip.set_rows(self.width, rows, &payload) {
            // A mis-sized strip frame breaks the exchange's contract; the
            // remaining frames can no longer be trusted, so start the next
            // request on a fresh connection.
            self.client.stream = None;
            self.failed = true;
            return Err(ServeError::Protocol(format!("strip {index}: {e}")));
        }
        self.received += 1;
        Ok(true)
    }

    /// Whether every strip has been received. `false` after a session
    /// ended early on a typed service-side error — a partially written
    /// output must not pass for a whole one.
    pub fn is_complete(&self) -> bool {
        !self.failed && self.received == self.strip_count
    }
}

impl Drop for StreamDecompression<'_> {
    fn drop(&mut self) {
        // An abandoned session leaves undelivered strip frames on the
        // wire, which the next request would misread as its reply. Tear
        // the connection down; the next call transparently reconnects. A
        // `failed` session needs no teardown: the typed error frame
        // already ended the exchange on an intact frame boundary.
        if !self.failed && self.received != self.strip_count {
            self.client.stream = None;
        }
    }
}

/// One parsed pipelined reply, tagged by the op that produced it. Replies
/// always come back in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineReply {
    /// Reply to [`Pipeline::submit_ping`].
    Pong,
    /// Reply to [`Pipeline::submit_encode_batch`]: one JFIF stream per
    /// image, in order.
    Encoded(Vec<Vec<u8>>),
    /// Reply to [`Pipeline::submit_decode_batch`]: the decoded images, in
    /// order.
    Decoded(Vec<RgbImage>),
    /// Reply to [`Pipeline::submit_stats`].
    Stats(StatsSnapshot),
}

/// Parses a pipelined reply frame according to the op that requested it.
fn decode_pipeline_reply(op: Opcode, frame: Vec<u8>) -> Result<PipelineReply, ServeError> {
    let payload = parse_reply(frame)?;
    let mut r = ByteReader::new(&payload);
    Ok(match op {
        Opcode::Ping => PipelineReply::Pong,
        Opcode::EncodeBatch => PipelineReply::Encoded(parse_blob_list(&mut r)?),
        Opcode::DecodeBatch => PipelineReply::Decoded(parse_image_list(&mut r)?),
        Opcode::Stats => PipelineReply::Stats(parse_stats(&mut r)?),
        _ => {
            return Err(ServeError::Protocol(format!(
                "op {op:?} cannot be pipelined"
            )))
        }
    })
}

/// A bounded window of pipelined requests on a [`Client`]'s connection,
/// opened with [`Client::pipeline`].
///
/// Submitting is non-blocking while the window has room; once it is full,
/// the next submit first reads a reply off the wire, so at most `window`
/// requests are ever outstanding on the connection (backpressure against
/// the *service*). Replies read ahead this way wait in a client-side
/// buffer until [`recv`](Pipeline::recv) — a caller that submits many
/// requests without receiving holds those replies in memory, so
/// interleave `recv`/[`try_ready`](Pipeline::try_ready) with submission
/// when replies are large. `recv` returns replies strictly in submission
/// order: on a v1 connection the service answers one connection's
/// requests in arrival order, so each reply answers the oldest
/// unanswered request; on a tagged connection replies are matched by tag
/// and out-of-order arrivals wait until their predecessors complete.
///
/// ## Failure semantics
///
/// Per-request failures ([`ServeError::Remote`], [`ServeError::Busy`],
/// [`ServeError::Timeout`]) are delivered by `recv` in that request's
/// position and do **not** end the pipeline. When the pooled connection
/// turns out to be dead (service restart, the close that follows a busy
/// rejection), the pipeline reconnects once and replays the *entire
/// unacknowledged window* in order — safe because every op is idempotent
/// and no reply frame of the replayed requests had started arriving. A
/// second consecutive stall without any reply in between, or any other
/// transport error ([`ServeError::Io`], [`ServeError::Protocol`]), is
/// fatal to the whole pipeline: drop it and start a fresh one.
///
/// Dropping a pipeline with replies still in flight tears the connection
/// down so they cannot poison the client's next request.
#[derive(Debug)]
pub struct Pipeline<'c> {
    client: &'c mut Client,
    window: usize,
    /// Raw reply frames read ahead of their matching — drained off the
    /// socket while a request write was blocked on a full send buffer,
    /// so a window of large requests and large replies cannot
    /// write-write deadlock with the server (which has no write timeout
    /// either).
    prefetched: VecDeque<Vec<u8>>,
    /// One reconnect+replay is allowed per stall; re-armed every time a
    /// reply lands (progress), so a dead service cannot loop forever.
    replay_armed: bool,
    /// Tagged (protocol v2) mode: frames carry tags, the service may
    /// answer out of order, and large batches are split across tags.
    /// Whenever a part is sent with nothing outstanding, this follows
    /// the connection's grant (see [`Pipeline::submit_part`]).
    tagged: bool,
    /// The submission-order queue. Each entry is one logical request,
    /// possibly split into several parts; [`recv`](Pipeline::recv) takes
    /// entries from the front once they are complete.
    entries: VecDeque<Entry>,
    /// Parts sent whose reply has not arrived — the quantity the window
    /// bounds.
    unacked: usize,
}

/// A tagged pipeline splits a multi-item batch across tags only above
/// this cost (pixels for encode, compressed bytes for decode). Giant
/// batches stream item replies back as they complete instead of
/// materializing the whole reply; small batches stay one frame, whose
/// single round trip is cheaper than per-item framing.
const SPLIT_BATCH_BUDGET: usize = 4096;

/// One logical pipelined request: a single part for most ops, one part
/// per item for split batches (so replies stream out as items complete).
#[derive(Debug)]
struct Entry {
    op: Opcode,
    parts: Vec<Part>,
    /// Parts this entry will have once fully submitted; an entry is
    /// complete (and deliverable) only when `parts.len() == expected`
    /// and every part holds its reply.
    expected: usize,
}

impl Entry {
    fn is_complete(&self) -> bool {
        self.parts.len() == self.expected && self.parts.iter().all(|p| p.reply.is_some())
    }

    /// The reply frame of a complete single-part entry.
    fn into_reply(self) -> Result<Vec<u8>, ServeError> {
        self.parts
            .into_iter()
            .next()
            .and_then(|p| p.reply)
            .ok_or_else(|| ServeError::Protocol("completed entry missing a part reply".into()))
    }
}

/// One request frame: its tag (sent on the wire only in tagged mode),
/// the v1-shaped body kept for replay-after-reconnect, and the v1-shaped
/// reply once it arrived.
#[derive(Debug)]
struct Part {
    tag: u32,
    body: Vec<u8>,
    reply: Option<Vec<u8>>,
}

impl Pipeline<'_> {
    /// The window bound this pipeline was opened with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests whose reply has not been returned by
    /// [`recv`](Pipeline::recv) yet — drain with that many `recv` calls.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Submits a liveness probe.
    ///
    /// # Errors
    ///
    /// Fatal transport errors (see the type docs; a full window receives
    /// the oldest reply first, which can surface its transport failure
    /// here).
    pub fn submit_ping(&mut self) -> Result<(), ServeError> {
        self.submit(Opcode::Ping, &[])
    }

    /// Submits a batch compression; answered by
    /// [`PipelineReply::Encoded`].
    ///
    /// Under tagged framing a multi-image batch over the split budget
    /// is split into one tagged request per image, so the service
    /// streams compressed items back as they complete instead of
    /// materializing the whole batch reply; smaller batches stay one
    /// frame. The split is invisible here: the reply still arrives as
    /// one [`PipelineReply::Encoded`] in submission order.
    ///
    /// # Errors
    ///
    /// Fatal transport errors.
    pub fn submit_encode_batch(&mut self, images: &[RgbImage]) -> Result<(), ServeError> {
        let cost: usize = images.iter().map(|i| i.width() * i.height()).sum();
        if self.tagged && images.len() > 1 && cost > SPLIT_BATCH_BUDGET {
            let bodies = images
                .iter()
                .map(|img| {
                    let mut w = ByteWriter::new();
                    w.put_u8(Opcode::EncodeBatch as u8);
                    w.put_len(1);
                    protocol::put_image(&mut w, img);
                    w.into_bytes()
                })
                .collect();
            return self.submit_parts(Opcode::EncodeBatch, bodies);
        }
        self.submit(Opcode::EncodeBatch, &image_batch_payload(images))
    }

    /// Submits a batch decompression; answered by
    /// [`PipelineReply::Decoded`].
    ///
    /// Under tagged framing a multi-stream batch over the split budget
    /// is split into one tagged request per stream — see
    /// [`submit_encode_batch`](Pipeline::submit_encode_batch).
    ///
    /// # Errors
    ///
    /// Fatal transport errors.
    pub fn submit_decode_batch(&mut self, streams: &[Vec<u8>]) -> Result<(), ServeError> {
        let cost: usize = streams.iter().map(Vec::len).sum();
        if self.tagged && streams.len() > 1 && cost > SPLIT_BATCH_BUDGET {
            let bodies = streams
                .iter()
                .map(|blob| {
                    let mut w = ByteWriter::new();
                    w.put_u8(Opcode::DecodeBatch as u8);
                    w.put_len(1);
                    protocol::put_blob(&mut w, blob);
                    w.into_bytes()
                })
                .collect();
            return self.submit_parts(Opcode::DecodeBatch, bodies);
        }
        self.submit(Opcode::DecodeBatch, &blob_batch_payload(streams))
    }

    /// Submits a counters request; answered by [`PipelineReply::Stats`].
    ///
    /// # Errors
    ///
    /// Fatal transport errors.
    pub fn submit_stats(&mut self) -> Result<(), ServeError> {
        self.submit(Opcode::Stats, &[])
    }

    /// Pops a reply that backpressure already read off the wire, without
    /// blocking. `None` when none is buffered — more replies may still be
    /// in flight; [`recv`](Pipeline::recv) waits for those.
    pub fn try_ready(&mut self) -> Option<Result<PipelineReply, ServeError>> {
        self.pop_complete().map(assemble_entry)
    }

    /// Returns the oldest outstanding reply, in submission order, reading
    /// it off the wire if backpressure has not already buffered it.
    ///
    /// # Errors
    ///
    /// The submitted request's own typed failure
    /// ([`ServeError::Remote`] / [`Busy`](ServeError::Busy) /
    /// [`Timeout`](ServeError::Timeout) — the pipeline continues), or a
    /// fatal transport error (see the type docs).
    pub fn recv(&mut self) -> Result<PipelineReply, ServeError> {
        assemble_entry(self.next_entry()?)
    }

    /// Takes the oldest entry once it is complete, reading reply frames
    /// off the wire until it is. Each wait matches at least one reply
    /// frame to its part; the front entry has finitely many outstanding
    /// parts, so this terminates (or surfaces a transport error).
    fn next_entry(&mut self) -> Result<Entry, ServeError> {
        loop {
            if let Some(entry) = self.pop_complete() {
                return Ok(entry);
            }
            if self.entries.is_empty() {
                return Err(ServeError::Protocol("no requests in flight".into()));
            }
            self.await_reply()?;
        }
    }

    /// Takes the oldest entry if it is complete. Later entries may
    /// already be complete; they wait, so replies leave strictly in
    /// submission order.
    fn pop_complete(&mut self) -> Option<Entry> {
        if self.entries.front().is_some_and(Entry::is_complete) {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Submits one single-part request.
    fn submit(&mut self, op: Opcode, payload: &[u8]) -> Result<(), ServeError> {
        let mut body = Vec::with_capacity(1 + payload.len());
        body.push(op as u8);
        body.extend_from_slice(payload);
        self.submit_parts(op, vec![body])
    }

    /// Submits one logical request as `bodies.len()` parts, applying
    /// window backpressure per part. The entry is queued first so replies
    /// to early parts can land while later parts are still being written.
    fn submit_parts(&mut self, op: Opcode, bodies: Vec<Vec<u8>>) -> Result<(), ServeError> {
        self.entries.push_back(Entry {
            op,
            parts: Vec::with_capacity(bodies.len()),
            expected: bodies.len(),
        });
        self.client.split_requests += bodies.len() as u64 - 1;
        for body in bodies {
            if let Err(e) = self.submit_part(body) {
                // A request none of whose parts went out can never be
                // answered: forget it, so `pending` stays drainable.
                if self
                    .entries
                    .back()
                    .is_some_and(|entry| entry.parts.is_empty())
                {
                    self.entries.pop_back();
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Sends one part of the newest entry once the window has room.
    fn submit_part(&mut self, body: Vec<u8>) -> Result<(), ServeError> {
        while self.unacked >= self.window {
            self.await_reply()?;
        }
        if self.client.stream.is_none() && self.unacked > 0 {
            // The connection died after earlier parts: replay them onto
            // the fresh connection before sending this one, or v1
            // replies no longer line up with submission order.
            self.replay_unacked(ServeError::Protocol(CLOSED_BEFORE_REPLY.into()))?;
        }
        // (Re)connect before framing, so the grant is known. With nothing
        // outstanding, the framing follows the connection's grant (a
        // reconnect the service answers without it degrades to v1, as
        // `upgrade_tagged` does); otherwise the connection is the one
        // the outstanding parts went out on, already checked.
        self.client.ensure_connected().map(|_| ())?;
        if self.unacked == 0 {
            self.tagged = self.client.tagged;
        }
        let tag = self.client.take_tag();
        let sent = Self::write_frame_draining(
            self.client,
            &mut self.prefetched,
            self.unacked,
            self.tagged.then_some(tag),
            &body,
        );
        if let Err(e) = &sent {
            self.client.stream = None;
            if !Client::is_stale_connection(e) {
                return sent;
            }
        }
        // Parked unacknowledged even when the write failed on a dead
        // connection: the replay below resends it with the rest of the
        // unacknowledged window.
        if let Some(entry) = self.entries.back_mut() {
            entry.parts.push(Part {
                tag,
                body,
                reply: None,
            });
        }
        self.unacked += 1;
        if let Err(e) = sent {
            self.replay_unacked(e)?;
        }
        self.drain_prefetched()
    }

    /// The deadlock-free frame writer the pipeline uses. With nothing
    /// `outstanding`, no reply can be in flight to deadlock with, so the
    /// frame is one plain blocking write. Otherwise the socket is
    /// written in non-blocking chunks, and whenever the send buffer is
    /// full, an available reply frame is read into `prefetched` instead
    /// of blocking. Without this, a window whose requests and replies
    /// both exceed the kernel socket buffers would write-write deadlock
    /// with the server: the server blocked writing an earlier reply
    /// nobody is reading, the client blocked writing a request nobody is
    /// reading.
    fn write_frame_draining(
        client: &mut Client,
        prefetched: &mut VecDeque<Vec<u8>>,
        outstanding: usize,
        tag: Option<u32>,
        body: &[u8],
    ) -> Result<(), ServeError> {
        if outstanding == 0 {
            let stream = client.ensure_connected()?;
            return match tag {
                Some(tag) => protocol::write_tagged_frame(stream, tag, body),
                None => protocol::write_frame(stream, body),
            };
        }
        // A `Some` tag is framed in place (`u32 tag` prepended to the
        // body), sparing the caller an intermediate tagged-body copy.
        let tag_len = if tag.is_some() { 4 } else { 0 };
        let body_len = body.len() + tag_len;
        if body_len > protocol::MAX_FRAME {
            return Err(ServeError::Protocol(format!(
                "frame of {body_len} bytes exceeds the {} byte limit",
                protocol::MAX_FRAME
            )));
        }
        let mut frame = Vec::with_capacity(4 + body_len);
        frame.extend_from_slice(&(body_len as u32).to_le_bytes());
        if let Some(tag) = tag {
            frame.extend_from_slice(&tag.to_le_bytes());
        }
        frame.extend_from_slice(body);
        // One connection for the whole frame: reconnecting mid-frame
        // would splice garbage into the new stream, so any failure below
        // surfaces instead and the caller rewrites from scratch.
        let stream = client.ensure_connected()?;
        // One nonblocking window per frame (not per chunk): the socket
        // flips back to blocking only around a drain read and before
        // returning, so callers that keep the connection never see it
        // nonblocking — even on failure, where `restored` matters because
        // a replay's write errors leave the stream in place for the
        // pipeline's Drop to discard.
        stream.set_nonblocking(true)?;
        let result = Self::write_draining_nonblocking(stream, prefetched, outstanding, &frame);
        let restored = stream.set_nonblocking(false);
        result?;
        restored?;
        Ok(())
    }

    /// The write loop of [`write_frame_draining`](Self::write_frame_draining);
    /// entered and left with `stream` in nonblocking mode.
    fn write_draining_nonblocking(
        stream: &mut TcpStream,
        prefetched: &mut VecDeque<Vec<u8>>,
        mut outstanding: usize,
        frame: &[u8],
    ) -> Result<(), ServeError> {
        let mut written = 0usize;
        while written < frame.len() {
            match std::io::Write::write(stream, &frame[written..]) {
                Ok(0) => {
                    return Err(ServeError::Io(io::ErrorKind::WriteZero.into()));
                }
                Ok(n) => written += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    // Send buffer full: the server may be blocked writing
                    // a reply. Drain one if it has arrived (a peek spots
                    // data or EOF; either resolves promptly); otherwise
                    // yield briefly and retry the write.
                    let available = outstanding > 0
                        && match stream.peek(&mut [0u8]) {
                            Ok(_) => true,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                            Err(e) => return Err(e.into()),
                        };
                    if available {
                        stream.set_nonblocking(false)?;
                        let reply = protocol::read_frame(stream)?
                            .ok_or_else(|| ServeError::Protocol(CLOSED_BEFORE_REPLY.into()))?;
                        stream.set_nonblocking(true)?;
                        prefetched.push_back(reply);
                        outstanding -= 1;
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Blocks for at least one reply frame (unless some are already
    /// prefetched) and matches every buffered frame to its part. A dead
    /// pooled connection is reconnected and the unacknowledged window
    /// replayed.
    fn await_reply(&mut self) -> Result<(), ServeError> {
        if self.prefetched.is_empty() && self.client.stream.is_none() {
            // A previous failure already tore the connection down (e.g.
            // the close that follows a busy rejection): replay before
            // reading anything.
            self.replay_unacked(ServeError::Protocol(CLOSED_BEFORE_REPLY.into()))?;
        }
        if self.prefetched.is_empty() {
            match self.client.recv_reply() {
                Ok(frame) => self.prefetched.push_back(frame),
                Err(e) if Client::is_stale_connection(&e) => {
                    self.replay_unacked(e)?;
                    // The replay itself may have prefetched frames.
                    if self.prefetched.is_empty() {
                        let frame = self.client.recv_reply()?;
                        self.prefetched.push_back(frame);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.drain_prefetched()
    }

    /// Matches every prefetched reply frame to its part.
    fn drain_prefetched(&mut self) -> Result<(), ServeError> {
        while let Some(frame) = self.prefetched.pop_front() {
            self.accept_frame(frame)?;
        }
        Ok(())
    }

    /// Matches one reply frame to its part: by tag under tagged framing,
    /// else to the oldest unanswered part — the service answers a v1
    /// connection's requests in arrival order. A reply that matches no
    /// part means the framing contract broke: fatal, and the connection
    /// is discarded so the poison cannot spread to the next request.
    fn accept_frame(&mut self, mut frame: Vec<u8>) -> Result<(), ServeError> {
        let tag = if self.tagged {
            let tag = match protocol::split_tagged(&frame) {
                Ok((tag, _)) => tag,
                Err(e) => {
                    self.client.stream = None;
                    return Err(e);
                }
            };
            // Strip the tag prefix in place; the body keeps its allocation.
            frame.drain(..4);
            Some(tag)
        } else {
            None
        };
        let slot = self
            .entries
            .iter_mut()
            .flat_map(|e| e.parts.iter_mut())
            .find(|p| p.reply.is_none() && tag.is_none_or(|tag| p.tag == tag));
        match slot {
            Some(part) => {
                part.reply = Some(frame);
                self.unacked -= 1;
                // A reply landed: progress, so a future stall gets a
                // fresh replay.
                self.replay_armed = true;
                Ok(())
            }
            None => {
                self.client.stream = None;
                Err(ServeError::Protocol(match tag {
                    Some(tag) => format!("reply carries unknown tag {tag}"),
                    None => "reply arrived with no request in flight".into(),
                }))
            }
        }
    }

    /// One-shot reconnect+replay: re-establishes the connection (which
    /// re-runs the `Hello` negotiation in tagged mode), then resends
    /// every part whose reply had not arrived, in submission order —
    /// keyed by its original tag in tagged mode. Parts already answered
    /// are never resent: a duplicate would earn a duplicate reply. `cause`
    /// is surfaced unchanged when the replay budget for this stall is
    /// already spent.
    fn replay_unacked(&mut self, cause: ServeError) -> Result<(), ServeError> {
        if !self.replay_armed {
            return Err(cause);
        }
        self.replay_armed = false;
        // Frames that arrived before the connection died answer their
        // parts first, so those are not resent.
        self.drain_prefetched()?;
        self.client.stream = None;
        self.client.ensure_connected().map(|_| ())?;
        if self.tagged && !self.client.tagged {
            return Err(ServeError::Protocol(
                "service stopped granting tagged framing; the window cannot be replayed".into(),
            ));
        }
        let unacked = self
            .entries
            .iter()
            .flat_map(|e| e.parts.iter())
            .filter(|p| p.reply.is_none());
        for (resent, part) in unacked.enumerate() {
            // Replies to already-resent parts may arrive while later
            // parts are still being written; the draining writer absorbs
            // them.
            let outstanding = resent - self.prefetched.len();
            Self::write_frame_draining(
                self.client,
                &mut self.prefetched,
                outstanding,
                self.tagged.then_some(part.tag),
                &part.body,
            )?;
            self.client.replays += 1;
        }
        Ok(())
    }
}

/// Reassembles one completed entry into its logical reply. An unsplit
/// entry decodes as its single reply frame; a split batch concatenates
/// its per-item replies in item order, and the first failed item's typed
/// error (in item order) fails the whole entry — delivered in the
/// entry's position, like any per-request failure.
fn assemble_entry(entry: Entry) -> Result<PipelineReply, ServeError> {
    let missing = || ServeError::Protocol("completed entry missing a part reply".into());
    if entry.expected == 1 {
        let op = entry.op;
        return decode_pipeline_reply(op, entry.into_reply()?);
    }
    match entry.op {
        Opcode::EncodeBatch => {
            let mut all = Vec::with_capacity(entry.parts.len());
            for part in entry.parts {
                let payload = parse_reply(part.reply.ok_or_else(missing)?)?;
                all.extend(parse_blob_list(&mut ByteReader::new(&payload))?);
            }
            Ok(PipelineReply::Encoded(all))
        }
        Opcode::DecodeBatch => {
            let mut all = Vec::with_capacity(entry.parts.len());
            for part in entry.parts {
                let payload = parse_reply(part.reply.ok_or_else(missing)?)?;
                all.extend(parse_image_list(&mut ByteReader::new(&payload))?);
            }
            Ok(PipelineReply::Decoded(all))
        }
        other => Err(ServeError::Protocol(format!(
            "op {other:?} is never split across tags"
        ))),
    }
}

impl Drop for Pipeline<'_> {
    fn drop(&mut self) {
        // Unread replies of abandoned requests would be misread as the
        // next request's reply; a fresh connection cannot have any.
        if self.unacked > 0 {
            self.client.stream = None;
        }
    }
}
