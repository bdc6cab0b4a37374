//! The wire protocol: length-prefixed frames over a (localhost) TCP
//! stream, with payloads encoded by the same little-endian primitives the
//! artifact store uses.
//!
//! ```text
//! frame   := u32 body_len (LE) | body
//! request := u8 opcode | payload
//! reply   := u8 status (0 = ok, 1 = error, 2 = busy, 3 = timeout) | payload
//! ```
//!
//! Every non-ok reply's payload is a length-prefixed UTF-8 message. Batch
//! payloads carry a `u32` count followed by the items; images travel as
//! `u32 width | u32 height | width*height*3` RGB bytes, compressed
//! streams as `u32 len | bytes`.
//!
//! On a v1 connection replies come back in arrival order — the service
//! admits one request at a time, and each reply is written after its
//! predecessor's — which is what lets [`crate::Pipeline`] keep a
//! window of requests in flight without tagging frames. Once a `Hello`
//! grants [`FEATURE_TAGGED`], every frame carries a tag and replies come
//! back in completion order. The complete wire specification — every opcode, status byte,
//! streamed exchange, and the reconnect/replay and pipelining contracts —
//! lives in `docs/PROTOCOL.md` and is checked against this module's
//! constants by `tests/protocol_doc.rs`.

use crate::ServeError;
use deepn_codec::RgbImage;
use deepn_store::{ByteReader, ByteWriter};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on a frame body, bounding a hostile or corrupt length
/// prefix before any allocation (64 MiB fits thousands of the synthetic
/// dataset's images per batch).
pub const MAX_FRAME: usize = 64 << 20;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; echoes an empty ok.
    Ping = 0,
    /// Compress a batch of RGB images with the service's tables.
    EncodeBatch = 1,
    /// Decompress a batch of JFIF streams.
    DecodeBatch = 2,
    /// Classify a batch of RGB images with the service's model.
    Classify = 3,
    /// Report service counters.
    Stats = 4,
    /// Ask the service to stop accepting connections and exit.
    Shutdown = 5,
    /// Compress one image streamed as 8-row pixel strips: the request
    /// frame carries `u32 width | u32 height`, then one frame of raw RGB
    /// rows per strip follows (top to bottom), and the reply carries the
    /// complete JFIF stream as a blob. The service never buffers more than
    /// a strip of pixels per connection.
    CompressStream = 6,
    /// Report Prometheus-style metrics text.
    Metrics = 7,
    /// Decompress one JFIF stream with the reply streamed as 8-row pixel
    /// strips — the [`CompressStream`](Opcode::CompressStream) twin. The
    /// request frame carries the complete stream as a blob; the service
    /// answers with a begin frame (`status | u32 width | u32 height`),
    /// then one frame per strip (`status | raw RGB rows`, top to bottom).
    /// The service never materializes the decoded image: peak reply-side
    /// memory is one strip.
    DecompressStream = 8,
    /// Negotiate optional protocol features for this connection. The
    /// request payload is a `u32` bitmask of requested features; the
    /// ok-reply payload is the `u32` bitmask the service granted (always a
    /// subset). Granting [`FEATURE_TAGGED`] switches **every subsequent
    /// frame on the connection, both directions,** to tagged framing
    /// (`u32 tag` prefixed to the request/reply byte). An old server
    /// answers `Hello` with a typed error, so a new client degrades to v1
    /// cleanly.
    Hello = 9,
}

impl Opcode {
    /// Parses a request opcode byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Opcode::Ping),
            1 => Some(Opcode::EncodeBatch),
            2 => Some(Opcode::DecodeBatch),
            3 => Some(Opcode::Classify),
            4 => Some(Opcode::Stats),
            5 => Some(Opcode::Shutdown),
            6 => Some(Opcode::CompressStream),
            7 => Some(Opcode::Metrics),
            8 => Some(Opcode::DecompressStream),
            9 => Some(Opcode::Hello),
            _ => None,
        }
    }
}

/// [`Opcode::Hello`] feature bit: tagged framing (protocol v2). Once
/// granted, every subsequent frame on the connection carries a client-
/// chosen `u32 tag` before the opcode/status byte; the service may
/// execute a connection's in-flight requests **concurrently** and
/// deliver replies out of order, tag-matched. See `docs/PROTOCOL.md`
/// § Protocol v2.
pub const FEATURE_TAGGED: u32 = 1;

/// Writes one tagged (protocol v2) frame — `u32 len | u32 tag | inner` —
/// without materializing the tagged body.
///
/// # Errors
///
/// Propagates I/O errors; rejects oversized bodies.
pub fn write_tagged_frame(w: &mut impl Write, tag: u32, inner: &[u8]) -> Result<(), ServeError> {
    write_frame_parts(w, &tag.to_le_bytes(), inner)
}

/// Splits a tagged (protocol v2) frame body into its `u32 tag` and the
/// v1-shaped rest (`opcode | payload` or `status | payload`).
///
/// # Errors
///
/// [`ServeError::Protocol`] when the body is too short to carry a tag.
pub fn split_tagged(body: &[u8]) -> Result<(u32, &[u8]), ServeError> {
    if body.len() < 4 {
        return Err(ServeError::Protocol(format!(
            "tagged frame of {} bytes cannot carry a u32 tag",
            body.len()
        )));
    }
    let tag = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    Ok((tag, &body[4..]))
}

/// Reply status byte.
pub const STATUS_OK: u8 = 0;
/// Reply status byte for a service-side failure (payload = message).
pub const STATUS_ERR: u8 = 1;
/// Reply status byte for a typed over-capacity rejection: the service is
/// at its connection limit and this connection is not being served
/// (payload = message). Clients should back off and reconnect.
pub const STATUS_BUSY: u8 = 2;
/// Reply status byte for a typed deadline rejection: the request exceeded
/// the service's per-request time budget (payload = message).
pub const STATUS_TIMEOUT: u8 = 3;

/// Writes one frame (length prefix + body).
///
/// # Errors
///
/// Propagates I/O errors; rejects oversized bodies.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), ServeError> {
    write_frame_parts(w, &[], body)
}

/// The one frame writer: the length prefix, the tag (empty under v1
/// framing) and the body go out as one vectored write, so a frame costs
/// one system call when the socket takes it whole. A short write resumes
/// where it stopped, so the whole frame is always delivered.
fn write_frame_parts(w: &mut impl Write, tag: &[u8], body: &[u8]) -> Result<(), ServeError> {
    let len = tag.len() + body.len();
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME} byte limit"
        )));
    }
    let prefix = (len as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(tag), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(ServeError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Like `read_exact` on the rest of a started frame, but a read timeout
/// asks `keep_waiting` (with the time since the frame's first byte)
/// whether to resume at the same offset. When it says no, the timeout is
/// a **fatal** protocol error: the stream can no longer be retried from a
/// frame boundary, so treating it as "no request yet" would reinterpret
/// mid-body bytes as a new frame length.
fn read_exact_mid_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    started: Instant,
    keep_waiting: &mut impl FnMut(Duration) -> bool,
) -> Result<(), ServeError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ServeError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !keep_waiting(started.elapsed()) {
                    return Err(ServeError::Protocol(
                        "peer stalled mid-frame; connection desynchronized".into(),
                    ));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame body. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection). A read timeout *before* the
/// first byte of a frame surfaces as a retryable [`ServeError::Io`]; a
/// timeout after that is a fatal protocol error (see
/// [`read_frame_resuming`] for a reader that waits instead).
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    read_frame_resuming(r, |_| false)
}

/// [`read_frame`] for a service's reader, whose socket read timeout is a
/// poll interval, not a deadline: a timeout after a frame's first byte
/// resumes the frame at the same offset for as long as `keep_waiting`,
/// asked at each timeout with the time since that byte, returns true. A
/// peer that pauses mid-frame thus keeps its connection, and the reader
/// still notices shutdown (or a spent budget) within one poll interval.
/// A timeout before the first byte is still the retryable
/// [`ServeError::Io`].
///
/// # Errors
///
/// As [`read_frame`]; a stall `keep_waiting` gives up on is the fatal
/// [`ServeError::Protocol`] error.
pub fn read_frame_resuming(
    r: &mut impl Read,
    mut keep_waiting: impl FnMut(Duration) -> bool,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len = [0u8; 4];
    // A clean EOF before any length byte means "no more requests"; a
    // timeout here consumed nothing and is safe to retry.
    let started = match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(n) => {
            let started = Instant::now();
            read_exact_mid_frame(r, &mut len[n..], started, &mut keep_waiting)?;
            started
        }
        Err(e) => return Err(e.into()),
    };
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "peer announced a {n} byte frame (limit {MAX_FRAME})"
        )));
    }
    let mut body = vec![0u8; n];
    read_exact_mid_frame(r, &mut body, started, &mut keep_waiting)?;
    Ok(Some(body))
}

/// Appends an image (dimensions + raw RGB) to a payload — the same
/// encoding artifact payloads use ([`deepn_store::encode_image`]).
pub fn put_image(w: &mut ByteWriter, img: &RgbImage) {
    deepn_store::encode_image(w, img);
}

/// Reads an image written by [`put_image`].
///
/// # Errors
///
/// [`ServeError::Protocol`] on truncation or invalid dimensions.
pub fn get_image(r: &mut ByteReader<'_>) -> Result<RgbImage, ServeError> {
    Ok(deepn_store::decode_image(r)?)
}

/// Appends a length-prefixed byte blob.
pub fn put_blob(w: &mut ByteWriter, blob: &[u8]) {
    w.put_len(blob.len());
    w.put_bytes(blob);
}

/// Reads a length-prefixed byte blob.
///
/// # Errors
///
/// [`ServeError::Protocol`] on truncation.
pub fn get_blob(r: &mut ByteReader<'_>) -> Result<Vec<u8>, ServeError> {
    let n = r.len(1)?;
    Ok(r.bytes(n)?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let body = vec![1u8, 2, 3, 4, 5];
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("write");
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).expect("read"), Some(body));
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn tagged_bodies_round_trip_and_reject_runts() {
        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, 0xDEAD_BEEF, &[7, 8, 9]).expect("write");
        // An empty v1 rest is legal (Ping carries no payload) ...
        write_tagged_frame(&mut wire, 1, &[]).expect("write");
        let mut cursor = std::io::Cursor::new(wire);
        let body = read_frame(&mut cursor).expect("read").expect("frame");
        let (tag, rest) = split_tagged(&body).expect("split");
        assert_eq!(tag, 0xDEAD_BEEF);
        assert_eq!(rest, &[7, 8, 9]);
        let body = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(split_tagged(&body).expect("split"), (1, &[][..]));
        // ... but a body shorter than the tag itself is not.
        assert!(matches!(
            split_tagged(&[1, 2, 3]),
            Err(ServeError::Protocol(_))
        ));
    }

    /// A writer that takes at most `max` bytes per call, counting calls.
    struct Trickle {
        wire: Vec<u8>,
        max: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let start = self.wire.len();
            for buf in bufs {
                let n = buf.len().min(self.max - (self.wire.len() - start));
                self.wire.extend_from_slice(&buf[..n]);
            }
            Ok(self.wire.len() - start)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_survives_short_writes() {
        let bodies: Vec<Vec<u8>> = [0usize, 1, 7, 121, 300]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 31 + n) as u8).collect())
            .collect();
        for max in [usize::MAX, 1, 3, 5, 100] {
            let mut w = Trickle {
                wire: Vec::new(),
                max,
                calls: 0,
            };
            for (i, body) in bodies.iter().enumerate() {
                let calls = w.calls;
                write_frame(&mut w, body).expect("v1 frame");
                if max == usize::MAX {
                    assert_eq!(w.calls - calls, 1, "v1 frame of {} bytes", body.len());
                }
                let calls = w.calls;
                write_tagged_frame(&mut w, i as u32, body).expect("tagged frame");
                if max == usize::MAX {
                    assert_eq!(w.calls - calls, 1, "tagged frame of {} bytes", body.len());
                }
            }
            let mut cursor = std::io::Cursor::new(w.wire);
            for (i, body) in bodies.iter().enumerate() {
                let v1 = read_frame(&mut cursor).expect("read").expect("v1 frame");
                assert_eq!(&v1, body, "{max} bytes per call");
                let tagged = read_frame(&mut cursor).expect("read").expect("tagged");
                assert_eq!(
                    split_tagged(&tagged).expect("split"),
                    (i as u32, &body[..]),
                    "{max} bytes per call"
                );
            }
            assert_eq!(read_frame(&mut cursor).expect("eof"), None);
        }
    }

    #[test]
    fn image_payloads_round_trip() {
        let img = RgbImage::gradient(9, 5);
        let mut w = ByteWriter::new();
        put_image(&mut w, &img);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_image(&mut r).expect("image"), img);
    }
}
