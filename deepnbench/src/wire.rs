//! A minimal wire client over `deepn_serve::protocol`: one connection,
//! v1 or tagged framing, and a buffered frame reader that can wait with a
//! deadline without losing a partly received frame. The benchmark drives
//! the service with this instead of `deepn_serve::Client` so that every
//! request is timed individually, replies are matched by tag as they
//! arrive, and nothing is split, retried or replayed behind its back.
//!
//! Writes never block for long: a frame the socket cannot take yet waits
//! in an output buffer that every later send and receive keeps draining.
//! A pipelining sender therefore keeps reading replies instead of
//! deadlocking against a service that stopped reading because its own
//! replies are not being read.

use deepn_serve::protocol::{self, Opcode, FEATURE_TAGGED, STATUS_OK};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection to a server or a front end.
pub struct Conn {
    stream: TcpStream,
    /// Receive buffer; bytes `start..end` are received but not yet
    /// consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Frames not yet taken by the socket: bytes `out_pos..`.
    out: Vec<u8>,
    out_pos: usize,
    tagged: bool,
}

/// How long one write may wait for socket buffer space before the
/// connection turns to reading replies.
const WRITE_SLICE: Duration = Duration::from_millis(1);

impl Conn {
    /// Connects with `TCP_NODELAY`, like the shipped client.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_SLICE))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
            out: Vec::new(),
            out_pos: 0,
            tagged: false,
        })
    }

    /// Connects and negotiates tagged framing (protocol v2) with `Hello`,
    /// advertising no table fingerprint.
    pub fn connect_tagged(addr: SocketAddr) -> io::Result<Conn> {
        let mut conn = Conn::connect(addr)?;
        let mut hello = vec![Opcode::Hello as u8];
        hello.extend_from_slice(&FEATURE_TAGGED.to_le_bytes());
        let reply = conn.call(&hello)?;
        if reply.len() < 5 || reply[0] != STATUS_OK || reply[1] & FEATURE_TAGGED as u8 == 0 {
            return Err(io::Error::other("service refused tagged framing"));
        }
        conn.tagged = true;
        Ok(conn)
    }

    /// Whether the connection uses tagged framing.
    pub fn tagged(&self) -> bool {
        self.tagged
    }

    /// Queues one request body (`opcode | payload`), tagged when the
    /// connection is, and writes as much as the socket takes now.
    pub fn send(&mut self, tag: u32, body: &[u8]) -> io::Result<()> {
        let extra = if self.tagged { 4 } else { 0 };
        let len = body.len() + extra;
        if len > protocol::MAX_FRAME {
            return Err(io::Error::other(format!("request frame of {len} bytes")));
        }
        // Output already queued means the socket was full a moment ago:
        // queue this frame behind it and let the next receive drain both.
        let backlog = self.out_pos < self.out.len();
        self.out.extend_from_slice(&(len as u32).to_le_bytes());
        if self.tagged {
            self.out.extend_from_slice(&tag.to_le_bytes());
        }
        self.out.extend_from_slice(body);
        if backlog {
            return Ok(());
        }
        self.flush_some()
    }

    /// Writes queued bytes until the socket stops taking them.
    fn flush_some(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed")),
                Ok(n) => self.out_pos += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(())
                }
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Waits until `deadline` for the next reply frame. Returns the tag
    /// (0 on v1 connections) and the reply (`status | payload`), or `None`
    /// when the deadline passed first. Partial frames stay buffered.
    pub fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Option<(u32, Vec<u8>)>> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(Some(frame));
            }
            self.flush_some()?;
            let mut timeout = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Ok(None);
                    }
                    Some((d - now).max(Duration::from_micros(50)))
                }
                None => None,
            };
            if self.out_pos < self.out.len() {
                // Output is still queued: wait for replies only briefly,
                // then go back to writing.
                timeout = Some(timeout.map_or(WRITE_SLICE, |t| t.min(WRITE_SLICE)));
            }
            self.stream.set_read_timeout(timeout)?;
            if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                } else {
                    let grown = self.buf.len() * 2;
                    self.buf.resize(grown, 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
                }
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks for the next reply frame.
    pub fn recv(&mut self) -> io::Result<(u32, Vec<u8>)> {
        match self.recv_until(None)? {
            Some(frame) => Ok(frame),
            None => Err(io::Error::other("blocking receive returned no frame")),
        }
    }

    /// One request/reply exchange on an otherwise idle connection.
    pub fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        self.send(0, body)?;
        Ok(self.recv()?.1)
    }

    /// Fetches the Prometheus exposition with the `Metrics` op.
    pub fn scrape(&mut self) -> io::Result<String> {
        let reply = self.call(&[Opcode::Metrics as u8])?;
        if reply.first() != Some(&STATUS_OK) || reply.len() < 5 {
            return Err(io::Error::other("Metrics op failed"));
        }
        String::from_utf8(reply[5..].to_vec()).map_err(io::Error::other)
    }

    /// Asks the service (or front end) to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.call(&[Opcode::Shutdown as u8]).map(|_| ())
    }

    fn take_frame(&mut self) -> io::Result<Option<(u32, Vec<u8>)>> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let n = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if n > protocol::MAX_FRAME {
            return Err(io::Error::other(format!("reply frame of {n} bytes")));
        }
        if avail.len() < 4 + n {
            return Ok(None);
        }
        let body = &avail[4..4 + n];
        let frame = if self.tagged {
            let (tag, rest) = protocol::split_tagged(body).map_err(io::Error::other)?;
            (tag, rest.to_vec())
        } else {
            (0, body.to_vec())
        };
        self.start += 4 + n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(frame))
    }
}
