//! The load driver: one client thread per connection, closed-loop with a
//! fixed in-flight window. Every reply is compared byte for byte with the
//! oracle's expected reply.

use crate::inputs::{Op, Template};
use crate::wire::Conn;
use deepn_serve::protocol::{STATUS_BUSY, STATUS_ERR, STATUS_OK, STATUS_TIMEOUT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Which requests a connection sends, in a fixed repeating pattern.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// `n` encodes, then one decode, repeated.
    EncodesPerDecode(usize),
    EncodeOnly,
}

impl Mix {
    fn op(self, seq: u64) -> Op {
        match self {
            Mix::EncodesPerDecode(n) if seq % (n as u64 + 1) == n as u64 => Op::Decode,
            _ => Op::Encode,
        }
    }
}

/// Outcome counts of one connection (or a sum of them).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub timeout: u64,
    pub remote: u64,
    pub io: u64,
    pub mismatch: u64,
    pub reconnects: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.busy + self.timeout + self.remote + self.io + self.mismatch
    }

    pub fn add(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.timeout += o.timeout;
        self.remote += o.remote;
        self.io += o.io;
        self.mismatch += o.mismatch;
        self.reconnects += o.reconnects;
    }
}

/// One successful request: when its write began, when the write
/// returned, and when its verified reply arrived.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub req: u64,
    pub start: Instant,
    pub sent: Instant,
    pub done: Instant,
}

/// Everything one client thread observed.
#[derive(Default)]
pub struct ConnReport {
    pub counts: Counts,
    pub samples: Vec<Sample>,
}

/// How long in-flight requests may take to complete after the window;
/// whatever is still outstanding then counts as timed out.
const DRAIN_LIMIT: Duration = Duration::from_secs(15);

/// One in-flight request.
struct Pending {
    tag: u32,
    req: u64,
    template: usize,
    op: Op,
    start: Instant,
    sent: Instant,
}

/// The request stream of one connection: the op pattern plus seeded
/// template choices, so the same seed sends the same requests.
pub struct RequestSource<'a> {
    encode: &'a [Template],
    decode: &'a [Template],
    mix: Mix,
    rng: StdRng,
    seq: u64,
}

impl<'a> RequestSource<'a> {
    pub fn new(encode: &'a [Template], decode: &'a [Template], mix: Mix, seed: u64) -> Self {
        RequestSource {
            encode,
            decode,
            mix,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
        }
    }

    fn next(&mut self) -> (u64, Op, usize) {
        let seq = self.seq;
        self.seq += 1;
        let op = self.mix.op(seq);
        let pool = self.templates(op);
        (seq, op, self.rng.gen_range(0..pool.len()))
    }

    fn templates(&self, op: Op) -> &'a [Template] {
        match op {
            Op::Encode => self.encode,
            Op::Decode => self.decode,
        }
    }
}

/// Drives one connection with `window` requests in flight until `end`
/// (or until `limit` requests were sent), then drains its in-flight
/// requests. `conn` is replaced by a fresh connection after an I/O
/// failure (counted per lost request), so the caller keeps a live one.
pub fn drive(
    conn: &mut Conn,
    addr: SocketAddr,
    src: &mut RequestSource<'_>,
    window: usize,
    end: Instant,
    limit: u64,
) -> ConnReport {
    let mut rep = ConnReport::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let drain_end = end + DRAIN_LIMIT;
    loop {
        let now = Instant::now();
        let sending = now < end && rep.counts.sent < limit;
        if sending && inflight.len() < window {
            let (req, op, template) = src.next();
            let body = &src.templates(op)[template].body;
            let tag = req as u32;
            rep.counts.sent += 1;
            if conn.send(tag, body).is_err() {
                rep.counts.io += 1;
                fail_all(&mut inflight, &mut rep, conn, addr);
                continue;
            }
            inflight.push_back(Pending {
                tag,
                req,
                template,
                op,
                start: now,
                sent: Instant::now(),
            });
            continue;
        }
        if inflight.is_empty() && !sending {
            break;
        }
        if now >= drain_end {
            // Late replies must not reach the next user of the
            // connection: give up on them and start a fresh one.
            rep.counts.timeout += inflight.len() as u64;
            inflight.clear();
            reconnect(&mut rep, conn, addr);
            break;
        }
        let (tag, reply) = match conn.recv_until(Some(drain_end)) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => {
                fail_all(&mut inflight, &mut rep, conn, addr);
                continue;
            }
        };
        let done = Instant::now();
        let pos = if conn.tagged() {
            inflight.iter().position(|p| p.tag == tag)
        } else {
            (!inflight.is_empty()).then_some(0)
        };
        let Some(pos) = pos else {
            // A reply for no request: the stream is desynchronized.
            rep.counts.mismatch += 1;
            fail_all(&mut inflight, &mut rep, conn, addr);
            continue;
        };
        let Some(p) = inflight.remove(pos) else {
            continue;
        };
        let expected = &src.templates(p.op)[p.template].expected;
        match reply.first().copied() {
            Some(STATUS_OK) if reply == *expected => {
                rep.counts.ok += 1;
                rep.samples.push(Sample {
                    req: p.req,
                    start: p.start,
                    sent: p.sent,
                    done,
                });
            }
            Some(STATUS_OK) => rep.counts.mismatch += 1,
            Some(STATUS_BUSY) => rep.counts.busy += 1,
            Some(STATUS_TIMEOUT) => rep.counts.timeout += 1,
            Some(STATUS_ERR) => rep.counts.remote += 1,
            _ => rep.counts.mismatch += 1,
        }
    }
    rep
}

/// Counts every in-flight request as an I/O failure and reconnects.
fn fail_all(
    inflight: &mut VecDeque<Pending>,
    rep: &mut ConnReport,
    conn: &mut Conn,
    addr: SocketAddr,
) {
    rep.counts.io += inflight.len() as u64;
    inflight.clear();
    reconnect(rep, conn, addr);
}

/// Replaces `conn` with a fresh connection in the same framing mode.
fn reconnect(rep: &mut ConnReport, conn: &mut Conn, addr: SocketAddr) {
    rep.counts.reconnects += 1;
    let fresh = if conn.tagged() {
        Conn::connect_tagged(addr)
    } else {
        Conn::connect(addr)
    };
    if let Ok(c) = fresh {
        *conn = c;
    } else {
        std::thread::sleep(Duration::from_millis(10));
    }
}
