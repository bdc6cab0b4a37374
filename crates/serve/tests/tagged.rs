//! Protocol v2 (tagged framing) semantics, driven at the frame level:
//! negotiation and degradation, out-of-order reply delivery, duplicate
//! and unknown tags, streaming-op rejection, replay after reconnect with
//! a partially acknowledged window, and a property test pinning every
//! tagged reply byte-identical (per request) to its v1 twin.

use deepn_codec::{Encoder, QuantTablePair, RgbImage};
use deepn_serve::protocol::{self, Opcode, FEATURE_TAGGED, STATUS_ERR, STATUS_OK};
use deepn_serve::{Client, PipelineReply, Server, ServerConfig};
use deepn_store::ByteWriter;
use proptest::collection::vec as prop_vec;
use proptest::{any, ProptestConfig, Strategy, TestRunner};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> deepn_serve::ServerHandle {
    Server::bind("127.0.0.1:0", QuantTablePair::standard(70), None, config)
        .expect("bind")
        .spawn()
}

/// Raw-stream `Hello` exchange; returns the granted feature bitmask.
fn hello(conn: &mut TcpStream) -> u32 {
    let mut req = vec![Opcode::Hello as u8];
    req.extend_from_slice(&FEATURE_TAGGED.to_le_bytes());
    protocol::write_frame(conn, &req).expect("hello frame");
    let reply = protocol::read_frame(conn)
        .expect("hello reply")
        .expect("reply before eof");
    assert_eq!(reply[0], STATUS_OK, "hello rejected: {reply:?}");
    u32::from_le_bytes(reply[1..5].try_into().expect("granted bitmask"))
}

/// A raw connection with Nagle's algorithm off, as `Client::connect`
/// sets it: a small frame written behind a large one must not wait for
/// the peer's delayed ACK.
fn connect_raw(handle: &deepn_serve::ServerHandle) -> TcpStream {
    let conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn
}

fn send_tagged(conn: &mut TcpStream, tag: u32, inner: &[u8]) {
    protocol::write_tagged_frame(conn, tag, inner).expect("tagged frame");
}

/// Reads one tagged reply: `(tag, status, payload)`.
fn recv_tagged(conn: &mut TcpStream) -> (u32, u8, Vec<u8>) {
    let body = protocol::read_frame(conn)
        .expect("tagged reply")
        .expect("reply before eof");
    let (tag, rest) = protocol::split_tagged(&body).expect("tagged reply shape");
    (tag, rest[0], rest[1..].to_vec())
}

/// How long [`heavy_encode_request`] keeps the one worker busy: far
/// longer than a follow-up frame takes to arrive, in either build profile.
const HEAVY_BUSY: Duration = Duration::from_millis(50);

/// A heavy `EncodeBatch` request body and its image count — enough work
/// to keep a worker busy for at least [`HEAVY_BUSY`], so inline-answered
/// frames sent after it deterministically reply first. The count comes
/// from the fastest of several timed local encodes of the same image
/// (other tests' load can only slow one down), since one encode takes
/// about a hundred times longer in debug than in release.
fn heavy_encode_request() -> (Vec<u8>, usize) {
    let img = RgbImage::gradient(128, 128);
    let encoder = Encoder::with_tables(QuantTablePair::standard(70));
    let fastest = (0..4)
        .map(|_| {
            let start = Instant::now();
            encoder.encode(&img).expect("local encode");
            start.elapsed()
        })
        .min()
        .expect("four timings");
    let copies = HEAVY_BUSY.as_nanos().div_ceil(fastest.as_nanos().max(1)) as usize;
    let mut w = ByteWriter::new();
    w.put_u8(Opcode::EncodeBatch as u8);
    w.put_len(copies);
    for _ in 0..copies {
        protocol::put_image(&mut w, &img);
    }
    (w.into_bytes(), copies)
}

#[test]
fn hello_upgrades_the_client_and_one_shots_round_trip_tagged() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    assert!(
        client.upgrade_tagged().expect("negotiate"),
        "grant expected"
    );
    assert!(client.is_tagged());
    assert_eq!(client.hellos_sent(), 1);

    // One-shot calls ride the tagged framing transparently.
    let img = RgbImage::gradient(24, 16);
    let blobs = client
        .encode_batch(std::slice::from_ref(&img))
        .expect("tagged encode");
    let local = Encoder::with_tables(QuantTablePair::standard(70))
        .encode(&img)
        .expect("local encode");
    assert_eq!(blobs, vec![local]);
    client.ping().expect("tagged ping");

    // The trailing Stats fields count this connection and its requests
    // (encode + ping + the stats request itself).
    let stats = client.stats().expect("tagged stats");
    assert_eq!(stats.tagged_connections, 1);
    assert_eq!(stats.tagged_requests, 3);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn hello_denial_degrades_the_client_to_v1() {
    // A scripted "old service": answers `Hello` with a typed error (what
    // a pre-v2 build does with an unknown opcode), then serves one v1
    // ping. The client must degrade cleanly, not fail.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let script = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("connection");
        let body = protocol::read_frame(&mut conn)
            .expect("hello frame")
            .expect("frame before eof");
        assert_eq!(body[0], Opcode::Hello as u8);
        let mut reply = ByteWriter::new();
        reply.put_u8(STATUS_ERR);
        reply.put_string("unknown opcode 9");
        protocol::write_frame(&mut conn, reply.as_bytes()).expect("denial");
        // The next request must be a plain v1 ping: no tag prefix.
        let body = protocol::read_frame(&mut conn)
            .expect("ping frame")
            .expect("frame before eof");
        assert_eq!(body, vec![Opcode::Ping as u8]);
        protocol::write_frame(&mut conn, &[STATUS_OK]).expect("pong");
    });

    let mut client = Client::connect(addr).expect("connect");
    assert!(!client.upgrade_tagged().expect("degrades, not errors"));
    assert!(!client.is_tagged());
    client.ping().expect("v1 ping still works");
    drop(client);
    script.join().expect("script");
}

#[test]
fn tagged_replies_arrive_out_of_order() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut conn = connect_raw(&handle);
    assert_eq!(hello(&mut conn) & FEATURE_TAGGED, FEATURE_TAGGED);

    // A heavy encode (tag 7) followed by a ping (tag 9): the ping is
    // answered inline by the reader while the worker is still encoding,
    // so its reply must overtake the encode's.
    let (heavy, copies) = heavy_encode_request();
    send_tagged(&mut conn, 7, &heavy);
    send_tagged(&mut conn, 9, &[Opcode::Ping as u8]);
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (9, STATUS_OK), "ping reply overtakes");
    let (tag, status, payload) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (7, STATUS_OK));
    assert_eq!(
        u32::from_le_bytes(payload[..4].try_into().expect("count")) as usize,
        copies,
        "encode reply carries all blobs"
    );

    send_tagged(&mut conn, 1, &[Opcode::Shutdown as u8]);
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (1, STATUS_OK));
    handle.join();
}

#[test]
fn duplicate_in_flight_tag_is_rejected_without_killing_the_original() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut conn = connect_raw(&handle);
    hello(&mut conn);

    // Tag 5 is busy encoding when a second request reuses it: the
    // duplicate gets a typed error (inline, so it replies first) and the
    // original still completes under the same tag.
    let (heavy, _) = heavy_encode_request();
    send_tagged(&mut conn, 5, &heavy);
    send_tagged(&mut conn, 5, &[Opcode::Ping as u8]);
    let (tag, status, payload) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (5, STATUS_ERR));
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("already in flight"), "{msg}");
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (5, STATUS_OK), "original survives");

    // The rejection did not release the original's window slot early and
    // completion did release it: tag 5 is reusable now.
    send_tagged(&mut conn, 5, &[Opcode::Ping as u8]);
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (5, STATUS_OK));

    send_tagged(&mut conn, 6, &[Opcode::Shutdown as u8]);
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (6, STATUS_OK));
    handle.join();
}

#[test]
fn a_tag_is_reusable_as_soon_as_its_reply_is_read() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut conn = connect_raw(&handle);
    hello(&mut conn);

    // Just too large to run inline on the reader, so each reply comes
    // from the writer thread. Every request reuses tag 5 the moment the
    // previous reply arrives: the writer must have retired the tag by
    // then, or the reuse earns a spurious "already in flight" error. A
    // retirement after the write lost that race within 200 rounds in
    // each of 20 release runs; a release round costs about 0.1 ms.
    let img = RgbImage::gradient(65, 64);
    let mut w = ByteWriter::new();
    w.put_u8(Opcode::EncodeBatch as u8);
    w.put_len(1);
    protocol::put_image(&mut w, &img);
    let request = w.into_bytes();
    let rounds = if cfg!(debug_assertions) { 200 } else { 2000 };
    for round in 0..rounds {
        send_tagged(&mut conn, 5, &request);
        let (tag, status, payload) = recv_tagged(&mut conn);
        assert_eq!(
            (tag, status),
            (5, STATUS_OK),
            "round {round}: {}",
            String::from_utf8_lossy(&payload)
        );
    }

    send_tagged(&mut conn, 6, &[Opcode::Shutdown as u8]);
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (6, STATUS_OK));
    handle.join();
}

#[test]
fn streaming_second_hello_and_runt_frames_on_a_tagged_connection() {
    let handle = start(ServerConfig::default());
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    hello(&mut conn);

    // Streaming ops and a second Hello are typed errors that leave the
    // connection usable.
    send_tagged(&mut conn, 1, &[Opcode::CompressStream as u8]);
    let (tag, status, payload) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (1, STATUS_ERR));
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("streaming ops"), "{msg}");

    let mut second = vec![Opcode::Hello as u8];
    second.extend_from_slice(&FEATURE_TAGGED.to_le_bytes());
    send_tagged(&mut conn, 2, &second);
    let (tag, status, payload) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (2, STATUS_ERR));
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("already negotiated"), "{msg}");

    send_tagged(&mut conn, 3, &[Opcode::Ping as u8]);
    let (tag, status, _) = recv_tagged(&mut conn);
    assert_eq!((tag, status), (3, STATUS_OK), "connection still usable");

    // A frame too short to carry a tag desynchronizes the framing: the
    // server closes the connection instead of guessing.
    protocol::write_frame(&mut conn, &[1, 2, 3]).expect("runt frame");
    assert_eq!(
        protocol::read_frame(&mut conn).expect("clean close"),
        None,
        "runt tagged frame must be fatal"
    );

    let mut closer = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    closer.shutdown().expect("shutdown");
    handle.join();
}

/// The scripted half of the replay test: grants tagged framing, reads
/// `total` tagged pings, acknowledges the first `ack`, drops the
/// connection, then expects a re-`Hello` and exactly the unacknowledged
/// tags again. Returns the replayed tags in arrival order.
fn scripted_tagged_partial_ack(listener: TcpListener, total: usize, ack: usize) -> Vec<u32> {
    let grant_hello = |conn: &mut TcpStream| {
        let body = protocol::read_frame(conn)
            .expect("hello frame")
            .expect("frame before eof");
        assert_eq!(body[0], Opcode::Hello as u8, "expected Hello, got {body:?}");
        let mut reply = vec![STATUS_OK];
        reply.extend_from_slice(&FEATURE_TAGGED.to_le_bytes());
        protocol::write_frame(conn, &reply).expect("grant");
    };
    let read_ping = |conn: &mut TcpStream| -> u32 {
        let body = protocol::read_frame(conn)
            .expect("tagged frame")
            .expect("frame before eof");
        let (tag, rest) = protocol::split_tagged(&body).expect("tagged request");
        assert_eq!(rest, [Opcode::Ping as u8], "tag {tag}");
        tag
    };
    let (mut conn, _) = listener.accept().expect("first connection");
    grant_hello(&mut conn);
    let mut tags = Vec::new();
    for _ in 0..total {
        tags.push(read_ping(&mut conn));
    }
    for &tag in &tags[..ack] {
        protocol::write_tagged_frame(&mut conn, tag, &[STATUS_OK]).expect("ack");
    }
    drop(conn); // total - ack requests die unacknowledged

    let (mut conn, _) = listener.accept().expect("replay connection");
    grant_hello(&mut conn); // tagged framing must be renegotiated first
    let mut replayed = Vec::new();
    for _ in 0..total - ack {
        let tag = read_ping(&mut conn);
        protocol::write_tagged_frame(&mut conn, tag, &[STATUS_OK]).expect("ack");
        replayed.push(tag);
    }
    assert_eq!(
        protocol::read_frame(&mut conn).expect("eof"),
        None,
        "nothing beyond the unacknowledged window may be replayed"
    );
    replayed
}

#[test]
fn tagged_window_replays_after_reconnect_with_partial_acks() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let script = std::thread::spawn(move || scripted_tagged_partial_ack(listener, 5, 2));

    {
        let mut client = Client::connect(addr).expect("connect");
        assert!(client.upgrade_tagged().expect("negotiate"));
        let mut pipe = client.pipeline(5);
        for _ in 0..5 {
            pipe.submit_ping().expect("submit");
        }
        // Replies for tags 0–1 land on the original connection; the close
        // forces a reconnect that re-negotiates and replays tags 2–4 under
        // their original tags.
        for i in 0..5 {
            match pipe.recv() {
                Ok(PipelineReply::Pong) => {}
                other => panic!("reply {i}: {other:?}"),
            }
        }
        assert_eq!(pipe.pending(), 0);
    }
    let replayed = script.join().expect("script");
    assert_eq!(replayed, vec![2, 3, 4]);
}

/// Builds one raw request body (`opcode | payload`) from sampled
/// primitives. Kinds: ping, encode batch, decode batch (with a mix of
/// valid and garbage streams, so error replies are compared too), and
/// classify (the service has no model, so this is always a typed error).
fn build_request(kind: u8, n: usize, w: usize, h: usize, fill: u8) -> Vec<u8> {
    let image = |i: usize| {
        let data: Vec<u8> = (0..w * h * 3)
            .map(|j| ((fill as usize + 7 * i + j) % 251) as u8)
            .collect();
        RgbImage::from_bytes(w, h, data).expect("sized buffer")
    };
    let mut out = ByteWriter::new();
    match kind {
        0 => out.put_u8(Opcode::Ping as u8),
        1 => {
            out.put_u8(Opcode::EncodeBatch as u8);
            out.put_len(n);
            for i in 0..n {
                protocol::put_image(&mut out, &image(i));
            }
        }
        2 => {
            let encoder = Encoder::with_tables(QuantTablePair::standard(70));
            out.put_u8(Opcode::DecodeBatch as u8);
            out.put_len(n);
            for i in 0..n {
                if (fill as usize + i).is_multiple_of(3) {
                    // Garbage stream: the decode error must also be
                    // byte-identical across protocol versions.
                    protocol::put_blob(&mut out, &[fill; 9]);
                } else {
                    protocol::put_blob(&mut out, &encoder.encode(&image(i)).expect("encode"));
                }
            }
        }
        _ => {
            out.put_u8(Opcode::Classify as u8);
            out.put_len(n);
            for i in 0..n {
                protocol::put_image(&mut out, &image(i));
            }
        }
    }
    out.into_bytes()
}

#[test]
fn tagged_replies_are_byte_identical_to_v1_per_request() {
    let handle = start(ServerConfig::default());
    let mut v1 = TcpStream::connect(handle.addr()).expect("v1 connect");
    let mut v2 = TcpStream::connect(handle.addr()).expect("v2 connect");
    assert_eq!(hello(&mut v2) & FEATURE_TAGGED, FEATURE_TAGGED);

    // `Stats` is excluded by construction: its payload is a live counter
    // snapshot, not a function of the request.
    let request = (0u8..4, 1usize..=3, 1usize..=16, 1usize..=16, any::<u8>())
        .prop_map(|(kind, n, w, h, fill)| build_request(kind, n, w, h, fill));
    let mix = (1usize..5).prop_flat_map(move |len| prop_vec(request.clone(), len));

    let mut runner = TestRunner::new(ProptestConfig::with_cases(24), "tagged_v1_identity");
    let mut tag = 100u32;
    for case in 0..runner.cases() {
        let seed = runner.seed();
        for body in mix.sample(runner.rng()) {
            protocol::write_frame(&mut v1, &body).expect("v1 request");
            let expect = protocol::read_frame(&mut v1)
                .expect("v1 reply")
                .expect("reply before eof");
            tag += 1;
            send_tagged(&mut v2, tag, &body);
            let reply = protocol::read_frame(&mut v2)
                .expect("v2 reply")
                .expect("reply before eof");
            let (echoed, rest) = protocol::split_tagged(&reply).expect("tagged reply");
            assert_eq!(echoed, tag, "case {case} (seed {seed:#x})");
            assert_eq!(
                rest,
                &expect[..],
                "case {case} (seed {seed:#x}): v2 reply diverges from v1 for {body:?}"
            );
        }
    }
    drop(v2);
    protocol::write_frame(&mut v1, &[Opcode::Shutdown as u8]).expect("shutdown");
    let _ = protocol::read_frame(&mut v1);
    handle.join();
}

#[test]
fn giant_batches_split_across_tags_and_reassemble_in_order() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    assert!(
        client.upgrade_tagged().expect("negotiate"),
        "grant expected"
    );

    // 6 × 64×48 = 18432 px: over the split budget, so the batch fans out
    // into one tagged request per image. 2 × 24×16 = 768 px stays one
    // frame — per-item framing would only add round trips.
    let giant: Vec<RgbImage> = (0..6).map(|i| RgbImage::gradient(64, 48 + i)).collect();
    let small: Vec<RgbImage> = (0..2).map(|i| RgbImage::gradient(24, 16 + i)).collect();
    let encoder = Encoder::with_tables(QuantTablePair::standard(70));
    let local = |imgs: &[RgbImage]| -> Vec<Vec<u8>> {
        imgs.iter()
            .map(|img| encoder.encode(img).expect("local encode"))
            .collect()
    };
    let expect_giant = local(&giant);
    let expect_small = local(&small);

    {
        let mut pipe = client.pipeline(4);
        pipe.submit_encode_batch(&giant).expect("submit giant");
        pipe.submit_encode_batch(&small).expect("submit small");
        // Both replies surface whole and in submission order, however
        // many tagged parts each rode the wire as.
        assert_eq!(
            pipe.recv().expect("giant reply"),
            PipelineReply::Encoded(expect_giant)
        );
        assert_eq!(
            pipe.recv().expect("small reply"),
            PipelineReply::Encoded(expect_small)
        );
    }
    // Exactly the giant batch split: 6 parts = 5 extra service-counted
    // requests; the small batch contributed none.
    assert_eq!(client.split_requests(), 5);
    client.shutdown().expect("shutdown");
    handle.join();
}
