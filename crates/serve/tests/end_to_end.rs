//! In-process end-to-end tests: a spawned server, a TCP client, and
//! byte-identity against the local codec.

use deepn_codec::stream::strip_count_for;
use deepn_codec::{Decoder, Encoder, PixelStrip, QuantTablePair, RgbImage};
use deepn_dataset::{DatasetSpec, ImageSet};
use deepn_serve::protocol::{self, Opcode, STATUS_ERR, STATUS_OK};
use deepn_serve::{Client, PipelineReply, ServeError, Server, ServerConfig};
use deepn_store::{ByteReader, ByteWriter};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(tables: QuantTablePair) -> (deepn_serve::ServerHandle, Client) {
    let server = Server::bind(
        "127.0.0.1:0",
        tables,
        None,
        ServerConfig {
            workers: 3,
            queue_depth: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    (handle, client)
}

#[test]
fn batch_round_trip_is_byte_identical_to_local_codec() {
    let tables = QuantTablePair::standard(70);
    let set = ImageSet::generate(&DatasetSpec::tiny(), 11);
    let images = &set.images()[..8];
    let (handle, mut client) = start(tables.clone());

    // Service-side encode must equal a local encode with the same tables.
    let remote = client.encode_batch(images).expect("encode batch");
    let encoder = Encoder::with_tables(tables);
    for (img, remote_bytes) in images.iter().zip(&remote) {
        assert_eq!(&encoder.encode(img).expect("local encode"), remote_bytes);
    }

    // Service-side decode must equal a local decode of the same streams.
    let decoded = client.decode_batch(&remote).expect("decode batch");
    let decoder = Decoder::new();
    for (stream, dec) in remote.iter().zip(&decoded) {
        assert_eq!(&decoder.decode(stream).expect("local decode"), dec);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.images_encoded, images.len() as u64);
    assert_eq!(stats.images_decoded, images.len() as u64);
    assert_eq!(stats.workers, 3);
    assert!(!stats.has_model);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn oversized_batches_flow_through_the_bounded_queue() {
    // Four pooled requests (each over the 4096-pixel inline budget) in
    // flight at once on one tagged connection, against one worker and a
    // one-slot queue: more than `workers + queue_depth`, so submissions
    // meet a full queue and must wait — backpressure, not failure.
    let tables = QuantTablePair::uniform(6);
    let server = Server::bind(
        "127.0.0.1:0",
        tables.clone(),
        None,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    assert!(client.upgrade_tagged().expect("negotiate"));
    let images: Vec<RgbImage> = (0..4).map(|i| RgbImage::gradient(128, 128 + i)).collect();
    let encoder = Encoder::with_tables(tables);
    {
        let mut pipe = client.pipeline(4);
        for img in &images {
            pipe.submit_encode_batch(std::slice::from_ref(img))
                .expect("submit");
        }
        for img in &images {
            let local = encoder.encode(img).expect("local encode");
            assert_eq!(
                pipe.recv().expect("every pooled request succeeds"),
                PipelineReply::Encoded(vec![local])
            );
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests_timed_out, 0);
    assert_eq!(stats.images_encoded, images.len() as u64);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn v1_replies_keep_arrival_order_across_pooled_rejected_and_streamed_requests() {
    // Four requests written back to back on one raw v1 connection before
    // any reply is read: a pooled encode, a typed rejection, and both
    // streaming ops. Each must wait for its predecessor's reply, so the
    // replies arrive in request order.
    let tables = QuantTablePair::standard(70);
    let (handle, mut client) = start(tables.clone());
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");

    // 1. A pooled EncodeBatch: one 128×128 image, over the inline budget.
    let pooled = RgbImage::gradient(128, 128);
    let mut w = ByteWriter::new();
    w.put_u8(Opcode::EncodeBatch as u8);
    w.put_len(1);
    protocol::put_image(&mut w, &pooled);
    let pooled_request = w.into_bytes();
    protocol::write_frame(&mut conn, &pooled_request).expect("encode request");
    // 2. A frame with an unknown opcode.
    protocol::write_frame(&mut conn, &[0xEE]).expect("unknown opcode");
    // 3. A CompressStream begin frame with its strips.
    let streamed = RgbImage::gradient(24, 20);
    let mut w = ByteWriter::new();
    w.put_u8(Opcode::CompressStream as u8);
    w.put_u32(24);
    w.put_u32(20);
    protocol::write_frame(&mut conn, w.as_bytes()).expect("begin frame");
    let mut strip = PixelStrip::new();
    for s in 0..strip_count_for(20) {
        assert!(strip.copy_from_image(&streamed, s));
        protocol::write_frame(&mut conn, strip.as_bytes()).expect("strip");
    }
    // 4. A DecompressStream.
    let jfif = Encoder::with_tables(tables.clone())
        .encode(&RgbImage::gradient(16, 12))
        .expect("local encode");
    let mut w = ByteWriter::new();
    w.put_u8(Opcode::DecompressStream as u8);
    protocol::put_blob(&mut w, &jfif);
    protocol::write_frame(&mut conn, w.as_bytes()).expect("decompress request");

    let next = |conn: &mut TcpStream| {
        protocol::read_frame(conn)
            .expect("reply")
            .expect("reply before eof")
    };
    let pooled_local = Encoder::with_tables(tables.clone())
        .encode(&pooled)
        .expect("local encode");
    let assert_pooled = |reply: Vec<u8>, what: &str| {
        assert_eq!(reply[0], STATUS_OK, "{what}");
        let mut r = ByteReader::new(&reply[1..]);
        assert_eq!(r.u32().expect("count"), 1, "{what}");
        let blob = protocol::get_blob(&mut r).expect("blob");
        assert!(blob == pooled_local, "{what}: {} bytes", blob.len());
    };
    assert_pooled(next(&mut conn), "1: pooled encode");

    let reply = next(&mut conn);
    assert_eq!(reply[0], STATUS_ERR, "2: typed rejection");
    let msg = String::from_utf8_lossy(&reply[1..]).into_owned();
    assert!(msg.contains("unknown opcode 238"), "{msg}");

    let reply = next(&mut conn);
    assert_eq!(reply[0], STATUS_OK, "3: compress stream");
    let local = Encoder::with_tables(tables.clone())
        .optimize_huffman(false)
        .encode(&streamed)
        .expect("local encode");
    let blob = protocol::get_blob(&mut ByteReader::new(&reply[1..])).expect("blob");
    assert_eq!(blob, local);

    let begin = next(&mut conn);
    assert_eq!(begin[0], STATUS_OK, "4: decompress stream");
    let mut r = ByteReader::new(&begin[1..]);
    assert_eq!(
        (r.u32().expect("width"), r.u32().expect("height")),
        (16, 12)
    );
    let mut pixels = Vec::new();
    for _ in 0..strip_count_for(12) {
        let frame = next(&mut conn);
        assert_eq!(frame[0], STATUS_OK);
        pixels.extend_from_slice(&frame[1..]);
    }
    let local = Decoder::new().decode(&jfif).expect("local decode");
    assert_eq!(pixels, local.as_bytes());

    // 5. Rounds that put a request the reader answers inline right
    // behind a pooled one: the reader writes the inline reply while the
    // writer thread may still hold the write lock for the pooled reply,
    // which must still arrive first.
    let small = RgbImage::gradient(8, 8);
    let mut w = ByteWriter::new();
    w.put_u8(Opcode::EncodeBatch as u8);
    w.put_len(1);
    protocol::put_image(&mut w, &small);
    let small_request = w.into_bytes();
    let small_local = Encoder::with_tables(tables)
        .encode(&small)
        .expect("local encode");
    for round in 0..64 {
        protocol::write_frame(&mut conn, &pooled_request).expect("pooled request");
        let inline: &[u8] = match round % 3 {
            0 => &[Opcode::Ping as u8],
            1 => &small_request,
            _ => &[0xEE],
        };
        protocol::write_frame(&mut conn, inline).expect("inline request");
        assert_pooled(
            next(&mut conn),
            &format!("round {round}: pooled reply first"),
        );
        let reply = next(&mut conn);
        match round % 3 {
            0 => assert_eq!(reply, [STATUS_OK], "round {round}: pong"),
            1 => {
                assert_eq!(reply[0], STATUS_OK, "round {round}: inline encode");
                let mut r = ByteReader::new(&reply[1..]);
                assert_eq!(r.u32().expect("count"), 1);
                assert_eq!(protocol::get_blob(&mut r).expect("blob"), small_local);
            }
            _ => assert_eq!(reply[0], STATUS_ERR, "round {round}: typed rejection"),
        }
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A 7×9 stream whose SOF0 points the Cb component at quantization table
/// 2, which a baseline stream cannot define.
fn forged_quant_selector() -> Vec<u8> {
    let mut jfif = Encoder::with_tables(QuantTablePair::standard(70))
        .encode(&deepn_codec::RgbImage::gradient(7, 9))
        .expect("encode");
    // SOF0: marker, length, precision, height, width and component count
    // take 10 bytes, then (id, sampling, Tq) per component.
    let sof0 = jfif
        .windows(2)
        .position(|m| m == [0xFF, 0xC0])
        .expect("SOF0 marker");
    assert_eq!(jfif[sof0 + 15], 1, "Cb selects the chroma table");
    jfif[sof0 + 15] = 2;
    jfif
}

#[test]
fn errors_are_remote_not_fatal() {
    let (handle, mut client) = start(QuantTablePair::standard(50));
    // Decoding garbage must produce a typed remote error...
    let err = client
        .decode_batch(&[vec![0xDE, 0xAD, 0xBE, 0xEF]])
        .expect_err("garbage cannot decode");
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // ...as must headers the decoder rejects...
    let err = client
        .decode_batch(&[forged_quant_selector()])
        .expect_err("forged header cannot decode");
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("decode failed")),
        "{err}"
    );
    // ...and classify without a model likewise...
    let set = ImageSet::generate(&DatasetSpec::tiny(), 2);
    let err = client
        .classify(&set.images()[..1])
        .expect_err("no model loaded");
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // ...while the connection stays serviceable.
    client.ping().expect("still alive");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn geometry_mismatch_costs_a_request_not_a_worker() {
    // A model built for 16x16 inputs, served with a single worker: a
    // wrong-geometry classify must come back as a remote error while the
    // worker survives to serve correct requests afterwards.
    let model = deepn_nn::zoo::mlp_probe(3, 16, 16, 4, 3);
    let server = Server::bind(
        "127.0.0.1:0",
        QuantTablePair::standard(60),
        Some(model),
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");

    let bad = deepn_codec::RgbImage::gradient(5, 5);
    for _ in 0..3 {
        let err = client
            .classify(std::slice::from_ref(&bad))
            .expect_err("wrong geometry");
        assert!(matches!(err, ServeError::Remote(_)), "{err}");
    }
    // The lone worker is still alive: a well-formed request succeeds.
    let good = deepn_codec::RgbImage::gradient(16, 16);
    let labels = client.classify(&[good]).expect("classify");
    assert_eq!(labels.len(), 1);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn over_limit_connections_get_a_typed_busy_rejection() {
    let server = Server::bind(
        "127.0.0.1:0",
        QuantTablePair::standard(60),
        None,
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let mut first = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    // The ping guarantees the first connection is registered before the
    // second one is accepted.
    first.ping().expect("within the limit");
    let mut second = Client::connect(handle.addr()).expect("tcp connect still succeeds");
    let err = second.ping().expect_err("over the connection limit");
    assert!(matches!(err, ServeError::Busy(_)), "{err}");
    // The admitted connection keeps working and observes the rejection.
    first.ping().expect("first connection unaffected");
    let stats = first.stats().expect("stats");
    assert_eq!(stats.connections_rejected, 1);
    assert_eq!(stats.max_connections, 1);
    // Dropping the admitted connection frees the slot for a successor.
    drop(first);
    let mut third = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        // The freed slot appears once the server reaps the first
        // connection's reader thread (bounded by its 200 ms read timeout).
        match third.ping() {
            Ok(()) => break,
            Err(ServeError::Busy(_)) if std::time::Instant::now() < deadline => {
                third = Client::connect(handle.addr()).expect("reconnect");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    // A saturated service must still be stoppable: with `third` holding
    // the only slot, shutdown over a fresh (over-limit) connection is
    // honored rather than busy-rejected.
    let mut admin = Client::connect(handle.addr()).expect("connect");
    admin.shutdown().expect("shutdown honored over the limit");
    handle.join();
}

#[test]
fn exhausted_request_budget_is_a_typed_timeout() {
    // A zero budget is spent before any job can finish: every batch
    // request deterministically comes back as a typed timeout frame.
    let server = Server::bind(
        "127.0.0.1:0",
        QuantTablePair::standard(60),
        None,
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            request_timeout: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    let set = ImageSet::generate(&DatasetSpec::tiny(), 3);
    let err = client
        .encode_batch(&set.images()[..2])
        .expect_err("zero budget");
    assert!(matches!(err, ServeError::Timeout(_)), "{err}");
    // Ping carries no jobs, so the connection itself stays healthy.
    client.ping().expect("connection survives a timeout");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests_timed_out, 1);
    // An enabled sub-millisecond budget reports as 1, never as the
    // "disabled" 0.
    assert_eq!(stats.request_timeout_ms, 1);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn compress_stream_is_byte_identical_to_local_single_pass_encode() {
    let tables = QuantTablePair::standard(65);
    let (handle, mut client) = start(tables.clone());
    // Ragged height (not a multiple of 8) exercises the short final strip.
    for (w, h) in [(45, 19), (16, 16), (3, 1)] {
        let img = deepn_codec::RgbImage::gradient(w, h);
        let mut session = client.begin_compress_stream(w, h).expect("begin");
        let mut strip = deepn_codec::PixelStrip::new();
        for s in 0..session.strip_count() {
            assert!(strip.copy_from_image(&img, s));
            session.send_strip(strip.as_bytes()).expect("strip");
        }
        let remote = session.finish().expect("finish");
        // Single-pass network streaming cannot rewind for the optimized-
        // Huffman analysis pass, so the contract is byte-identity with the
        // standard-table local encode.
        let local = Encoder::with_tables(tables.clone())
            .optimize_huffman(false)
            .encode(&img)
            .expect("local encode");
        assert_eq!(remote, local, "{w}x{h}");
        // The stream decodes like any other baseline JFIF stream.
        assert_eq!(Decoder::new().decode(&remote).expect("decodes").width(), w);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.images_encoded, 3);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn decompress_stream_is_byte_identical_to_local_decode() {
    let tables = QuantTablePair::standard(65);
    let (handle, mut client) = start(tables.clone());
    let encoder = Encoder::with_tables(tables);
    let decoder = Decoder::new();
    // Ragged height (not a multiple of 8) exercises the short final strip.
    for (w, h) in [(45, 19), (16, 16), (3, 1)] {
        let img = deepn_codec::RgbImage::gradient(w, h);
        let jfif = encoder.encode(&img).expect("local encode");
        let mut session = client.begin_decompress_stream(&jfif).expect("begin");
        assert_eq!((session.width(), session.height()), (w, h));
        let mut strip = deepn_codec::PixelStrip::new();
        let mut pixels = Vec::new();
        let mut strips = 0;
        while session.next_strip(&mut strip).expect("strip") {
            assert_eq!(strip.width(), w);
            assert_eq!(strip.rows(), session.strip_rows(strips));
            pixels.extend_from_slice(strip.as_bytes());
            strips += 1;
        }
        assert!(session.is_complete());
        assert_eq!(strips, session.strip_count());
        // The streamed pixels must equal the local whole-image decode.
        let local = decoder.decode(&jfif).expect("local decode");
        assert_eq!(pixels, local.as_bytes(), "{w}x{h}");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.images_decoded, 3);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn decompress_stream_failures_are_typed_and_keep_the_connection() {
    let (handle, mut client) = start(QuantTablePair::standard(70));
    // Garbage that cannot even parse as headers fails at the begin frame.
    let err = client
        .begin_decompress_stream(&[0xDE, 0xAD, 0xBE, 0xEF])
        .expect_err("garbage cannot decode");
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // So do headers the decoder rejects.
    let err = client
        .begin_decompress_stream(&forged_quant_selector())
        .expect_err("forged header cannot decode");
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // Unlike a failed CompressStream, every failure here lands on a frame
    // boundary, so the same connection keeps serving.
    client.ping().expect("connection still framed");

    // A stream truncated mid-scan parses its headers (the begin frame and
    // some strips arrive) and then fails with a typed error frame in place
    // of a strip frame.
    let img = deepn_codec::RgbImage::gradient(64, 64);
    let jfif = Encoder::with_tables(QuantTablePair::standard(70))
        .encode(&img)
        .expect("encode");
    let truncated = &jfif[..jfif.len() - 40];
    let mut session = client.begin_decompress_stream(truncated).expect("begin");
    let mut strip = deepn_codec::PixelStrip::new();
    let err = loop {
        match session.next_strip(&mut strip) {
            Ok(true) => continue,
            Ok(false) => panic!("a truncated scan cannot complete"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // A session ended by a typed error is over but NOT complete — the
    // partial output must not pass for a whole image.
    assert!(!session.is_complete());
    assert!(!session.next_strip(&mut strip).expect("session is over"));
    drop(session);
    // The typed mid-stream error also lands on a frame boundary.
    client.ping().expect("connection still framed");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn compress_and_decompress_streams_round_trip_without_materializing() {
    // The full wire round trip: pixels up via CompressStream, pixels back
    // via DecompressStream, byte-identical to the local single-pass codec
    // end to end.
    let tables = QuantTablePair::standard(65);
    let (handle, mut client) = start(tables.clone());
    let img = deepn_codec::RgbImage::gradient(50, 37);
    let mut up = client.begin_compress_stream(50, 37).expect("begin up");
    let mut strip = deepn_codec::PixelStrip::new();
    for s in 0..up.strip_count() {
        assert!(strip.copy_from_image(&img, s));
        up.send_strip(strip.as_bytes()).expect("strip up");
    }
    let jfif = up.finish().expect("finish up");
    let mut pixels = Vec::new();
    {
        let mut down = client.begin_decompress_stream(&jfif).expect("begin down");
        while down.next_strip(&mut strip).expect("strip down") {
            pixels.extend_from_slice(strip.as_bytes());
        }
    }
    let local = Decoder::new().decode(&jfif).expect("local decode");
    assert_eq!(pixels, local.as_bytes());
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn abandoning_a_decompress_session_does_not_poison_the_client() {
    let (handle, mut client) = start(QuantTablePair::standard(70));
    let img = deepn_codec::RgbImage::gradient(10, 40);
    let jfif = Encoder::with_tables(QuantTablePair::standard(70))
        .optimize_huffman(false)
        .encode(&img)
        .expect("encode");
    {
        let mut session = client.begin_decompress_stream(&jfif).expect("begin");
        let mut strip = deepn_codec::PixelStrip::new();
        assert!(session.next_strip(&mut strip).expect("first strip"));
        assert!(!session.is_complete());
        // Dropped with strips still on the wire: the session teardown must
        // abandon the connection so they cannot masquerade as the next
        // reply.
    }
    client
        .ping()
        .expect("fresh connection after abandoned session");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn mis_sized_strips_are_rejected_client_side_and_server_side() {
    let (handle, mut client) = start(QuantTablePair::standard(70));
    let mut session = client.begin_compress_stream(10, 12).expect("begin");
    // Client-side validation: wrong byte count never leaves the process.
    let err = session.send_strip(&[0u8; 5]).expect_err("short strip");
    assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    // A correct session still works on the same client afterwards (the
    // begin frame above is answered once its strips arrive).
    let img = deepn_codec::RgbImage::gradient(10, 12);
    let mut strip = deepn_codec::PixelStrip::new();
    for s in 0..session.strip_count() {
        strip.copy_from_image(&img, s);
        session.send_strip(strip.as_bytes()).expect("strip");
    }
    assert!(!session.finish().expect("finish").is_empty());
    client.ping().expect("connection still framed");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn abandoning_a_stream_session_does_not_poison_the_client() {
    let (handle, mut client) = start(QuantTablePair::standard(70));
    {
        let mut session = client.begin_compress_stream(10, 20).expect("begin");
        assert!(!session.is_complete());
        let img = deepn_codec::RgbImage::gradient(10, 20);
        let mut strip = deepn_codec::PixelStrip::new();
        strip.copy_from_image(&img, 0);
        session.send_strip(strip.as_bytes()).expect("first strip");
        // Dropped here with 1 of 3 strips sent: the server is mid-stream
        // on this connection, so the session teardown must abandon it.
    }
    // The next request must NOT be misread as a strip frame: the client
    // reconnects and the ping succeeds cleanly.
    client
        .ping()
        .expect("fresh connection after abandoned session");
    // A full session on the same client still works.
    let img = deepn_codec::RgbImage::gradient(10, 20);
    let mut session = client.begin_compress_stream(10, 20).expect("begin");
    let mut strip = deepn_codec::PixelStrip::new();
    for s in 0..session.strip_count() {
        strip.copy_from_image(&img, s);
        session.send_strip(strip.as_bytes()).expect("strip");
    }
    assert!(session.is_complete());
    assert!(!session.finish().expect("finish").is_empty());
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn metrics_render_prometheus_text() {
    let (handle, mut client) = start(QuantTablePair::standard(75));
    client.ping().expect("ping");
    let set = ImageSet::generate(&DatasetSpec::tiny(), 7);
    client.encode_batch(&set.images()[..2]).expect("encode");
    let text = client.metrics().expect("metrics");
    for needle in [
        "# TYPE deepn_serve_requests_total counter",
        "deepn_serve_images_encoded_total 2",
        "# TYPE deepn_serve_active_connections gauge",
        "deepn_serve_bytes_in_total",
        "deepn_serve_bytes_out_total",
        "deepn_serve_workers 3",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn persistent_client_reconnects_transparently_after_a_busy_close() {
    let server = Server::bind(
        "127.0.0.1:0",
        QuantTablePair::standard(60),
        None,
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let mut occupant =
        Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
    occupant.ping().expect("within the limit");
    // The second client is busy-rejected and its connection closed by the
    // server — the classic poisoned-pooled-connection scenario.
    let mut second = Client::connect(handle.addr()).expect("tcp connect");
    let err = second.ping().expect_err("over the connection limit");
    assert!(matches!(err, ServeError::Busy(_)), "{err}");
    // Free the slot, then reuse `second` WITHOUT reconnecting manually:
    // the client must notice the dead pooled connection and replay the
    // request on a fresh one.
    drop(occupant);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match second.ping() {
            Ok(()) => break,
            // The freed slot appears once the server reaps the occupant's
            // reader thread; a busy rejection meanwhile also closes the
            // new connection, which the next attempt must again survive.
            Err(ServeError::Busy(_)) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("transparent reconnect failed: {e}"),
        }
    }
    second.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn concurrent_clients_are_served() {
    let (handle, client) = start(QuantTablePair::uniform(4));
    let addr = handle.addr();
    let set = ImageSet::generate(&DatasetSpec::tiny(), 9);
    let images: Vec<_> = set.images()[..4].to_vec();
    let mut joins = Vec::new();
    for _ in 0..4 {
        let images = images.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let streams = c.encode_batch(&images).expect("encode");
            let back = c.decode_batch(&streams).expect("decode");
            assert_eq!(back.len(), images.len());
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    drop(client);
    // Shutdown via the handle instead of a client round trip.
    handle.request_shutdown();
    handle.join();
}

/// Writes the first two bytes of a Ping frame on a raw connection.
fn start_ping_frame(conn: &mut TcpStream) -> Vec<u8> {
    let mut frame = 1u32.to_le_bytes().to_vec();
    frame.push(Opcode::Ping as u8);
    conn.write_all(&frame[..2]).expect("first bytes");
    frame
}

#[test]
fn a_pause_inside_a_frame_longer_than_the_poll_interval_keeps_the_connection() {
    // The reader polls its socket every 200 ms; a peer that stops for
    // longer than that in the middle of a frame is still waited for.
    let (handle, mut client) = start(QuantTablePair::standard(50));
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    for pause in [Duration::from_millis(300), Duration::from_millis(650)] {
        let frame = start_ping_frame(&mut conn);
        std::thread::sleep(pause);
        conn.write_all(&frame[2..]).expect("the rest of the frame");
        let reply = protocol::read_frame(&mut conn)
            .expect("a reply, not a closed connection")
            .expect("not EOF");
        assert_eq!(reply, [STATUS_OK], "pong after a {pause:?} pause");
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn a_peer_stalled_mid_frame_does_not_hold_up_shutdown() {
    let (handle, client) = start(QuantTablePair::standard(50));
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    start_ping_frame(&mut conn);
    // Let the reader take the first bytes and start waiting for the rest.
    std::thread::sleep(Duration::from_millis(300));
    drop(client);
    let asked = Instant::now();
    handle.request_shutdown();
    handle.join();
    assert!(
        asked.elapsed() < Duration::from_secs(3),
        "join took {:?} with a peer stalled mid-frame",
        asked.elapsed()
    );
    drop(conn);
}
