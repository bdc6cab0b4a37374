//! Every single-byte corruption and every truncation of a small JFIF
//! ends in `Ok` or a typed `CodecError`, never a panic, through both the
//! one-shot `Decoder::decode` and a `StreamDecoder` drained to its end.
//!
//! Streams this small are cheap to sweep exhaustively: every offset is
//! set to 0x00, 0xFF, `b ^ 0x01` and `b ^ 0x80` in turn, and every
//! proper prefix is decoded. The inputs are a textured 7×9 image in both
//! Huffman modes and a textured 33×17 one (three strips, the last one
//! ragged) in the default optimized mode. Its standard-Huffman stream
//! would double the sweep's time in a debug build, so that sweep is
//! `#[ignore]`d and runs in release:
//! `cargo test --release --test jfif_corruption -- --ignored`. A failure
//! names the first offending image, mode, offset and value.

use deepn::codec::{DecodeWorkspace, Decoder, Encoder, PixelStrip, RgbImage};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic texture: every pixel differs from its neighbours, so
/// every block carries AC coefficients.
fn textured(width: usize, height: usize) -> RgbImage {
    let data = (0..width * height * 3)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
    RgbImage::from_bytes(width, height, data).expect("sized buffer")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Decodes `bytes` one-shot, then streamed to the end; a panic in either
/// comes back as its message. Errors are the expected outcome.
fn decode_both_ways(bytes: &[u8]) -> Result<(), String> {
    let decoder = Decoder::new();
    catch_unwind(AssertUnwindSafe(|| {
        let _ = decoder.decode(bytes);
        if let Ok(mut session) = decoder.stream_decoder(bytes) {
            let (mut ws, mut strip) = (DecodeWorkspace::new(), PixelStrip::new());
            while let Ok(true) = session.next_strip(&mut ws, &mut strip) {}
        }
    }))
    .map_err(|payload| panic_message(&*payload))
}

fn sweep(width: usize, height: usize, optimize: bool) {
    let mode = if optimize { "optimized" } else { "standard" };
    let image = format!("{width}x{height} ({mode} Huffman)");
    let jfif = Encoder::with_quality(75)
        .optimize_huffman(optimize)
        .encode(&textured(width, height))
        .expect("encode");
    decode_both_ways(&jfif).expect("the intact stream decodes");
    let mut forged = jfif.clone();
    for (offset, &b) in jfif.iter().enumerate() {
        for value in [0x00, 0xFF, b ^ 0x01, b ^ 0x80] {
            forged[offset] = value;
            if let Err(msg) = decode_both_ways(&forged) {
                panic!("{image}: byte {offset} set to {value:#04x} panicked: {msg}");
            }
        }
        forged[offset] = b;
    }
    for len in 0..jfif.len() {
        if let Err(msg) = decode_both_ways(&jfif[..len]) {
            panic!("{image}: truncation to {len} bytes panicked: {msg}");
        }
    }
}

#[test]
fn corrupted_7x9_optimized_huffman_never_panics() {
    sweep(7, 9, true);
}

#[test]
fn corrupted_7x9_standard_huffman_never_panics() {
    sweep(7, 9, false);
}

#[test]
fn corrupted_33x17_optimized_huffman_never_panics() {
    sweep(33, 17, true);
}

#[test]
#[ignore = "doubles the debug sweep; run in release"]
fn corrupted_33x17_standard_huffman_never_panics() {
    sweep(33, 17, false);
}
