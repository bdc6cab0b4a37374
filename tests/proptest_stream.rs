//! Property tests for the streaming stage-pipeline codec: a manually
//! driven `StreamEncoder`/`StreamDecoder` session must be byte-identical
//! to the one-shot `Encoder::encode`/`Decoder::decode` adapters for
//! arbitrary image content and shape — including non-multiple-of-8 and
//! 1×N degenerate geometries — with workspaces reused across images, and
//! in both Huffman modes. A session runs every stage on its calling
//! thread, so the executor must not matter: CI runs this suite at
//! `DEEPN_THREADS=1` and `4`, and `run_sequential` compares both
//! in-process.

use deepn::codec::{
    DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, PixelStrip, RgbImage, StreamEncoder,
};
use deepn::parallel::run_sequential;
use proptest::prelude::*;

/// Drives a full streaming session (analysis pass when the encoder needs
/// one, then the encode pass), draining output incrementally.
fn stream_encode(enc: &Encoder, img: &RgbImage, ws: &mut EncodeWorkspace) -> Vec<u8> {
    let mut session = StreamEncoder::new(enc, img.width(), img.height()).expect("open");
    let mut strip = PixelStrip::new();
    if session.needs_analysis_pass() {
        for s in 0..session.strip_count() {
            assert!(strip.copy_from_image(img, s));
            session.analyze_strip(&strip, ws).expect("analyze");
        }
    }
    let mut out = Vec::new();
    for s in 0..session.strip_count() {
        assert!(strip.copy_from_image(img, s));
        session.encode_strip(&strip, ws).expect("encode");
        out.extend(session.take_output());
    }
    out.extend(session.finish().expect("finish"));
    out
}

/// Streams a decode session back into a flat pixel buffer.
fn stream_decode(bytes: &[u8], ws: &mut DecodeWorkspace) -> (usize, usize, Vec<u8>) {
    let mut session = Decoder::new().stream_decoder(bytes).expect("open");
    let (w, h) = (session.width(), session.height());
    let mut strip = PixelStrip::new();
    let mut pixels = Vec::new();
    while session.next_strip(ws, &mut strip).expect("strip") {
        pixels.extend_from_slice(strip.as_bytes());
    }
    (w, h, pixels)
}

fn arb_image(max_side: usize) -> impl Strategy<Value = RgbImage> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h * 3)
            .prop_map(move |data| RgbImage::from_bytes(w, h, data).expect("sized buffer"))
    })
}

/// Degenerate 1×N / N×1 shapes, which stress the edge-replication and
/// single-block-column paths.
fn arb_degenerate_image() -> impl Strategy<Value = RgbImage> {
    (1usize..=40, any::<bool>()).prop_flat_map(|(n, tall)| {
        let (w, h) = if tall { (1, n) } else { (n, 1) };
        proptest::collection::vec(any::<u8>(), w * h * 3)
            .prop_map(move |data| RgbImage::from_bytes(w, h, data).expect("sized buffer"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_encode_is_byte_identical_to_oneshot(
        img in arb_image(40),
        qf in 1u8..=100,
        optimize in any::<bool>(),
    ) {
        let enc = Encoder::with_quality(qf).optimize_huffman(optimize);
        let mut ws = EncodeWorkspace::new();
        let streamed = stream_encode(&enc, &img, &mut ws);
        prop_assert_eq!(&streamed, &enc.encode(&img).expect("oneshot"));
        // The same session code down the inline executor agrees too.
        let scalar = run_sequential(|| stream_encode(&enc, &img, &mut ws));
        prop_assert_eq!(streamed, scalar);
    }

    #[test]
    fn streaming_decode_is_byte_identical_to_oneshot(img in arb_image(40), qf in 1u8..=100) {
        let bytes = Encoder::with_quality(qf).encode(&img).expect("encode");
        let oneshot = Decoder::new().decode(&bytes).expect("decode");
        let mut ws = DecodeWorkspace::new();
        let (w, h, pixels) = stream_decode(&bytes, &mut ws);
        prop_assert_eq!((w, h), (img.width(), img.height()));
        prop_assert_eq!(&pixels, &Vec::from(oneshot.as_bytes()));
        let (_, _, scalar) = run_sequential(|| stream_decode(&bytes, &mut ws));
        prop_assert_eq!(pixels, scalar);
    }

    #[test]
    fn degenerate_shapes_stream_identically(img in arb_degenerate_image(), qf in 1u8..=100) {
        let enc = Encoder::with_quality(qf);
        let mut enc_ws = EncodeWorkspace::new();
        let streamed = stream_encode(&enc, &img, &mut enc_ws);
        prop_assert_eq!(&streamed, &enc.encode(&img).expect("oneshot"));
        let mut dec_ws = DecodeWorkspace::new();
        let (w, h, pixels) = stream_decode(&streamed, &mut dec_ws);
        prop_assert_eq!((w, h), (img.width(), img.height()));
        let oneshot = Decoder::new().decode(&streamed).expect("decode");
        prop_assert_eq!(pixels, Vec::from(oneshot.as_bytes()));
    }

    #[test]
    fn one_workspace_serves_a_whole_mixed_batch(seed in any::<u64>()) {
        // Workspace reuse across images of different widths must never
        // leak state between sessions — encode a small batch of varied
        // shapes through one encode and one decode workspace.
        let shapes = [(9usize, 7usize), (24, 24), (1, 13), (17, 2), (9, 7)];
        let enc = Encoder::with_quality(60);
        let mut enc_ws = EncodeWorkspace::new();
        let mut dec_ws = DecodeWorkspace::new();
        for (i, &(w, h)) in shapes.iter().enumerate() {
            let data: Vec<u8> = (0..w * h * 3)
                .map(|k| (seed.wrapping_mul(31).wrapping_add((k + i) as u64) % 256) as u8)
                .collect();
            let img = RgbImage::from_bytes(w, h, data).expect("sized buffer");
            let streamed = stream_encode(&enc, &img, &mut enc_ws);
            prop_assert_eq!(&streamed, &enc.encode(&img).expect("oneshot"));
            let (_, _, pixels) = stream_decode(&streamed, &mut dec_ws);
            let oneshot = Decoder::new().decode(&streamed).expect("decode");
            prop_assert_eq!(pixels, Vec::from(oneshot.as_bytes()));
        }
    }
}
