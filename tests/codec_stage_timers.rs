//! The codec stage-timer contract. With tracing on, every timed loop
//! records one sample per strip into its stage's histogram on the global
//! registry; an optimized encode runs its entropy loop once per pass, and
//! `Encoder::quantize_image` runs only the color and transform loops.
//! With tracing off, no timer records, and an untraced process never
//! registers the histograms at all.
//!
//! One test in a binary of its own, so nothing else records into the
//! global registry while it counts.

use deepn::codec::profile::Stage;
use deepn::codec::{Decoder, Encoder, RgbImage};
use deepn::trace::{global, set_enabled, Reading};

/// Samples recorded so far per stage, in [`Stage::ALL`] order; `None`
/// for a stage whose histogram is not registered.
fn counts() -> [Option<u64>; 6] {
    Stage::ALL.map(|stage| match global().reading(stage.metric()) {
        Some(Reading::Histogram(snap)) => Some(snap.count),
        Some(other) => panic!("{} is not a histogram: {other:?}", stage.metric()),
        None => None,
    })
}

/// Samples `f` adds per stage, in [`Stage::ALL`] order.
fn deltas(f: impl FnOnce()) -> [u64; 6] {
    let before = counts();
    f();
    let after = counts();
    std::array::from_fn(|i| after[i].unwrap_or(0) - before[i].unwrap_or(0))
}

#[test]
fn each_stage_records_one_sample_per_strip_and_loop_only_while_tracing() {
    // 20 rows stream as 3 strips, the last one ragged.
    const S: u64 = 3;
    let img = RgbImage::gradient(21, 20);
    let optimized = Encoder::with_quality(75);
    let standard = Encoder::with_quality(75).optimize_huffman(false);
    let bytes = optimized.encode(&img).expect("encode");
    let decoder = Decoder::new();
    let encode = |enc: &Encoder| {
        enc.encode(&img).expect("encode");
    };
    let quantize = || {
        optimized.quantize_image(&img).expect("quantize");
    };
    let decode = || {
        decoder.decode(&bytes).expect("decode");
    };

    // Untraced first: the timers neither record nor register.
    set_enabled(false);
    encode(&optimized);
    encode(&standard);
    quantize();
    decode();
    assert_eq!(counts(), [None; 6], "an untraced process registers nothing");

    // Per stage: encode color, transform, entropy; decode entropy,
    // transform, color.
    for traced in [true, false] {
        set_enabled(traced);
        let on = u64::from(traced);
        assert_eq!(
            deltas(|| encode(&optimized)),
            [S, S, 2 * S, 0, 0, 0].map(|n| n * on),
            "optimized encode, traced = {traced}"
        );
        assert_eq!(
            deltas(|| encode(&standard)),
            [S, S, S, 0, 0, 0].map(|n| n * on),
            "standard-Huffman encode, traced = {traced}"
        );
        assert_eq!(
            deltas(quantize),
            [S, S, 0, 0, 0, 0].map(|n| n * on),
            "quantize_image, traced = {traced}"
        );
        assert_eq!(
            deltas(decode),
            [0, 0, 0, S, S, S].map(|n| n * on),
            "decode, traced = {traced}"
        );
    }
}
