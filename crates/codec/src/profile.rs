//! Per-stage strip timings for the streaming pipeline, recorded into
//! `deepn-trace` histograms.
//!
//! The codec is inside the byte-identity determinism scope, so it never
//! reads a clock directly — all timing goes through this module, which
//! delegates to [`deepn_trace::tick`] (the workspace's single clock
//! seam). Each timer wraps one loop the codec runs whether or not it is
//! timed, so timing never changes what runs: one [`Stage`] per loop per
//! strip. Timers record only while tracing is on
//! ([`deepn_trace::enabled`]: `DEEPN_TRACE=1 deepn serve`,
//! [`deepn_trace::set_enabled`], `deepn pipeline --profile` or
//! `deepn trace-export`), and the histograms are registered by the first
//! stage timed, so an untraced process never registers them.

use std::sync::{Arc, OnceLock};

/// One pipeline stage, encode stages first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Encode: ColorConvert + BlockSplit.
    EncodeColor,
    /// Encode: Dct + Quantize + Zigzag.
    EncodeTransform,
    /// Encode: Tokenize in the analysis pass, Huffman emit in the encode
    /// pass, both in a standard-Huffman session's single pass. The first
    /// strip of the pass that emits also builds the Huffman tables and
    /// writes the headers.
    EncodeEntropy,
    /// Decode: Huffman entropy decoding.
    DecodeEntropy,
    /// Decode: Unzigzag + Dequantize + Idct.
    DecodeTransform,
    /// Decode: BlockMerge + ColorConvert⁻¹.
    DecodeColor,
}

impl Stage {
    /// Every stage, encode pipeline first, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::EncodeColor,
        Stage::EncodeTransform,
        Stage::EncodeEntropy,
        Stage::DecodeEntropy,
        Stage::DecodeTransform,
        Stage::DecodeColor,
    ];

    /// Short human label (`encode.transform`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::EncodeColor => "encode.color",
            Stage::EncodeTransform => "encode.transform",
            Stage::EncodeEntropy => "encode.entropy",
            Stage::DecodeEntropy => "decode.entropy",
            Stage::DecodeTransform => "decode.transform",
            Stage::DecodeColor => "decode.color",
        }
    }

    /// The registered instrument name for this stage's histogram.
    pub fn metric(self) -> &'static str {
        match self {
            Stage::EncodeColor => "deepn_codec_encode_color_seconds",
            Stage::EncodeTransform => "deepn_codec_encode_transform_seconds",
            Stage::EncodeEntropy => "deepn_codec_encode_entropy_seconds",
            Stage::DecodeEntropy => "deepn_codec_decode_entropy_seconds",
            Stage::DecodeTransform => "deepn_codec_decode_transform_seconds",
            Stage::DecodeColor => "deepn_codec_decode_color_seconds",
        }
    }
}

/// The per-stage histograms, in [`Stage::ALL`] order, registered once on
/// the global `deepn-trace` registry.
fn histograms() -> &'static [Arc<deepn_trace::Histogram>; 6] {
    static HISTOGRAMS: OnceLock<[Arc<deepn_trace::Histogram>; 6]> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| {
        let r = deepn_trace::global();
        [
            r.histogram(
                "deepn_codec_encode_color_seconds",
                "ColorConvert + BlockSplit time per encoded strip",
            ),
            r.histogram(
                "deepn_codec_encode_transform_seconds",
                "Dct + Quantize + Zigzag time per encoded strip",
            ),
            r.histogram(
                "deepn_codec_encode_entropy_seconds",
                "Tokenize or Huffman-emit time per encoded strip and pass",
            ),
            r.histogram(
                "deepn_codec_decode_entropy_seconds",
                "Huffman entropy-decoding time per decoded strip",
            ),
            r.histogram(
                "deepn_codec_decode_transform_seconds",
                "Unzigzag + Dequantize + inverse DCT time per decoded strip",
            ),
            r.histogram(
                "deepn_codec_decode_color_seconds",
                "BlockMerge + inverse ColorConvert time per decoded strip",
            ),
        ]
    })
}

/// Starts timing `stage` if tracing is on; the returned guard records on
/// drop. Untraced, this is one relaxed atomic load and `None`.
pub fn timer(stage: Stage) -> Option<StageTimer> {
    deepn_trace::enabled().then(|| StageTimer {
        hist: &histograms()[stage as usize],
        start_ns: deepn_trace::tick(),
    })
}

/// RAII stage timer: records the elapsed time into the stage's histogram
/// when dropped.
#[derive(Debug)]
pub struct StageTimer {
    hist: &'static deepn_trace::Histogram,
    start_ns: u64,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.hist.record_since(self.start_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_metrics_are_distinct_and_ordered() {
        let metrics: Vec<&str> = Stage::ALL.iter().map(|s| s.metric()).collect();
        let mut dedup = metrics.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), metrics.len(), "no duplicate instrument names");
        assert!(metrics.iter().all(|m| m.starts_with("deepn_codec_")));
        assert!(metrics.iter().all(|m| m.ends_with("_seconds")));
    }
}
