use crate::bitstream::BitWriter;
use crate::block::blocks_along;
use crate::coeffs::{count_token, tokenize_block, ScanTables, SymbolCounts};
use crate::huffman::HuffmanSpec;
use crate::marker::{
    jfif_app0_payload, write_marker, write_segment, APP0, DHT, DQT, EOI, SOF0, SOI, SOS,
};
use crate::stream::{
    blockize_and_transform, strip_count_for, EncodeWorkspace, PixelStrip, StreamEncoder,
};
use crate::zigzag::scan;
use crate::{CodecError, QuantTablePair, RgbImage};

/// Writes every header segment of a baseline 4:4:4 stream — SOI through
/// SOS — exactly as both the one-shot and the streaming encoder emit them.
/// `specs` is `[dc_luma, ac_luma, dc_chroma, ac_chroma]`. Every payload
/// is written in place, into a buffer grown once.
pub(crate) fn write_headers(
    out: &mut Vec<u8>,
    tables: &QuantTablePair,
    width: usize,
    height: usize,
    specs: &[HuffmanSpec; 4],
) {
    let symbols: usize = specs.iter().map(|s| s.values.len()).sum();
    out.reserve(2 + 18 + 2 * 133 + 19 + 4 * 21 + symbols + 14);
    write_marker(out, SOI);
    write_segment(out, APP0, |out| out.extend_from_slice(&jfif_app0_payload()));
    // DQT: luma table id 0, chroma table id 1.
    for (id, table) in [(0u8, &tables.luma), (1u8, &tables.chroma)] {
        write_segment(out, DQT, |out| {
            let wide = table.max_value() > 255;
            out.push((u8::from(wide) << 4) | id);
            for v in scan(table.values()) {
                if wide {
                    out.extend_from_slice(&v.to_be_bytes());
                } else {
                    out.push(v as u8);
                }
            }
        });
    }
    // SOF0: 8-bit precision, three 1x1-sampled components.
    write_segment(out, SOF0, |out| {
        out.push(8);
        out.extend_from_slice(&(height as u16).to_be_bytes());
        out.extend_from_slice(&(width as u16).to_be_bytes());
        out.push(3);
        for (comp_id, qt_id) in [(1u8, 0u8), (2, 1), (3, 1)] {
            out.extend_from_slice(&[comp_id, 0x11, qt_id]); // H=1, V=1
        }
    });
    // DHT: class 0 = DC, class 1 = AC; destination 0 = luma, 1 = chroma.
    for (class_dest, spec) in [0x00u8, 0x10, 0x01, 0x11].into_iter().zip(specs) {
        write_segment(out, DHT, |out| {
            out.push(class_dest);
            out.extend_from_slice(&spec.bits);
            out.extend_from_slice(&spec.values);
        });
    }
    // SOS header: full spectral range, no approximation.
    write_segment(out, SOS, |out| {
        out.extend_from_slice(&[3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]);
    });
}

/// Quantized, zig-zag-ordered DCT coefficients for the three components of
/// one image — the codec's intermediate representation.
///
/// Experiments that manipulate the frequency domain directly (the paper's
/// Fig. 3 high-frequency removal, the RM-HF baseline) edit these blocks and
/// re-encode with [`Encoder::encode_quantized`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientPlanes {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Per-component block lists (Y, Cb, Cr), raster order, zig-zag layout.
    pub planes: [Vec<[i32; 64]>; 3],
}

impl CoefficientPlanes {
    /// Zeroes the `n` highest zig-zag positions of every block in every
    /// component (the paper's "remove the top-N high frequency
    /// components").
    ///
    /// # Panics
    ///
    /// Panics if `n > 63` (the DC coefficient cannot be "removed").
    pub fn remove_high_frequencies(&mut self, n: usize) {
        assert!(n <= 63, "cannot remove more than the 63 AC positions");
        for plane in &mut self.planes {
            for block in plane.iter_mut() {
                for v in block[64 - n..].iter_mut() {
                    *v = 0;
                }
            }
        }
    }
}

/// Baseline-sequential JPEG encoder (4:4:4, 8-bit).
///
/// Construction fixes the quantization tables; per-image optimized Huffman
/// tables are on by default (they dominate the standard tables on the small
/// synthetic images of this reproduction, just as libjpeg's `-optimize`
/// does on photographs).
///
/// ```
/// use deepn_codec::{Encoder, QuantTablePair, RgbImage};
///
/// # fn main() -> Result<(), deepn_codec::CodecError> {
/// let bytes = Encoder::with_quality(75).encode(&RgbImage::gradient(16, 16))?;
/// assert_eq!(&bytes[..2], &[0xFF, 0xD8]); // SOI
/// assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]); // EOI
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    tables: QuantTablePair,
    optimize_huffman: bool,
}

impl Encoder {
    /// Encoder with the standard tables at the IJG default quality 75.
    pub fn new() -> Self {
        Encoder::with_quality(75)
    }

    /// Encoder with standard tables scaled to `quality` (1–100).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= quality <= 100`.
    pub fn with_quality(quality: u8) -> Self {
        Encoder::with_tables(QuantTablePair::standard(quality))
    }

    /// Encoder with explicit quantization tables (how DeepN-JPEG plugs in).
    pub fn with_tables(tables: QuantTablePair) -> Self {
        Encoder {
            tables,
            optimize_huffman: true,
        }
    }

    /// Enables or disables per-image optimized Huffman tables.
    #[must_use]
    pub fn optimize_huffman(mut self, enabled: bool) -> Self {
        self.optimize_huffman = enabled;
        self
    }

    /// The active quantization tables.
    pub fn tables(&self) -> &QuantTablePair {
        &self.tables
    }

    /// Runs the pipeline up to and including quantization, returning the
    /// coefficient-domain representation.
    ///
    /// The image goes strip by strip through the same stages 1–5 as an
    /// encode session, on the calling thread, and each strip's
    /// coefficients are appended to the three planes; callers that want
    /// parallelism fan out over whole images.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidDimensions`] if a dimension exceeds 65535.
    pub fn quantize_image(&self, image: &RgbImage) -> Result<CoefficientPlanes, CodecError> {
        let (w, h) = (image.width(), image.height());
        if w > 0xFFFF || h > 0xFFFF {
            return Err(CodecError::InvalidDimensions {
                width: w,
                height: h,
            });
        }
        let bw = blocks_along(w);
        let mut planes: [Vec<[i32; 64]>; 3] =
            std::array::from_fn(|_| Vec::with_capacity(bw * blocks_along(h)));
        let mut ws = EncodeWorkspace::new();
        let mut strip = PixelStrip::new();
        for s in 0..strip_count_for(h) {
            strip.copy_from_image(image, s);
            blockize_and_transform(&strip, &mut ws, &self.tables);
            for (plane, coeffs) in planes.iter_mut().zip(ws.coeffs.chunks_exact(bw)) {
                plane.extend_from_slice(coeffs);
            }
        }
        Ok(CoefficientPlanes {
            width: w,
            height: h,
            planes,
        })
    }

    /// Encodes an RGB image to a complete JFIF byte stream.
    ///
    /// A thin adapter over [`StreamEncoder`]: the image is fed strip by
    /// strip through a fresh [`EncodeWorkspace`]. With optimized Huffman
    /// tables on, the strips go through the analysis pass, which
    /// transforms each strip once and records its entropy tokens; the
    /// encode pass then emits those tokens without feeding the pixels
    /// again ([`StreamEncoder::encode_analyzed_strip`]).
    /// Use [`encode_with`](Self::encode_with) to reuse a workspace across
    /// images, or [`stream_encoder`](Self::stream_encoder) to feed strips
    /// yourself with O(strip) memory.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidDimensions`] for out-of-range sizes; Huffman
    /// construction errors are internal bugs and surface as
    /// [`CodecError::BadHuffmanTable`].
    pub fn encode(&self, image: &RgbImage) -> Result<Vec<u8>, CodecError> {
        self.encode_with(image, &mut EncodeWorkspace::new())
    }

    /// [`encode`](Self::encode) through a caller-owned, reusable
    /// [`EncodeWorkspace`] — no per-block heap allocation once the
    /// workspace is warm. The workspace also carries an optimized encode's
    /// entropy tokens from its analysis pass to its encode pass; its token
    /// buffer keeps its capacity, so it stops growing once it has held the
    /// largest image.
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    pub fn encode_with(
        &self,
        image: &RgbImage,
        ws: &mut EncodeWorkspace,
    ) -> Result<Vec<u8>, CodecError> {
        let mut session = self.stream_encoder(image.width(), image.height())?;
        let mut strip = PixelStrip::new();
        let optimized = session.needs_analysis_pass();
        for s in 0..session.strip_count() {
            strip.copy_from_image(image, s);
            if optimized {
                session.analyze_strip(&strip, ws)?;
            } else {
                session.encode_strip(&strip, ws)?;
            }
        }
        if optimized {
            for _ in 0..session.strip_count() {
                session.encode_analyzed_strip(ws)?;
            }
        }
        session.finish()
    }

    /// Opens a push-based streaming encode session for a
    /// `width` × `height` image (see [`StreamEncoder`]).
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidDimensions`] for zero or >65535 dimensions.
    pub fn stream_encoder(
        &self,
        width: usize,
        height: usize,
    ) -> Result<StreamEncoder<'_>, CodecError> {
        StreamEncoder::new(self, width, height)
    }

    /// Whether this encoder builds per-image optimized Huffman tables.
    pub(crate) fn huffman_optimized(&self) -> bool {
        self.optimize_huffman
    }

    /// Entropy-codes pre-quantized coefficient planes into a JFIF stream.
    ///
    /// # Errors
    ///
    /// Same as [`encode`](Self::encode).
    pub fn encode_quantized(&self, coeffs: &CoefficientPlanes) -> Result<Vec<u8>, CodecError> {
        let (w, h) = (coeffs.width, coeffs.height);
        if w == 0 || h == 0 || w > 0xFFFF || h > 0xFFFF {
            return Err(CodecError::InvalidDimensions {
                width: w,
                height: h,
            });
        }
        let (bw, bh) = (blocks_along(w), blocks_along(h));
        for (ci, plane) in coeffs.planes.iter().enumerate() {
            if plane.len() != bw * bh {
                return Err(CodecError::BadMarker(format!(
                    "component {ci} has {} blocks, expected {}",
                    plane.len(),
                    bw * bh
                )));
            }
        }

        // Tokenize the interleaved scan: per MCU (= one block position in
        // 4:4:4), Y then Cb then Cr, counting symbols on the way.
        let mut tokens = Vec::new();
        let mut counts: SymbolCounts = [[0; 256]; 4];
        let mut prev_dc = [0i32; 3];
        for b in 0..bw * bh {
            for (ci, (plane, prev)) in coeffs.planes.iter().zip(prev_dc.iter_mut()).enumerate() {
                *prev = tokenize_block(&plane[b], *prev, ci > 0, |t| {
                    tokens.push(t);
                    count_token(&mut counts, t);
                });
            }
        }
        let tables = if self.optimize_huffman {
            ScanTables::optimized(&counts)?
        } else {
            ScanTables::standard()?
        };
        let mut out = Vec::new();
        write_headers(&mut out, &self.tables, w, h, &tables.specs);
        let mut writer = BitWriter::new();
        for t in tokens {
            tables.emit(&mut writer, t);
        }
        out.extend_from_slice(&writer.finish());
        write_marker(&mut out, EOI);
        Ok(out)
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_framed_by_soi_eoi() {
        let bytes = Encoder::with_quality(50)
            .encode(&RgbImage::gradient(8, 8))
            .expect("encodable");
        assert_eq!(&bytes[..2], &[0xFF, 0xD8]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]);
    }

    #[test]
    fn higher_quality_produces_larger_files() {
        let img = RgbImage::gradient(48, 48);
        let hi = Encoder::with_quality(95).encode(&img).expect("hi");
        let lo = Encoder::with_quality(20).encode(&img).expect("lo");
        assert!(hi.len() > lo.len(), "{} vs {}", hi.len(), lo.len());
    }

    #[test]
    fn optimized_huffman_never_larger_much() {
        let img = RgbImage::gradient(64, 64);
        let opt = Encoder::with_quality(70).encode(&img).expect("opt");
        let std = Encoder::with_quality(70)
            .optimize_huffman(false)
            .encode(&img)
            .expect("std");
        // Optimized tables shrink the scan but add DHT payload; on this
        // image the total must not blow up.
        assert!(
            opt.len() <= std.len() + 64,
            "{} vs {}",
            opt.len(),
            std.len()
        );
    }

    #[test]
    fn remove_high_frequencies_zeroes_tail() {
        let img = RgbImage::gradient(16, 16);
        let mut planes = Encoder::with_quality(100)
            .quantize_image(&img)
            .expect("quantizable");
        planes.remove_high_frequencies(6);
        for p in &planes.planes {
            for b in p {
                assert!(b[58..].iter().all(|&v| v == 0));
            }
        }
    }

    #[test]
    fn removal_shrinks_stream() {
        let img = RgbImage::gradient(64, 64);
        let enc = Encoder::with_quality(100);
        let full = enc.encode(&img).expect("full");
        let mut planes = enc.quantize_image(&img).expect("planes");
        planes.remove_high_frequencies(32);
        let trimmed = enc.encode_quantized(&planes).expect("trimmed");
        assert!(trimmed.len() <= full.len());
    }

    #[test]
    fn rejects_oversized_image() {
        let planes = CoefficientPlanes {
            width: 70_000,
            height: 8,
            planes: [vec![], vec![], vec![]],
        };
        assert!(matches!(
            Encoder::new().encode_quantized(&planes),
            Err(CodecError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn ragged_sizes_encode() {
        for (w, h) in [(9, 7), (1, 1), (15, 24)] {
            let img = RgbImage::gradient(w, h);
            let bytes = Encoder::with_quality(80).encode(&img).expect("encodable");
            assert!(bytes.len() > 100);
        }
    }
}
