//! The streaming stage pipeline: the codec exposed as explicit stages
//! over 8-pixel-high block *strips* instead of whole images.
//!
//! ```text
//! encode:  ColorConvert → BlockSplit → Dct → Quantize → Zigzag → Entropy
//! decode:  Entropy → Unzigzag → Dequantize → Idct → BlockMerge → ColorConvert⁻¹
//! ```
//!
//! A [`StreamEncoder`] / [`StreamDecoder`] session processes one strip at
//! a time through caller-owned, reusable [`EncodeWorkspace`] /
//! [`DecodeWorkspace`] scratch buffers: peak memory is O(strip), and after
//! the first strip of a given width no per-block heap allocation happens
//! at all. Every stage of an image runs on the thread that calls the
//! session: a strip is too small a grain to pay for a pool dispatch (at
//! every width measured, up to 4096 px), so parallelism lives a level up
//! — one image (or one request) per thread — and the output is
//! **byte-identical** at any `DEEPN_THREADS` (`docs/PARALLELISM.md`).
//!
//! [`Encoder::encode`](crate::Encoder::encode) and
//! [`Decoder::decode`](crate::Decoder::decode) are thin adapters over
//! these sessions; driving a session by hand produces the same bytes,
//! which `tests/proptest_stream.rs` enforces. The full stage graph and
//! workspace ownership rules are documented in `docs/CODEC_PIPELINE.md`.
//!
//! ## Instruction sets
//!
//! ColorConvert and BlockSplit are one pass ([`blockize_strip`]): pixels
//! go straight into level-shifted blocks, with no strip planes between.
//! Stages 1–5 of an encode strip are compiled twice from one scalar
//! body: for the baseline target, and with AVX2 enabled (not FMA). The
//! session and [`Encoder::quantize_image`](crate::Encoder::quantize_image)
//! run the AVX2 instance when the CPU has AVX2. Rust neither contracts a
//! multiply and an add nor reassociates `f32`, so each 8-wide lane
//! performs the baseline instance's IEEE operations in the same order and
//! the output bytes are the same on every x86-64 CPU; a unit test here
//! compares the two instances bit for bit.
//!
//! ## The two Huffman modes
//!
//! Per-image optimized Huffman tables (the [`Encoder`] default) need the
//! whole image's symbol statistics before the first header byte can be
//! written, so an optimized session is **two passes over the strips**,
//! both through one [`EncodeWorkspace`]. [`StreamEncoder::analyze_strip`]
//! transforms every strip once and records its entropy tokens (one `u32`
//! per Huffman symbol) and their symbol counts in the workspace; the
//! encode pass then emits each strip's tokens through tables built from
//! those counts, without transforming it again. It reads nothing of a
//! strip but its shape, so [`StreamEncoder::encode_analyzed_strip`] takes
//! no strip at all; [`StreamEncoder::encode_strip`] checks the strip it is
//! given and emits the same tokens. With
//! [`optimize_huffman(false)`](crate::Encoder::optimize_huffman) the
//! session is single-pass — the mode for sources that cannot be rewound,
//! like the network strips of `deepn-serve`'s `CompressStream`.
//!
//! ```
//! use deepn_codec::{EncodeWorkspace, Encoder, PixelStrip, RgbImage, StreamEncoder};
//!
//! # fn main() -> Result<(), deepn_codec::CodecError> {
//! let img = RgbImage::gradient(21, 13);
//! let enc = Encoder::with_quality(80);
//! let mut ws = EncodeWorkspace::new();
//! let mut session = StreamEncoder::new(&enc, 21, 13)?;
//! let mut strip = PixelStrip::new();
//! for s in 0..session.strip_count() {
//!     strip.copy_from_image(&img, s);
//!     session.analyze_strip(&strip, &mut ws)?;
//! }
//! for _ in 0..session.strip_count() {
//!     session.encode_analyzed_strip(&ws)?;
//! }
//! assert_eq!(session.finish()?, enc.encode(&img)?);
//! # Ok(())
//! # }
//! ```

use crate::bitstream::{BitReader, BitWriter};
use crate::block::{blocks_along, Block, BLOCK_SIZE};
use crate::coeffs::{count_token, decode_block_into, tokenize_block, ScanTables, SymbolCounts};
use crate::color::{block_row_to_rgb, ycbcr};
use crate::dct::{forward_dct_8x8, inverse_dct_8x8};
use crate::decoder::ScanSetup;
use crate::encoder::write_headers;
use crate::marker::{write_marker, EOI};
use crate::profile::{timer, Stage};
use crate::zigzag::{scan, unscan};
use crate::{CodecError, Encoder, QuantTable, QuantTablePair, RgbImage};
use std::sync::atomic::{AtomicU64, Ordering};

/// Height of one strip — one row of 8×8 blocks.
pub const STRIP_ROWS: usize = BLOCK_SIZE;

/// Number of strips an image of `height` pixels streams as.
pub fn strip_count_for(height: usize) -> usize {
    blocks_along(height)
}

/// Rows carried by the strip at `index` for an image of `height` pixels
/// (8, except a shorter final strip when the height is not a multiple of
/// 8) — the single source of strip geometry for every streaming layer.
///
/// # Panics
///
/// Panics if `index >= strip_count_for(height)`.
pub fn strip_rows_for(height: usize, index: usize) -> usize {
    let count = strip_count_for(height);
    assert!(index < count, "strip index out of range");
    if index + 1 == count {
        height - (count - 1) * STRIP_ROWS
    } else {
        STRIP_ROWS
    }
}

/// A reusable buffer holding up to [`STRIP_ROWS`] rows of interleaved RGB
/// pixels — the unit of I/O on both ends of the streaming pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PixelStrip {
    width: usize,
    rows: usize,
    data: Vec<u8>,
}

impl PixelStrip {
    /// Creates an empty strip; the first fill sizes it.
    pub fn new() -> Self {
        PixelStrip::default()
    }

    /// Fills the strip from raw interleaved RGB rows.
    ///
    /// # Errors
    ///
    /// [`CodecError::StreamState`] unless `rgb` holds exactly
    /// `rows * width * 3` bytes with `1 <= rows <= 8` and `width > 0`.
    pub fn set_rows(&mut self, width: usize, rows: usize, rgb: &[u8]) -> Result<(), CodecError> {
        if width == 0 || rows == 0 || rows > STRIP_ROWS || rgb.len() != rows * width * 3 {
            return Err(CodecError::StreamState(format!(
                "{} bytes do not hold {rows} RGB rows of width {width}",
                rgb.len()
            )));
        }
        self.width = width;
        self.rows = rows;
        self.data.clear();
        self.data.extend_from_slice(rgb);
        Ok(())
    }

    /// Fills the strip with rows `8*strip_index ..` of `image`. Returns
    /// `false` (leaving the strip untouched) when the index is past the
    /// last strip.
    pub fn copy_from_image(&mut self, image: &RgbImage, strip_index: usize) -> bool {
        let y0 = strip_index * STRIP_ROWS;
        if y0 >= image.height() {
            return false;
        }
        let rows = STRIP_ROWS.min(image.height() - y0);
        let stride = image.width() * 3;
        self.width = image.width();
        self.rows = rows;
        self.data.clear();
        self.data
            .extend_from_slice(&image.as_bytes()[y0 * stride..(y0 + rows) * stride]);
        true
    }

    /// Strip width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of valid rows (1–8).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The interleaved RGB bytes, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }
}

/// Caller-owned scratch buffers for the encode-side stages: one strip's
/// blocks and coefficients. Buffers are sized on first use and reused
/// verbatim while the strip width is unchanged — the steady-state strip
/// loop allocates nothing per block.
///
/// Between an optimized session's two passes the workspace also holds
/// that session's entropy tokens, so both passes must use the same
/// workspace.
#[derive(Debug, Default)]
pub struct EncodeWorkspace {
    width: usize,
    bw: usize,
    blocks: Vec<Block>,
    /// Quantized zig-zag coefficients of the latest strip, Y blocks
    /// first, then Cb, then Cr.
    pub(crate) coeffs: Vec<[i32; 64]>,
    /// Entropy tokens of the latest analysis pass, in scan order.
    tokens: Vec<u32>,
    /// Symbol counts of those tokens, taken while tokenizing. On the heap:
    /// a workspace moves by value through thread start-up frames.
    counts: Option<Box<SymbolCounts>>,
    /// End offset in `tokens` of each analyzed strip.
    strip_ends: Vec<usize>,
    /// Id of the session whose analysis `tokens` holds (0: none).
    owner: u64,
}

impl EncodeWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        EncodeWorkspace::default()
    }

    fn ensure(&mut self, width: usize) {
        if self.width == width {
            return;
        }
        let bw = blocks_along(width);
        self.blocks.clear();
        self.blocks.resize(3 * bw, [0.0; 64]);
        self.coeffs.clear();
        self.coeffs.resize(3 * bw, [0; 64]);
        self.width = width;
        self.bw = bw;
    }

    /// The level-shifted blocks of one component (0 = Y, 1 = Cb, 2 = Cr)
    /// produced by the latest [`blockize_strip`] — how `deepn-core`'s
    /// frequency analysis consumes the block stream without materializing
    /// whole-image coefficient planes.
    ///
    /// # Panics
    ///
    /// Panics if `component > 2`.
    pub fn component_blocks(&self, component: usize) -> &[Block] {
        assert!(component < 3, "component index out of range");
        &self.blocks[component * self.bw..(component + 1) * self.bw]
    }
}

/// Caller-owned scratch buffers for the decode-side stages — one strip's
/// coefficients and blocks; same reuse contract as [`EncodeWorkspace`].
#[derive(Debug, Default)]
pub struct DecodeWorkspace {
    width: usize,
    bw: usize,
    /// Decoded zig-zag coefficients of the latest strip, Y blocks first,
    /// then Cb, then Cr.
    coeffs: Vec<[i32; 64]>,
    /// Their level-shifted sample blocks, in the same order.
    blocks: Vec<Block>,
}

impl DecodeWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        DecodeWorkspace::default()
    }

    fn ensure(&mut self, width: usize) {
        if self.width == width {
            return;
        }
        let bw = blocks_along(width);
        self.coeffs.clear();
        self.coeffs.resize(3 * bw, [0; 64]);
        self.blocks.clear();
        self.blocks.resize(3 * bw, [0.0; 64]);
        self.width = width;
        self.bw = bw;
    }
}

/// Stages 1–2 of the encode pipeline, fused: ColorConvert each pixel of
/// `strip` and BlockSplit its level-shifted (−128) Y/Cb/Cr samples
/// straight into the three components' 8×8 blocks, replicating the
/// nearest edge pixel beyond the right/bottom borders (the standard JPEG
/// padding choice). Y blocks come first, then Cb, then Cr — read them
/// back with [`EncodeWorkspace::component_blocks`].
#[inline(always)]
pub fn blockize_strip(strip: &PixelStrip, ws: &mut EncodeWorkspace) {
    ws.ensure(strip.width);
    let (w, rows, bw) = (strip.width, strip.rows, ws.bw);
    let (luma, chroma) = ws.blocks.split_at_mut(bw);
    let (cb_blocks, cr_blocks) = chroma.split_at_mut(bw);
    for iy in 0..BLOCK_SIZE {
        let row = &strip.data[iy.min(rows - 1) * w * 3..][..w * 3];
        let blocks = luma
            .iter_mut()
            .zip(cb_blocks.iter_mut())
            .zip(cr_blocks.iter_mut());
        for (bx, ((y_blk, cb_blk), cr_blk)) in blocks.enumerate() {
            let x0 = bx * BLOCK_SIZE;
            let mut put = |ix: usize, [y, cb, cr]: [f32; 3]| {
                let i = iy * BLOCK_SIZE + ix;
                y_blk[i] = y - 128.0;
                cb_blk[i] = cb - 128.0;
                cr_blk[i] = cr - 128.0;
            };
            if x0 + BLOCK_SIZE <= w {
                // A full block: deinterleave its eight pixels into lanes.
                let px = &row[x0 * 3..][..BLOCK_SIZE * 3];
                let lane =
                    |c: usize| -> [f32; 8] { std::array::from_fn(|i| f32::from(px[3 * i + c])) };
                let (r, g, b) = (lane(0), lane(1), lane(2));
                for ix in 0..BLOCK_SIZE {
                    put(ix, ycbcr(r[ix], g[ix], b[ix]));
                }
            } else {
                // The right-edge block.
                for ix in 0..BLOCK_SIZE {
                    let p = &row[(x0 + ix).min(w - 1) * 3..][..3];
                    put(ix, ycbcr(f32::from(p[0]), f32::from(p[1]), f32::from(p[2])));
                }
            }
        }
    }
}

/// Stages 3–5: Dct → Quantize → Zigzag over every block the workspace
/// holds, in block order on the calling thread. Results are written by
/// index into the workspace's coefficient buffer, so nothing is
/// allocated.
#[inline(always)]
fn transform_strip(ws: &mut EncodeWorkspace, tables: &QuantTablePair) {
    let bw = ws.bw;
    for (i, (blk, out)) in ws.blocks.iter().zip(&mut ws.coeffs).enumerate() {
        let table = if i < bw { &tables.luma } else { &tables.chroma };
        *out = scan(&table.quantize(&forward_dct_8x8(blk)));
    }
}

/// Stages 1–5 on one strip, each of its two loops timed as a stage — the
/// body that both instruction-set instances compile.
#[inline(always)]
fn stages(strip: &PixelStrip, ws: &mut EncodeWorkspace, tables: &QuantTablePair) {
    {
        let _t = timer(Stage::EncodeColor);
        blockize_strip(strip, ws);
    }
    let _t = timer(Stage::EncodeTransform);
    transform_strip(ws, tables);
}

/// [`stages`] compiled for AVX2: eight `f32` lanes per instruction where
/// the baseline target has SSE2's four. AVX2 alone, without FMA, so each
/// lane performs the baseline instance's IEEE operations in the same
/// order and no output byte can differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn stages_avx2(strip: &PixelStrip, ws: &mut EncodeWorkspace, tables: &QuantTablePair) {
    stages(strip, ws, tables);
}

/// Stages 1–5 on one strip through the AVX2 instance when the CPU has
/// AVX2 (std caches the check), else through the baseline instance.
pub(crate) fn blockize_and_transform(
    strip: &PixelStrip,
    ws: &mut EncodeWorkspace,
    tables: &QuantTablePair,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the one feature `stages_avx2` enables.
        unsafe { stages_avx2(strip, ws, tables) };
        return;
    }
    stages(strip, ws, tables);
}

/// Source of session ids, which tie a workspace's tokens to the session
/// that recorded them (0 is never issued).
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// A push-based streaming encode session created by
/// [`StreamEncoder::new`] (or [`Encoder::stream_encoder`]). Strips are fed
/// in order, top to bottom; output bytes can be drained incrementally with
/// [`take_output`](Self::take_output) so nothing larger than a strip needs
/// to stay resident.
#[derive(Debug)]
pub struct StreamEncoder<'e> {
    encoder: &'e Encoder,
    id: u64,
    width: usize,
    height: usize,
    strip_count: usize,
    analyzed: usize,
    encoded: usize,
    entropy: Option<ScanTables>,
    /// DC prediction state of the pass that tokenizes: the analysis pass
    /// when optimized, else the encode pass.
    prev_dc: [i32; 3],
    writer: BitWriter,
    out: Vec<u8>,
}

impl<'e> StreamEncoder<'e> {
    /// Opens a session for a `width` × `height` image encoded with
    /// `encoder`'s tables and Huffman mode.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidDimensions`] for zero or >65535 dimensions.
    pub fn new(encoder: &'e Encoder, width: usize, height: usize) -> Result<Self, CodecError> {
        if width == 0 || height == 0 || width > 0xFFFF || height > 0xFFFF {
            return Err(CodecError::InvalidDimensions { width, height });
        }
        Ok(StreamEncoder {
            encoder,
            // A unique id; it publishes no other data.
            id: NEXT_SESSION.fetch_add(1, Ordering::Relaxed),
            width,
            height,
            strip_count: strip_count_for(height),
            analyzed: 0,
            encoded: 0,
            entropy: None,
            prev_dc: [0; 3],
            writer: BitWriter::new(),
            out: Vec::new(),
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of strips each pass must feed.
    pub fn strip_count(&self) -> usize {
        self.strip_count
    }

    /// Rows the strip at `index` must carry (8, except a shorter final
    /// strip when the height is not a multiple of 8).
    ///
    /// # Panics
    ///
    /// Panics if `index >= strip_count()`.
    pub fn strip_rows(&self, index: usize) -> usize {
        strip_rows_for(self.height, index)
    }

    /// Whether this session needs the analysis pass before encoding —
    /// true iff the encoder uses per-image optimized Huffman tables.
    pub fn needs_analysis_pass(&self) -> bool {
        self.encoder.huffman_optimized()
    }

    fn check_strip(&self, strip: &PixelStrip, fed: usize) -> Result<(), CodecError> {
        if fed >= self.strip_count {
            return Err(CodecError::StreamState(format!(
                "all {} strips already fed",
                self.strip_count
            )));
        }
        if strip.width() != self.width || strip.rows() != self.strip_rows(fed) {
            return Err(CodecError::StreamState(format!(
                "strip {fed}: got {}x{}, expected {}x{}",
                strip.width(),
                strip.rows(),
                self.width,
                self.strip_rows(fed)
            )));
        }
        Ok(())
    }

    /// Analysis-pass step: runs stages 1–5 on the strip and appends its
    /// entropy tokens to `ws`, which holds them for the encode pass. Must
    /// be called for every strip, in order, before the first
    /// [`encode_strip`](Self::encode_strip), and every strip of one
    /// session must go to the same workspace; the first strip discards
    /// whatever tokens `ws` held.
    ///
    /// # Errors
    ///
    /// [`CodecError::StreamState`] on out-of-order or mis-shaped strips,
    /// when the encoder uses standard tables (no analysis needed), or when
    /// another session has analyzed into `ws` since this session's
    /// previous strip.
    pub fn analyze_strip(
        &mut self,
        strip: &PixelStrip,
        ws: &mut EncodeWorkspace,
    ) -> Result<(), CodecError> {
        if !self.needs_analysis_pass() {
            return Err(CodecError::StreamState(
                "standard-Huffman sessions have no analysis pass".into(),
            ));
        }
        if self.encoded > 0 {
            return Err(CodecError::StreamState(
                "analysis pass after encoding started".into(),
            ));
        }
        self.check_strip(strip, self.analyzed)?;
        if self.analyzed == 0 {
            ws.tokens.clear();
            ws.strip_ends.clear();
            ws.owner = self.id;
        } else if ws.owner != self.id {
            return Err(CodecError::StreamState(
                "another session analyzed into this workspace mid-pass".into(),
            ));
        }
        blockize_and_transform(strip, ws, self.encoder.tables());
        let _t = timer(Stage::EncodeEntropy);
        let bw = ws.bw;
        let (tokens, coeffs) = (&mut ws.tokens, &ws.coeffs);
        let counts = ws.counts.get_or_insert_with(|| Box::new([[0; 256]; 4]));
        if self.analyzed == 0 {
            **counts = [[0; 256]; 4];
        }
        for b in 0..bw {
            for ci in 0..3 {
                self.prev_dc[ci] =
                    tokenize_block(&coeffs[ci * bw + b], self.prev_dc[ci], ci > 0, |t| {
                        tokens.push(t);
                        count_token(counts, t);
                    });
            }
        }
        ws.strip_ends.push(ws.tokens.len());
        self.analyzed += 1;
        Ok(())
    }

    /// Builds the Huffman tables — optimized ones from the symbol counts
    /// the analysis pass took — and emits every header segment. Runs once,
    /// before the first strip's scan bytes.
    fn begin(&mut self, ws: &EncodeWorkspace) -> Result<(), CodecError> {
        let tables = if self.needs_analysis_pass() {
            let counts = ws.counts.as_deref().ok_or_else(|| {
                CodecError::StreamState("the workspace holds no symbol counts".into())
            })?;
            ScanTables::optimized(counts)?
        } else {
            ScanTables::standard()?
        };
        write_headers(
            &mut self.out,
            self.encoder.tables(),
            self.width,
            self.height,
            &tables.specs,
        );
        self.entropy = Some(tables);
        Ok(())
    }

    /// Encode-pass step, emitting the strip's share of the entropy-coded
    /// scan (DC prediction chains through the scan, so strips must arrive
    /// in order). Headers are emitted with the first strip.
    ///
    /// An optimized session only checks the strip's shape and emits the
    /// tokens its analysis pass recorded in `ws` for this strip, as
    /// [`encode_analyzed_strip`](Self::encode_analyzed_strip) does: the
    /// pixels were transformed once, by
    /// [`analyze_strip`](Self::analyze_strip), and the output is the
    /// encoding of what that pass saw. A standard-Huffman session runs
    /// stages 1–5 on the strip, then entropy-codes it.
    ///
    /// # Errors
    ///
    /// [`CodecError::StreamState`] on out-of-order or mis-shaped strips,
    /// when an optimized session's analysis pass is incomplete, or when
    /// `ws` does not hold this session's analysis (a different workspace,
    /// or one another optimized session has analyzed into since).
    pub fn encode_strip(
        &mut self,
        strip: &PixelStrip,
        ws: &mut EncodeWorkspace,
    ) -> Result<(), CodecError> {
        if self.needs_analysis_pass() {
            self.check_analysis(ws)?;
            self.check_strip(strip, self.encoded)?;
            return self.emit_analyzed(ws);
        }
        self.check_strip(strip, self.encoded)?;
        blockize_and_transform(strip, ws, self.encoder.tables());
        // The entropy stage includes building the tables and writing the
        // headers on the first strip.
        let _t = timer(Stage::EncodeEntropy);
        if self.encoded == 0 {
            self.begin(ws)?;
        }
        let tables = self
            .entropy
            .as_ref()
            .expect("begin() built the entropy tables");
        let bw = ws.bw;
        for b in 0..bw {
            for ci in 0..3 {
                self.prev_dc[ci] =
                    tokenize_block(&ws.coeffs[ci * bw + b], self.prev_dc[ci], ci > 0, |t| {
                        tables.emit(&mut self.writer, t)
                    });
            }
        }
        self.encoded += 1;
        Ok(())
    }

    /// The encode-pass step of an optimized session without the pixels:
    /// emits the tokens the analysis pass recorded in `ws` for the next
    /// strip. The encode pass reads nothing else of a strip but its shape,
    /// so callers that still hold the image need not feed it again.
    ///
    /// # Errors
    ///
    /// [`CodecError::StreamState`] for a standard-Huffman session (it
    /// encodes from pixels, through [`encode_strip`](Self::encode_strip)),
    /// once every strip is encoded, when the analysis pass is incomplete,
    /// or when `ws` does not hold this session's analysis.
    pub fn encode_analyzed_strip(&mut self, ws: &EncodeWorkspace) -> Result<(), CodecError> {
        if !self.needs_analysis_pass() {
            return Err(CodecError::StreamState(
                "standard-Huffman sessions encode from pixels".into(),
            ));
        }
        self.check_analysis(ws)?;
        if self.encoded >= self.strip_count {
            return Err(CodecError::StreamState(format!(
                "all {} strips already fed",
                self.strip_count
            )));
        }
        self.emit_analyzed(ws)
    }

    /// Checks that `ws` holds this optimized session's complete analysis.
    fn check_analysis(&self, ws: &EncodeWorkspace) -> Result<(), CodecError> {
        if self.analyzed < self.strip_count {
            return Err(CodecError::StreamState(format!(
                "optimized-Huffman sessions need the full analysis pass first \
                 ({}/{} strips analyzed)",
                self.analyzed, self.strip_count
            )));
        }
        if ws.owner != self.id {
            return Err(CodecError::StreamState(
                "the workspace does not hold this session's analysis pass".into(),
            ));
        }
        Ok(())
    }

    /// Emits the next strip's recorded tokens (an optimized session's
    /// encode pass, checked by the caller).
    fn emit_analyzed(&mut self, ws: &EncodeWorkspace) -> Result<(), CodecError> {
        // The entropy stage includes building the tables and writing the
        // headers on the first strip; `begin` reads only the counts.
        let _t = timer(Stage::EncodeEntropy);
        if self.encoded == 0 {
            self.begin(ws)?;
        }
        let tables = self
            .entropy
            .as_ref()
            .expect("begin() built the entropy tables");
        let start = match self.encoded {
            0 => 0,
            s => ws.strip_ends[s - 1],
        };
        for &t in &ws.tokens[start..ws.strip_ends[self.encoded]] {
            tables.emit(&mut self.writer, t);
        }
        self.encoded += 1;
        Ok(())
    }

    /// Drains the output bytes produced so far (headers plus complete scan
    /// bytes). Concatenating every drained chunk with the
    /// [`finish`](Self::finish) remainder yields the complete JFIF stream;
    /// never draining and taking everything from `finish` is equally
    /// valid.
    pub fn take_output(&mut self) -> Vec<u8> {
        let mut chunk = std::mem::take(&mut self.out);
        chunk.extend(self.writer.take_completed());
        chunk
    }

    /// Completes the session: pads the final entropy byte and appends EOI,
    /// returning all not-yet-drained output.
    ///
    /// # Errors
    ///
    /// [`CodecError::StreamState`] unless every strip was encoded.
    pub fn finish(mut self) -> Result<Vec<u8>, CodecError> {
        if self.encoded != self.strip_count {
            return Err(CodecError::StreamState(format!(
                "finish after {}/{} strips",
                self.encoded, self.strip_count
            )));
        }
        let mut out = std::mem::take(&mut self.out);
        out.extend(std::mem::take(&mut self.writer).finish());
        write_marker(&mut out, EOI);
        Ok(out)
    }
}

/// A pull-based streaming decode session over a complete JFIF byte
/// stream: headers are parsed once, pixel strips come out one at a time
/// with O(strip) working memory.
pub struct StreamDecoder<'b> {
    setup: ScanSetup,
    bits: BitReader<'b>,
    strip_count: usize,
    emitted: usize,
    prev_dc: [i32; 3],
}

impl<'b> StreamDecoder<'b> {
    pub(crate) fn open(bytes: &'b [u8]) -> Result<Self, CodecError> {
        let setup = ScanSetup::parse(bytes)?;
        let bits = BitReader::new(&bytes[setup.scan_start..]);
        let strip_count = strip_count_for(setup.height);
        Ok(StreamDecoder {
            setup,
            bits,
            strip_count,
            emitted: 0,
            prev_dc: [0; 3],
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.setup.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.setup.height
    }

    /// Number of strips the image decodes as.
    pub fn strip_count(&self) -> usize {
        self.strip_count
    }

    /// Offset of the entropy-coded scan in the stream.
    pub(crate) fn scan_start(&self) -> usize {
        self.setup.scan_start
    }

    /// Rows of the strip at `index` (8, except a shorter final strip).
    ///
    /// # Panics
    ///
    /// Panics if `index >= strip_count()`.
    pub fn strip_rows(&self, index: usize) -> usize {
        strip_rows_for(self.setup.height, index)
    }

    /// Decodes the next strip into `strip`. Returns `Ok(false)` once every
    /// strip has been produced.
    ///
    /// Every stage runs on the calling thread: the Entropy stage must be
    /// sequential (DC prediction chains through the scan), and the
    /// per-block Unzigzag → Dequantize → Idct loop follows it in block
    /// order, so pixels are bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] / [`CodecError::BadHuffmanCode`] on
    /// truncated or corrupt entropy data.
    pub fn next_strip(
        &mut self,
        ws: &mut DecodeWorkspace,
        strip: &mut PixelStrip,
    ) -> Result<bool, CodecError> {
        if self.emitted == self.strip_count {
            return Ok(false);
        }
        let w = self.setup.width;
        ws.ensure(w);
        let bw = ws.bw;
        // Inverse stage 1 — Entropy (sequential).
        {
            let _t = timer(Stage::DecodeEntropy);
            let setup = &self.setup;
            for b in 0..bw {
                for (ci, comp) in setup.components.iter().enumerate() {
                    let zz = &mut ws.coeffs[ci * bw + b];
                    let (dc, ac) = (&setup.decoders[comp.dc], &setup.decoders[comp.ac]);
                    decode_block_into(&mut self.bits, dc, ac, self.prev_dc[ci], zz)?;
                    self.prev_dc[ci] = zz[0];
                }
            }
        }
        strip.width = w;
        strip.rows = self.strip_rows(self.emitted);
        let comps = &self.setup.components;
        decode_tail(
            ws,
            [&comps[0].quant, &comps[1].quant, &comps[2].quant],
            strip,
        );
        self.emitted += 1;
        Ok(true)
    }
}

/// Inverse stages 2–6 on one decoded strip, each of their two loops timed
/// as a stage — the body that both instruction-set instances compile.
///
/// Unzigzag → Dequantize → Idct runs per block, written by index.
/// BlockMerge and ColorConvert⁻¹ are one pass: each block row's samples go
/// from the three components' blocks straight into `strip` (sized by the
/// caller), eight pixels at a time, with no strip planes between; the
/// level shift is undone (`s + 128`) and edge padding discarded on the way.
#[inline(always)]
fn decode_stages(ws: &mut DecodeWorkspace, quant: [&QuantTable; 3], strip: &mut PixelStrip) {
    let bw = ws.bw;
    {
        let _t = timer(Stage::DecodeTransform);
        for (i, (zz, out)) in ws.coeffs.iter().zip(&mut ws.blocks).enumerate() {
            *out = inverse_dct_8x8(&quant[i / bw].dequantize(&unscan(zz)));
        }
    }
    let _t = timer(Stage::DecodeColor);
    let (w, rows) = (strip.width, strip.rows);
    strip.data.resize(rows * w * 3, 0);
    let (luma, chroma) = ws.blocks.split_at(bw);
    let (cb_blocks, cr_blocks) = chroma.split_at(bw);
    for (iy, row) in strip.data.chunks_exact_mut(w * 3).enumerate() {
        let blocks = luma.iter().zip(cb_blocks).zip(cr_blocks);
        for (px, ((y, cb), cr)) in row.chunks_mut(3 * BLOCK_SIZE).zip(blocks) {
            let samples =
                |blk: &Block| -> [f32; 8] { std::array::from_fn(|ix| blk[iy * BLOCK_SIZE + ix]) };
            let rgb = block_row_to_rgb(samples(y), samples(cb), samples(cr));
            px.copy_from_slice(&rgb[..px.len()]);
        }
    }
}

/// [`decode_stages`] compiled for AVX2, without FMA, like
/// [`stages_avx2`]: each lane performs the baseline instance's IEEE
/// operations in the same order, so no pixel can differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn decode_stages_avx2(ws: &mut DecodeWorkspace, quant: [&QuantTable; 3], strip: &mut PixelStrip) {
    decode_stages(ws, quant, strip);
}

/// Inverse stages 2–6 on one strip through the AVX2 instance when the CPU
/// has AVX2, else through the baseline instance.
fn decode_tail(ws: &mut DecodeWorkspace, quant: [&QuantTable; 3], strip: &mut PixelStrip) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the one feature `decode_stages_avx2` enables.
        unsafe { decode_stages_avx2(ws, quant, strip) };
        return;
    }
    decode_stages(ws, quant, strip);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::rgb_to_ycbcr;
    use crate::Decoder;

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
            out.extend(session.take_output()); // exercise incremental drain
        }
        out.extend(session.finish().expect("finish"));
        out
    }

    #[test]
    fn manual_session_matches_oneshot_in_both_huffman_modes() {
        let mut ws = EncodeWorkspace::new();
        for (w, h) in [(16, 16), (9, 7), (1, 1), (1, 17), (33, 1), (24, 8)] {
            let img = RgbImage::gradient(w, h);
            for optimize in [true, false] {
                let enc = Encoder::with_quality(70).optimize_huffman(optimize);
                let streamed = stream_encode(&enc, &img, &mut ws);
                assert_eq!(
                    streamed,
                    enc.encode(&img).expect("oneshot"),
                    "{w}x{h} optimize={optimize}"
                );
            }
        }
    }

    #[test]
    fn workspace_reuse_across_widths_does_not_leak_state() {
        let enc = Encoder::with_quality(55);
        let mut ws = EncodeWorkspace::new();
        let sizes = [(40, 12), (7, 30), (40, 12), (16, 16)];
        for (w, h) in sizes {
            let img = RgbImage::gradient(w, h);
            assert_eq!(
                stream_encode(&enc, &img, &mut ws),
                enc.encode(&img).expect("oneshot"),
                "{w}x{h}"
            );
        }
    }

    #[test]
    fn stream_decoder_reproduces_decode() {
        let img = RgbImage::gradient(37, 21);
        let bytes = Encoder::with_quality(65).encode(&img).expect("encode");
        let dec = Decoder::new();
        let oneshot = dec.decode(&bytes).expect("decode");
        let mut session = dec.stream_decoder(&bytes).expect("open");
        assert_eq!((session.width(), session.height()), (37, 21));
        let mut ws = DecodeWorkspace::new();
        let mut strip = PixelStrip::new();
        let mut pixels = Vec::new();
        let mut strips = 0;
        while session.next_strip(&mut ws, &mut strip).expect("strip") {
            assert_eq!(strip.width(), 37);
            pixels.extend_from_slice(strip.as_bytes());
            strips += 1;
        }
        assert_eq!(strips, session.strip_count());
        assert_eq!(pixels, oneshot.as_bytes());
    }

    #[test]
    fn profiled_sessions_produce_identical_bytes() {
        let img = RgbImage::gradient(29, 23);
        let enc = Encoder::with_quality(70);
        let mut ws = EncodeWorkspace::new();
        let plain = stream_encode(&enc, &img, &mut ws);
        deepn_trace::set_enabled(true);
        let profiled = stream_encode(&enc, &img, &mut ws);
        let dec = Decoder::new();
        let pixels_profiled = dec.decode(&plain).expect("decode profiled");
        deepn_trace::set_enabled(false);
        let pixels_plain = dec.decode(&plain).expect("decode plain");
        assert_eq!(plain, profiled, "profiling must not change encoded bytes");
        assert_eq!(
            pixels_profiled.as_bytes(),
            pixels_plain.as_bytes(),
            "profiling must not change decoded pixels"
        );
    }

    #[test]
    fn session_misuse_is_a_typed_stream_state_error() {
        let enc = Encoder::with_quality(75); // optimized by default
        let img = RgbImage::gradient(10, 20);
        let mut ws = EncodeWorkspace::new();
        let mut strip = PixelStrip::new();
        strip.copy_from_image(&img, 0);

        // Encoding before the analysis pass.
        let mut s = StreamEncoder::new(&enc, 10, 20).expect("open");
        assert!(matches!(
            s.encode_strip(&strip, &mut ws),
            Err(CodecError::StreamState(_))
        ));
        // Analysis on a standard-table session.
        let std_enc = Encoder::with_quality(75).optimize_huffman(false);
        let mut s = StreamEncoder::new(&std_enc, 10, 20).expect("open");
        assert!(matches!(
            s.analyze_strip(&strip, &mut ws),
            Err(CodecError::StreamState(_))
        ));
        // A mis-shaped strip.
        let wrong = RgbImage::gradient(11, 8);
        let mut bad = PixelStrip::new();
        bad.copy_from_image(&wrong, 0);
        assert!(matches!(
            s.encode_strip(&bad, &mut ws),
            Err(CodecError::StreamState(_))
        ));
        // Finishing early.
        let s = StreamEncoder::new(&std_enc, 10, 20).expect("open");
        assert!(matches!(s.finish(), Err(CodecError::StreamState(_))));
        // The pixel-free encode step: not for a standard-Huffman session,
        // not before the analysis pass, and not past the last strip.
        let mut s = StreamEncoder::new(&std_enc, 10, 20).expect("open");
        assert!(matches!(
            s.encode_analyzed_strip(&ws),
            Err(CodecError::StreamState(_))
        ));
        let mut s = StreamEncoder::new(&enc, 10, 20).expect("open");
        assert!(matches!(
            s.encode_analyzed_strip(&ws),
            Err(CodecError::StreamState(_))
        ));
        for i in 0..s.strip_count() {
            strip.copy_from_image(&img, i);
            s.analyze_strip(&strip, &mut ws).expect("analyze");
        }
        for _ in 0..s.strip_count() {
            s.encode_analyzed_strip(&ws).expect("encode");
        }
        assert!(matches!(
            s.encode_analyzed_strip(&ws),
            Err(CodecError::StreamState(_))
        ));
        assert_eq!(
            s.finish().expect("finish"),
            enc.encode(&img).expect("oneshot")
        );
    }

    /// Deterministic noise: every pixel differs from its neighbours.
    fn noisy(width: usize, height: usize) -> RgbImage {
        let data = (0..width * height * 3)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
            .collect();
        RgbImage::from_bytes(width, height, data).expect("sized buffer")
    }

    #[test]
    fn blockize_replicates_edge_pixels_and_shifts_levels() {
        let mut ws = EncodeWorkspace::new();
        let mut strip = PixelStrip::new();
        for (w, h) in [(16, 8), (9, 7), (1, 1), (8, 13), (17, 17)] {
            let img = noisy(w, h);
            for s in 0..strip_count_for(h) {
                strip.copy_from_image(&img, s);
                blockize_strip(&strip, &mut ws);
                for ci in 0..3 {
                    for (bx, blk) in ws.component_blocks(ci).iter().enumerate() {
                        for (i, &v) in blk.iter().enumerate() {
                            // Past the right/bottom border: the nearest edge pixel.
                            let x = (bx * BLOCK_SIZE + i % BLOCK_SIZE).min(w - 1);
                            let y = (s * STRIP_ROWS + i / BLOCK_SIZE).min(h - 1);
                            let want = rgb_to_ycbcr(img.get(x, y))[ci] - 128.0;
                            assert_eq!(v.to_bits(), want.to_bits(), "{w}x{h} ({x}, {y}) c{ci}");
                        }
                    }
                }
            }
        }
        // Black is Y = 0 and neutral chroma: −128 and 0 after the shift.
        strip.set_rows(3, 2, &[0; 18]).expect("sized strip");
        blockize_strip(&strip, &mut ws);
        assert!(ws.component_blocks(0)[0].iter().all(|&v| v == -128.0));
        for ci in 1..3 {
            assert!(ws.component_blocks(ci)[0].iter().all(|&v| v == 0.0));
        }
    }

    /// The only test that runs the baseline instance of stages 1–5 on an
    /// AVX2 host: both instances must produce the same blocks, bit for
    /// bit, and the same coefficients.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_instance_matches_the_baseline_instance() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            println!("skipped: this CPU has no AVX2");
            return;
        }
        let tables = [
            QuantTablePair::standard(1),
            QuantTablePair::standard(50),
            QuantTablePair::standard(100),
            QuantTablePair::uniform(1),
            QuantTablePair::uniform(255),
        ];
        let (mut base, mut avx2) = (EncodeWorkspace::new(), EncodeWorkspace::new());
        let mut strip = PixelStrip::new();
        let bits = |ws: &EncodeWorkspace| -> Vec<u32> {
            ws.blocks.iter().flatten().map(|v| v.to_bits()).collect()
        };
        for w in [1, 7, 8, 9, 33, 256] {
            for h in [1, 8, 17] {
                for img in [RgbImage::gradient(w, h), noisy(w, h)] {
                    for t in &tables {
                        for s in 0..strip_count_for(h) {
                            strip.copy_from_image(&img, s);
                            stages(&strip, &mut base, t);
                            // SAFETY: the CPU supports AVX2, checked at the top of the test.
                            unsafe { stages_avx2(&strip, &mut avx2, t) };
                            assert_eq!(bits(&base), bits(&avx2), "{w}x{h} strip {s} blocks");
                            assert_eq!(base.coeffs, avx2.coeffs, "{w}x{h} strip {s} coeffs");
                        }
                    }
                }
            }
        }
    }

    /// The decode side's counterpart: inverse stages 2–6 through both
    /// instances on every strip's decoded coefficients must give the same
    /// blocks, bit for bit, and the same pixels.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_decode_instance_matches_the_baseline_instance() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            println!("skipped: this CPU has no AVX2");
            return;
        }
        let tables = [
            QuantTablePair::standard(1),
            QuantTablePair::standard(50),
            QuantTablePair::standard(100),
            QuantTablePair::uniform(1),
            QuantTablePair::uniform(255),
        ];
        let bits = |ws: &DecodeWorkspace| -> Vec<u32> {
            ws.blocks.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let (mut ws, mut strip) = (DecodeWorkspace::new(), PixelStrip::new());
        for w in [1, 7, 8, 9, 33, 256] {
            for h in [1, 8, 17] {
                for img in [RgbImage::gradient(w, h), noisy(w, h)] {
                    for t in &tables {
                        let bytes = Encoder::with_tables(t.clone())
                            .encode(&img)
                            .expect("encode");
                        let mut session = Decoder::new().stream_decoder(&bytes).expect("open");
                        let mut s = 0;
                        while session.next_strip(&mut ws, &mut strip).expect("strip") {
                            let c = &session.setup.components;
                            let quant = [&c[0].quant, &c[1].quant, &c[2].quant];
                            let instance = |avx2: bool| {
                                let mut copy = DecodeWorkspace {
                                    coeffs: ws.coeffs.clone(),
                                    blocks: vec![[f32::NAN; 64]; ws.blocks.len()],
                                    ..DecodeWorkspace::new()
                                };
                                copy.bw = ws.bw;
                                copy.width = ws.width;
                                let mut out = PixelStrip {
                                    width: strip.width,
                                    rows: strip.rows,
                                    data: Vec::new(),
                                };
                                if avx2 {
                                    // SAFETY: the CPU supports AVX2, checked at the top of the test.
                                    unsafe { decode_stages_avx2(&mut copy, quant, &mut out) };
                                } else {
                                    decode_stages(&mut copy, quant, &mut out);
                                }
                                (bits(&copy), out)
                            };
                            let (base, avx2) = (instance(false), instance(true));
                            assert_eq!(base.0, avx2.0, "{w}x{h} strip {s} blocks");
                            assert_eq!(base.1, avx2.1, "{w}x{h} strip {s} pixels");
                            assert_eq!(base.1, strip, "{w}x{h} strip {s}: the session's pixels");
                            s += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn encode_pass_emits_the_analyzed_image_whatever_its_strips_hold() {
        // Strips of the right shape but other pixels: the encode pass
        // emits the analysis pass's tokens, so the output encodes the
        // analyzed image. (Re-transforming the noisy strips would need
        // symbols the flat image's optimized tables never coded.)
        let enc = Encoder::with_quality(75);
        let (flat, noise) = (RgbImage::gradient(64, 16), noisy(64, 16));
        let mut ws = EncodeWorkspace::new();
        let mut session = StreamEncoder::new(&enc, 64, 16).expect("open");
        let mut strip = PixelStrip::new();
        for s in 0..session.strip_count() {
            strip.copy_from_image(&flat, s);
            session.analyze_strip(&strip, &mut ws).expect("analyze");
        }
        for s in 0..session.strip_count() {
            strip.copy_from_image(&noise, s);
            session.encode_strip(&strip, &mut ws).expect("encode");
        }
        assert_eq!(
            session.finish().expect("finish"),
            enc.encode(&flat).expect("oneshot")
        );
    }

    #[test]
    fn encode_pass_refuses_a_workspace_without_its_analysis() {
        let enc = Encoder::with_quality(75);
        let img = RgbImage::gradient(16, 16);
        let other = noisy(16, 16);
        let mut strip = PixelStrip::new();
        let analyze =
            |session: &mut StreamEncoder<'_>, img: &RgbImage, ws: &mut EncodeWorkspace| {
                let mut strip = PixelStrip::new();
                for s in 0..session.strip_count() {
                    strip.copy_from_image(img, s);
                    session.analyze_strip(&strip, ws).expect("analyze");
                }
            };
        strip.copy_from_image(&img, 0);

        // Analyzed into one workspace, encoded through a fresh one.
        let mut ws = EncodeWorkspace::new();
        let mut a = StreamEncoder::new(&enc, 16, 16).expect("open");
        analyze(&mut a, &img, &mut ws);
        assert!(matches!(
            a.encode_strip(&strip, &mut EncodeWorkspace::new()),
            Err(CodecError::StreamState(_))
        ));

        // Another optimized session analyzed into the workspace since.
        let mut b = StreamEncoder::new(&enc, 16, 16).expect("open");
        analyze(&mut b, &other, &mut ws);
        assert!(matches!(
            a.encode_strip(&strip, &mut ws),
            Err(CodecError::StreamState(_))
        ));
        // ... or began to, mid-way through this session's analysis.
        let mut c = StreamEncoder::new(&enc, 16, 16).expect("open");
        c.analyze_strip(&strip, &mut ws).expect("analyze");
        analyze(
            &mut StreamEncoder::new(&enc, 16, 16).expect("open"),
            &other,
            &mut ws,
        );
        strip.copy_from_image(&img, 1);
        assert!(matches!(
            c.analyze_strip(&strip, &mut ws),
            Err(CodecError::StreamState(_))
        ));

        // A standard-Huffman session sharing the workspace between the
        // passes leaves the analysis intact.
        let mut d = StreamEncoder::new(&enc, 16, 16).expect("open");
        analyze(&mut d, &other, &mut ws);
        let std_enc = Encoder::with_quality(75).optimize_huffman(false);
        std_enc.encode_with(&img, &mut ws).expect("standard encode");
        for s in 0..d.strip_count() {
            strip.copy_from_image(&other, s);
            d.encode_strip(&strip, &mut ws).expect("encode");
        }
        assert_eq!(
            d.finish().expect("finish"),
            enc.encode(&other).expect("oneshot")
        );
    }

    #[test]
    fn strip_geometry_helpers_cover_ragged_heights() {
        let enc = Encoder::with_quality(75);
        let s = StreamEncoder::new(&enc, 5, 17).expect("open");
        assert_eq!(s.strip_count(), 3);
        assert_eq!(s.strip_rows(0), 8);
        assert_eq!(s.strip_rows(2), 1);
        assert_eq!(strip_count_for(8), 1);
        assert_eq!(strip_count_for(9), 2);
        assert!(StreamEncoder::new(&enc, 0, 4).is_err());
        assert!(StreamEncoder::new(&enc, 70_000, 4).is_err());
    }

    #[test]
    fn set_rows_validates_geometry() {
        let mut strip = PixelStrip::new();
        assert!(strip.set_rows(4, 2, &[0u8; 24]).is_ok());
        assert_eq!((strip.width(), strip.rows()), (4, 2));
        assert!(strip.set_rows(4, 2, &[0u8; 23]).is_err());
        assert!(strip.set_rows(4, 9, &[0u8; 4 * 9 * 3]).is_err());
        assert!(strip.set_rows(0, 1, &[]).is_err());
    }
}
