//! Codec and pool layers, timed from outside through their public
//! functions on the workload's own images: the bare stage functions one
//! by one, the streaming session, the one-shot codec forced scalar with
//! `run_sequential`, and the same on the global pool.
//!
//! Stage numbers never come from `deepn_codec::profile`: enabling it
//! splits the fused DCT+quantize pass into two pool dispatches, so it
//! would change what it measures.

use crate::inputs::Inputs;
use crate::spans::Spans;
use crate::stats::median;
use deepn_codec::bitstream::BitWriter;
use deepn_codec::block::{blocks_along, blocks_to_plane, Block};
use deepn_codec::coeffs::{encode_block, tally_block};
use deepn_codec::color::planes_to_image;
use deepn_codec::dct::{forward_dct_8x8, inverse_dct_8x8};
use deepn_codec::huffman::{HuffmanEncoder, HuffmanSpec};
use deepn_codec::stream::{blockize_strip, strip_count_for};
use deepn_codec::zigzag::{scan, unscan};
use deepn_codec::{
    DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, PixelStrip, QuantTablePair, RgbImage,
};
use deepn_parallel::run_sequential;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-image codec timings in microseconds (medians over repeated passes
/// across the pool), plus the compressed size.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecLayers {
    pub color_split_us: f64,
    pub fdct_us: f64,
    pub quant_us: f64,
    pub tally_us: f64,
    pub entropy_enc_us: f64,
    pub stream_encode_us: f64,
    pub encode_us: f64,
    pub encode_pool_us: f64,
    pub dequant_us: f64,
    pub idct_us: f64,
    pub decode_color_us: f64,
    pub stream_decode_us: f64,
    pub decode_us: f64,
    pub decode_pool_us: f64,
    pub bytes_per_image: f64,
}

impl CodecLayers {
    pub fn encode_stage_sum(&self) -> f64 {
        self.color_split_us + self.fdct_us + self.quant_us + self.tally_us + self.entropy_enc_us
    }

    pub fn decode_stage_sum(&self) -> f64 {
        self.dequant_us + self.idct_us + self.decode_color_us
    }
}

/// Quantized zig-zag coefficients of one image, strip by strip, in the
/// workspace's component-major block order.
struct Coeffs {
    width: usize,
    height: usize,
    blocks: Vec<[i32; 64]>,
}

/// Encode stages on bare functions over one image; adds each stage's
/// nanoseconds into `ns` (color, fdct, quant, tally, entropy) and returns
/// the coefficients and the entropy-coded byte count.
fn encode_stages(
    img: &RgbImage,
    tables: &QuantTablePair,
    ws: &mut EncodeWorkspace,
    ns: &mut [u64; 5],
) -> (Coeffs, usize) {
    let (w, h) = (img.width(), img.height());
    let bw = blocks_along(w);
    let mut strip = PixelStrip::new();
    let mut dct: Vec<Block> = vec![[0.0; 64]; 3 * bw];
    let mut blocks: Vec<[i32; 64]> = Vec::with_capacity(strip_count_for(h) * 3 * bw);
    for s in 0..strip_count_for(h) {
        strip.copy_from_image(img, s);
        let t0 = Instant::now();
        blockize_strip(&strip, ws);
        let t1 = Instant::now();
        for c in 0..3 {
            for (k, blk) in ws.component_blocks(c).iter().enumerate() {
                dct[c * bw + k] = forward_dct_8x8(blk);
            }
        }
        let t2 = Instant::now();
        for (i, d) in dct.iter().enumerate() {
            let table = if i < bw { &tables.luma } else { &tables.chroma };
            blocks.push(scan(&table.quantize(d)));
        }
        let t3 = Instant::now();
        ns[0] += (t1 - t0).as_nanos() as u64;
        ns[1] += (t2 - t1).as_nanos() as u64;
        ns[2] += (t3 - t2).as_nanos() as u64;
    }
    // The entropy stages walk blocks in scan order: per strip, per block
    // column, Y then Cb then Cr, each component with its own DC chain.
    let order = |s: usize, b: usize, c: usize| s * 3 * bw + c * bw + b;
    let strips = strip_count_for(h);
    let t3 = Instant::now();
    let mut freqs = [[0u64; 256]; 4];
    let mut prev = [0i32; 3];
    for s in 0..strips {
        for b in 0..bw {
            for c in 0..3 {
                let (dc, ac) = if c == 0 { (0, 1) } else { (2, 3) };
                let [fdc, fac] = freqs.get_disjoint_mut([dc, ac]).expect("distinct tables");
                prev[c] = tally_block(fdc, fac, &blocks[order(s, b, c)], prev[c]);
            }
        }
    }
    let t4 = Instant::now();
    let enc: Vec<HuffmanEncoder> = freqs
        .iter()
        .map(|f| {
            let spec = HuffmanSpec::from_frequencies(f).expect("tallied symbols build a table");
            HuffmanEncoder::from_spec(&spec).expect("optimized table is valid")
        })
        .collect();
    let mut writer = BitWriter::new();
    let mut prev = [0i32; 3];
    for s in 0..strips {
        for b in 0..bw {
            for c in 0..3 {
                let (dc, ac) = if c == 0 {
                    (&enc[0], &enc[1])
                } else {
                    (&enc[2], &enc[3])
                };
                prev[c] = encode_block(&mut writer, dc, ac, &blocks[order(s, b, c)], prev[c]);
            }
        }
    }
    let bytes = writer.finish().len();
    let t5 = Instant::now();
    ns[3] += (t4 - t3).as_nanos() as u64;
    ns[4] += (t5 - t4).as_nanos() as u64;
    (
        Coeffs {
            width: w,
            height: h,
            blocks,
        },
        bytes,
    )
}

/// Decode stages after entropy decoding, on bare functions: unzigzag +
/// dequantize, inverse DCT, then block merge + inverse color conversion
/// (`blocks_to_plane` per component and `planes_to_image`). Adds
/// nanoseconds into `ns` (dequant, idct, color).
fn decode_stages(coeffs: &Coeffs, tables: &QuantTablePair, ns: &mut [u64; 3]) -> RgbImage {
    let (w, h) = (coeffs.width, coeffs.height);
    let bw = blocks_along(w);
    let strips = strip_count_for(h);
    let mut deq: Vec<Block> = vec![[0.0; 64]; 3 * bw];
    // Inverse-DCT output per component, in raster block order.
    let mut raster: [Vec<Block>; 3] = std::array::from_fn(|_| Vec::with_capacity(strips * bw));
    for s in 0..strips {
        let strip = &coeffs.blocks[s * 3 * bw..(s + 1) * 3 * bw];
        let t0 = Instant::now();
        for (i, zz) in strip.iter().enumerate() {
            let table = if i < bw { &tables.luma } else { &tables.chroma };
            deq[i] = table.dequantize(&unscan(zz));
        }
        let t1 = Instant::now();
        for (i, d) in deq.iter().enumerate() {
            raster[i / bw].push(inverse_dct_8x8(d));
        }
        let t2 = Instant::now();
        ns[0] += (t1 - t0).as_nanos() as u64;
        ns[1] += (t2 - t1).as_nanos() as u64;
    }
    let t2 = Instant::now();
    let planes = raster.map(|blocks| blocks_to_plane(&blocks, w, h));
    let image = planes_to_image(&planes);
    ns[2] += t2.elapsed().as_nanos() as u64;
    image
}

/// One streaming encode session driven strip by strip (both passes).
fn stream_encode(encoder: &Encoder, img: &RgbImage, ws: &mut EncodeWorkspace) -> Vec<u8> {
    let mut session = encoder
        .stream_encoder(img.width(), img.height())
        .expect("pool images have valid dimensions");
    let mut strip = PixelStrip::new();
    for s in 0..session.strip_count() {
        strip.copy_from_image(img, s);
        session.analyze_strip(&strip, ws).expect("in-order strips");
    }
    for s in 0..session.strip_count() {
        strip.copy_from_image(img, s);
        session.encode_strip(&strip, ws).expect("in-order strips");
    }
    session.finish().expect("every strip encoded")
}

/// One streaming decode session pulled strip by strip.
fn stream_decode(decoder: &Decoder, blob: &[u8], ws: &mut DecodeWorkspace) -> usize {
    let mut session = decoder.stream_decoder(blob).expect("oracle blobs parse");
    let mut strip = PixelStrip::new();
    let mut bytes = 0;
    while session
        .next_strip(ws, &mut strip)
        .expect("oracle blobs decode")
    {
        bytes += strip.as_bytes().len();
    }
    bytes
}

/// Times every codec layer on the pool. Passes interleave the layers
/// (so drift hits all of them alike) and repeat until `budget` is spent,
/// at least three times; each figure is the median pass's per-image mean.
///
/// # Errors
///
/// When the bare decode stages do not reproduce the oracle's pixels.
pub fn measure_codec(
    inputs: &Inputs,
    budget: Duration,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<CodecLayers, String> {
    let encoder = Encoder::with_tables(inputs.tables.clone());
    let decoder = Decoder::new();
    let mut ews = EncodeWorkspace::new();
    let mut dws = DecodeWorkspace::new();
    let n = inputs.images.len() as f64;
    let per_image_us = |ns: u64| ns as f64 / 1e3 / n;

    // Coefficients for the decode stages, taken once from the encode
    // stages (what entropy decoding of the oracle blobs yields).
    let mut ignore = [0u64; 5];
    let coeffs: Vec<Coeffs> = inputs
        .images
        .iter()
        .map(|img| encode_stages(img, &inputs.tables, &mut ews, &mut ignore).0)
        .collect();
    // The stage functions must compose to the codec's own output.
    for (i, c) in coeffs.iter().enumerate() {
        if decode_stages(c, &inputs.tables, &mut [0; 3]) != inputs.decoded[i] {
            return Err(format!("bare stage functions do not reproduce image {i}"));
        }
    }

    let mut passes: Vec<[f64; 14]> = Vec::new();
    let started = Instant::now();
    while passes.len() < 3 || (started.elapsed() < budget && passes.len() < 200) {
        let mut row = [0f64; 14];
        let s = spans.begin("codec.stages_encode", parent);
        let mut ns = [0u64; 5];
        for img in &inputs.images {
            black_box(encode_stages(img, &inputs.tables, &mut ews, &mut ns));
        }
        spans.end(s);
        for (k, v) in ns.iter().enumerate() {
            row[k] = per_image_us(*v);
        }
        let s = spans.begin("codec.stages_decode", parent);
        let mut ns = [0u64; 3];
        for c in &coeffs {
            black_box(decode_stages(c, &inputs.tables, &mut ns));
        }
        spans.end(s);
        for (k, v) in ns.iter().enumerate() {
            row[5 + k] = per_image_us(*v);
        }
        let timed = |spans: &mut Spans, name: &'static str, f: &mut dyn FnMut()| -> f64 {
            let s = spans.begin(name, parent);
            let t = Instant::now();
            f();
            let us = t.elapsed().as_nanos() as u64;
            spans.end(s);
            per_image_us(us)
        };
        row[8] = timed(spans, "codec.stream_encode", &mut || {
            run_sequential(|| {
                for img in &inputs.images {
                    black_box(stream_encode(&encoder, img, &mut ews));
                }
            })
        });
        row[9] = timed(spans, "codec.encode_scalar", &mut || {
            run_sequential(|| {
                for img in &inputs.images {
                    black_box(encoder.encode_with(img, &mut ews).expect("encode"));
                }
            })
        });
        row[10] = timed(spans, "parallel.encode_pool", &mut || {
            for img in &inputs.images {
                black_box(encoder.encode_with(img, &mut ews).expect("encode"));
            }
        });
        row[11] = timed(spans, "codec.stream_decode", &mut || {
            run_sequential(|| {
                for blob in &inputs.blobs {
                    black_box(stream_decode(&decoder, blob, &mut dws));
                }
            })
        });
        row[12] = timed(spans, "codec.decode_scalar", &mut || {
            run_sequential(|| {
                for blob in &inputs.blobs {
                    black_box(decoder.decode_with(blob, &mut dws).expect("decode"));
                }
            })
        });
        row[13] = timed(spans, "parallel.decode_pool", &mut || {
            for blob in &inputs.blobs {
                black_box(decoder.decode_with(blob, &mut dws).expect("decode"));
            }
        });
        passes.push(row);
    }
    let col = |k: usize| median(passes.iter().map(|r| r[k]).collect());
    Ok(CodecLayers {
        color_split_us: col(0),
        fdct_us: col(1),
        quant_us: col(2),
        tally_us: col(3),
        entropy_enc_us: col(4),
        dequant_us: col(5),
        idct_us: col(6),
        decode_color_us: col(7),
        stream_encode_us: col(8),
        encode_us: col(9),
        encode_pool_us: col(10),
        stream_decode_us: col(11),
        decode_us: col(12),
        decode_pool_us: col(13),
        bytes_per_image: inputs.blobs.iter().map(Vec::len).sum::<usize>() as f64 / n,
    })
}
