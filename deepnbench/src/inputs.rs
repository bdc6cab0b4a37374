//! Benchmark inputs, all derived from the seed: the image pool, the
//! DeepN table designed from it, the stored table artifact, and the
//! request templates with their expected replies (the output oracle).

use crate::spans::Spans;
use deepn_codec::{psnr, Decoder, Encoder, QuantTablePair, RgbImage};
use deepn_core::{analyze_images, DeepnTableBuilder, PlmParams};
use deepn_dataset::{DatasetSpec, ImageSet};
use deepn_serve::protocol::{self, Opcode, STATUS_OK};
use deepn_store::ByteWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::path::Path;
use std::time::Instant;

/// The request kinds the workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Encode,
    Decode,
}

/// One prepared request: its v1 body (`opcode | payload`) and the exact
/// reply (`status | payload`) the local codec says it must produce.
pub struct Template {
    pub body: Vec<u8>,
    pub expected: Vec<u8>,
}

/// Everything a workload needs before its service starts.
pub struct Inputs {
    pub images: Vec<RgbImage>,
    /// Local-codec JFIF stream of each image, with the designed tables.
    pub blobs: Vec<Vec<u8>>,
    /// Local-codec decode of each blob.
    pub decoded: Vec<RgbImage>,
    pub tables: QuantTablePair,
    pub encode: Vec<Template>,
    pub decode: Vec<Template>,
    /// Compressed bits per pixel over the pool.
    pub bits_per_pixel: f64,
    /// Mean round-trip PSNR over the pool, in dB.
    pub psnr_db: f64,
}

/// Set-up phase timings of one round, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub analyze_ms: f64,
    pub table_build_ms: f64,
    pub save_ms: f64,
    pub oracle_ms: f64,
}

/// Image-pool shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct PoolSpec {
    /// Image side in pixels.
    pub side: usize,
    /// Images per class of the ImageNet stand-in recipe.
    pub per_class: usize,
    /// Images per request.
    pub batch: usize,
    /// Request templates per op.
    pub templates: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Builds the inputs: generate → analyze → design → save → oracle.
pub fn prepare(
    pool: PoolSpec,
    seed: u64,
    tables_path: &Path,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(Inputs, SetupTimes), Box<dyn Error>> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let s = spans.begin("dataset.generate", parent);
    let mut spec = DatasetSpec::imagenet_standin();
    spec.width = pool.side;
    spec.height = pool.side;
    spec.train_per_class = pool.per_class;
    spec.test_per_class = 0;
    let images = ImageSet::generate(&spec, seed).images().to_vec();
    spans.end(s);
    times.generate_ms = ms_since(t);

    let t = Instant::now();
    let s = spans.begin("core.analyze", parent);
    let stats = analyze_images(&images, 1)?;
    spans.end(s);
    times.analyze_ms = ms_since(t);

    let t = Instant::now();
    let s = spans.begin("core.table_build", parent);
    let tables = DeepnTableBuilder::new(PlmParams::paper()).build_from_stats(&stats)?;
    spans.end(s);
    times.table_build_ms = ms_since(t);

    let t = Instant::now();
    let s = spans.begin("store.save", parent);
    deepn_store::save(&tables, tables_path)?;
    spans.end(s);
    times.save_ms = ms_since(t);

    let t = Instant::now();
    let s = spans.begin("bench.oracle", parent);
    // The service encodes with `Encoder::with_tables` defaults (optimized
    // Huffman tables), so the same call here is the byte oracle.
    let encoder = Encoder::with_tables(tables.clone());
    let decoder = Decoder::new();
    let blobs: Vec<Vec<u8>> = images
        .iter()
        .map(|img| encoder.encode(img))
        .collect::<Result<_, _>>()?;
    let decoded: Vec<RgbImage> = blobs
        .iter()
        .map(|b| decoder.decode(b))
        .collect::<Result<_, _>>()?;
    let pixels: usize = images.iter().map(RgbImage::pixel_count).sum();
    let bytes: usize = blobs.iter().map(Vec::len).sum();
    let bits_per_pixel = bytes as f64 * 8.0 / pixels as f64;
    let psnr_db = images
        .iter()
        .zip(&decoded)
        .map(|(a, b)| psnr(a, b))
        .sum::<f64>()
        / images.len() as f64;

    // Templates draw their images from the pool with a seeded RNG, so
    // the same seed sends the same requests.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E3A_11CE);
    let mut picks = |n: usize| -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                if pool.batch == 1 && n == images.len() {
                    vec![i]
                } else {
                    (0..pool.batch)
                        .map(|_| rng.gen_range(0..images.len()))
                        .collect()
                }
            })
            .collect()
    };
    let encode = picks(pool.templates)
        .into_iter()
        .map(|idx| encode_template(&idx, &images, &blobs))
        .collect();
    let decode = picks(pool.templates)
        .into_iter()
        .map(|idx| decode_template(&idx, &blobs, &decoded))
        .collect();
    spans.end(s);
    times.oracle_ms = ms_since(t);

    Ok((
        Inputs {
            images,
            blobs,
            decoded,
            tables,
            encode,
            decode,
            bits_per_pixel,
            psnr_db,
        },
        times,
    ))
}

/// An `EncodeBatch` of the picked images; the reply is the counted list
/// of their oracle blobs.
pub fn encode_template(idx: &[usize], images: &[RgbImage], blobs: &[Vec<u8>]) -> Template {
    let mut body = ByteWriter::new();
    body.put_u8(Opcode::EncodeBatch as u8);
    body.put_len(idx.len());
    let mut reply = ByteWriter::new();
    reply.put_u8(STATUS_OK);
    reply.put_len(idx.len());
    for &i in idx {
        protocol::put_image(&mut body, &images[i]);
        protocol::put_blob(&mut reply, &blobs[i]);
    }
    Template {
        body: body.into_bytes(),
        expected: reply.into_bytes(),
    }
}

/// A `DecodeBatch` of the picked blobs; the reply is the counted list of
/// their oracle pixels.
pub fn decode_template(idx: &[usize], blobs: &[Vec<u8>], decoded: &[RgbImage]) -> Template {
    let mut body = ByteWriter::new();
    body.put_u8(Opcode::DecodeBatch as u8);
    body.put_len(idx.len());
    let mut reply = ByteWriter::new();
    reply.put_u8(STATUS_OK);
    reply.put_len(idx.len());
    for &i in idx {
        protocol::put_blob(&mut body, &blobs[i]);
        protocol::put_image(&mut reply, &decoded[i]);
    }
    Template {
        body: body.into_bytes(),
        expected: reply.into_bytes(),
    }
}
