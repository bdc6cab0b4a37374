//! Criterion micro-benchmarks of the computational substrates plus
//! size-ablation measurements for the design choices DESIGN.md calls out
//! (magnitude vs position segmentation, optimized vs standard Huffman).
//! They measure time only: `tests/alloc_budget.rs` owns the streaming
//! codec's allocation counts.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deepn_codec::dct::{forward_dct_8x8, inverse_dct_8x8};
use deepn_codec::{DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, QuantTablePair};
use deepn_core::analysis::analyze_images;
use deepn_core::experiment::{band_probe_tables, to_tensors};
use deepn_core::{BandKind, DeepnTableBuilder, PlmParams, Segmentation};
use deepn_dataset::{DatasetSpec, ImageSet};
use deepn_nn::{stack_batch, zoo, Layer, Mode};
use std::hint::black_box;

fn dataset() -> ImageSet {
    ImageSet::generate(&DatasetSpec::imagenet_standin(), 0xBEEF)
}

fn bench_dct(c: &mut Criterion) {
    let mut block = [0.0f32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = ((i * 37 % 97) as f32) - 48.0;
    }
    c.bench_function("dct/forward_8x8", |b| {
        b.iter(|| forward_dct_8x8(black_box(&block)))
    });
    let coeffs = forward_dct_8x8(&block);
    c.bench_function("dct/inverse_8x8", |b| {
        b.iter(|| inverse_dct_8x8(black_box(&coeffs)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let set = dataset();
    let img = set.images()[0].clone();
    let enc = Encoder::with_quality(75);
    c.bench_function("codec/encode_32x32_qf75", |b| {
        b.iter(|| enc.encode(black_box(&img)).expect("encodes"))
    });
    let bytes = enc.encode(&img).expect("encodes");
    let dec = Decoder::new();
    c.bench_function("codec/decode_32x32_qf75", |b| {
        b.iter(|| dec.decode(black_box(&bytes)).expect("decodes"))
    });
    let std_enc = Encoder::with_quality(75).optimize_huffman(false);
    c.bench_function("codec/encode_standard_huffman", |b| {
        b.iter(|| std_enc.encode(black_box(&img)).expect("encodes"))
    });
}

fn bench_analysis(c: &mut Criterion) {
    let set = dataset();
    let imgs: Vec<_> = set.images()[..16].to_vec();
    c.bench_function("analysis/frequency_16_images", |b| {
        b.iter(|| analyze_images(black_box(imgs.iter()), 1).expect("analyzes"))
    });
    let stats = analyze_images(imgs.iter(), 1).expect("analyzes");
    c.bench_function("analysis/table_from_stats", |b| {
        b.iter(|| {
            DeepnTableBuilder::new(PlmParams::paper())
                .build_from_stats(black_box(&stats))
                .expect("builds")
        })
    });
}

/// Parallel-vs-scalar speedup benchmarks for the pool-wired hot paths.
///
/// The `pool` variants run on the global `deepn-parallel` pool (sized by
/// `DEEPN_THREADS`, default = cores); the `scalar` variants force the same
/// code down the inline path with `run_sequential`. On a single-core host
/// (or under `DEEPN_THREADS=1`) the pairs coincide within noise — the
/// speedup shows on multi-core. Numbers are recorded in `EXPERIMENTS.md`.
fn bench_parallel(c: &mut Criterion) {
    println!(
        "[parallel] pool threads: {} (DEEPN_THREADS overrides)",
        deepn_parallel::global().threads()
    );

    // Blockwise DCT over a 256x256 plane (1024 blocks).
    let blocks: Vec<[f32; 64]> = (0..1024)
        .map(|b| {
            let mut blk = [0.0f32; 64];
            for (i, v) in blk.iter_mut().enumerate() {
                *v = (((b * 64 + i) * 37 % 251) as f32) - 125.0;
            }
            blk
        })
        .collect();
    c.bench_function("parallel/dct_blockwise_1024_scalar", |bch| {
        bch.iter(|| {
            deepn_parallel::run_sequential(|| {
                deepn_parallel::par_map_collect(black_box(&blocks), |_, blk| forward_dct_8x8(blk))
            })
        })
    });
    c.bench_function("parallel/dct_blockwise_1024_pool", |bch| {
        bch.iter(|| {
            deepn_parallel::par_map_collect(black_box(&blocks), |_, blk| forward_dct_8x8(blk))
        })
    });

    // Row-parallel matmul, 192x192x192.
    let n = 192;
    let a = deepn_tensor::Tensor::from_vec(
        (0..n * n)
            .map(|i| ((i * 13 % 127) as f32) * 0.05 - 3.0)
            .collect(),
        &[n, n],
    );
    let b = deepn_tensor::Tensor::from_vec(
        (0..n * n)
            .map(|i| ((i * 29 % 113) as f32) * 0.04 - 2.0)
            .collect(),
        &[n, n],
    );
    c.bench_function("parallel/matmul_192_scalar", |bch| {
        bch.iter(|| {
            deepn_parallel::run_sequential(|| deepn_tensor::matmul(black_box(&a), black_box(&b)))
        })
    });
    c.bench_function("parallel/matmul_192_pool", |bch| {
        bch.iter(|| deepn_tensor::matmul(black_box(&a), black_box(&b)))
    });
}

/// The streaming-codec workspace path against the one-shot path, both
/// directions, on a 256×256 image: `encode_with`/`decode_with` through a
/// warm workspace should match the one-shot throughput.
fn bench_stream(c: &mut Criterion) {
    let enc = Encoder::with_quality(75);
    let img = deepn_codec::RgbImage::gradient(256, 256);
    c.bench_function("stream/encode_oneshot", |b| {
        b.iter(|| enc.encode(black_box(&img)).expect("encodes"))
    });
    let mut ws = EncodeWorkspace::new();
    c.bench_function("stream/encode_workspace", |b| {
        b.iter(|| enc.encode_with(black_box(&img), &mut ws).expect("encodes"))
    });
    let bytes = enc.encode(&img).expect("encodes");
    let dec = Decoder::new();
    c.bench_function("stream/decode_oneshot", |b| {
        b.iter(|| dec.decode(black_box(&bytes)).expect("decodes"))
    });
    let mut dec_ws = DecodeWorkspace::new();
    c.bench_function("stream/decode_workspace", |b| {
        b.iter(|| {
            dec.decode_with(black_box(&bytes), &mut dec_ws)
                .expect("decodes")
        })
    });
}

fn bench_nn(c: &mut Criterion) {
    let set = dataset();
    let tensors = to_tensors(&set.images()[..8]);
    let batch = stack_batch(&tensors, &[0, 1, 2, 3, 4, 5, 6, 7]);
    for name in ["MiniAlexNet", "MiniResNet34"] {
        let mut net = zoo::by_name(name, 3, 32, 32, 10, 42);
        c.bench_function(&format!("nn/forward_batch8_{name}"), |b| {
            b.iter(|| net.forward(black_box(&batch), Mode::Eval))
        });
    }
}

/// Ablation: compressed-size impact of the design choices. Criterion
/// measures time; the sizes are printed once so the ablation numbers land
/// in the bench log.
fn bench_ablation(c: &mut Criterion) {
    let set = dataset();
    let images = set.images();
    let stats = analyze_images(set.sample_per_class(4), 1).expect("analyzes");
    let sigmas = stats.luma_sigmas();

    let total = |tables: QuantTablePair| -> usize {
        let enc = Encoder::with_tables(tables);
        images
            .iter()
            .map(|i| enc.encode(i).expect("encodes").len())
            .sum()
    };
    // Magnitude vs position segmentation at one probe step.
    let mag = band_probe_tables(&Segmentation::magnitude_based(&sigmas), BandKind::High, 40);
    let pos = band_probe_tables(&Segmentation::position_based(), BandKind::High, 40);
    println!(
        "[ablation] HF step 40 bytes: magnitude-based {} vs position-based {}",
        total(mag),
        total(pos)
    );
    // Optimized vs standard Huffman at the DeepN tables.
    let tables = DeepnTableBuilder::new(PlmParams::paper())
        .build_from_stats(&stats)
        .expect("builds");
    let opt: usize = images
        .iter()
        .map(|i| {
            Encoder::with_tables(tables.clone())
                .encode(i)
                .expect("encodes")
                .len()
        })
        .sum();
    let std: usize = images
        .iter()
        .map(|i| {
            Encoder::with_tables(tables.clone())
                .optimize_huffman(false)
                .encode(i)
                .expect("encodes")
                .len()
        })
        .sum();
    println!("[ablation] DeepN tables bytes: optimized Huffman {opt} vs standard {std}");

    // Search-based alternative (the paper's related work [23]): simulated
    // annealing over the table entries, steered by the Laplacian rate
    // model. DeepN-JPEG computes its table in one closed-form pass; the
    // ablation shows how much annealing budget that one pass is worth.
    let sa = deepn_core::sa_search::anneal(
        &stats,
        &deepn_core::sa_search::SaConfig {
            iterations: 10_000,
            ..Default::default()
        },
    );
    let sa_bytes: usize = images
        .iter()
        .map(|i| {
            Encoder::with_tables(sa.tables.clone())
                .encode(i)
                .expect("encodes")
                .len()
        })
        .sum();
    println!(
        "[ablation] table search: DeepN closed-form {opt} bytes vs 10k-step \
         simulated annealing {sa_bytes} bytes"
    );
    // Rate-model fidelity: predicted vs measured scan size for the DeepN tables.
    let blocks = images.len() * 16; // 32x32 -> 16 blocks per component
    let predicted = deepn_core::rate::predicted_scan_bytes(&stats, &tables, blocks);
    println!(
        "[ablation] Laplacian rate model: predicted {predicted:.0} scan bytes \
         vs measured {opt} total bytes (incl. ~{} container overhead)",
        images.len() * 200
    );

    let img = images[0].clone();
    c.bench_function("ablation/deepn_table_encode", |b| {
        b.iter_batched(
            || Encoder::with_tables(tables.clone()),
            |enc| enc.encode(black_box(&img)).expect("encodes"),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(30);
    targets = bench_dct, bench_codec, bench_analysis, bench_parallel, bench_stream, bench_nn,
        bench_ablation
}
criterion_main!(kernels);
