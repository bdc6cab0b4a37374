//! Golden digests of the codec's output. The parity suites
//! (`proptest_stream.rs`, `proptest_parallel.rs`) compare two paths
//! through the same code, so a change to code both paths share — the
//! quantizer's rounding, the entropy tokenizer — would pass them while
//! moving every byte. These digests pin the bytes themselves.
//!
//! Per image the test hashes (FNV-1a-64, each output length-prefixed) three
//! outputs over every table in [`tables`]: `Encoder::encode` bytes in both
//! Huffman modes, `encode_quantized(quantize_image(..))` bytes in both
//! modes, and the `Decoder::decode` pixels of the optimized stream. Every
//! size runs on a gradient and on a seeded textured draw from the
//! `imagenet_standin` class recipes.

use deepn::codec::{Decoder, Encoder, QuantTable, QuantTablePair, RgbImage};
use deepn::dataset::{DatasetSpec, ImageSet};

/// FNV-1a-64 over length-prefixed chunks.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Standard tables across the quality range, a uniform pair, and one
/// literal non-standard pair (its chroma table needs 16-bit DQT entries).
fn tables() -> Vec<QuantTablePair> {
    let mut out: Vec<QuantTablePair> = [1u8, 10, 25, 50, 75, 90, 100]
        .iter()
        .map(|&qf| QuantTablePair::standard(qf))
        .collect();
    out.push(QuantTablePair::uniform(12));
    let luma: [u16; 64] = [
        5, 3, 4, 7, 11, 18, 25, 31, //
        3, 4, 6, 9, 14, 22, 29, 35, //
        4, 6, 8, 13, 19, 27, 34, 40, //
        7, 9, 13, 17, 24, 33, 41, 48, //
        11, 14, 19, 24, 32, 42, 51, 60, //
        18, 22, 27, 33, 42, 55, 67, 80, //
        25, 29, 34, 41, 51, 67, 90, 120, //
        31, 35, 40, 48, 60, 80, 120, 200,
    ];
    let mut chroma = [60u16; 64];
    chroma[0] = 9;
    chroma[1] = 14;
    chroma[8] = 14;
    chroma[63] = 300;
    out.push(QuantTablePair {
        luma: QuantTable::new(luma).expect("nonzero steps"),
        chroma: QuantTable::new(chroma).expect("nonzero steps"),
    });
    out
}

/// A textured `width` × `height` image: the first `hf` class of the
/// `imagenet_standin` recipes (checkerboard plus noise over gratings),
/// rendered from a fixed seed.
fn textured(width: usize, height: usize) -> RgbImage {
    let mut spec = DatasetSpec::imagenet_standin();
    spec.width = width;
    spec.height = height;
    spec.train_per_class = 1;
    spec.test_per_class = 0;
    let set = ImageSet::generate(&spec, 0x601D);
    set.images()[6].clone()
}

/// `[encode, encode_quantized, decode]` digests of one image.
fn digests(img: &RgbImage) -> [u64; 3] {
    let (mut enc, mut quant, mut dec) = (Fnv::new(), Fnv::new(), Fnv::new());
    for pair in tables() {
        for optimize in [true, false] {
            let encoder = Encoder::with_tables(pair.clone()).optimize_huffman(optimize);
            let bytes = encoder.encode(img).expect("encodes");
            enc.feed(&bytes);
            let planes = encoder.quantize_image(img).expect("quantizes");
            quant.feed(&encoder.encode_quantized(&planes).expect("encodes"));
            if optimize {
                let pixels = Decoder::new().decode(&bytes).expect("decodes");
                dec.feed(pixels.as_bytes());
            }
        }
    }
    [enc.0, quant.0, dec.0]
}

/// Every image size the golden tests pin.
const SIZES: [(usize, usize); 6] = [(1, 1), (7, 9), (8, 8), (33, 17), (255, 13), (256, 256)];

/// The digests decode only the optimized stream. Entropy coding is
/// lossless, so the standard-Huffman stream of the same image and tables
/// carries the same levels and must decode to the same, golden-pinned,
/// pixels — which pins the decoder's standard AC codes too.
#[test]
fn standard_huffman_decodes_like_optimized() {
    let decoder = Decoder::new();
    for (width, height) in SIZES {
        let sources = [
            ("gradient", RgbImage::gradient(width, height)),
            ("textured", textured(width, height)),
        ];
        for (source, img) in &sources {
            for (t, pair) in tables().into_iter().enumerate() {
                let [optimized, standard] = [true, false].map(|optimize| {
                    let bytes = Encoder::with_tables(pair.clone())
                        .optimize_huffman(optimize)
                        .encode(img)
                        .expect("encodes");
                    decoder.decode(&bytes).expect("decodes")
                });
                assert!(
                    standard.as_bytes() == optimized.as_bytes(),
                    "{width}x{height} {source}, table pair {t}: \
                     the standard-Huffman stream decodes to other pixels"
                );
            }
        }
    }
}

/// Checks one size against its `[gradient, textured]` golden digests; a
/// mismatch names every differing output.
fn check(width: usize, height: usize, golden: [[u64; 3]; 2]) {
    let got = [
        digests(&RgbImage::gradient(width, height)),
        digests(&textured(width, height)),
    ];
    let mut diffs = Vec::new();
    for (source, (g, want)) in ["gradient", "textured"]
        .iter()
        .zip(got.iter().zip(golden.iter()))
    {
        for (output, (a, b)) in ["encode", "encode_quantized", "decode"]
            .iter()
            .zip(g.iter().zip(want.iter()))
        {
            if a != b {
                diffs.push(format!("{source} {output}: {a:#018x} (golden {b:#018x})"));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{width}x{height} codec output moved:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn golden_1x1() {
    check(
        1,
        1,
        [
            [
                0xd98a_3ddf_2054_112b,
                0xd98a_3ddf_2054_112b,
                0xa938_0391_2c7f_0556,
            ],
            [
                0x31c8_c902_6ecc_7a2c,
                0x31c8_c902_6ecc_7a2c,
                0x190b_90d6_9426_7f92,
            ],
        ],
    );
}

#[test]
fn golden_7x9() {
    check(
        7,
        9,
        [
            [
                0x725e_37d8_8c8a_1d98,
                0x725e_37d8_8c8a_1d98,
                0xfb7c_95ea_4443_e83c,
            ],
            [
                0xf9af_7fa9_f3c3_716f,
                0xf9af_7fa9_f3c3_716f,
                0x8d1c_09cf_4d32_b2dd,
            ],
        ],
    );
}

#[test]
fn golden_8x8() {
    check(
        8,
        8,
        [
            [
                0x8d39_48ee_5f49_cd51,
                0x8d39_48ee_5f49_cd51,
                0x0136_1356_3b8a_9e5b,
            ],
            [
                0xa52a_98dd_292f_d672,
                0xa52a_98dd_292f_d672,
                0x1fab_d5c0_7c3d_e783,
            ],
        ],
    );
}

#[test]
fn golden_33x17() {
    check(
        33,
        17,
        [
            [
                0x3898_023b_b67e_767d,
                0x3898_023b_b67e_767d,
                0x03e2_d71a_0fd6_17c3,
            ],
            [
                0x8709_4711_2737_3fa6,
                0x8709_4711_2737_3fa6,
                0xbdba_0ee1_30ba_1434,
            ],
        ],
    );
}

#[test]
fn golden_255x13() {
    check(
        255,
        13,
        [
            [
                0x1afa_8098_7d8b_1142,
                0x1afa_8098_7d8b_1142,
                0xd884_6d1f_669d_574e,
            ],
            [
                0xde4f_0e0b_1f3a_2649,
                0xde4f_0e0b_1f3a_2649,
                0xd0a0_ae53_6f5c_dc8d,
            ],
        ],
    );
}

#[test]
fn golden_256x256() {
    check(
        256,
        256,
        [
            [
                0x3b81_034a_5614_5044,
                0x3b81_034a_5614_5044,
                0x1f9e_5b88_19d3_6646,
            ],
            [
                0xbd55_0bc6_ae7b_4b0d,
                0xbd55_0bc6_ae7b_4b0d,
                0x954b_e906_eb54_0c8e,
            ],
        ],
    );
}
