//! Property-based parity tests for the `deepn-parallel` determinism
//! contract: every pool-parallel hot path must produce output
//! **byte-identical** to its scalar (inline) execution. The scalar side
//! is obtained with `deepn::parallel::run_sequential`, which forces the
//! same code down the inline path — so one process compares both
//! executors, and CI additionally runs this whole suite under
//! `DEEPN_THREADS=1` and `DEEPN_THREADS=4`.
//!
//! The codec runs every image on its calling thread, so the encode,
//! decode and quantize properties pin that no pool path comes back into
//! it; the tensor, analysis and predict properties cover code that does
//! fork onto the pool.

use deepn::codec::{Decoder, Encoder, RgbImage};
use deepn::parallel::run_sequential;
use deepn::tensor::{im2col, matmul, Conv2dGeometry, Tensor};
use proptest::prelude::*;

fn arb_image(max_side: usize) -> impl Strategy<Value = RgbImage> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h * 3)
            .prop_map(move |data| RgbImage::from_bytes(w, h, data).expect("sized buffer"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_encode_is_byte_identical_to_scalar(img in arb_image(40), qf in 1u8..=100) {
        let enc = Encoder::with_quality(qf);
        let par = enc.encode(&img).expect("parallel encode");
        let seq = run_sequential(|| enc.encode(&img).expect("scalar encode"));
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn parallel_decode_is_byte_identical_to_scalar(img in arb_image(40), qf in 1u8..=100) {
        let bytes = Encoder::with_quality(qf).encode(&img).expect("encode");
        let dec = Decoder::new();
        let par = dec.decode(&bytes).expect("parallel decode");
        let seq = run_sequential(|| dec.decode(&bytes).expect("scalar decode"));
        prop_assert_eq!(par.as_bytes(), seq.as_bytes());
    }

    #[test]
    fn parallel_quantize_is_identical_to_scalar(img in arb_image(32), qf in 1u8..=100) {
        let enc = Encoder::with_quality(qf);
        let par = enc.quantize_image(&img).expect("parallel quantize");
        let seq = run_sequential(|| enc.quantize_image(&img).expect("scalar quantize"));
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_scalar(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        salt in any::<u32>(),
    ) {
        // Deterministic pseudo-random contents; dimensions sometimes cross
        // the fork threshold and sometimes stay scalar — both must agree.
        let gen = |len: usize, mul: u64| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(mul).wrapping_add(u64::from(salt));
                    ((v % 251) as f32) / 17.0 - 7.0
                })
                .collect()
        };
        let a = Tensor::from_vec(gen(m * k, 0x9E37_79B9), &[m, k]);
        let b = Tensor::from_vec(gen(k * n, 0xC2B2_AE35), &[k, n]);
        let par = matmul(&a, &b);
        let seq = run_sequential(|| matmul(&a, &b));
        prop_assert_eq!(par.data(), seq.data());
    }

    #[test]
    fn parallel_im2col_is_bit_identical_to_scalar(
        channels in 1usize..6,
        side in 4usize..24,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        // side >= 4 > kernel always, so the geometry is always valid.
        let g = Conv2dGeometry::new(channels, side, side, kernel, stride, pad);
        let img = Tensor::from_vec(
            (0..channels * side * side)
                .map(|i| ((i * 31 % 199) as f32) - 99.0)
                .collect(),
            &[channels, side, side],
        );
        let par = im2col(&img, &g);
        let seq = run_sequential(|| im2col(&img, &g));
        prop_assert_eq!(par.data(), seq.data());
    }

    #[test]
    fn parallel_analysis_is_identical_to_scalar(seed in any::<u64>()) {
        let set = deepn::dataset::ImageSet::generate(&deepn::dataset::DatasetSpec::tiny(), seed);
        let par = deepn::core::analyze_images(set.images(), 1).expect("parallel");
        let seq = run_sequential(|| {
            deepn::core::analyze_images(set.images(), 1).expect("scalar")
        });
        // Shard merging is fixed by the sample list, not the thread count,
        // so the Welford state matches exactly, not just approximately.
        for band in 0..64 {
            prop_assert_eq!(
                par.luma_stats()[band].raw_parts(),
                seq.luma_stats()[band].raw_parts()
            );
            prop_assert_eq!(
                par.chroma_stats()[band].raw_parts(),
                seq.chroma_stats()[band].raw_parts()
            );
        }
    }
}

#[test]
fn parallel_dataset_generation_is_bit_identical_to_scalar() {
    let spec = deepn::dataset::DatasetSpec::tiny();
    let par = deepn::dataset::ImageSet::generate(&spec, 0xA11CE);
    let seq = run_sequential(|| deepn::dataset::ImageSet::generate(&spec, 0xA11CE));
    assert_eq!(par.images(), seq.images());
    assert_eq!(par.labels(), seq.labels());
}

#[test]
fn parallel_predict_matches_scalar_predictions() {
    use deepn::nn::{
        layers::{Dense, Flatten, Relu},
        Sequential,
    };

    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Dense::new(192, 16, 5));
    net.push(Relu::new());
    net.push(Dense::new(16, 4, 6));
    // 24 x 3x8x8 = 4608 input elements: over predict's fork threshold
    // whenever the pool is multi-threaded.
    let batch = Tensor::from_vec(
        (0..24 * 192)
            .map(|i| ((i * 13 % 31) as f32) * 0.1 - 1.5)
            .collect(),
        &[24, 3, 8, 8],
    );
    let par = net.predict(&batch);
    let seq = run_sequential(|| net.predict(&batch));
    assert_eq!(par, seq);
}
