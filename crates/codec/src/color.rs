//! JFIF RGB ↔ YCbCr color transforms (ITU-R BT.601 full range).

use crate::RgbImage;

/// One luma/chroma plane of `f32` samples in display order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    /// Plane width in samples.
    pub width: usize,
    /// Plane height in samples.
    pub height: usize,
    /// Row-major samples, nominally in `[0, 255]`.
    pub samples: Vec<f32>,
}

impl Plane {
    /// Creates a zeroed plane.
    pub fn new(width: usize, height: usize) -> Self {
        Plane {
            width,
            height,
            samples: vec![0.0; width * height],
        }
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "sample out of bounds");
        self.samples[y * self.width + x]
    }
}

/// Converts one RGB pixel to YCbCr (all components in `[0, 255]`,
/// chroma centered at 128).
pub fn rgb_to_ycbcr(rgb: [u8; 3]) -> [f32; 3] {
    ycbcr(f32::from(rgb[0]), f32::from(rgb[1]), f32::from(rgb[2]))
}

/// The forward transform itself, the one place its formula lives: the
/// encoder's block split calls it on eight pixels at a time, so every
/// sample goes through the same IEEE operations as [`rgb_to_ycbcr`].
#[inline(always)]
pub(crate) fn ycbcr(r: f32, g: f32, b: f32) -> [f32; 3] {
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
    let cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    [y, cb, cr]
}

/// Converts one YCbCr triple back to clamped 8-bit RGB.
pub fn ycbcr_to_rgb(ycc: [f32; 3]) -> [u8; 3] {
    rgb(ycc[0], ycc[1], ycc[2]).map(clamp_u8)
}

/// The inverse transform before rounding, the one place its formula
/// lives: [`ycbcr_to_rgb`] and the decoder's lane loop
/// ([`block_row_to_rgb`]) perform the same IEEE operations per sample.
#[inline(always)]
fn rgb(y: f32, cb: f32, cr: f32) -> [f32; 3] {
    let (cb, cr) = (cb - 128.0, cr - 128.0);
    let r = y + 1.402 * cr;
    let g = y - 0.344_136 * cb - 0.714_136 * cr;
    let b = y + 1.772 * cb;
    [r, g, b]
}

/// Eight decoded pixels of one block row as interleaved RGB bytes, from
/// the level-shifted Y, Cb and Cr samples of the three components' blocks:
/// each sample is shifted back (`s + 128`), then converted and clamped
/// exactly as [`ycbcr_to_rgb`] does, a lane per pixel.
#[inline(always)]
pub(crate) fn block_row_to_rgb(y: [f32; 8], cb: [f32; 8], cr: [f32; 8]) -> [u8; 24] {
    let mut planes = [[0u8; 8]; 3];
    for i in 0..8 {
        let [r, g, b] = rgb(y[i] + 128.0, cb[i] + 128.0, cr[i] + 128.0);
        planes[0][i] = clamp_u8(r);
        planes[1][i] = clamp_u8(g);
        planes[2][i] = clamp_u8(b);
    }
    std::array::from_fn(|k| planes[k % 3][k / 3])
}

/// `v.round().clamp(0.0, 255.0) as u8` for every `f32`, NaN and ±∞
/// included, without libm's `roundf` and without a float-to-int cast, so
/// that the decoder's lane loop vectorizes.
///
/// Clamping first loses nothing: rounding is monotone, and `f32::max`
/// maps NaN to 0, where `round` then `as u8` lands too. For `0 <= c <=
/// 255`, adding 2^23 rounds `c` to an integer (ties to even) in the low
/// bits of the sum, and `c` minus that integer is exact; a difference of
/// exactly +0.5 is a tie rounded down, which rounding half away from zero
/// takes up.
#[inline(always)]
fn clamp_u8(v: f32) -> u8 {
    // Two statements, not one chain that clippy would turn into
    // `f32::clamp`, which keeps NaN.
    let c = v.max(0.0);
    let c = c.min(255.0);
    let biased = c + 8_388_608.0;
    let tie_down = c - (biased - 8_388_608.0) == 0.5;
    (biased.to_bits() as u8) + u8::from(tie_down)
}

/// Recombines Y, Cb, Cr planes into an RGB image.
///
/// # Panics
///
/// Panics if the planes disagree in size.
pub fn planes_to_image(planes: &[Plane; 3]) -> RgbImage {
    let (w, h) = (planes[0].width, planes[0].height);
    assert!(
        planes.iter().all(|p| p.width == w && p.height == h),
        "plane size mismatch"
    );
    let mut img = RgbImage::new(w, h);
    let [y, cb, cr] = planes;
    planes_to_rgb(&y.samples, &cb.samples, &cr.samples, img.as_bytes_mut());
    img
}

/// Inverse ColorConvert of Y, Cb, Cr sample rows into interleaved RGB
/// bytes, one pixel per `rgb` triple.
fn planes_to_rgb(y_plane: &[f32], cb_plane: &[f32], cr_plane: &[f32], rgb: &mut [u8]) {
    let samples = y_plane.iter().zip(cb_plane).zip(cr_plane);
    for (px, ((&y, &cb), &cr)) in rgb.chunks_exact_mut(3).zip(samples) {
        px.copy_from_slice(&ycbcr_to_rgb([y, cb, cr]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primaries_map_to_expected_luma() {
        // White has max luma, black zero, and the BT.601 weights order
        // green > red > blue in luma contribution.
        assert!((rgb_to_ycbcr([255, 255, 255])[0] - 255.0).abs() < 0.1);
        assert!(rgb_to_ycbcr([0, 0, 0])[0].abs() < 0.1);
        let yr = rgb_to_ycbcr([255, 0, 0])[0];
        let yg = rgb_to_ycbcr([0, 255, 0])[0];
        let yb = rgb_to_ycbcr([0, 0, 255])[0];
        assert!(yg > yr && yr > yb);
    }

    #[test]
    fn gray_has_neutral_chroma() {
        let ycc = rgb_to_ycbcr([100, 100, 100]);
        assert!((ycc[1] - 128.0).abs() < 0.1);
        assert!((ycc[2] - 128.0).abs() < 0.1);
    }

    #[test]
    fn round_trip_is_near_lossless() {
        for rgb in [[0, 0, 0], [255, 255, 255], [12, 200, 94], [255, 0, 128]] {
            let back = ycbcr_to_rgb(rgb_to_ycbcr(rgb));
            for c in 0..3 {
                assert!(
                    (i16::from(back[c]) - i16::from(rgb[c])).abs() <= 1,
                    "{rgb:?} -> {back:?}"
                );
            }
        }
    }

    #[test]
    fn clamp_matches_std_round_and_clamp() {
        let half = 0.5f32;
        let mut inputs = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            254.5,
            255.5,
            1e9,
            -1e9,
        ];
        for v in [half, -half] {
            inputs.extend([
                v,
                f32::from_bits(v.to_bits() - 1),
                f32::from_bits(v.to_bits() + 1),
            ]);
        }
        // Every multiple of 1/64 in [-512, 768].
        inputs.extend((-512 * 64..=768 * 64).map(|k| k as f32 / 64.0));
        for v in inputs {
            assert_eq!(
                clamp_u8(v),
                v.round().clamp(0.0, 255.0) as u8,
                "v = {v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }

    /// Every one of the 2^32 bit patterns. Slow in a debug build; CI runs
    /// it with `cargo test --release -p deepn-codec -- --include-ignored`.
    #[test]
    #[ignore = "exhaustive over all f32 bit patterns; run in release"]
    fn clamp_matches_std_on_every_f32() {
        let mismatches = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|&v| clamp_u8(v) != v.round().clamp(0.0, 255.0) as u8)
            .count();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn plane_round_trip_preserves_image() {
        let img = RgbImage::gradient(9, 7);
        let mut planes = [Plane::new(9, 7), Plane::new(9, 7), Plane::new(9, 7)];
        for (i, px) in img.as_bytes().chunks_exact(3).enumerate() {
            for (plane, v) in planes.iter_mut().zip(rgb_to_ycbcr([px[0], px[1], px[2]])) {
                plane.samples[i] = v;
            }
        }
        let back = planes_to_image(&planes);
        for y in 0..7 {
            for x in 0..9 {
                let a = img.get(x, y);
                let b = back.get(x, y);
                for c in 0..3 {
                    assert!((i16::from(a[c]) - i16::from(b[c])).abs() <= 2);
                }
            }
        }
    }
}
