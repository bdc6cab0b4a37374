//! JFIF RGB ↔ YCbCr color transforms (ITU-R BT.601 full range).

use crate::quant::round_to_i32;
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
    let (y, cb, cr) = (ycc[0], ycc[1] - 128.0, ycc[2] - 128.0);
    let r = y + 1.402 * cr;
    let g = y - 0.344_136 * cb - 0.714_136 * cr;
    let b = y + 1.772 * cb;
    [clamp_u8(r), clamp_u8(g), clamp_u8(b)]
}

/// `v.round().clamp(0.0, 255.0) as u8` for every `f32`, NaN and ±∞
/// included, without libm's `roundf`: [`round_to_i32`] equals
/// `v.round() as i32` on every input, saturating, so clamping its result
/// as an integer lands where the float clamp does.
fn clamp_u8(v: f32) -> u8 {
    round_to_i32(v).clamp(0, 255) as u8
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
/// bytes, one pixel per `rgb` triple — the loop the streaming decoder
/// runs on every strip.
#[inline]
pub(crate) fn planes_to_rgb(y_plane: &[f32], cb_plane: &[f32], cr_plane: &[f32], rgb: &mut [u8]) {
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
