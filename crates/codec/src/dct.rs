//! 8×8 two-dimensional DCT-II (forward) and DCT-III (inverse), the exact
//! orthonormal transform used by JPEG (ITU T.81 §A.3.3).
//!
//! The implementation is separable — an 8-point 1-D transform applied to
//! rows then columns — with the cosine basis precomputed once. The forward
//! and inverse transforms are exact adjoints, so `idct(dct(x)) == x` up to
//! floating-point rounding; the codec's only loss comes from quantization.

use crate::block::Block;

/// `COS[u][x] = cos((2x+1)uπ/16)`, the 8-point DCT basis.
fn cos_table() -> &'static [[f32; 8]; 8] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0f32; 8]; 8];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

fn alpha(u: usize) -> f32 {
    if u == 0 {
        std::f32::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// Forward 2-D DCT-II of a level-shifted 8×8 block.
///
/// Output index `[v*8 + u]` holds the coefficient for vertical frequency
/// `v` and horizontal frequency `u`; `[0]` is the DC coefficient.
///
/// ```
/// use deepn_codec::dct::forward_dct_8x8;
///
/// let flat = [10.0f32; 64];
/// let c = forward_dct_8x8(&flat);
/// assert!((c[0] - 80.0).abs() < 1e-3); // DC = 8 * mean
/// assert!(c[1..].iter().all(|v| v.abs() < 1e-3));
/// ```
#[inline(always)]
pub fn forward_dct_8x8(block: &Block) -> Block {
    let cos = cos_table();
    // Rows first.
    let mut tmp = [0.0f32; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for x in 0..8 {
                acc += block[y * 8 + x] * cos[u][x];
            }
            tmp[y * 8 + u] = acc * alpha(u) * 0.5;
        }
    }
    // Then columns.
    let mut out = [0.0f32; 64];
    for u in 0..8 {
        for v in 0..8 {
            let mut acc = 0.0;
            for y in 0..8 {
                acc += tmp[y * 8 + u] * cos[v][y];
            }
            out[v * 8 + u] = acc * alpha(v) * 0.5;
        }
    }
    out
}

/// Inverse 2-D DCT (DCT-III), the exact inverse of [`forward_dct_8x8`].
#[inline(always)]
pub fn inverse_dct_8x8(coeffs: &Block) -> Block {
    let cos = cos_table();
    // Columns first.
    let mut tmp = [0.0f32; 64];
    for u in 0..8 {
        for y in 0..8 {
            let mut acc = 0.0;
            for v in 0..8 {
                acc += alpha(v) * coeffs[v * 8 + u] * cos[v][y];
            }
            tmp[y * 8 + u] = acc * 0.5;
        }
    }
    // Then rows.
    let mut out = [0.0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0;
            for u in 0..8 {
                acc += alpha(u) * tmp[y * 8 + u] * cos[u][x];
            }
            out[y * 8 + x] = acc * 0.5;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        let mut b = [0.0f32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i * 29 % 97) as f32) - 48.0;
        }
        b
    }

    #[test]
    fn dc_of_constant_block() {
        let b = [-64.0f32; 64];
        let c = forward_dct_8x8(&b);
        assert!((c[0] - (-512.0)).abs() < 1e-2);
        assert!(c[1..].iter().all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn round_trip_is_identity() {
        let b = sample_block();
        let back = inverse_dct_8x8(&forward_dct_8x8(&b));
        for (a, r) in b.iter().zip(back.iter()) {
            assert!((a - r).abs() < 1e-3, "{a} vs {r}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        // Orthonormal transform: sum of squares invariant.
        let b = sample_block();
        let c = forward_dct_8x8(&b);
        let es: f32 = b.iter().map(|v| v * v).sum();
        let ec: f32 = c.iter().map(|v| v * v).sum();
        assert!((es - ec).abs() < es * 1e-4, "{es} vs {ec}");
    }

    #[test]
    fn horizontal_cosine_excites_single_coefficient() {
        // A pure cos basis function concentrates into one AC coefficient.
        let mut b = [0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                b[y * 8 + x] =
                    (((2 * x + 1) as f32) * 3.0 * std::f32::consts::PI / 16.0).cos() * 50.0;
            }
        }
        let c = forward_dct_8x8(&b);
        // Expect energy at (v=0, u=3) only.
        for (i, &v) in c.iter().enumerate() {
            if i == 3 {
                assert!(v.abs() > 50.0, "target coefficient too small: {v}");
            } else {
                assert!(v.abs() < 1e-2, "leak at {i}: {v}");
            }
        }
    }

    #[test]
    fn linearity() {
        let a = sample_block();
        let mut b2 = a;
        b2.iter_mut().for_each(|v| *v *= 2.0);
        let ca = forward_dct_8x8(&a);
        let cb = forward_dct_8x8(&b2);
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert!((2.0 * x - y).abs() < 1e-2);
        }
    }
}
