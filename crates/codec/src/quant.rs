//! Quantization tables and the quantize/dequantize stage — the component
//! DeepN-JPEG redesigns.

use crate::block::Block;
use crate::CodecError;

/// The ITU T.81 Annex K.1 luminance table, in natural (row-major) order.
pub const STANDARD_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// The ITU T.81 Annex K.2 chrominance table, in natural order.
pub const STANDARD_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// A 64-entry quantization table in natural (row-major) order.
///
/// ```
/// use deepn_codec::QuantTable;
///
/// let t = QuantTable::standard_luma().scaled(50);
/// assert_eq!(t.value(0, 0), 16); // QF=50 is the unscaled base table
/// let finer = QuantTable::standard_luma().scaled(100);
/// assert!(finer.value(7, 7) <= t.value(7, 7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuantTable {
    values: [u16; 64],
}

impl QuantTable {
    /// Wraps explicit table values (natural order).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadQuantTable`] if any entry is zero.
    pub fn new(values: [u16; 64]) -> Result<Self, CodecError> {
        if values.contains(&0) {
            return Err(CodecError::BadQuantTable("zero quantization step".into()));
        }
        Ok(QuantTable { values })
    }

    /// The Annex K luminance base table.
    pub fn standard_luma() -> Self {
        QuantTable {
            values: STANDARD_LUMA,
        }
    }

    /// The Annex K chrominance base table.
    pub fn standard_chroma() -> Self {
        QuantTable {
            values: STANDARD_CHROMA,
        }
    }

    /// A uniform table with every step equal to `q` (the paper's "SAME-Q"
    /// baseline).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn uniform(q: u16) -> Self {
        assert!(q > 0, "quantization step must be positive");
        QuantTable { values: [q; 64] }
    }

    /// Scales the table with the IJG quality-factor convention:
    /// `QF = 50` leaves the table unchanged, larger QF refines it,
    /// smaller QF coarsens it. Entries are clamped to `[1, 255]`
    /// (baseline-compatible).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= quality <= 100`.
    pub fn scaled(&self, quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be in 1..=100");
        let q = u32::from(quality);
        let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
        let mut values = [0u16; 64];
        for (v, &base) in values.iter_mut().zip(self.values.iter()) {
            let s = (u32::from(base) * scale + 50) / 100;
            *v = s.clamp(1, 255) as u16;
        }
        QuantTable { values }
    }

    /// Table entry at `(row, col)` of the 8×8 grid.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` exceeds 7.
    pub fn value(&self, row: usize, col: usize) -> u16 {
        assert!(row < 8 && col < 8, "table index out of bounds");
        self.values[row * 8 + col]
    }

    /// All 64 entries in natural order.
    pub fn values(&self) -> &[u16; 64] {
        &self.values
    }

    /// Replaces the entry at natural index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64` or `v == 0`.
    pub fn set(&mut self, i: usize, v: u16) {
        assert!(i < 64, "table index out of bounds");
        assert!(v > 0, "quantization step must be positive");
        self.values[i] = v;
    }

    /// Largest step in the table (determines the DQT precision flag).
    pub fn max_value(&self) -> u16 {
        *self.values.iter().max().expect("table is non-empty")
    }

    /// Quantizes a DCT coefficient block: `round(c / q)` per entry, ties
    /// away from zero.
    #[inline(always)]
    pub fn quantize(&self, coeffs: &Block) -> [i32; 64] {
        let mut out = [0i32; 64];
        for ((o, &c), &q) in out.iter_mut().zip(coeffs.iter()).zip(self.values.iter()) {
            *o = round_to_i32(c / f32::from(q));
        }
        out
    }

    /// Reconstructs coefficients from quantized levels: `level * q`.
    #[inline(always)]
    pub fn dequantize(&self, levels: &[i32; 64]) -> Block {
        let mut out = [0.0f32; 64];
        for ((o, &l), &q) in out.iter_mut().zip(levels.iter()).zip(self.values.iter()) {
            *o = (l as f32) * f32::from(q);
        }
        out
    }
}

/// `x.round() as i32` for every `f32` (ties away from zero, saturating,
/// NaN to 0) without calling libm's `roundf`, which the baseline x86-64
/// target compiles `f32::round` to — once per coefficient here.
///
/// `t` truncates toward zero and `f = x - t` is the exact fractional part
/// (for |x| < 2²³ both are exact; from there to the `i32` limits `x` is a
/// whole number and `f` is 0).
/// `t` then moves one step away from zero when `|f| >= 0.5`. The `|f| < 1`
/// bound leaves the out-of-range cases alone: for ±∞ and for finite values
/// outside the `i32` range, `f` is infinite or a whole number. Branch-free
/// on purpose — the fractions are random, so a branch would mispredict.
///
/// The truncation is an unchecked conversion of `x` bounded to the `i32`
/// range, not `x as i32`: the saturating cast's NaN and range checks keep
/// LLVM from vectorizing the quantize loop. Two fix-ups then restore what
/// the bound changed: values at or above 2³¹ saturate to `i32::MAX`, and
/// NaN (which the bound maps to `i32::MIN`) gives 0.
#[inline]
pub(crate) fn round_to_i32(x: f32) -> i32 {
    // Two statements, not one `max().min()` chain, which clippy would
    // rewrite as `f32::clamp`: that keeps NaN, and NaN would make the
    // conversion below undefined behaviour. `f32::max` returns the bound
    // for NaN.
    let c = x.max(-2_147_483_648.0);
    // 2^31 - 128, the largest f32 below 2^31.
    let c = c.min(2_147_483_520.0);
    // SAFETY: `c` is finite and in [-2^31, 2^31 - 128], so its truncation
    // fits in an `i32`.
    let t: i32 = unsafe { c.to_int_unchecked() };
    let f = x - t as f32;
    let up = i32::from((0.5..1.0).contains(&f));
    let down = i32::from((f <= -0.5) & (f > -1.0));
    let r = t.wrapping_add(up).wrapping_sub(down);
    let r = if x >= 2_147_483_648.0 { i32::MAX } else { r };
    if x.is_nan() {
        0
    } else {
        r
    }
}

/// The luma/chroma table pair carried by an encoder (JPEG allows up to four
/// tables; baseline color uses two).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuantTablePair {
    /// Table for the Y component.
    pub luma: QuantTable,
    /// Table shared by the Cb and Cr components.
    pub chroma: QuantTable,
}

impl QuantTablePair {
    /// Standard Annex K tables scaled to `quality` (1–100, IJG convention).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= quality <= 100`.
    pub fn standard(quality: u8) -> Self {
        QuantTablePair {
            luma: QuantTable::standard_luma().scaled(quality),
            chroma: QuantTable::standard_chroma().scaled(quality),
        }
    }

    /// Uniform tables (the "SAME-Q" baseline of the paper's Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn uniform(q: u16) -> Self {
        QuantTablePair {
            luma: QuantTable::uniform(q),
            chroma: QuantTable::uniform(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_tables_favor_low_frequencies() {
        let t = QuantTable::standard_luma();
        assert!(t.value(0, 0) < t.value(7, 7));
        assert!(t.value(0, 1) < t.value(0, 7));
    }

    #[test]
    fn new_rejects_zero_step() {
        let mut v = [1u16; 64];
        v[10] = 0;
        assert!(matches!(
            QuantTable::new(v),
            Err(CodecError::BadQuantTable(_))
        ));
    }

    #[test]
    fn qf100_is_all_ones_scaled_min() {
        let t = QuantTable::standard_luma().scaled(100);
        // IJG at QF=100: (base*0 + 50)/100 = 0 -> clamped to 1.
        assert!(t.values().iter().all(|&v| v == 1));
    }

    #[test]
    fn qf50_is_identity_scale() {
        let t = QuantTable::standard_luma().scaled(50);
        assert_eq!(t.values(), &STANDARD_LUMA);
    }

    #[test]
    fn lower_quality_coarsens_monotonically() {
        let base = QuantTable::standard_luma();
        for qf in [90u8, 70, 50, 30, 10] {
            let a = base.scaled(qf);
            let b = base.scaled(qf - 5);
            for i in 0..64 {
                assert!(b.values()[i] >= a.values()[i], "qf {qf} idx {i}");
            }
        }
    }

    #[test]
    fn quantize_dequantize_bounds_error_by_half_step() {
        let t = QuantTable::uniform(10);
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f32) * 3.7 - 100.0;
        }
        let levels = t.quantize(&block);
        let back = t.dequantize(&levels);
        for (orig, rec) in block.iter().zip(back.iter()) {
            assert!((orig - rec).abs() <= 5.0 + 1e-3);
        }
    }

    #[test]
    fn uniform_pair_matches_same_q_semantics() {
        let p = QuantTablePair::uniform(4);
        assert!(p.luma.values().iter().all(|&v| v == 4));
        assert!(p.chroma.values().iter().all(|&v| v == 4));
    }

    /// Checks the helper against `f32::round` on one value.
    fn assert_rounds_like_std(x: f32) {
        assert_eq!(
            round_to_i32(x),
            x.round() as i32,
            "x = {x:e} ({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn rounding_matches_std_on_the_edge_cases() {
        let half = 0.5f32;
        let two23 = 8_388_608.0f32; // 2^23: the first f32 with no fraction bits
        let two31 = 2_147_483_648.0f32;
        let magnitudes = [
            0.0,
            half,
            f32::from_bits(half.to_bits() - 1), // 0.5 - 1 ulp
            f32::from_bits(half.to_bits() + 1), // 0.5 + 1 ulp
            1.5,
            2.5,
            two23 - 1.0,
            two23 - 0.5,
            two23,
            two23 + 1.0,
            two31,
            f32::from_bits(two31.to_bits() - 1),
            f32::from_bits(two31.to_bits() + 1),
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::INFINITY,
        ];
        for m in magnitudes {
            assert_rounds_like_std(m);
            assert_rounds_like_std(-m);
        }
        assert_rounds_like_std(f32::MIN);
        assert_rounds_like_std(f32::NAN);
        assert_rounds_like_std(-f32::NAN);
        assert_eq!(round_to_i32(-0.5), -1);
        assert_eq!(round_to_i32(2.5), 3);
        assert_eq!(round_to_i32(f32::INFINITY), i32::MAX);
        assert_eq!(round_to_i32(f32::NEG_INFINITY), i32::MIN);
        assert_eq!(round_to_i32(f32::NAN), 0);
    }

    /// Every one of the 2^32 bit patterns. Slow in a debug build; CI runs
    /// it with `cargo test --release -p deepn-codec -- --include-ignored`.
    #[test]
    #[ignore = "exhaustive over all f32 bit patterns; run in release"]
    fn rounding_matches_std_on_every_f32() {
        let mismatches = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|&x| round_to_i32(x) != x.round() as i32)
            .count();
        assert_eq!(mismatches, 0);
    }

    #[test]
    #[should_panic(expected = "quality must be in 1..=100")]
    fn scaled_rejects_zero_quality() {
        QuantTable::standard_luma().scaled(0);
    }
}
