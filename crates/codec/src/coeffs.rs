//! Block-level entropy coding: DPCM-coded DC differences and run-length
//! coded AC coefficients (ITU T.81 §F.1.2), on top of Huffman symbols.

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::{HuffmanDecoder, HuffmanEncoder, HuffmanSpec};
use crate::CodecError;

/// End-of-block AC symbol.
pub const EOB: u8 = 0x00;
/// Zero-run-length (16 zeros) AC symbol.
pub const ZRL: u8 = 0xF0;

/// Magnitude category of a coefficient value: the number of bits needed to
/// represent `|v|` (category 0 means `v == 0`).
pub fn category(v: i32) -> u8 {
    (u32::BITS - v.unsigned_abs().leading_zeros()) as u8
}

/// The `category`-bit mantissa JPEG appends after a magnitude symbol:
/// non-negative values are written as-is, negative values as
/// `v - 1` in two's complement truncated to the category width.
pub fn mantissa(v: i32, cat: u8) -> u16 {
    if v >= 0 {
        v as u16
    } else {
        (v - 1) as u16 & ((1u16 << cat) - 1)
    }
}

/// Inverse of [`mantissa`]: the T.81 `EXTEND` procedure.
pub fn extend(bits: u16, cat: u8) -> i32 {
    if cat == 0 {
        return 0;
    }
    let v = i32::from(bits);
    if v < (1 << (cat - 1)) {
        v - (1 << cat) + 1
    } else {
        v
    }
}

/// Table selector of an entropy token for the DC luminance table. The
/// four selectors index a scan's Huffman tables in DHT order.
const DC_LUMA: usize = 0;
/// Selector of the DC chrominance table (AC tables are DC + 1).
const DC_CHROMA: usize = 2;

/// Packs one entropy token: the Huffman symbol, the table that codes it
/// (bits 24–25) and the mantissa written after its code (low 11 bits; its
/// length is the symbol's low nibble).
fn token(table: usize, symbol: u8, mantissa: u16) -> u32 {
    ((table as u32) << 24) | (u32::from(symbol) << 16) | u32::from(mantissa)
}

/// The table selector of a token.
fn token_table(token: u32) -> usize {
    (token >> 24) as usize & 3
}

/// The Huffman symbol of a token.
fn token_symbol(token: u32) -> u8 {
    (token >> 16) as u8
}

/// Per-table symbol counts of a scan's tokens, indexed by table selector
/// and symbol — what optimized Huffman tables are built from. Counted
/// while tokenizing, so the token list is never walked again for them.
pub(crate) type SymbolCounts = [[u64; 256]; 4];

/// Counts `token`'s symbol.
#[inline(always)]
pub(crate) fn count_token(counts: &mut SymbolCounts, token: u32) {
    counts[token_table(token)][usize::from(token_symbol(token))] += 1;
}

/// Bit `i` is set iff `zz[i] != 0`. Each group of eight coefficients
/// becomes eight 0/1 bytes of a `u64`, and one multiply gathers their low
/// bits into its top byte: byte `k` lands on bit `56 + k`, and no two
/// partial products overlap, so nothing carries.
#[inline(always)]
fn nonzero_mask(zz: &[i32; 64]) -> u64 {
    let mut mask = 0;
    for (k, group) in zz.chunks_exact(8).enumerate() {
        let flags = u64::from_le_bytes(std::array::from_fn(|i| u8::from(group[i] != 0)));
        mask |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    mask
}

/// The run-length walk of one zig-zag-ordered quantized block (T.81
/// §F.1.2): hands `sink` every entropy token the block codes as, in
/// bitstream order — DC category and mantissa, then (run, size) symbols
/// with ZRL and EOB. `prev_dc` is the previous block's DC level for the
/// same component (DPCM state); returns the new DC. Every encode path
/// tokenizes through this one function.
///
/// The walk visits only the nonzero AC coefficients, lowest bit of a
/// nonzero mask first: a ZRL for each full 16 zeros before one, and an
/// EOB exactly when `zz[63]` is zero.
///
/// # Panics
///
/// Panics if a coefficient's category exceeds what baseline JPEG can code
/// (DC > 11, AC > 10) — impossible for 8-bit input.
#[inline(always)]
pub(crate) fn tokenize_block(
    zz: &[i32; 64],
    prev_dc: i32,
    chroma: bool,
    mut sink: impl FnMut(u32),
) -> i32 {
    let dc = if chroma { DC_CHROMA } else { DC_LUMA };
    let ac = dc + 1;
    let diff = zz[0] - prev_dc;
    let cat = category(diff);
    assert!(cat <= 11, "DC difference out of baseline range");
    sink(token(dc, cat, mantissa(diff, cat)));
    let mut nonzero = nonzero_mask(zz) & !1;
    // The first index not yet coded.
    let mut next = 1;
    while nonzero != 0 {
        let i = nonzero.trailing_zeros() as usize;
        nonzero &= nonzero - 1;
        let mut run = i - next;
        while run >= 16 {
            sink(token(ac, ZRL, 0));
            run -= 16;
        }
        let v = zz[i];
        let cat = category(v);
        assert!(cat <= 10, "AC coefficient out of baseline range");
        sink(token(ac, ((run as u8) << 4) | cat, mantissa(v, cat)));
        next = i + 1;
    }
    if next < 64 {
        sink(token(ac, EOB, 0));
    }
    zz[0]
}

/// Writes one token: its symbol's code from `table`, then its mantissa,
/// as one put of at most 16 + 11 bits.
#[inline(always)]
fn emit_token(writer: &mut BitWriter, table: &HuffmanEncoder, token: u32) {
    let symbol = token_symbol(token);
    let (code, len) = table.code(symbol);
    let extra = u32::from(symbol & 0x0F);
    writer.put_bits((code << extra) | (token & 0xFFFF), len + extra);
}

/// The four Huffman tables of one scan, indexed by token table selector:
/// `[dc_luma, ac_luma, dc_chroma, ac_chroma]`, the order of the DHT
/// segments.
#[derive(Debug)]
pub(crate) struct ScanTables {
    /// The specifications the DHT segments carry.
    pub(crate) specs: [HuffmanSpec; 4],
    encoders: [HuffmanEncoder; 4],
}

impl ScanTables {
    fn from_specs(specs: [HuffmanSpec; 4]) -> Result<Self, CodecError> {
        let encoders = [
            HuffmanEncoder::from_spec(&specs[0])?,
            HuffmanEncoder::from_spec(&specs[1])?,
            HuffmanEncoder::from_spec(&specs[2])?,
            HuffmanEncoder::from_spec(&specs[3])?,
        ];
        Ok(ScanTables { specs, encoders })
    }

    /// The Annex K standard tables.
    pub(crate) fn standard() -> Result<Self, CodecError> {
        ScanTables::from_specs([
            HuffmanSpec::standard_dc_luma(),
            HuffmanSpec::standard_ac_luma(),
            HuffmanSpec::standard_dc_chroma(),
            HuffmanSpec::standard_ac_chroma(),
        ])
    }

    /// Per-image optimized tables built from a whole image's symbol
    /// counts, so every table has symbols.
    pub(crate) fn optimized(counts: &SymbolCounts) -> Result<Self, CodecError> {
        ScanTables::from_specs([
            HuffmanSpec::from_frequencies(&counts[0])?,
            HuffmanSpec::from_frequencies(&counts[1])?,
            HuffmanSpec::from_frequencies(&counts[2])?,
            HuffmanSpec::from_frequencies(&counts[3])?,
        ])
    }

    /// Writes one token through its table.
    #[inline(always)]
    pub(crate) fn emit(&self, writer: &mut BitWriter, token: u32) {
        emit_token(writer, &self.encoders[token_table(token)], token);
    }
}

/// Encodes one zig-zag-ordered quantized block. `prev_dc` is the previous
/// block's DC level for the same component (DPCM state); returns the new DC.
///
/// # Panics
///
/// Panics if a coefficient's category exceeds what baseline JPEG can code
/// (DC > 11, AC > 10) — impossible for 8-bit input.
pub fn encode_block(
    writer: &mut BitWriter,
    dc_table: &HuffmanEncoder,
    ac_table: &HuffmanEncoder,
    zz: &[i32; 64],
    prev_dc: i32,
) -> i32 {
    tokenize_block(zz, prev_dc, false, |t| {
        let table = if token_table(t) == DC_LUMA {
            dc_table
        } else {
            ac_table
        };
        emit_token(writer, table, t);
    })
}

/// Tallies the Huffman symbols `encode_block` would emit, for building
/// optimized tables in a first pass.
///
/// # Panics
///
/// As [`encode_block`].
pub fn tally_block(
    dc_freqs: &mut [u64; 256],
    ac_freqs: &mut [u64; 256],
    zz: &[i32; 64],
    prev_dc: i32,
) -> i32 {
    tokenize_block(zz, prev_dc, false, |t| {
        let freqs = if token_table(t) == DC_LUMA {
            &mut *dc_freqs
        } else {
            &mut *ac_freqs
        };
        freqs[usize::from(token_symbol(t))] += 1;
    })
}

/// Decodes one zig-zag-ordered block; mirror of [`encode_block`].
///
/// # Errors
///
/// Propagates bit-stream and Huffman errors; rejects coefficient indices
/// past 63 (corrupt run lengths) and a DC level outside the `i32` range
/// (DC differences that accumulate past it), both as
/// [`CodecError::BadHuffmanCode`].
pub fn decode_block(
    reader: &mut BitReader<'_>,
    dc_table: &HuffmanDecoder,
    ac_table: &HuffmanDecoder,
    prev_dc: i32,
) -> Result<[i32; 64], CodecError> {
    let mut zz = [0i32; 64];
    decode_block_into(reader, dc_table, ac_table, prev_dc, &mut zz)?;
    Ok(zz)
}

/// [`decode_block`] into a caller's buffer, which it overwrites whole.
#[inline(always)]
pub(crate) fn decode_block_into(
    reader: &mut BitReader<'_>,
    dc_table: &HuffmanDecoder,
    ac_table: &HuffmanDecoder,
    prev_dc: i32,
    zz: &mut [i32; 64],
) -> Result<(), CodecError> {
    *zz = [0; 64];
    let cat = dc_table.decode(reader)?;
    if cat > 11 {
        return Err(CodecError::BadHuffmanCode);
    }
    let diff = if cat > 0 {
        extend(reader.bits(u32::from(cat))?, cat)
    } else {
        0
    };
    // A forged scan can push the DC prediction past the `i32` range.
    zz[0] = prev_dc
        .checked_add(diff)
        .ok_or(CodecError::BadHuffmanCode)?;
    let mut k = 1usize;
    while k < 64 {
        let sym = ac_table.decode(reader)?;
        if sym == EOB {
            break;
        }
        if sym == ZRL {
            k += 16;
            continue;
        }
        let run = usize::from(sym >> 4);
        let cat = sym & 0x0F;
        k += run;
        if k >= 64 || cat == 0 || cat > 10 {
            return Err(CodecError::BadHuffmanCode);
        }
        zz[k] = extend(reader.bits(u32::from(cat))?, cat);
        k += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_boundaries() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(-3), 2);
        assert_eq!(category(255), 8);
        assert_eq!(category(-256), 9);
        assert_eq!(category(1023), 10);
        assert_eq!(category(-2047), 11);
    }

    #[test]
    fn mantissa_extend_round_trip() {
        for v in -2047..=2047 {
            let c = category(v);
            assert_eq!(extend(mantissa(v, c), c), v, "value {v}");
        }
    }

    fn tables() -> (
        HuffmanEncoder,
        HuffmanEncoder,
        HuffmanDecoder,
        HuffmanDecoder,
    ) {
        let dc = HuffmanSpec::standard_dc_luma();
        let ac = HuffmanSpec::standard_ac_luma();
        (
            HuffmanEncoder::from_spec(&dc).expect("dc"),
            HuffmanEncoder::from_spec(&ac).expect("ac"),
            HuffmanDecoder::from_spec(&dc),
            HuffmanDecoder::from_spec(&ac),
        )
    }

    fn round_trip_blocks(blocks: &[[i32; 64]]) {
        let (dce, ace, dcd, acd) = tables();
        let mut w = BitWriter::new();
        let mut prev = 0;
        for b in blocks {
            prev = encode_block(&mut w, &dce, &ace, b, prev);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut prev = 0;
        for b in blocks {
            let got = decode_block(&mut r, &dcd, &acd, prev).expect("decodable");
            prev = got[0];
            assert_eq!(&got, b);
        }
    }

    #[test]
    fn all_zero_block_round_trips() {
        round_trip_blocks(&[[0i32; 64]]);
    }

    #[test]
    fn dc_only_chain_uses_dpcm() {
        let mut blocks = Vec::new();
        for dc in [5, 5, -3, 100, 99] {
            let mut b = [0i32; 64];
            b[0] = dc;
            blocks.push(b);
        }
        round_trip_blocks(&blocks);
    }

    #[test]
    fn long_zero_runs_need_zrl() {
        let mut b = [0i32; 64];
        b[0] = 10;
        b[40] = -7; // 39 zeros before it: needs 2 ZRL + run 7
        b[63] = 3;
        round_trip_blocks(&[b]);
    }

    #[test]
    fn dense_block_round_trips() {
        let mut b = [0i32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i32 % 19) - 9;
        }
        round_trip_blocks(&[b]);
    }

    #[test]
    fn trailing_nonzero_at_63_skips_eob() {
        let mut b = [0i32; 64];
        b[63] = 1;
        round_trip_blocks(&[b]);
    }

    #[test]
    fn dc_prediction_overflow_is_a_typed_error() {
        let (dce, ace, dcd, acd) = tables();
        for (diff, prev_dc) in [(2047, i32::MAX - 100), (-2047, i32::MIN + 100)] {
            let mut b = [0i32; 64];
            b[0] = diff;
            let mut w = BitWriter::new();
            encode_block(&mut w, &dce, &ace, &b, 0);
            let bytes = w.finish();
            let decoded = decode_block(&mut BitReader::new(&bytes), &dcd, &acd, 0);
            assert_eq!(decoded.expect("in range")[0], diff);
            assert!(
                matches!(
                    decode_block(&mut BitReader::new(&bytes), &dcd, &acd, prev_dc),
                    Err(CodecError::BadHuffmanCode)
                ),
                "difference {diff} from {prev_dc}"
            );
        }
    }

    /// The tokenizer as first written: one test per AC coefficient. The
    /// oracle for the nonzero-mask walk in [`tokenize_block`].
    fn serial_tokens(zz: &[i32; 64], prev_dc: i32, chroma: bool) -> Vec<u32> {
        let dc = if chroma { DC_CHROMA } else { DC_LUMA };
        let ac = dc + 1;
        let diff = zz[0] - prev_dc;
        let cat = category(diff);
        let mut tokens = vec![token(dc, cat, mantissa(diff, cat))];
        let mut run = 0u32;
        for &v in &zz[1..] {
            if v == 0 {
                run += 1;
                continue;
            }
            while run >= 16 {
                tokens.push(token(ac, ZRL, 0));
                run -= 16;
            }
            let cat = category(v);
            tokens.push(token(ac, ((run as u8) << 4) | cat, mantissa(v, cat)));
            run = 0;
        }
        if run > 0 {
            tokens.push(token(ac, EOB, 0));
        }
        tokens
    }

    /// SplitMix64, for the seeded blocks below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn mask_walk_tokenizes_like_the_serial_walk() {
        let mut blocks = Vec::new();
        // Zero runs of 15, 16, 17 and 47 before a coefficient, ending
        // early or at 63, and the all-zero AC block.
        for run in [15, 16, 17, 47] {
            for last in [false, true] {
                let mut b = [0i32; 64];
                b[1 + run] = -3;
                if last {
                    b[63] = 1;
                }
                blocks.push(b);
            }
        }
        blocks.push([0; 64]);
        let mut only_63 = [0; 64];
        only_63[63] = -1023;
        blocks.push(only_63);
        // Random blocks from sparse to dense, with values of every AC
        // category.
        let mut rng = 0x70CE_u64;
        for case in 0..20_000 {
            let density = [1, 4, 16, 48, 64][case % 5];
            let mut b = [0i32; 64];
            for v in &mut b[1..] {
                let r = splitmix(&mut rng);
                if r % 64 < density {
                    let cat = 1 + (r >> 8) % 10;
                    let magnitude = ((r >> 16) % (1 << cat)).max(1 << (cat - 1)) as i32;
                    *v = if r & (1 << 40) == 0 {
                        magnitude
                    } else {
                        -magnitude
                    };
                }
            }
            b[0] = (splitmix(&mut rng) % 2047) as i32 - 1023;
            blocks.push(b);
        }
        for (i, b) in blocks.iter().enumerate() {
            // DC differences of ±2047 and of everything between.
            let prev_dc = match i % 3 {
                0 => b[0] - 2047,
                1 => b[0] + 2047,
                _ => i as i32 % 1000,
            };
            for chroma in [false, true] {
                let mut got = Vec::new();
                let dc = tokenize_block(b, prev_dc, chroma, |t| got.push(t));
                assert_eq!(dc, b[0]);
                assert_eq!(got, serial_tokens(b, prev_dc, chroma), "block {i}: {b:?}");
            }
        }
    }

    #[test]
    fn tally_matches_encoded_symbols() {
        // The tally pass must count exactly the symbols encode emits; a
        // proxy check: building an optimized table from the tally always
        // succeeds and can code the same blocks.
        let mut b = [0i32; 64];
        b[0] = 42;
        b[1] = -3;
        b[20] = 7;
        let mut dcf = [0u64; 256];
        let mut acf = [0u64; 256];
        let mut prev = 0;
        for _ in 0..3 {
            prev = tally_block(&mut dcf, &mut acf, &b, prev);
        }
        let dc_spec = HuffmanSpec::from_frequencies(&dcf).expect("dc freq");
        let ac_spec = HuffmanSpec::from_frequencies(&acf).expect("ac freq");
        let dce = HuffmanEncoder::from_spec(&dc_spec).expect("dc enc");
        let ace = HuffmanEncoder::from_spec(&ac_spec).expect("ac enc");
        let mut w = BitWriter::new();
        let mut prev = 0;
        for _ in 0..3 {
            prev = encode_block(&mut w, &dce, &ace, &b, prev);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let dcd = HuffmanDecoder::from_spec(&dc_spec);
        let acd = HuffmanDecoder::from_spec(&ac_spec);
        let mut prev = 0;
        for _ in 0..3 {
            let got = decode_block(&mut r, &dcd, &acd, prev).expect("decodable");
            prev = got[0];
            assert_eq!(got, b);
        }
    }
}
