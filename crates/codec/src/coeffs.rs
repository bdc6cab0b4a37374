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

/// The run-length walk of one zig-zag-ordered quantized block (T.81
/// §F.1.2): hands `sink` every entropy token the block codes as, in
/// bitstream order — DC category and mantissa, then (run, size) symbols
/// with ZRL and EOB. `prev_dc` is the previous block's DC level for the
/// same component (DPCM state); returns the new DC. Every encode path
/// tokenizes through this one function.
///
/// # Panics
///
/// Panics if a coefficient's category exceeds what baseline JPEG can code
/// (DC > 11, AC > 10) — impossible for 8-bit input.
#[inline]
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
    let mut run = 0u32;
    for &v in &zz[1..] {
        if v == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            sink(token(ac, ZRL, 0));
            run -= 16;
        }
        let cat = category(v);
        assert!(cat <= 10, "AC coefficient out of baseline range");
        sink(token(ac, ((run as u8) << 4) | cat, mantissa(v, cat)));
        run = 0;
    }
    if run > 0 {
        sink(token(ac, EOB, 0));
    }
    zz[0]
}

/// Writes one token: its symbol's code from `table`, then its mantissa.
#[inline]
fn emit_token(writer: &mut BitWriter, table: &HuffmanEncoder, token: u32) {
    let symbol = token_symbol(token);
    table.encode(writer, symbol);
    writer.put(token as u16, u32::from(symbol & 0x0F));
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

    /// Per-image optimized tables built from the symbol frequencies of
    /// `tokens` (a whole image's, so every table has symbols).
    pub(crate) fn optimized(tokens: &[u32]) -> Result<Self, CodecError> {
        let mut freqs = [[0u64; 256]; 4];
        for &t in tokens {
            freqs[token_table(t)][usize::from(token_symbol(t))] += 1;
        }
        ScanTables::from_specs([
            HuffmanSpec::from_frequencies(&freqs[0])?,
            HuffmanSpec::from_frequencies(&freqs[1])?,
            HuffmanSpec::from_frequencies(&freqs[2])?,
            HuffmanSpec::from_frequencies(&freqs[3])?,
        ])
    }

    /// Writes one token through its table.
    #[inline]
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
    Ok(zz)
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
