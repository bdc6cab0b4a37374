//! Canonical Huffman coding: the Annex K standard tables, per-image
//! optimized table construction (ITU T.81 Annex K.2), a symbol encoder,
//! and a decoder that resolves short codes with one table lookup and the
//! rest with the T.81 §F.2.2.3 walk.

use crate::bitstream::{BitReader, BitWriter};
use crate::CodecError;
use std::cmp::Reverse;

/// A Huffman table specification as carried in a DHT segment: `bits[l]`
/// counts the codes of length `l+1`, and `values` lists the symbols in
/// canonical order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HuffmanSpec {
    /// Number of codes of each length 1..=16.
    pub bits: [u8; 16],
    /// Symbols in canonical (code) order.
    pub values: Vec<u8>,
}

impl HuffmanSpec {
    /// Validates a specification read from a stream.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadHuffmanTable`] if the counts and value list
    /// disagree or the code space is over-subscribed.
    pub fn new(bits: [u8; 16], values: Vec<u8>) -> Result<Self, CodecError> {
        let total: usize = bits.iter().map(|&b| usize::from(b)).sum();
        if total != values.len() {
            return Err(CodecError::BadHuffmanTable(format!(
                "bits promise {total} symbols, got {}",
                values.len()
            )));
        }
        if total > 256 {
            return Err(CodecError::BadHuffmanTable("more than 256 symbols".into()));
        }
        // Kraft inequality check: codes of each length must fit.
        let mut code: u32 = 0;
        for (l, &count) in bits.iter().enumerate() {
            code <<= 1;
            code += u32::from(count);
            if code > (1 << (l + 1)) {
                return Err(CodecError::BadHuffmanTable(
                    "code space over-subscribed".into(),
                ));
            }
        }
        Ok(HuffmanSpec { bits, values })
    }

    /// Standard DC luminance table (Annex K.3.1).
    pub fn standard_dc_luma() -> Self {
        HuffmanSpec {
            bits: [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            values: (0..=11).collect(),
        }
    }

    /// Standard DC chrominance table (Annex K.3.2).
    pub fn standard_dc_chroma() -> Self {
        HuffmanSpec {
            bits: [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
            values: (0..=11).collect(),
        }
    }

    /// Standard AC luminance table (Annex K.3.3).
    pub fn standard_ac_luma() -> Self {
        HuffmanSpec {
            bits: [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125],
            values: vec![
                0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51,
                0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1,
                0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18,
                0x19, 0x1A, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
                0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57,
                0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
                0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92,
                0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
                0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
                0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8,
                0xD9, 0xDA, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
                0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
            ],
        }
    }

    /// Standard AC chrominance table (Annex K.3.4).
    pub fn standard_ac_chroma() -> Self {
        HuffmanSpec {
            bits: [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119],
            values: vec![
                0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07,
                0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09,
                0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25,
                0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
                0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56,
                0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
                0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
                0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
                0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA,
                0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6,
                0xD7, 0xD8, 0xD9, 0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
                0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
            ],
        }
    }

    /// Builds an optimized specification from observed symbol frequencies
    /// using the ITU T.81 Annex K.2 procedure (including the reserved
    /// all-ones codepoint and the 16-bit length limit).
    ///
    /// Symbols with zero frequency receive no code. Returns an error only
    /// if `freqs` is all zero.
    ///
    /// Only the live symbols (nonzero frequency) take part: one pass over
    /// `freqs` lists them in ascending symbol order, followed by the
    /// reserved slot 256 at frequency 1, so no real symbol gets the
    /// all-ones code. Every later step works on that short list — an image
    /// uses a few dozen symbols per table, often fewer.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadHuffmanTable`] if no symbol has nonzero frequency.
    pub fn from_frequencies(freqs: &[u64; 256]) -> Result<Self, CodecError> {
        let mut symbols = [0u16; 257];
        let mut freq = [0u64; 257];
        let mut n = 0;
        // Eight slots at a time: most groups are all zero.
        for (group, chunk) in (0u16..).step_by(8).zip(freqs.chunks_exact(8)) {
            if chunk.iter().all(|&f| f == 0) {
                continue;
            }
            for (s, &f) in (group..).zip(chunk) {
                if f > 0 {
                    (symbols[n], freq[n]) = (s, f);
                    n += 1;
                }
            }
        }
        if n == 0 {
            return Err(CodecError::BadHuffmanTable("no symbols observed".into()));
        }
        (symbols[n], freq[n]) = (256, 1);
        n += 1;
        let mut sizes = [0u32; 257];
        code_sizes(&mut freq[..n], &mut sizes[..n]);
        HuffmanSpec::from_code_sizes(&symbols[..n], &sizes[..n])
    }

    /// The Annex K.2 steps after the code-size tree: count codes per
    /// length, fold lengths above 16 down (Adjust_BITS), drop the reserved
    /// codepoint, and list the symbols canonically (Sort_input).
    /// `symbols` are the live symbols in ascending order with the reserved
    /// slot 256 last, and `codesize[i]` is the code size of `symbols[i]`.
    fn from_code_sizes(symbols: &[u16], codesize: &[u32]) -> Result<Self, CodecError> {
        // Count codes per size (sizes can exceed 16 before adjustment).
        let mut bits_long = [0u32; 64];
        for &cs in codesize {
            if cs > 0 {
                assert!((cs as usize) < 64, "pathological code length");
                bits_long[cs as usize] += 1;
            }
        }
        // Adjust_BITS: fold lengths > 16 down.
        let mut i = 62usize;
        loop {
            if i < 17 {
                break;
            }
            while bits_long[i] > 0 {
                // Find the first shorter non-empty length j < i-1.
                let mut j = i - 2;
                while bits_long[j] == 0 {
                    j -= 1;
                }
                bits_long[i] -= 2;
                bits_long[i - 1] += 1;
                bits_long[j + 1] += 2;
                bits_long[j] -= 1;
            }
            i -= 1;
        }
        // Remove the reserved codepoint from the longest length.
        let mut i = 16;
        while i > 0 && bits_long[i] == 0 {
            i -= 1;
        }
        if i > 0 {
            bits_long[i] -= 1;
        }

        let mut bits = [0u8; 16];
        for l in 1..=16 {
            bits[l - 1] = bits_long[l] as u8;
        }
        // Sort the real symbols by (codesize, symbol) to list them
        // canonically: one key per symbol, sorted in place.
        let mut keys = [0u16; 256];
        let mut n = 0;
        for (&s, &cs) in symbols.iter().zip(codesize) {
            if s < 256 && cs > 0 {
                keys[n] = ((cs as u16) << 8) | s;
                n += 1;
            }
        }
        keys[..n].sort_unstable();
        let values: Vec<u8> = keys[..n].iter().map(|&k| k as u8).collect();
        HuffmanSpec::new(bits, values)
    }

    /// Total number of coded symbols.
    pub fn symbol_count(&self) -> usize {
        self.values.len()
    }
}

/// Annex K.2 Code_size: repeatedly merges the two least frequent trees,
/// lengthening the codes of every symbol in both by one. `freq` holds the
/// live symbols' frequencies in ascending symbol order (the reserved slot
/// last) and is consumed; `codesize`, indexed the same way, receives the
/// code sizes.
///
/// K.2 takes as `V1` the least frequency, ties to the larger index, and as
/// `V2` the least of the rest by the same rule; the merged tree keeps
/// `V1`'s index. Both are therefore the first two trees in the order
/// (frequency ascending, index descending), so the trees wait in a list
/// kept in that order: each merge takes its first two and moves the merged
/// tree to where it belongs, instead of searching every tree twice. A
/// symbol's code size is the number of merges its tree took part in, its
/// depth in the final tree, which one walk back over the merges assigns.
fn code_sizes(freq: &mut [u64], codesize: &mut [u32]) {
    let n = freq.len();
    let mut order = [0u16; 257];
    for (o, i) in order.iter_mut().zip(0..n as u16) {
        *o = i;
    }
    let order = &mut order[..n];
    order.sort_unstable_by_key(|&i| (freq[usize::from(i)], Reverse(i)));
    let mut merges = [(0u16, 0u16); 256];
    for (head, merge) in (1..n).zip(merges.iter_mut()) {
        let (v1, v2) = (order[head - 1], order[head]);
        freq[usize::from(v1)] += freq[usize::from(v2)];
        let key = (freq[usize::from(v1)], Reverse(v1));
        // The merged tree takes V2's place, then moves back past every
        // tree that orders before it.
        let mut p = head;
        while p + 1 < n && (freq[usize::from(order[p + 1])], Reverse(order[p + 1])) < key {
            order[p] = order[p + 1];
            p += 1;
        }
        order[p] = v1;
        *merge = (v1, v2);
    }
    // Backwards from the root (depth 0): before each merge, both trees
    // sat one level below the tree it made in V1's slot.
    codesize.fill(0);
    for &(v1, v2) in merges[..n - 1].iter().rev() {
        let (v1, v2) = (usize::from(v1), usize::from(v2));
        codesize[v2] = codesize[v1] + 1;
        codesize[v1] += 1;
    }
}

/// Encoder-side lookup: `(code, length)` per symbol.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    /// `length << 16 | code` per symbol; 0 for a symbol without a code.
    codes: [u32; 256],
}

impl HuffmanEncoder {
    /// Compiles a specification into an encoding table.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`HuffmanSpec::new`] semantics
    /// (the spec is assumed validated; duplicate symbols are rejected).
    pub fn from_spec(spec: &HuffmanSpec) -> Result<Self, CodecError> {
        let mut codes = [0u32; 256];
        let mut next: u32 = 0;
        let mut k = 0usize;
        for (l, &count) in (1u32..).zip(&spec.bits) {
            for _ in 0..count {
                let sym = spec.values[k] as usize;
                if codes[sym] != 0 {
                    return Err(CodecError::BadHuffmanTable(format!(
                        "duplicate symbol {sym:#x}"
                    )));
                }
                codes[sym] = (l << 16) | (next & 0xFFFF);
                next += 1;
                k += 1;
            }
            next <<= 1;
        }
        Ok(HuffmanEncoder { codes })
    }

    /// The code of `symbol` and its length in bits.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code in this table.
    #[inline(always)]
    pub(crate) fn code(&self, symbol: u8) -> (u32, u32) {
        let entry = self.codes[usize::from(symbol)];
        assert!(entry != 0, "symbol {symbol:#x} has no huffman code");
        (entry & 0xFFFF, entry >> 16)
    }

    /// Emits the code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code in this table.
    pub fn encode(&self, writer: &mut BitWriter, symbol: u8) {
        let (code, len) = self.code(symbol);
        writer.put_bits(code, len);
    }

    /// Code length in bits for `symbol` (0 if uncoded) — used by size
    /// accounting tests and the rate model.
    pub fn code_len(&self, symbol: u8) -> u8 {
        (self.codes[usize::from(symbol)] >> 16) as u8
    }
}

/// Bits one lookup of [`HuffmanDecoder::decode`] resolves: IJG
/// `jdhuff.c`'s `HUFF_LOOKAHEAD`. Most codes an image uses are this short.
const LOOKAHEAD: u32 = 9;

/// Decoder-side tables: a lookahead table for codes of up to 9 bits, and
/// the canonical T.81 §F.2.2.3 tables
/// (MINCODE/MAXCODE/VALPTR) for longer codes and for the last bits of a
/// scan. One heap block per table, built once per scan and shared by every
/// component that uses it.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    tables: Box<DecodeTables>,
}

#[derive(Debug, Clone)]
struct DecodeTables {
    /// For each [`LOOKAHEAD`]-bit window, `length << 8 | symbol` of the
    /// code the window starts with, or 0 when that code is longer.
    lookahead: [u16; 1 << LOOKAHEAD],
    mincode: [i32; 17],
    maxcode: [i32; 17],
    valptr: [i32; 17],
    /// The symbols in canonical order; the first `len` are valid.
    values: [u8; 256],
    len: usize,
}

impl HuffmanDecoder {
    /// Compiles a specification into decoding tables.
    pub fn from_spec(spec: &HuffmanSpec) -> Self {
        let mut t = Box::new(DecodeTables {
            lookahead: [0; 1 << LOOKAHEAD],
            mincode: [0; 17],
            maxcode: [-1; 17],
            valptr: [0; 17],
            values: [0; 256],
            len: spec.values.len().min(256),
        });
        t.values[..t.len].copy_from_slice(&spec.values[..t.len]);
        let mut code: i32 = 0;
        let mut k: i32 = 0;
        for l in 1..=16usize {
            let count = i32::from(spec.bits[l - 1]);
            if count > 0 {
                t.valptr[l] = k;
                t.mincode[l] = code;
                if l as u32 <= LOOKAHEAD {
                    // Every window that starts with one of these codes.
                    let shift = LOOKAHEAD - l as u32;
                    for c in code..code + count {
                        let Some(&sym) = spec.values.get((k + c - code) as usize) else {
                            break;
                        };
                        let start = ((c as usize) << shift).min(1 << LOOKAHEAD);
                        let end = ((c as usize + 1) << shift).min(1 << LOOKAHEAD);
                        t.lookahead[start..end].fill(((l as u16) << 8) | u16::from(sym));
                    }
                }
                code += count;
                k += count;
                t.maxcode[l] = code - 1;
            } else {
                t.maxcode[l] = -1;
            }
            code <<= 1;
        }
        HuffmanDecoder { tables: t }
    }

    /// Decodes one symbol from the bit stream: one lookup resolves a code
    /// of up to 9 bits; a longer code, or a window cut short by the end of
    /// the scan, takes the bit-by-bit walk.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadHuffmanCode`] if 16 bits fail to match any code;
    /// [`CodecError::UnexpectedEof`] if the stream ends.
    #[inline(always)]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u8, CodecError> {
        if reader.fill(LOOKAHEAD) >= LOOKAHEAD {
            let entry = self.tables.lookahead[reader.peek(LOOKAHEAD) as usize];
            if entry != 0 {
                reader.consume(u32::from(entry >> 8));
                return Ok(entry as u8);
            }
        }
        self.decode_walk(reader)
    }

    /// The T.81 §F.2.2.3 DECODE procedure: extend the code a bit at a time
    /// until it falls in a length's `[MINCODE, MAXCODE]` range.
    #[inline(never)]
    fn decode_walk(&self, reader: &mut BitReader<'_>) -> Result<u8, CodecError> {
        let t = &*self.tables;
        let available = reader.fill(16);
        for l in 1..=16usize {
            if l as u32 > available {
                return Err(CodecError::UnexpectedEof);
            }
            let code = reader.peek(l as u32) as i32;
            if t.maxcode[l] >= 0 && code <= t.maxcode[l] && code >= t.mincode[l] {
                reader.consume(l as u32);
                let idx = (t.valptr[l] + (code - t.mincode[l])) as usize;
                return t.values[..t.len]
                    .get(idx)
                    .copied()
                    .ok_or(CodecError::BadHuffmanCode);
            }
        }
        Err(CodecError::BadHuffmanCode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(spec: &HuffmanSpec, symbols: &[u8]) {
        let enc = HuffmanEncoder::from_spec(spec).expect("valid spec");
        let dec = HuffmanDecoder::from_spec(spec);
        let mut w = BitWriter::new();
        for &s in symbols {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(dec.decode(&mut r).expect("decodable"), s);
        }
    }

    #[test]
    fn standard_tables_validate() {
        for spec in [
            HuffmanSpec::standard_dc_luma(),
            HuffmanSpec::standard_dc_chroma(),
            HuffmanSpec::standard_ac_luma(),
            HuffmanSpec::standard_ac_chroma(),
        ] {
            HuffmanSpec::new(spec.bits, spec.values.clone()).expect("standard table is valid");
            HuffmanEncoder::from_spec(&spec).expect("encodable");
        }
        assert_eq!(HuffmanSpec::standard_ac_luma().symbol_count(), 162);
        assert_eq!(HuffmanSpec::standard_ac_chroma().symbol_count(), 162);
    }

    #[test]
    fn standard_dc_round_trip() {
        let spec = HuffmanSpec::standard_dc_luma();
        round_trip(&spec, &[0, 1, 2, 3, 11, 5, 0, 0, 7]);
    }

    #[test]
    fn standard_ac_round_trip() {
        let spec = HuffmanSpec::standard_ac_luma();
        round_trip(&spec, &[0x00, 0xF0, 0x01, 0x11, 0xFA, 0x22, 0x00]);
    }

    #[test]
    fn spec_rejects_count_mismatch() {
        let mut bits = [0u8; 16];
        bits[0] = 2;
        assert!(HuffmanSpec::new(bits, vec![1]).is_err());
    }

    #[test]
    fn spec_rejects_oversubscription() {
        let mut bits = [0u8; 16];
        bits[0] = 3; // only 2 codes of length 1 exist
        assert!(HuffmanSpec::new(bits, vec![0, 1, 2]).is_err());
    }

    #[test]
    fn optimized_table_orders_by_frequency() {
        let mut freqs = [0u64; 256];
        freqs[7] = 1000;
        freqs[3] = 100;
        freqs[200] = 10;
        freqs[45] = 1;
        let spec = HuffmanSpec::from_frequencies(&freqs).expect("buildable");
        let enc = HuffmanEncoder::from_spec(&spec).expect("valid");
        assert!(enc.code_len(7) <= enc.code_len(3));
        assert!(enc.code_len(3) <= enc.code_len(200));
        assert!(enc.code_len(200) <= enc.code_len(45));
        round_trip(&spec, &[7, 3, 200, 45, 7, 7]);
    }

    #[test]
    fn optimized_table_beats_standard_on_skewed_data() {
        // A degenerate stream of one symbol should cost ~1 bit/symbol.
        let mut freqs = [0u64; 256];
        freqs[0] = 10_000;
        freqs[1] = 1;
        let spec = HuffmanSpec::from_frequencies(&freqs).expect("buildable");
        let enc = HuffmanEncoder::from_spec(&spec).expect("valid");
        assert!(enc.code_len(0) <= 2);
    }

    #[test]
    fn optimized_table_handles_many_symbols() {
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 37) + 1; // all 256 symbols used
        }
        let spec = HuffmanSpec::from_frequencies(&freqs).expect("buildable");
        assert_eq!(spec.symbol_count(), 256);
        let symbols: Vec<u8> = (0..=255).collect();
        round_trip(&spec, &symbols);
    }

    /// The Annex K.2 working frequencies as first written: `freqs` with
    /// slot 256 reserved at frequency 1.
    fn working_frequencies(freqs: &[u64; 256]) -> [i64; 257] {
        let mut freq = [0i64; 257];
        for (f, &src) in freq.iter_mut().zip(freqs.iter()) {
            *f = src as i64;
        }
        freq[256] = 1;
        freq
    }

    /// Code_size as first written: both minimum searches scan all 257
    /// slots for every merge. The reference for [`code_sizes`].
    fn reference_code_sizes(freq: &[i64; 257]) -> [u32; 257] {
        let mut freq = *freq;
        let mut codesize = [0u32; 257];
        let mut others = [-1i32; 257];
        loop {
            let mut v1: i32 = -1;
            let mut min1 = i64::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if f > 0 && f <= min1 {
                    min1 = f;
                    v1 = i as i32;
                }
            }
            let mut v2: i32 = -1;
            let mut min2 = i64::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if f > 0 && f <= min2 && i as i32 != v1 {
                    min2 = f;
                    v2 = i as i32;
                }
            }
            if v2 < 0 {
                break;
            }
            let (v1u, v2u) = (v1 as usize, v2 as usize);
            freq[v1u] += freq[v2u];
            freq[v2u] = 0;
            codesize[v1u] += 1;
            let mut i = v1u;
            while others[i] >= 0 {
                i = others[i] as usize;
                codesize[i] += 1;
            }
            others[i] = v2;
            codesize[v2u] += 1;
            let mut i = v2u;
            while others[i] >= 0 {
                i = others[i] as usize;
                codesize[i] += 1;
            }
        }
        codesize
    }

    /// The steps after Code_size as first written, over all 257 slots:
    /// count codes per length, Adjust_BITS, drop the reserved codepoint,
    /// then filter all 256 symbols and sort them. The reference for
    /// `from_code_sizes`.
    fn reference_spec(codesize: &[u32; 257]) -> HuffmanSpec {
        let mut bits_long = [0u32; 64];
        for &cs in codesize.iter() {
            if cs > 0 {
                bits_long[cs as usize] += 1;
            }
        }
        let mut i = 62usize;
        while i >= 17 {
            while bits_long[i] > 0 {
                let mut j = i - 2;
                while bits_long[j] == 0 {
                    j -= 1;
                }
                bits_long[i] -= 2;
                bits_long[i - 1] += 1;
                bits_long[j + 1] += 2;
                bits_long[j] -= 1;
            }
            i -= 1;
        }
        let mut i = 16;
        while i > 0 && bits_long[i] == 0 {
            i -= 1;
        }
        if i > 0 {
            bits_long[i] -= 1;
        }
        let mut bits = [0u8; 16];
        for l in 1..=16 {
            bits[l - 1] = bits_long[l] as u8;
        }
        let mut syms: Vec<(u32, usize)> = (0..256)
            .filter(|&s| codesize[s] > 0)
            .map(|s| (codesize[s], s))
            .collect();
        syms.sort_unstable();
        let values: Vec<u8> = syms.into_iter().map(|(_, s)| s as u8).collect();
        HuffmanSpec::new(bits, values).expect("valid reference spec")
    }

    /// The live-symbol build's code sizes, spread back over 257 slots.
    fn live_code_sizes(freqs: &[u64; 256]) -> [u32; 257] {
        let slots: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).chain([256]).collect();
        let mut freq: Vec<u64> = slots
            .iter()
            .map(|&s| freqs.get(s).map_or(1, |&f| f))
            .collect();
        let mut sizes = vec![0; freq.len()];
        code_sizes(&mut freq, &mut sizes);
        let mut spread = [0u32; 257];
        for (&s, &cs) in slots.iter().zip(&sizes) {
            spread[s] = cs;
        }
        spread
    }

    /// SplitMix64: a seeded generator for the frequency sets below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Frequency set `case` of the reference comparison: 2–40 live
    /// symbols in most cases, exactly 1 or 1–256 in one case of eight
    /// each, at random slots, in one of four shapes — counts of 1–8 (many
    /// ties), all-equal counts, random counts up to 2^40, and Fibonacci
    /// counts (codes longer than 16 bits, so Adjust_BITS folds them).
    fn frequency_set(case: u64, rng: &mut u64) -> [u64; 256] {
        let live = match (case / 4) % 8 {
            6 => 1,
            7 => 1 + splitmix(rng) % 256,
            _ => 2 + splitmix(rng) % 39,
        } as usize;
        let mut slots: Vec<usize> = (0..256).collect();
        for i in 0..live {
            let j = i + (splitmix(rng) % (256 - i as u64)) as usize;
            slots.swap(i, j);
        }
        let mut freqs = [0u64; 256];
        let equal = 1 + splitmix(rng) % 1000;
        let (mut fib_a, mut fib_b) = (1u64, 1u64);
        for (k, &s) in slots[..live].iter().enumerate() {
            freqs[s] = match case % 4 {
                1 => equal,
                2 => 1 + splitmix(rng) % (1 << 40),
                3 if k < 50 => {
                    (fib_a, fib_b) = (fib_b, fib_a + fib_b);
                    fib_a
                }
                _ => 1 + splitmix(rng) % 8,
            };
        }
        freqs
    }

    #[test]
    fn live_symbol_build_matches_the_full_scan() {
        let mut rng = 0x5EED_u64;
        let mut long_codes = 0;
        for case in 0..20_000 {
            let freqs = frequency_set(case, &mut rng);
            let freq = working_frequencies(&freqs);
            let (got, want) = (live_code_sizes(&freqs), reference_code_sizes(&freq));
            assert_eq!(got, want, "case {case}: code sizes differ for {freqs:?}");
            assert_eq!(
                HuffmanSpec::from_frequencies(&freqs).expect("buildable"),
                reference_spec(&want),
                "case {case}"
            );
            long_codes += usize::from(want.iter().any(|&cs| cs > 16));
        }
        assert!(
            long_codes > 1000,
            "only {long_codes} cases needed Adjust_BITS"
        );
    }

    /// The bit-serial decoder as first written: MINCODE/MAXCODE/VALPTR
    /// and one bit per step. The oracle for [`HuffmanDecoder::decode`].
    struct SerialDecoder {
        mincode: [i32; 17],
        maxcode: [i32; 17],
        valptr: [i32; 17],
        values: Vec<u8>,
    }

    impl SerialDecoder {
        fn new(spec: &HuffmanSpec) -> Self {
            let (mut mincode, mut maxcode, mut valptr) = ([0; 17], [-1; 17], [0; 17]);
            let (mut code, mut k) = (0i32, 0i32);
            for l in 1..=16usize {
                let count = i32::from(spec.bits[l - 1]);
                if count > 0 {
                    valptr[l] = k;
                    mincode[l] = code;
                    code += count;
                    k += count;
                    maxcode[l] = code - 1;
                }
                code <<= 1;
            }
            SerialDecoder {
                mincode,
                maxcode,
                valptr,
                values: spec.values.clone(),
            }
        }

        fn decode(&self, reader: &mut BitReader<'_>) -> Result<u8, CodecError> {
            let mut code: i32 = 0;
            for l in 1..=16usize {
                code = (code << 1) | i32::from(reader.bit()?);
                if self.maxcode[l] >= 0 && code <= self.maxcode[l] && code >= self.mincode[l] {
                    let idx = (self.valptr[l] + (code - self.mincode[l])) as usize;
                    return self
                        .values
                        .get(idx)
                        .copied()
                        .ok_or(CodecError::BadHuffmanCode);
                }
            }
            Err(CodecError::BadHuffmanCode)
        }
    }

    #[test]
    fn lookahead_decode_matches_the_serial_decoder() {
        let mut specs = vec![
            HuffmanSpec::standard_dc_luma(),
            HuffmanSpec::standard_dc_chroma(),
            HuffmanSpec::standard_ac_luma(),
            HuffmanSpec::standard_ac_chroma(),
        ];
        // Optimized specs with skewed counts, so that codes run past the
        // lookahead's 9 bits, up to the 16-bit limit.
        let mut rng = 0x100C_u64;
        for live in [12, 40, 120, 256] {
            let mut freqs = [0u64; 256];
            for (i, f) in freqs.iter_mut().take(live).enumerate() {
                *f = 1 + (splitmix(&mut rng) % 4) * (1 << (40 * i / live));
            }
            specs.push(HuffmanSpec::from_frequencies(&freqs).expect("buildable"));
        }
        for (n, spec) in specs.iter().enumerate() {
            let longest = 16 - spec.bits.iter().rev().take_while(|&&b| b == 0).count();
            assert!(
                n < 4 || longest > 9,
                "spec {n}: longest code {longest} bits"
            );
            let (lookahead, serial) = (HuffmanDecoder::from_spec(spec), SerialDecoder::new(spec));
            for prefix in 0..=u16::MAX {
                // The 16-bit prefix, then 16 bits more, stuffed.
                let mut w = BitWriter::new();
                w.put(prefix, 16);
                w.put(splitmix(&mut rng) as u16, 16);
                let full = w.finish();
                // Cut short (possibly right after a 0xFF, which then
                // reads as a marker), and cut short before a marker.
                let cut = &full[..usize::from(prefix) % 3];
                let marked = [cut, &[0xFF, 0xD9][..]].concat();
                for data in [&full[..], cut, &marked] {
                    let (mut a, mut b) = (BitReader::new(data), BitReader::new(data));
                    let (got, want) = (lookahead.decode(&mut a), serial.decode(&mut b));
                    assert_eq!(got, want, "spec {n}, stream {data:02x?}");
                    if want.is_ok() {
                        assert_eq!(a.bits(8), b.bits(8), "spec {n}: bits consumed differ");
                    }
                }
            }
        }
    }

    #[test]
    fn from_frequencies_rejects_empty() {
        assert!(HuffmanSpec::from_frequencies(&[0u64; 256]).is_err());
    }

    #[test]
    fn no_code_is_all_ones_at_max_length() {
        // The reserved-symbol trick must keep the all-ones 16-bit code free.
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1 + (255 - i as u64); // broad distribution
        }
        let spec = HuffmanSpec::from_frequencies(&freqs).expect("buildable");
        let enc = HuffmanEncoder::from_spec(&spec).expect("valid");
        for s in 0..=255u8 {
            let len = enc.code_len(s);
            if len > 0 {
                // Reconstruct the code and check it is not all ones of
                // maximum length 16.
                // (all-ones of len<16 is fine; JPEG forbids only the
                // 16-bit all-ones pattern as it would collide with
                // padding.)
                if len == 16 {
                    let mut w = BitWriter::new();
                    enc.encode(&mut w, s);
                    let bytes = w.finish();
                    assert_ne!(&bytes[..2], &[0xFF, 0xFF][..]);
                }
            }
        }
    }
}
