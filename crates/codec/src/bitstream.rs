//! MSB-first bit I/O with JPEG 0xFF byte stuffing.

use crate::CodecError;

/// Writes bits MSB-first into a byte buffer, inserting a `0x00` stuff byte
/// after every `0xFF` so entropy-coded data never forges a marker.
///
/// Bits collect in a 64-bit accumulator and leave it as whole 32-bit
/// words, with one test per word for a `0xFF` byte; only a word that holds
/// one goes out byte by byte.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: the low `nbits` bits are not yet in
    /// `bytes` (bits above them are stale).
    acc: u64,
    /// Pending bit count, below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `count` bits of `bits`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 16`.
    pub fn put(&mut self, bits: u16, count: u32) {
        assert!(count <= 16, "at most 16 bits per call");
        self.put_bits(u32::from(bits) & ((1 << count) - 1), count);
    }

    /// Appends `count <= 32` bits, most significant first; `bits` must
    /// have no bit set at or above `count`. An entropy token's Huffman
    /// code and mantissa (at most 16 + 11 bits) go out in one call.
    #[inline(always)]
    pub(crate) fn put_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32 && u64::from(bits) >> count == 0);
        self.acc = (self.acc << count) | u64::from(bits);
        self.nbits += count;
        if self.nbits >= 32 {
            self.nbits -= 32;
            self.store_word((self.acc >> self.nbits) as u32);
        }
    }

    /// Stores four complete bytes, stuffing any `0xFF` among them.
    #[inline(always)]
    fn store_word(&mut self, word: u32) {
        // `!word` has a zero byte exactly where `word` has 0xFF; the
        // classic zero-byte test is exact as a yes/no answer.
        let inv = !word;
        if inv.wrapping_sub(0x0101_0101) & !inv & 0x8080_8080 == 0 {
            self.bytes.extend_from_slice(&word.to_be_bytes());
        } else {
            for byte in word.to_be_bytes() {
                self.push_byte(byte);
            }
        }
    }

    fn push_byte(&mut self, byte: u8) {
        self.bytes.push(byte);
        if byte == 0xFF {
            self.bytes.push(0x00);
        }
    }

    /// Moves every complete pending byte into `bytes`.
    fn flush_bytes(&mut self) {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.push_byte((self.acc >> self.nbits) as u8);
        }
    }

    /// Pads the final partial byte with 1-bits (the JPEG convention) and
    /// returns the stuffed byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        let pad = (8 - self.nbits % 8) % 8;
        self.put_bits((1 << pad) - 1, pad);
        self.flush_bytes();
        self.bytes
    }

    /// Takes the complete bytes emitted so far, leaving any partial byte
    /// pending — the streaming drain used by
    /// [`StreamEncoder`](crate::StreamEncoder) to emit scan bytes strip by
    /// strip. Concatenating every drained piece with the final
    /// [`finish`](Self::finish) reproduces the one-shot byte stream
    /// exactly.
    pub fn take_completed(&mut self) -> Vec<u8> {
        self.flush_bytes();
        std::mem::take(&mut self.bytes)
    }
}

/// Reads bits MSB-first from a stuffed byte stream, transparently removing
/// `0xFF 0x00` stuffing and stopping at any real marker (`0xFF xx`).
///
/// A 64-bit buffer is refilled a byte at a time whenever a read needs more
/// bits than it holds. The refill stops exactly where the bit-serial reader
/// did: before a `0xFF` not followed by `0x00` (a marker ends the scan),
/// and at the end of the data; a read past that point fails.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Buffered bits, right-aligned: the low `nbits` bits are unread.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over entropy-coded bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the buffer up to at least 56 bits (at most 63), unstuffing as
    /// it goes, unless a marker or the end of the data comes first.
    #[inline(never)]
    fn refill(&mut self) {
        while self.nbits < 56 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return;
            };
            if b == 0xFF {
                if self.bytes.get(self.pos + 1) != Some(&0x00) {
                    // A real marker: JPEG decoders treat this as end of scan.
                    return;
                }
                self.pos += 2;
            } else {
                self.pos += 1;
            }
            self.acc = (self.acc << 8) | u64::from(b);
            self.nbits += 8;
        }
    }

    /// The number of buffered bits after making sure at least `count` are
    /// buffered if the data holds them (`count <= 56`); fewer means the
    /// scan ends first.
    #[inline(always)]
    pub(crate) fn fill(&mut self, count: u32) -> u32 {
        if self.nbits < count {
            self.refill();
        }
        self.nbits
    }

    /// The next `count` buffered bits without consuming them; `count` must
    /// not exceed what [`fill`](Self::fill) returned.
    #[inline(always)]
    pub(crate) fn peek(&self, count: u32) -> u32 {
        debug_assert!(count <= self.nbits && count <= 32);
        ((self.acc >> (self.nbits - count)) & ((1 << count) - 1)) as u32
    }

    /// Consumes `count` buffered bits.
    #[inline(always)]
    pub(crate) fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.nbits);
        self.nbits -= count;
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at end of data or on a marker.
    pub fn bit(&mut self) -> Result<u8, CodecError> {
        self.bits(1).map(|b| b as u8)
    }

    /// Reads `count` bits MSB-first (`count <= 16`) in one step.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the stream runs out.
    ///
    /// # Panics
    ///
    /// Panics if `count > 16`.
    #[inline(always)]
    pub fn bits(&mut self, count: u32) -> Result<u16, CodecError> {
        assert!(count <= 16, "at most 16 bits per call");
        if self.fill(count) < count {
            return Err(CodecError::UnexpectedEof);
        }
        let v = self.peek(count) as u16;
        self.consume(count);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial writer the word writer replaced: one byte out per
    /// eight bits in. The oracle for [`BitWriter`].
    #[derive(Default)]
    struct SerialWriter {
        bytes: Vec<u8>,
        acc: u32,
        nbits: u32,
    }

    impl SerialWriter {
        fn put(&mut self, bits: u16, count: u32) {
            if count == 0 {
                return;
            }
            self.acc = (self.acc << count)
                | u32::from(bits & ((1u16 << (count - 1) << 1).wrapping_sub(1)));
            self.nbits += count;
            while self.nbits >= 8 {
                let byte = ((self.acc >> (self.nbits - 8)) & 0xFF) as u8;
                self.bytes.push(byte);
                if byte == 0xFF {
                    self.bytes.push(0x00);
                }
                self.nbits -= 8;
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                let pad = 8 - self.nbits;
                self.put((1u16 << pad) - 1, pad);
            }
            self.bytes
        }
    }

    /// The bit-serial reader the buffered reader replaced. The oracle for
    /// [`BitReader`].
    struct SerialReader<'a> {
        bytes: &'a [u8],
        pos: usize,
        acc: u32,
        nbits: u32,
    }

    impl SerialReader<'_> {
        fn bit(&mut self) -> Result<u8, CodecError> {
            if self.nbits == 0 {
                let b = *self.bytes.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
                self.pos += 1;
                if b == 0xFF {
                    if self.bytes.get(self.pos) != Some(&0x00) {
                        self.pos -= 1;
                        return Err(CodecError::UnexpectedEof);
                    }
                    self.pos += 1;
                }
                self.acc = (self.acc << 8) | u32::from(b);
                self.nbits += 8;
            }
            self.nbits -= 1;
            Ok(((self.acc >> self.nbits) & 1) as u8)
        }

        fn bits(&mut self, count: u32) -> Result<u16, CodecError> {
            let mut v = 0;
            for _ in 0..count {
                v = (v << 1) | u16::from(self.bit()?);
            }
            Ok(v)
        }
    }

    /// SplitMix64, for the seeded sequences below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random `(bits, count)` put, heavy in runs of 1-bits so that many
    /// output bytes are 0xFF and need stuffing.
    fn random_put(rng: &mut u64) -> (u16, u32) {
        let r = splitmix(rng);
        let count = (r % 17) as u32;
        let bits = match (r >> 8) % 4 {
            0 | 1 => u16::MAX,
            2 => (r >> 16) as u16 | 0xF0F0,
            _ => (r >> 16) as u16,
        };
        (bits, count)
    }

    #[test]
    fn word_writer_matches_the_serial_writer() {
        let mut rng = 0xB175_u64;
        for case in 0..2_000 {
            let (mut word, mut serial) = (BitWriter::new(), SerialWriter::default());
            let mut streamed = Vec::new();
            for _ in 0..splitmix(&mut rng) % 200 {
                let (bits, count) = random_put(&mut rng);
                word.put(bits, count);
                serial.put(bits, count);
                if splitmix(&mut rng).is_multiple_of(8) {
                    streamed.extend(word.take_completed());
                }
            }
            streamed.extend(word.finish());
            assert_eq!(streamed, serial.finish(), "case {case}");
        }
    }

    #[test]
    fn token_puts_of_up_to_27_bits_match_two_puts() {
        let mut rng = 0x70C_u64;
        let (mut one, mut two) = (BitWriter::new(), BitWriter::new());
        for _ in 0..10_000 {
            let code_len = 1 + (splitmix(&mut rng) % 16) as u32;
            let mantissa_len = (splitmix(&mut rng) % 12) as u32;
            let code = splitmix(&mut rng) as u32 & ((1 << code_len) - 1);
            let mantissa = splitmix(&mut rng) as u32 & ((1 << mantissa_len) - 1);
            one.put_bits((code << mantissa_len) | mantissa, code_len + mantissa_len);
            two.put(code as u16, code_len);
            two.put(mantissa as u16, mantissa_len);
        }
        assert_eq!(one.finish(), two.finish());
    }

    #[test]
    fn buffered_reader_matches_the_serial_reader() {
        let mut rng = 0x4EAD_u64;
        for case in 0..2_000 {
            // Stuffed data, possibly cut short, possibly ending at a
            // marker or at a lone 0xFF.
            let mut w = BitWriter::new();
            for _ in 0..splitmix(&mut rng) % 60 {
                let (bits, count) = random_put(&mut rng);
                w.put(bits, count);
            }
            let mut data = w.finish();
            data.truncate(data.len() - (splitmix(&mut rng) % 3) as usize % (data.len() + 1));
            match case % 4 {
                1 => data.extend([0xFF, 0xD9]),
                2 => data.push(0xFF),
                _ => {}
            }
            let (mut buffered, mut serial) = (
                BitReader::new(&data),
                SerialReader {
                    bytes: &data,
                    pos: 0,
                    acc: 0,
                    nbits: 0,
                },
            );
            loop {
                let count = (splitmix(&mut rng) % 17) as u32;
                let (got, want) = (buffered.bits(count), serial.bits(count));
                assert_eq!(got, want, "case {case}, {count} bits of {data:02x?}");
                if want.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0b1u16, 1u32),
            (0b1010, 4),
            (0x3FF, 10),
            (0xFFFF, 16),
            (0, 3),
        ];
        for &(v, n) in &values {
            w.put(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.bits(n).expect("enough bits"), v);
        }
    }

    #[test]
    fn ff_bytes_are_stuffed() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        w.put(0xFF, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00, 0xFF, 0x00]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8).expect("bits"), 0xFF);
        assert_eq!(r.bits(8).expect("bits"), 0xFF);
    }

    #[test]
    fn take_completed_drains_without_losing_partial_bits() {
        let mut streamed = Vec::new();
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        streamed.extend(w.take_completed()); // nothing complete yet
        w.put(0xAB, 8);
        streamed.extend(w.take_completed()); // one complete byte
        w.put(0x3F, 6);
        streamed.extend(w.finish());

        let mut oneshot = BitWriter::new();
        oneshot.put(0b101, 3);
        oneshot.put(0xAB, 8);
        oneshot.put(0x3F, 6);
        assert_eq!(streamed, oneshot.finish());
    }

    #[test]
    fn final_byte_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b0, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0111_1111]);
    }

    #[test]
    fn reader_stops_at_marker() {
        let bytes = [0xAB, 0xFF, 0xD9]; // data then EOI
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8).expect("bits"), 0xAB);
        assert!(matches!(r.bits(8), Err(CodecError::UnexpectedEof)));
        assert!(matches!(r.bit(), Err(CodecError::UnexpectedEof)));
        assert_eq!(r.bits(0).expect("no bits"), 0);
    }

    #[test]
    fn eof_is_reported() {
        let mut r = BitReader::new(&[]);
        assert!(matches!(r.bit(), Err(CodecError::UnexpectedEof)));
    }
}
