//! JFIF marker-segment writing and parsing (the container format).

use crate::CodecError;

/// Start of image.
pub const SOI: u8 = 0xD8;
/// End of image.
pub const EOI: u8 = 0xD9;
/// JFIF application segment 0.
pub const APP0: u8 = 0xE0;
/// Define quantization table(s).
pub const DQT: u8 = 0xDB;
/// Baseline sequential start of frame.
pub const SOF0: u8 = 0xC0;
/// Define Huffman table(s).
pub const DHT: u8 = 0xC4;
/// Start of scan.
pub const SOS: u8 = 0xDA;

/// Appends a bare marker (`FF xx`) with no payload.
pub fn write_marker(out: &mut Vec<u8>, marker: u8) {
    out.push(0xFF);
    out.push(marker);
}

/// Appends a marker segment with a length-prefixed payload, which
/// `payload` writes in place; the length is patched in after it.
///
/// # Panics
///
/// Panics if the payload exceeds the 16-bit segment limit.
pub fn write_segment(out: &mut Vec<u8>, marker: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    write_marker(out, marker);
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    payload(out);
    let len = u16::try_from(out.len() - at).expect("segment payload too large");
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
}

/// The standard 16-byte JFIF 1.01 APP0 payload (no thumbnail, 1:1 aspect).
pub fn jfif_app0_payload() -> [u8; 14] {
    [
        b'J', b'F', b'I', b'F', 0x00, // identifier
        0x01, 0x01, // version 1.01
        0x00, // units: aspect ratio only
        0x00, 0x01, 0x00, 0x01, // 1:1 density
        0x00, 0x00, // no thumbnail
    ]
}

/// A parsed marker segment: the marker code and its payload bounds within
/// the source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Marker code (the byte after `0xFF`).
    pub marker: u8,
    /// Payload start offset in the source buffer.
    pub start: usize,
    /// Payload end offset (exclusive).
    pub end: usize,
}

/// Iterates marker segments from the start of a JPEG byte stream, stopping
/// after SOS (whose entropy-coded data follows unframed).
#[derive(Debug)]
pub struct SegmentReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    seen_sos: bool,
}

impl<'a> SegmentReader<'a> {
    /// Creates a reader and checks the SOI signature.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMarker`] if the stream does not start with SOI.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
        if bytes.len() < 2 || bytes[0] != 0xFF || bytes[1] != SOI {
            return Err(CodecError::BadMarker("missing SOI signature".into()));
        }
        Ok(SegmentReader {
            bytes,
            pos: 2,
            seen_sos: false,
        })
    }

    /// Position of the first entropy-coded byte (valid after SOS was
    /// returned by [`next_segment`](Self::next_segment)).
    pub fn scan_start(&self) -> usize {
        self.pos
    }

    /// Reads the next marker segment.
    ///
    /// Returns `Ok(None)` at EOI. After returning the SOS segment the
    /// iterator stops (use [`scan_start`](Self::scan_start) to locate the
    /// entropy-coded data).
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] on truncation,
    /// [`CodecError::BadMarker`] on framing violations.
    pub fn next_segment(&mut self) -> Result<Option<Segment>, CodecError> {
        if self.seen_sos {
            return Ok(None);
        }
        // Skip fill bytes (0xFF padding before a marker is legal).
        while self.pos + 1 < self.bytes.len()
            && self.bytes[self.pos] == 0xFF
            && self.bytes[self.pos + 1] == 0xFF
        {
            self.pos += 1;
        }
        if self.pos + 2 > self.bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        if self.bytes[self.pos] != 0xFF {
            return Err(CodecError::BadMarker(format!(
                "expected marker at offset {}, found {:#04x}",
                self.pos, self.bytes[self.pos]
            )));
        }
        let marker = self.bytes[self.pos + 1];
        self.pos += 2;
        if marker == EOI {
            return Ok(None);
        }
        if marker == SOI {
            return Err(CodecError::BadMarker("nested SOI".into()));
        }
        if self.pos + 2 > self.bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let len = usize::from(u16::from_be_bytes([
            self.bytes[self.pos],
            self.bytes[self.pos + 1],
        ]));
        if len < 2 || self.pos + len > self.bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let seg = Segment {
            marker,
            start: self.pos + 2,
            end: self.pos + len,
        };
        self.pos += len;
        if marker == SOS {
            self.seen_sos = true;
        }
        Ok(Some(seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_round_trip() {
        let mut out = Vec::new();
        write_marker(&mut out, SOI);
        write_segment(&mut out, APP0, |o| {
            o.extend_from_slice(&jfif_app0_payload())
        });
        write_segment(&mut out, DQT, |o| o.extend_from_slice(&[0x00, 1, 2, 3]));
        write_segment(&mut out, SOS, |o| o.push(0x01));
        out.extend_from_slice(&[0xAA, 0xBB]); // entropy data
        write_marker(&mut out, EOI);

        let mut r = SegmentReader::new(&out).expect("valid SOI");
        let s1 = r.next_segment().expect("ok").expect("segment");
        assert_eq!(s1.marker, APP0);
        assert_eq!(&out[s1.start..s1.start + 4], b"JFIF");
        let s2 = r.next_segment().expect("ok").expect("segment");
        assert_eq!(s2.marker, DQT);
        assert_eq!(&out[s2.start..s2.end], &[0x00, 1, 2, 3]);
        let s3 = r.next_segment().expect("ok").expect("segment");
        assert_eq!(s3.marker, SOS);
        assert_eq!(out[r.scan_start()], 0xAA);
        assert_eq!(r.next_segment().expect("ok"), None);
    }

    #[test]
    fn rejects_missing_soi() {
        assert!(SegmentReader::new(&[0x00, 0x01]).is_err());
        assert!(SegmentReader::new(&[]).is_err());
    }

    #[test]
    fn rejects_truncated_segment() {
        let mut out = Vec::new();
        write_marker(&mut out, SOI);
        out.extend_from_slice(&[0xFF, DQT, 0x00, 0x50]); // claims 0x50 bytes
        let mut r = SegmentReader::new(&out).expect("valid SOI");
        assert!(matches!(r.next_segment(), Err(CodecError::UnexpectedEof)));
    }

    #[test]
    fn eoi_terminates() {
        let mut out = Vec::new();
        write_marker(&mut out, SOI);
        write_marker(&mut out, EOI);
        let mut r = SegmentReader::new(&out).expect("valid SOI");
        assert_eq!(r.next_segment().expect("ok"), None);
    }
}
