use crate::huffman::{HuffmanDecoder, HuffmanSpec};
use crate::marker::{SegmentReader, DHT, DQT, SOF0, SOS};
use crate::quant::QuantTable;
use crate::stream::{DecodeWorkspace, PixelStrip, StreamDecoder};
use crate::zigzag::unscan;
use crate::{CodecError, RgbImage};

/// Baseline-sequential JPEG decoder for the streams produced by
/// [`Encoder`](crate::Encoder) (8-bit, three components, 4:4:4).
///
/// ```
/// use deepn_codec::{Decoder, Encoder, RgbImage};
///
/// # fn main() -> Result<(), deepn_codec::CodecError> {
/// let img = RgbImage::gradient(24, 24);
/// let bytes = Encoder::with_quality(85).encode(&img)?;
/// let back = Decoder::new().decode(&bytes)?;
/// assert_eq!(back.width(), 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    _private: (),
}

struct FrameComponent {
    quant_id: u8,
    dc_id: u8,
    ac_id: u8,
}

/// One scan component with its tables resolved — what the streaming
/// decoder carries per component. The Huffman tables are indices into
/// [`ScanSetup::decoders`], which components share.
pub(crate) struct ScanComponent {
    pub(crate) quant: QuantTable,
    pub(crate) dc: usize,
    pub(crate) ac: usize,
}

/// Everything the header segments pin down before the entropy-coded scan:
/// frame geometry, per-component tables, and where the scan bytes start.
pub(crate) struct ScanSetup {
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) components: Vec<ScanComponent>,
    /// Every Huffman table the stream defines, each built once.
    pub(crate) decoders: Vec<HuffmanDecoder>,
    pub(crate) scan_start: usize,
}

impl ScanSetup {
    /// Parses the marker segments up to SOS and resolves every component's
    /// tables.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut reader = SegmentReader::new(bytes)?;
        let mut quant: [Option<QuantTable>; 2] = [None, None];
        let mut dc_tables: [Option<HuffmanDecoder>; 2] = [None, None];
        let mut ac_tables: [Option<HuffmanDecoder>; 2] = [None, None];
        let mut size: Option<(usize, usize)> = None;
        let mut components: Vec<FrameComponent> = Vec::new();
        let mut sos_seen = false;

        while let Some(seg) = reader.next_segment()? {
            let payload = &bytes[seg.start..seg.end];
            match seg.marker {
                DQT => Decoder::parse_dqt(payload, &mut quant)?,
                DHT => Decoder::parse_dht(payload, &mut dc_tables, &mut ac_tables)?,
                SOF0 => {
                    let (dims, comps) = Decoder::parse_sof0(payload)?;
                    size = Some(dims);
                    components = comps;
                }
                SOS => {
                    Decoder::parse_sos(payload, &mut components)?;
                    sos_seen = true;
                }
                m if (0xC1..=0xCF).contains(&m) && m != 0xC4 && m != 0xC8 && m != 0xCC => {
                    return Err(CodecError::Unsupported(format!(
                        "non-baseline frame marker {m:#04x}"
                    )));
                }
                _ => {} // APPn / COM: ignore
            }
        }
        if !sos_seen {
            return Err(CodecError::BadMarker("missing SOS".into()));
        }
        let (width, height) = size.ok_or_else(|| CodecError::BadMarker("missing SOF0".into()))?;

        // Move every defined table into one list, once; `slots` maps DC
        // destinations 0–1 and AC destinations 0–1 to positions in it.
        let mut decoders = Vec::with_capacity(4);
        let mut slots = [None; 4];
        for (slot, table) in slots.iter_mut().zip(dc_tables.into_iter().chain(ac_tables)) {
            if let Some(table) = table {
                *slot = Some(decoders.len());
                decoders.push(table);
            }
        }
        let mut resolved = Vec::with_capacity(components.len());
        for c in &components {
            let q = quant[usize::from(c.quant_id)]
                .as_ref()
                .ok_or_else(|| CodecError::BadQuantTable("undefined table referenced".into()))?;
            let dc = slots[usize::from(c.dc_id)]
                .ok_or_else(|| CodecError::BadHuffmanTable("undefined DC table".into()))?;
            let ac = slots[2 + usize::from(c.ac_id)]
                .ok_or_else(|| CodecError::BadHuffmanTable("undefined AC table".into()))?;
            resolved.push(ScanComponent {
                quant: q.clone(),
                dc,
                ac,
            });
        }
        Ok(ScanSetup {
            width,
            height,
            components: resolved,
            decoders,
            scan_start: reader.scan_start(),
        })
    }
}

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Decodes a JFIF byte stream into an RGB image.
    ///
    /// A thin adapter over [`StreamDecoder`]: the stream is consumed strip
    /// by strip through a fresh [`DecodeWorkspace`] and reassembled. Use
    /// [`decode_with`](Self::decode_with) to reuse a workspace across
    /// calls, or [`stream_decoder`](Self::stream_decoder) to consume the
    /// strips directly with O(strip) memory.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] variant: framing problems, truncated data,
    /// unsupported features (progressive, subsampled, 12-bit, or
    /// arithmetic-coded streams), or corrupt entropy data.
    pub fn decode(&self, bytes: &[u8]) -> Result<RgbImage, CodecError> {
        self.decode_with(bytes, &mut DecodeWorkspace::new())
    }

    /// [`decode`](Self::decode) through a caller-owned, reusable
    /// [`DecodeWorkspace`] — no per-block heap allocation once the
    /// workspace is warm.
    ///
    /// The pixel buffer is reserved from the frame size, but never beyond
    /// what the scan can decode to: every block costs at least two bits (a
    /// DC code and an EOB), so an MCU of three blocks and 192 RGB bytes
    /// costs at least six, and one scan byte yields at most 256 RGB bytes.
    /// A forged SOF0 over a short scan therefore ends in a typed error
    /// without a frame-sized allocation, and a valid stream still
    /// allocates its image once.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_with(
        &self,
        bytes: &[u8],
        ws: &mut DecodeWorkspace,
    ) -> Result<RgbImage, CodecError> {
        let mut session = self.stream_decoder(bytes)?;
        let (w, h) = (session.width(), session.height());
        let scan_len = bytes.len() - session.scan_start();
        let mut pixels = Vec::with_capacity((w * h * 3).min(256 * scan_len));
        let mut strip = PixelStrip::new();
        while session.next_strip(ws, &mut strip)? {
            pixels.extend_from_slice(strip.as_bytes());
        }
        RgbImage::from_bytes(w, h, pixels)
    }

    /// Opens a streaming decode session over `bytes`: headers are parsed
    /// eagerly, pixel strips are produced on demand by
    /// [`StreamDecoder::next_strip`].
    ///
    /// # Errors
    ///
    /// Header-stage errors as in [`decode`](Self::decode); entropy-data
    /// errors surface from `next_strip`.
    pub fn stream_decoder<'b>(&self, bytes: &'b [u8]) -> Result<StreamDecoder<'b>, CodecError> {
        StreamDecoder::open(bytes)
    }

    /// Extracts the luma/chroma quantization tables from a stream without
    /// decoding the pixels — used by tests and table-inspection tooling.
    ///
    /// # Errors
    ///
    /// Framing errors as in [`decode`](Self::decode).
    pub fn read_quant_tables(&self, bytes: &[u8]) -> Result<[Option<QuantTable>; 2], CodecError> {
        let mut reader = SegmentReader::new(bytes)?;
        let mut quant: [Option<QuantTable>; 2] = [None, None];
        while let Some(seg) = reader.next_segment()? {
            if seg.marker == DQT {
                Self::parse_dqt(&bytes[seg.start..seg.end], &mut quant)?;
            }
        }
        Ok(quant)
    }

    fn parse_dqt(
        mut payload: &[u8],
        quant: &mut [Option<QuantTable>; 2],
    ) -> Result<(), CodecError> {
        while !payload.is_empty() {
            let pq_tq = payload[0];
            let wide = pq_tq >> 4 == 1;
            let id = usize::from(pq_tq & 0x0F);
            if id > 1 {
                return Err(CodecError::BadQuantTable(format!("table id {id} > 1")));
            }
            let n = if wide { 129 } else { 65 };
            if payload.len() < n {
                return Err(CodecError::UnexpectedEof);
            }
            let mut zz = [0u16; 64];
            for (k, v) in zz.iter_mut().enumerate() {
                *v = if wide {
                    u16::from_be_bytes([payload[1 + 2 * k], payload[2 + 2 * k]])
                } else {
                    u16::from(payload[1 + k])
                };
            }
            let natural = unscan(&zz);
            quant[id] = Some(QuantTable::new(natural)?);
            payload = &payload[n..];
        }
        Ok(())
    }

    fn parse_dht(
        mut payload: &[u8],
        dc: &mut [Option<HuffmanDecoder>; 2],
        ac: &mut [Option<HuffmanDecoder>; 2],
    ) -> Result<(), CodecError> {
        while !payload.is_empty() {
            if payload.len() < 17 {
                return Err(CodecError::UnexpectedEof);
            }
            let class = payload[0] >> 4;
            let dest = usize::from(payload[0] & 0x0F);
            if class > 1 || dest > 1 {
                return Err(CodecError::BadHuffmanTable(format!(
                    "class {class} / destination {dest} out of baseline range"
                )));
            }
            let mut bits = [0u8; 16];
            bits.copy_from_slice(&payload[1..17]);
            let count: usize = bits.iter().map(|&b| usize::from(b)).sum();
            if payload.len() < 17 + count {
                return Err(CodecError::UnexpectedEof);
            }
            let values = payload[17..17 + count].to_vec();
            let spec = HuffmanSpec::new(bits, values)?;
            let table = HuffmanDecoder::from_spec(&spec);
            if class == 0 {
                dc[dest] = Some(table);
            } else {
                ac[dest] = Some(table);
            }
            payload = &payload[17 + count..];
        }
        Ok(())
    }

    fn parse_sof0(payload: &[u8]) -> Result<((usize, usize), Vec<FrameComponent>), CodecError> {
        if payload.len() < 6 {
            return Err(CodecError::UnexpectedEof);
        }
        if payload[0] != 8 {
            return Err(CodecError::Unsupported(format!(
                "{}-bit precision",
                payload[0]
            )));
        }
        let h = usize::from(u16::from_be_bytes([payload[1], payload[2]]));
        let w = usize::from(u16::from_be_bytes([payload[3], payload[4]]));
        if w == 0 || h == 0 {
            return Err(CodecError::InvalidDimensions {
                width: w,
                height: h,
            });
        }
        let ncomp = usize::from(payload[5]);
        if ncomp != 3 {
            return Err(CodecError::Unsupported(format!("{ncomp} components")));
        }
        if payload.len() < 6 + 3 * ncomp {
            return Err(CodecError::UnexpectedEof);
        }
        let mut comps = Vec::with_capacity(ncomp);
        for i in 0..ncomp {
            let sampling = payload[7 + 3 * i];
            if sampling != 0x11 {
                return Err(CodecError::Unsupported(
                    "chroma subsampling (only 4:4:4 is supported)".into(),
                ));
            }
            let quant_id = payload[8 + 3 * i];
            if quant_id > 1 {
                return Err(CodecError::BadQuantTable(format!(
                    "component {i} references table {quant_id} > 1"
                )));
            }
            comps.push(FrameComponent {
                quant_id,
                dc_id: 0,
                ac_id: 0,
            });
        }
        Ok(((w, h), comps))
    }

    fn parse_sos(payload: &[u8], components: &mut [FrameComponent]) -> Result<(), CodecError> {
        if payload.is_empty() || usize::from(payload[0]) != components.len() {
            return Err(CodecError::BadMarker("SOS component count mismatch".into()));
        }
        let n = components.len();
        if payload.len() < 1 + 2 * n + 3 {
            return Err(CodecError::UnexpectedEof);
        }
        for (i, c) in components.iter_mut().enumerate() {
            let tables = payload[2 + 2 * i];
            c.dc_id = tables >> 4;
            c.ac_id = tables & 0x0F;
            if c.dc_id > 1 || c.ac_id > 1 {
                return Err(CodecError::BadHuffmanTable(
                    "SOS references out-of-range table".into(),
                ));
            }
        }
        let (ss, se, ah_al) = (payload[1 + 2 * n], payload[2 + 2 * n], payload[3 + 2 * n]);
        if ss != 0 || se != 63 || ah_al != 0 {
            return Err(CodecError::Unsupported(
                "progressive/partial spectral selection".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{psnr, Encoder, QuantTablePair};

    #[test]
    fn round_trip_quality_ladder() {
        let img = RgbImage::gradient(33, 17);
        for (qf, min_psnr) in [(95u8, 35.0f64), (75, 30.0), (40, 25.0)] {
            let bytes = Encoder::with_quality(qf).encode(&img).expect("encode");
            let back = Decoder::new().decode(&bytes).expect("decode");
            assert_eq!((back.width(), back.height()), (33, 17));
            let p = psnr(&img, &back);
            assert!(p > min_psnr, "qf {qf}: psnr {p}");
        }
    }

    #[test]
    fn standard_huffman_streams_decode_too() {
        let img = RgbImage::gradient(16, 16);
        let bytes = Encoder::with_quality(60)
            .optimize_huffman(false)
            .encode(&img)
            .expect("encode");
        let back = Decoder::new().decode(&bytes).expect("decode");
        assert!(psnr(&img, &back) > 25.0);
    }

    #[test]
    fn wide_quant_tables_round_trip() {
        // Steps > 255 force 16-bit DQT entries.
        let tables = QuantTablePair {
            luma: crate::QuantTable::uniform(300),
            chroma: crate::QuantTable::uniform(300),
        };
        let img = RgbImage::gradient(16, 16);
        let bytes = Encoder::with_tables(tables).encode(&img).expect("encode");
        let back = Decoder::new().decode(&bytes).expect("decode");
        assert_eq!(back.width(), 16);
        let read = Decoder::new().read_quant_tables(&bytes).expect("tables");
        assert_eq!(read[0].as_ref().expect("luma").value(0, 0), 300);
    }

    #[test]
    fn read_quant_tables_returns_encoder_tables() {
        let pair = QuantTablePair::standard(40);
        let bytes = Encoder::with_tables(pair.clone())
            .encode(&RgbImage::gradient(8, 8))
            .expect("encode");
        let read = Decoder::new().read_quant_tables(&bytes).expect("tables");
        assert_eq!(read[0].as_ref().expect("luma"), &pair.luma);
        assert_eq!(read[1].as_ref().expect("chroma"), &pair.chroma);
    }

    #[test]
    fn truncated_stream_errors() {
        let bytes = Encoder::with_quality(75)
            .encode(&RgbImage::gradient(16, 16))
            .expect("encode");
        let cut = &bytes[..bytes.len() / 2];
        assert!(Decoder::new().decode(cut).is_err());
    }

    #[test]
    fn out_of_range_frame_quant_selector_is_a_typed_error() {
        let mut forged = Encoder::with_quality(75)
            .encode(&RgbImage::gradient(7, 9))
            .expect("encode");
        // SOF0: marker (2), length (2), precision (1), height (2), width
        // (2), component count (1), then (id, sampling, Tq) per component.
        let sof0 = forged
            .windows(2)
            .position(|m| m == [0xFF, 0xC0])
            .expect("SOF0 marker");
        assert_eq!(forged[sof0 + 15], 1, "Cb selects the chroma table");
        forged[sof0 + 15] = 2;
        let dec = Decoder::new();
        assert!(matches!(
            dec.decode(&forged),
            Err(CodecError::BadQuantTable(_))
        ));
        assert!(matches!(
            dec.stream_decoder(&forged),
            Err(CodecError::BadQuantTable(_))
        ));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Decoder::new().decode(&[0x00; 64]).is_err());
        assert!(Decoder::new().decode(&[]).is_err());
    }

    #[test]
    fn flat_image_round_trips_exactly() {
        let mut img = RgbImage::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.put(x, y, [120, 130, 140]);
            }
        }
        let bytes = Encoder::with_quality(90).encode(&img).expect("encode");
        let back = Decoder::new().decode(&bytes).expect("decode");
        for y in 0..8 {
            for x in 0..8 {
                let (a, b) = (img.get(x, y), back.get(x, y));
                for c in 0..3 {
                    assert!((i16::from(a[c]) - i16::from(b[c])).abs() <= 2);
                }
            }
        }
    }
}
