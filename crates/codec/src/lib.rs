//! # deepn-codec
//!
//! A baseline-sequential JPEG codec written from scratch, serving as the
//! compression substrate of the
//! [DeepN-JPEG](https://arxiv.org/abs/1803.05788) reproduction.
//!
//! The paper builds its framework by "heavily modifying the open source
//! JPEG framework"; this crate is that framework, with every stage exposed
//! so the quantization table — the component DeepN-JPEG redesigns — can be
//! swapped freely:
//!
//! 1. RGB → YCbCr color transform ([`color`])
//! 2. 8×8 block partition with edge replication, fused with step 1
//!    ([`stream::blockize_strip`], [`block`])
//! 3. 2-D DCT-II per block ([`dct`])
//! 4. quantization with arbitrary tables + IJG quality scaling ([`quant`])
//! 5. zig-zag reordering ([`zigzag`])
//! 6. DPCM-coded DC / run-length-coded AC coefficients ([`coeffs`])
//! 7. canonical Huffman entropy coding, with both the Annex K standard
//!    tables and per-image optimized tables ([`huffman`])
//! 8. a JFIF-style marker container (SOI/APP0/DQT/SOF0/DHT/SOS/EOI) with
//!    0xFF byte stuffing ([`marker`], [`bitstream`])
//!
//! The [`Encoder`]/[`Decoder`] pair round-trips any [`RgbImage`]; 4:4:4
//! (no chroma subsampling) is used throughout, matching the paper's scope.
//!
//! Both directions are thin adapters over the streaming stage pipeline
//! ([`stream`]): [`StreamEncoder`]/[`StreamDecoder`] process 8-pixel-high
//! block strips through reusable [`EncodeWorkspace`]/[`DecodeWorkspace`]
//! buffers, so arbitrarily large images compress in O(strip) pixel memory
//! with no per-block allocation; an optimized-Huffman encode also keeps the
//! image's entropy tokens between its two passes, so each image is
//! transformed once (see `docs/CODEC_PIPELINE.md`). While tracing is on,
//! the [`profile`] seam times every stage loop of a session, per strip,
//! without the codec ever reading a clock itself (`deepn pipeline
//! --profile` prints the table; a traced `deepn serve` scrape carries the
//! histograms). Timed and untimed sessions run the same loops, so output
//! bytes never change.
//!
//! ## Example
//!
//! ```
//! use deepn_codec::{Decoder, Encoder, QuantTablePair, RgbImage};
//!
//! # fn main() -> Result<(), deepn_codec::CodecError> {
//! let img = RgbImage::gradient(32, 32);
//! let bytes = Encoder::with_tables(QuantTablePair::standard(90)).encode(&img)?;
//! let back = Decoder::new().decode(&bytes)?;
//! assert_eq!((back.width(), back.height()), (32, 32));
//! assert!(deepn_codec::psnr(&img, &back) > 30.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod bitstream;
pub mod block;
pub mod coeffs;
pub mod color;
pub mod dct;
mod decoder;
mod encoder;
mod error;
pub mod huffman;
mod image;
pub mod marker;
mod metrics;
pub mod ppm;
pub mod profile;
pub mod quant;
pub mod stream;
pub mod zigzag;

pub use decoder::Decoder;
pub use encoder::{CoefficientPlanes, Encoder};
pub use error::CodecError;
pub use image::RgbImage;
pub use metrics::{compression_ratio, mse, psnr, CompressionStats};
pub use quant::{QuantTable, QuantTablePair};
pub use stream::{
    DecodeWorkspace, EncodeWorkspace, PixelStrip, StreamDecoder, StreamEncoder, STRIP_ROWS,
};
