//! # deepn-serve
//!
//! A long-running, multi-threaded DeepN-JPEG compression service. The
//! server loads its quantization tables (and optionally a trained model)
//! from `deepn-store` artifacts at startup — nothing is recomputed per
//! process — and serves batch encode/decode/classify requests over a
//! length-prefixed localhost TCP protocol.
//!
//! Architecture: an acceptor thread hands each connection to a lightweight
//! reader thread, which admits the connection's requests into a bounded
//! in-flight window — one request at a time on a v1 connection, so its
//! replies leave in arrival order, and up to 16 under tagged framing.
//! Each batch request becomes one job on a **bounded** queue drained by a
//! fixed worker pool (one worker per core; each image runs on the worker
//! that took its request), so an overloaded service applies
//! backpressure (submission waits) instead of growing without bound, and
//! a per-connection writer thread delivers the pooled replies. Small
//! requests on an otherwise idle connection run inline on the reader.
//!
//! Both wire directions stream: `CompressStream` feeds pixels to the
//! service one 8-row strip frame at a time, and `DecompressStream` frames
//! decoded strips back the same way, so neither side ever materializes a
//! whole image for the streamed ops. Request/response ops can additionally
//! be **pipelined** ([`Client::pipeline`]): a bounded window of requests
//! in flight on one connection, with ordered replies and reconnect+replay
//! of the whole unacknowledged window. `docs/PROTOCOL.md` is the complete
//! wire specification.
//!
//! ```no_run
//! use deepn_codec::QuantTablePair;
//! use deepn_serve::{Client, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind("127.0.0.1:0", QuantTablePair::standard(75), None,
//!                           ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn();
//! let mut client = Client::connect(addr)?;
//! client.ping()?;
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod client;
pub mod loadgen;
mod metrics;
pub mod protocol;
mod server;

pub use client::{Client, Pipeline, PipelineReply, StreamCompression, StreamDecompression};
pub use server::{Server, ServerConfig, ServerHandle, StatsSnapshot};

use std::error::Error;
use std::fmt;
use std::io;

/// Errors from the compression service or its client.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer violated the wire protocol (bad opcode, truncated or
    /// oversized payload, ...).
    Protocol(String),
    /// The service reported a failure while handling the request.
    Remote(String),
    /// The service rejected the connection because it is at its configured
    /// connection limit — a typed signal to back off and reconnect, not a
    /// failure of the request itself.
    Busy(String),
    /// The request exceeded the service's per-request time budget and was
    /// rejected with a typed frame instead of being silently dropped.
    Timeout(String),
    /// Loading a startup artifact failed.
    Store(deepn_store::StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "service io error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ServeError::Remote(m) => write!(f, "service-side failure: {m}"),
            ServeError::Busy(m) => write!(f, "service over capacity: {m}"),
            ServeError::Timeout(m) => write!(f, "request deadline exceeded: {m}"),
            ServeError::Store(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<deepn_store::StoreError> for ServeError {
    fn from(e: deepn_store::StoreError) -> Self {
        // Truncation inside a protocol payload is a peer fault, not a
        // filesystem one.
        match e {
            deepn_store::StoreError::Io(io) => ServeError::Io(io),
            other => ServeError::Protocol(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_traits<T: Send + Sync + Error>() {}
        assert_traits::<ServeError>();
        assert!(ServeError::Protocol("x".into()).to_string().contains("x"));
    }
}
