#![deny(missing_docs)]
//! # deepn — DeepN-JPEG, a DNN-favorable JPEG-based image compression framework
//!
//! Facade crate for the DAC 2018 paper reproduction. It re-exports the
//! workspace crates so downstream users can depend on a single crate:
//!
//! - [`parallel`] — one-queue data-parallel runtime for the offline paths;
//!   calls made on a pool worker run inline (`DEEPN_THREADS` sizes it; see
//!   `docs/PARALLELISM.md`)
//! - [`tensor`] — minimal NCHW `f32` tensor library
//! - [`nn`] — from-scratch CNN framework and the Mini* model zoo
//! - [`codec`] — baseline-sequential JPEG codec built from scratch
//! - [`dataset`] — seeded procedural labeled image dataset (ImageNet stand-in)
//! - [`power`] — edge-offloading energy/latency model
//! - [`core`] — the DeepN-JPEG contribution: frequency analysis, PLM
//!   quantization-table design, baselines, and the experiment pipeline
//! - [`store`] — versioned, checksummed on-disk artifacts (tables, band
//!   statistics, datasets, trained weights; see `docs/ARTIFACT_FORMAT.md`)
//! - [`serve`] — the long-running TCP compression service (worker pool +
//!   bounded job queue, both wire directions streamed strip-by-strip) and
//!   its persistent, pipelining client (see `docs/PROTOCOL.md`)
//! - [`front`] — sharded multi-process front end: supervises N `serve`
//!   backends, routes connections by consistent hashing with failover,
//!   aggregates fleet-wide metrics (see `docs/SHARDING.md`)
//! - [`trace`] — from-scratch observability substrate: instrument
//!   registry (counters/gauges/latency histograms), spans, Chrome-trace
//!   export, and a Prometheus text parser (see `docs/OBSERVABILITY.md`)
//! - [`lint`] — the workspace invariant analyzer behind `deepn lint`
//!   (safety-ledger, determinism, panic-policy, protocol-sync,
//!   metrics-sync, docs-gate)
//! - [`bench`](mod@bench) — shared helpers for the figure-regeneration benches (see
//!   `EXPERIMENTS.md` for how to rerun each paper figure)
//!
//! The `deepn` binary (`cargo run --bin deepn`) wires these together:
//! `build-table` / `train` persist artifacts, `serve` loads them into the
//! service, `loadgen` drives it and checks every reply against the local
//! codec, and `pipeline` reruns the figure experiment with the
//! decoded-set cache. `EXPERIMENTS.md` walks through
//! the full workflow.
//!
//! ## Quickstart
//!
//! ```
//! use deepn::core::{DeepnTableBuilder, PlmParams};
//! use deepn::codec::{Encoder, QuantTablePair};
//! use deepn::dataset::{DatasetSpec, ImageSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Generate a labeled dataset (stand-in for ImageNet).
//! let set = ImageSet::generate(&DatasetSpec::tiny(), 42);
//!
//! // 2. Run the DeepN-JPEG frequency analysis + PLM table design.
//! let tables: QuantTablePair = DeepnTableBuilder::new(PlmParams::paper())
//!     .sample_interval(3)
//!     .build(set.images())?;
//!
//! // 3. Compress with the DNN-favorable tables.
//! let jpeg = Encoder::with_tables(tables).encode(&set.images()[0])?;
//! assert!(!jpeg.is_empty());
//! # Ok(())
//! # }
//! ```

pub use deepn_bench as bench;
pub use deepn_codec as codec;
pub use deepn_core as core;
pub use deepn_dataset as dataset;
pub use deepn_front as front;
pub use deepn_lint as lint;
pub use deepn_nn as nn;
pub use deepn_parallel as parallel;
pub use deepn_power as power;
pub use deepn_serve as serve;
pub use deepn_store as store;
pub use deepn_tensor as tensor;
pub use deepn_trace as trace;
