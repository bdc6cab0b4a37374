//! The service's instrument set, built on a per-server `deepn-trace`
//! [`Registry`](deepn_trace::Registry).
//!
//! Per-server (not process-global) because tests spawn several servers in
//! one process and assert exact per-server counter values; the `Metrics`
//! scrape appends the process-global registry (pool and codec
//! instruments) after the server's own.
//!
//! The counter array below is the **single source of truth** for the
//! `Stats` wire payload: [`ServeMetrics::wire_counters`] reads it in
//! declaration order, which is the frozen wire order of
//! `docs/PROTOCOL.md` — append new counters at the end, never reorder.

use crate::server::ServerConfig;
use deepn_trace::{Counter, Gauge, Histogram};
use std::sync::Arc;

/// Index into the service's counter array — one variant per `Stats` wire
/// field, in wire order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ctr {
    /// Requests handled (all opcodes).
    Requests = 0,
    /// Images compressed.
    ImagesEncoded,
    /// Streams decompressed.
    ImagesDecoded,
    /// Images classified.
    ImagesClassified,
    /// Connections rejected with a typed busy frame.
    ConnectionsRejected,
    /// Requests rejected with a typed timeout frame.
    RequestsTimedOut,
    /// Request-frame bytes received.
    BytesIn,
    /// Reply-frame bytes sent.
    BytesOut,
    /// Connections that negotiated tagged framing (protocol v2).
    TaggedConnections,
    /// Requests executed under tagged framing.
    TaggedRequests,
}

/// Number of wire counters in the fixed `Stats` payload *prefix* — the
/// first eight `u64`s, frozen since the payload was specified. Counters
/// added later ([`Ctr::TaggedConnections`] onward) travel as **trailing**
/// `Stats` fields instead, because inserting them here would shift every
/// field after the prefix and break old clients.
pub(crate) const WIRE_COUNTERS: usize = 8;

/// Total counters, prefix plus trailing.
pub(crate) const COUNTERS: usize = 10;

/// One server's instruments: wire counters, config gauges, and the
/// request-phase latency histograms. Histograms are always live — they
/// are the service's metrics, not a debug mode; spans are the part gated
/// on tracing.
pub(crate) struct ServeMetrics {
    registry: deepn_trace::Registry,
    counters: [Arc<Counter>; COUNTERS],
    active_connections: Arc<Gauge>,
    /// High-water mark of completed-but-unwritten pool replies queued for
    /// any one connection's writer thread (updated with `set_max`).
    pub(crate) reply_buffer_high_water: Arc<Gauge>,
    /// Whole-request wall time, read-to-reply, per request.
    pub(crate) request_seconds: Arc<Histogram>,
    /// Time a request job spent queued before a worker dequeued it.
    pub(crate) queue_wait_seconds: Arc<Histogram>,
    /// Execution time per request job.
    pub(crate) execute_seconds: Arc<Histogram>,
    /// Time writing one reply frame to the socket.
    pub(crate) reply_write_seconds: Arc<Histogram>,
    /// Time a completed reply waited for its write to start, the wait for
    /// the connection's write lock included.
    pub(crate) reply_wait_seconds: Arc<Histogram>,
}

impl ServeMetrics {
    /// Registers every instrument and pins the config gauges.
    pub(crate) fn new(config: &ServerConfig) -> ServeMetrics {
        let r = deepn_trace::Registry::new();
        // Stats wire order — append-only, never reorder (docs/PROTOCOL.md).
        let counters = [
            r.counter(
                "deepn_serve_requests_total",
                "Requests handled, all opcodes.",
            ),
            r.counter(
                "deepn_serve_images_encoded_total",
                "Images compressed (batch and streamed).",
            ),
            r.counter(
                "deepn_serve_images_decoded_total",
                "Compressed streams decoded.",
            ),
            r.counter("deepn_serve_images_classified_total", "Images classified."),
            r.counter(
                "deepn_serve_connections_rejected_total",
                "Connections rejected with a typed busy frame.",
            ),
            r.counter(
                "deepn_serve_requests_timed_out_total",
                "Requests rejected with a typed timeout frame.",
            ),
            r.counter(
                "deepn_serve_bytes_in_total",
                "Request-frame bytes received.",
            ),
            r.counter("deepn_serve_bytes_out_total", "Reply-frame bytes sent."),
            r.counter(
                "deepn_serve_tagged_connections_total",
                "Connections that negotiated tagged framing (protocol v2).",
            ),
            r.counter(
                "deepn_serve_tagged_requests_total",
                "Requests executed under tagged framing.",
            ),
        ];
        let active_connections = r.gauge(
            "deepn_serve_active_connections",
            "Connections currently being served.",
        );
        let workers = r.gauge("deepn_serve_workers", "Configured worker count.");
        let queue_depth = r.gauge("deepn_serve_queue_depth", "Configured job-queue bound.");
        let max_connections = r.gauge(
            "deepn_serve_max_connections",
            "Configured connection limit.",
        );
        workers.set(config.workers as u64);
        queue_depth.set(config.queue_depth as u64);
        max_connections.set(config.max_connections as u64);
        let request_seconds = r.histogram(
            "deepn_serve_request_seconds",
            "Whole-request latency, frame read to reply written.",
        );
        let queue_wait_seconds = r.histogram(
            "deepn_serve_queue_wait_seconds",
            "Time request jobs spent queued before a worker picked them up (near zero when run inline on the reader).",
        );
        let execute_seconds = r.histogram(
            "deepn_serve_execute_seconds",
            "Execution time per request job, on a pool worker or inline on the reader.",
        );
        let reply_write_seconds = r.histogram(
            "deepn_serve_reply_write_seconds",
            "Time writing one reply frame to the socket.",
        );
        let reply_buffer_high_water = r.gauge(
            "deepn_serve_reply_buffer_high_water",
            "High-water mark of completed pool replies queued for one connection's writer thread.",
        );
        let reply_wait_seconds = r.histogram(
            "deepn_serve_reply_wait_seconds",
            "Time a completed reply waited for its write to start, including the wait for the connection's write lock (pooled replies also wait for the writer thread).",
        );
        ServeMetrics {
            registry: r,
            counters,
            active_connections,
            reply_buffer_high_water,
            request_seconds,
            queue_wait_seconds,
            execute_seconds,
            reply_write_seconds,
            reply_wait_seconds,
        }
    }

    /// Adds one to a wire counter.
    pub(crate) fn inc(&self, c: Ctr) {
        self.counters[c as usize].inc();
    }

    /// Adds `n` to a wire counter.
    pub(crate) fn add(&self, c: Ctr, n: u64) {
        self.counters[c as usize].add(n);
    }

    /// Reads one wire counter.
    pub(crate) fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize].get()
    }

    /// The first eight wire counters in the frozen `Stats` payload-prefix
    /// order. Later counters are appended to `Stats` as trailing fields
    /// by the dispatcher ([`Ctr::TaggedConnections`] onward).
    pub(crate) fn wire_counters(&self) -> [u64; WIRE_COUNTERS] {
        std::array::from_fn(|i| self.counters[i].get())
    }

    /// Renders this server's instruments followed by the process-global
    /// registry (pool and codec instruments), in the Prometheus text
    /// format. `active` is the live connection count at scrape time.
    pub(crate) fn render(&self, active: u64) -> String {
        self.active_connections.set(active);
        let mut out = self.registry.render();
        out.push_str(&deepn_trace::global().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counters_follow_declaration_order() {
        let m = ServeMetrics::new(&ServerConfig::default());
        m.inc(Ctr::Requests);
        m.add(Ctr::BytesOut, 42);
        let wire = m.wire_counters();
        assert_eq!(wire[Ctr::Requests as usize], 1);
        assert_eq!(wire[Ctr::BytesOut as usize], 42);
        assert_eq!(wire[Ctr::ImagesEncoded as usize], 0);
        // Tagged counters live past the frozen prefix: readable via
        // `get`, never part of the eight-counter wire prefix.
        m.inc(Ctr::TaggedRequests);
        assert!(Ctr::TaggedRequests as usize >= WIRE_COUNTERS);
        assert_eq!(m.get(Ctr::TaggedRequests), 1);
        assert_eq!(m.get(Ctr::TaggedConnections), 0);
    }

    #[test]
    fn render_is_valid_prometheus_and_separate_per_server() {
        let a = ServeMetrics::new(&ServerConfig::default());
        let b = ServeMetrics::new(&ServerConfig::default());
        a.inc(Ctr::Requests);
        a.request_seconds.record_ns(1_000_000);
        let text = a.render(3);
        deepn_trace::prom::validate(&text).expect("scrape validates");
        assert!(text.contains("deepn_serve_requests_total 1"));
        assert!(text.contains("deepn_serve_active_connections 3"));
        assert!(text.contains("deepn_serve_request_seconds_count 1"));
        // A sibling server's registry is untouched.
        assert!(b.render(0).contains("deepn_serve_requests_total 0"));
    }
}
