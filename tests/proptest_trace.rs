//! Tracing-parity property tests: instrumentation must never change a
//! byte of output. Encode, decode, and the serve wire protocol are run
//! with tracing (spans and codec stage timers) fully enabled and fully
//! disabled and compared byte-for-byte (CI runs this suite at
//! `DEEPN_THREADS=1` and `4`; `run_sequential` compares the inline
//! executor in-process too).
//! The histogram bucket ladder and the Prometheus renderer get their own
//! property checks at the bottom.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use deepn::codec::{Decoder, Encoder, QuantTablePair, RgbImage};
use deepn::parallel::run_sequential;
use deepn::serve::{Client, Server, ServerConfig};
use deepn::trace::{
    set_enabled, snapshot_spans, Histogram, HistogramSnapshot, Registry, BUCKET_BOUNDS_NS,
};
use proptest::prelude::*;

/// Tracing is a process-global switch, so every test that toggles it
/// holds this lock for its whole body.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` twice — tracing off, then on — and returns both results.
/// Always leaves tracing disabled afterwards.
fn with_tracing_off_then_on<T>(mut f: impl FnMut() -> T) -> (T, T) {
    set_enabled(false);
    let plain = f();
    set_enabled(true);
    let traced = f();
    set_enabled(false);
    (plain, traced)
}

fn arb_image(max_side: usize) -> impl Strategy<Value = RgbImage> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h * 3)
            .prop_map(move |data| RgbImage::from_bytes(w, h, data).expect("sized buffer"))
    })
}

/// A `Vec<u64>` whose length itself is drawn from `lens` (the vendored
/// proptest's `collection::vec` takes a fixed length only).
fn arb_ns_values(lens: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    lens.prop_flat_map(|n| proptest::collection::vec(any::<u64>(), n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encode_is_byte_identical_with_tracing_on(
        img in arb_image(40),
        qf in 1u8..=100,
        optimize in any::<bool>(),
    ) {
        let _guard = trace_lock();
        let enc = Encoder::with_quality(qf).optimize_huffman(optimize);
        let (plain, traced) = with_tracing_off_then_on(|| enc.encode(&img).expect("encode"));
        prop_assert_eq!(&plain, &traced);
        // The inline executor down the same instrumented path agrees too.
        set_enabled(true);
        let scalar = run_sequential(|| enc.encode(&img).expect("encode"));
        set_enabled(false);
        prop_assert_eq!(plain, scalar);
    }

    #[test]
    fn decode_is_byte_identical_with_tracing_on(img in arb_image(40), qf in 1u8..=100) {
        let _guard = trace_lock();
        let bytes = Encoder::with_quality(qf).encode(&img).expect("encode");
        let dec = Decoder::new();
        let (plain, traced) = with_tracing_off_then_on(|| dec.decode(&bytes).expect("decode"));
        prop_assert_eq!(plain.as_bytes(), traced.as_bytes());
    }

    #[test]
    fn histogram_buckets_partition_the_ladder(values in arb_ns_values(1..200)) {
        let h = Histogram::new();
        for &v in &values {
            // The chosen bucket's bound covers the value and the previous
            // bound does not: the ladder partitions [0, +Inf) exactly.
            let i = Histogram::bucket_index(v);
            if i < BUCKET_BOUNDS_NS.len() {
                prop_assert!(v <= BUCKET_BOUNDS_NS[i]);
            }
            if i > 0 {
                prop_assert!(v > BUCKET_BOUNDS_NS[i - 1]);
            }
            h.record_ns(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), values.len() as u64);
        let sum: u64 = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(snap.sum_ns, sum);
        prop_assert_eq!(snap.max_ns, *values.iter().max().expect("non-empty"));
        // Quantiles are monotone in q, bounded by the exact maximum, and
        // q = 1 is exact.
        let (p50, p90, p99) = (
            snap.quantile_ns(0.50),
            snap.quantile_ns(0.90),
            snap.quantile_ns(0.99),
        );
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert!(p99 <= snap.max_ns as f64);
        prop_assert_eq!(snap.quantile_ns(1.0), snap.max_ns as f64);
    }

    #[test]
    fn snapshot_merge_equals_recording_into_one_histogram(
        a in arb_ns_values(0..100),
        b in arb_ns_values(0..100),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record_ns(v);
            hall.record_ns(v);
        }
        for &v in &b {
            hb.record_ns(v);
            hall.record_ns(v);
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&ha.snapshot());
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }

    #[test]
    fn rendered_registries_always_validate_as_prometheus(
        counts in (1usize..20).prop_flat_map(|n| proptest::collection::vec(any::<u32>(), n)),
        ns in arb_ns_values(1..50),
    ) {
        let r = Registry::new();
        let c = r.counter("deepn_test_events_total", "arbitrary counter");
        let g = r.gauge("deepn_test_depth", "arbitrary gauge");
        let h = r.histogram("deepn_test_latency_seconds", "arbitrary histogram");
        for &n in &counts {
            c.add(n as u64);
        }
        g.set(counts[0] as u64);
        for &v in &ns {
            h.record_ns(v);
        }
        let text = r.render();
        let parsed = deepn::trace::prom::validate(&text);
        prop_assert!(parsed.is_ok(), "render must validate: {:?}\n{}", parsed.as_ref().err(), text);
        prop_assert_eq!(parsed.expect("validated").len(), 3);
    }
}

#[test]
fn serve_wire_protocol_is_byte_identical_with_tracing_on() {
    let _guard = trace_lock();
    let images: Vec<RgbImage> = vec![
        RgbImage::gradient(48, 32),
        RgbImage::gradient(33, 47),
        RgbImage::gradient(8, 8),
        RgbImage::gradient(64, 17),
    ];
    let roundtrip = |images: &[RgbImage]| {
        let server = Server::bind(
            "127.0.0.1:0",
            QuantTablePair::standard(75),
            None,
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let handle = server.spawn();
        let mut client =
            Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect");
        let encoded = client.encode_batch(images).expect("encode batch");
        let decoded = client.decode_batch(&encoded).expect("decode batch");
        client.shutdown().expect("shutdown");
        handle.join();
        (encoded, decoded)
    };
    let (plain, traced) = with_tracing_off_then_on(|| roundtrip(&images));
    assert_eq!(
        plain.0, traced.0,
        "encoded streams must match byte-for-byte"
    );
    assert_eq!(plain.1, traced.1, "decoded pixels must match byte-for-byte");
    // The traced run actually recorded spans — the parity above is not
    // vacuous because instrumentation silently stayed off.
    let names: Vec<&str> = snapshot_spans().iter().map(|e| e.name).collect();
    for expected in [
        "serve.request.encode_batch",
        "serve.queue_wait",
        "serve.execute",
    ] {
        assert!(
            names.contains(&expected),
            "expected span {expected:?} in {names:?}"
        );
    }
}
