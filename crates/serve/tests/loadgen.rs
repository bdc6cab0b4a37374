//! In-process loadgen tests: a spawned server, a real storm, and the
//! report's reconciliation guarantees.

use deepn_codec::QuantTablePair;
use deepn_serve::loadgen::{self, LoadgenConfig};
use deepn_serve::{Client, Server, ServerConfig};
use std::time::Duration;

fn start(config: ServerConfig) -> deepn_serve::ServerHandle {
    Server::bind("127.0.0.1:0", QuantTablePair::standard(70), None, config)
        .expect("bind")
        .spawn()
}

fn shutdown(handle: deepn_serve::ServerHandle) {
    let mut client =
        Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn clean_soak_reconciles_and_reports_valid_json() {
    let handle = start(ServerConfig {
        workers: 3,
        queue_depth: 32,
        ..ServerConfig::default()
    });

    let mut cfg = LoadgenConfig::new(handle.addr());
    cfg.clients = 3;
    cfg.duration = Duration::from_millis(1200);
    cfg.pipeline_window = 2;
    cfg.churn = true;
    cfg.image_side = 16;
    cfg.batch = 2;
    cfg.scrape_interval = Duration::from_millis(250);
    let report = loadgen::run(&cfg).expect("loadgen run");
    shutdown(handle);

    assert!(
        report.is_clean(),
        "clean soak raised anomalies: {:?}",
        report.anomalies
    );
    assert!(report.totals.ok > 0, "no successful requests");
    assert_eq!(
        report.totals.mismatch, 0,
        "every reply must equal the local codec's"
    );
    assert!(report.rps > 0.0);
    assert!(
        report.scrapes >= 2,
        "need a window: {} scrapes",
        report.scrapes
    );
    assert!(
        !report.totals.latency_ns.is_empty(),
        "serial latencies missing"
    );

    // The reconciliation invariant, asserted directly: every non-busy
    // client outcome plus every mid-window scrape is one server-counted
    // request.
    let delta = report.server.requests_delta.expect("requests_total delta");
    let expected =
        (report.totals.ok + report.totals.mismatch + report.totals.timeout + report.totals.error)
            as f64
            + (report.scrapes as f64 - 1.0);
    assert!(
        (delta - expected).abs() <= report.totals.io_error as f64,
        "server delta {delta} vs client-side {expected} (io {})",
        report.totals.io_error
    );

    let json = report.to_json();
    deepn_trace::export::validate_json(&json).expect("report JSON validates");
    let doc = deepn_trace::export::parse_json(&json).expect("report JSON parses");
    assert!(doc.get("loadgen/serial_request").is_some());
    let summary = doc.get("loadgen_summary").expect("summary");
    assert_eq!(
        summary.get("requests_ok").and_then(|v| v.as_f64()),
        Some(report.totals.ok as f64)
    );
    assert_eq!(
        summary.get("requests_mismatch").and_then(|v| v.as_f64()),
        Some(0.0)
    );
}

#[test]
fn busy_storm_is_counted_not_fatal_and_breaches_the_reject_budget() {
    // One admission slot goes to the scraper's persistent connection;
    // the sixteen load clients fight over the other. The client holding
    // it runs at full speed, so the rejected share is the fifteen
    // others' retry rate against its request rate: in a release build
    // about 15-25% of attempts (four clients gave about 4%, under the
    // 5% budget).
    let handle = start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        max_connections: 2,
        ..ServerConfig::default()
    });

    let mut cfg = LoadgenConfig::new(handle.addr());
    cfg.clients = 16;
    cfg.duration = Duration::from_millis(1200);
    cfg.pipeline_window = 0;
    cfg.image_side = 16;
    cfg.scrape_interval = Duration::from_millis(250);
    let report = loadgen::run(&cfg).expect("storm must be data, not an error");
    shutdown(handle);

    assert!(report.totals.busy > 0, "storm produced no busy rejections");
    assert!(
        !report.is_clean(),
        "a near-total rejection storm must breach the 5% reject budget"
    );
    assert!(
        report.anomalies.iter().any(|a| a.contains("reject_rate")),
        "missing reject_rate flag: {:?}",
        report.anomalies
    );
    // The server's rejection counter must account for at least every
    // busy the clients saw.
    let rejected = report.server.rejected_delta.expect("rejected delta");
    assert!(
        rejected >= (report.totals.busy + report.scraper_busy) as f64,
        "server counted {rejected} rejections for {} client-side busies",
        report.totals.busy
    );
    // The report still renders and validates under storm conditions.
    deepn_trace::export::validate_json(&report.to_json()).expect("storm report JSON");
}
