//! Shared harness for the front-end integration tests.
//!
//! Every test binary here doubles as a backend executable: the front's
//! supervisor relaunches the *current test binary* filtered down to its
//! `backend_entry` test with [`BACKEND_ENV`] set, and that test becomes
//! a real `deepn-serve` server — ephemeral port, readiness line on
//! stdout, killable with SIGKILL like any production backend. Without
//! the env var, `backend_entry` is an instant no-op, so a plain
//! `cargo test` run is unaffected.

use std::io::Write;
use std::time::Duration;

use deepn_codec::QuantTablePair;
use deepn_front::{BackendCommand, Front, FrontConfig, FrontHandle, READY_PREFIX};
use deepn_serve::{Server, ServerConfig};

/// Env var that flips a relaunched test binary into backend-server mode.
pub const BACKEND_ENV: &str = "DEEPN_FRONT_TEST_BACKEND";

/// The body of each binary's `backend_entry` test: when [`BACKEND_ENV`]
/// is set, become a backend server and serve until a `Shutdown` request
/// (or a kill); otherwise return immediately.
pub fn backend_entry_if_requested() {
    if std::env::var_os(BACKEND_ENV).is_none() {
        return;
    }
    let config = ServerConfig {
        workers: 2,
        queue_depth: 64,
        max_connections: 32,
        request_timeout: Some(Duration::from_secs(10)),
        slow_threshold: None,
    };
    let server = Server::bind("127.0.0.1:0", QuantTablePair::standard(75), None, config)
        .expect("backend bind");
    let addr = server.local_addr().expect("backend addr");
    // The readiness line the supervisor parses. Stdout is a pipe here,
    // so flush past the block buffer or the supervisor never sees it.
    println!("{READY_PREFIX}{addr} (test backend)");
    std::io::stdout().flush().expect("flush readiness line");
    server.run().expect("backend run");
}

/// The backend template: relaunch this test binary, filtered to its
/// `backend_entry` test, with [`BACKEND_ENV`] set. `--nocapture` keeps
/// the readiness line on real stdout (libtest captures by default).
pub fn backend_cmd() -> BackendCommand {
    let exe = std::env::current_exe().expect("test binary path");
    BackendCommand::new(
        exe,
        vec![
            "backend_entry".into(),
            "--exact".into(),
            "--nocapture".into(),
            "--test-threads=1".into(),
        ],
    )
    .env(BACKEND_ENV, "1")
}

/// Binds and spawns a front over `backends` test-binary shards with
/// snappy supervision (fast restart backoff, tight health cadence) so
/// chaos recovery fits a test budget.
pub fn start_front(backends: usize) -> FrontHandle {
    let mut config = FrontConfig::new(backends, backend_cmd());
    config.supervisor.backoff_base = Duration::from_millis(50);
    config.supervisor.backoff_cap = Duration::from_millis(400);
    config.supervisor.health_interval = Duration::from_millis(250);
    let front = Front::bind("127.0.0.1:0", config).expect("front binds and fleet comes up");
    front.spawn()
}

/// Polls `cond` until it holds or `budget` elapses; returns whether it
/// held. (Each test binary compiles this module separately; not all of
/// them poll.)
#[allow(dead_code)]
pub fn wait_for(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + budget;
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}
