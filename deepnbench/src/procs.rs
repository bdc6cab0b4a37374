//! Spawning the shipped `deepn serve` / `deepn shard` binaries and reading
//! their costs from `/proc`.

use crate::wire::Conn;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variables that change how the service and the codec pool
/// run. The benchmark removes them from its own environment at start-up,
/// so the in-process pool and every service it spawns run with defaults;
/// traced runs set only `DEEPN_TRACE=1` on the service.
pub const SERVICE_ENV: &[&str] = &["DEEPN_THREADS", "DEEPN_TRACE", "DEEPN_LOG", "DEEPN_SCALE"];

/// How long a spawned service may take to print its readiness line.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a service may take to exit after a `Shutdown` request.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `deepn serve` or `deepn shard` child process.
pub struct Service {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    /// Address clients connect to.
    pub addr: SocketAddr,
    /// The process clients connect to (the server, or the front end).
    pub pid: u32,
    /// Backend server pids of a fleet (empty for a single server).
    pub backend_pids: Vec<u32>,
}

impl Service {
    /// Spawns `deepn serve` with default settings on an ephemeral port.
    pub fn serve(deepn: &Path, tables: &Path, log: &Path, traced: bool) -> io::Result<Service> {
        let args = [
            "serve",
            "--tables",
            &tables.to_string_lossy(),
            "--addr",
            "127.0.0.1:0",
        ];
        Service::spawn(deepn, &args, log, traced, false)
    }

    /// Spawns `deepn shard --backends N` with default settings.
    pub fn shard(
        deepn: &Path,
        tables: &Path,
        backends: usize,
        log: &Path,
        traced: bool,
    ) -> io::Result<Service> {
        let tables = tables.to_string_lossy();
        let n = backends.to_string();
        let args = [
            "shard",
            "--tables",
            &tables,
            "--addr",
            "127.0.0.1:0",
            "--backends",
            &n,
        ];
        Service::spawn(deepn, &args, log, traced, true)
    }

    fn spawn(
        deepn: &Path,
        args: &[&str],
        log: &Path,
        traced: bool,
        fleet: bool,
    ) -> io::Result<Service> {
        let mut cmd = Command::new(deepn);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(log)?));
        if traced {
            cmd.env("DEEPN_TRACE", "1");
        }
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no stdout pipe"))?;
        // A reader thread forwards stdout lines until EOF, so the service
        // can never block on a full pipe after its readiness lines.
        let (tx, rx) = mpsc::channel::<String>();
        let stdout_drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut service = Service {
            child,
            stdout_drain: Some(stdout_drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
            backend_pids: Vec::new(),
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        let (ready_prefix, want_pids) = if fleet {
            ("deepn-front listening on ", true)
        } else {
            ("deepn-serve listening on ", false)
        };
        let mut have_addr = false;
        while !have_addr || (want_pids && service.backend_pids.is_empty()) {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = match rx.recv_timeout(left) {
                Ok(line) => line,
                Err(_) => {
                    service.kill();
                    return Err(io::Error::other(format!(
                        "{} printed no readiness line (see {})",
                        args[0],
                        log.display()
                    )));
                }
            };
            if let Some(rest) = line.strip_prefix(ready_prefix) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                service.addr = addr
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad readiness line {line:?}")))?;
                have_addr = true;
            } else if let Some(rest) = line.strip_prefix("deepn-front backend pids: ") {
                service.backend_pids = rest
                    .split_whitespace()
                    .filter_map(|p| p.parse().ok())
                    .collect();
            }
        }
        Ok(service)
    }

    /// Stops the service with a `Shutdown` request (a fleet drains and
    /// stops its backends), waiting for every process to exit; kills
    /// whatever is still running after the timeout.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Conn::connect(self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let mut exited = false;
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let backends = std::mem::take(&mut self.backend_pids);
        while Instant::now() < deadline && backends.iter().any(|&p| alive(p)) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stragglers: Vec<u32> = backends.into_iter().filter(|&p| alive(p)).collect();
        kill_pids(&stragglers);
        self.kill();
        asked?;
        if !exited || !stragglers.is_empty() {
            return Err(io::Error::other("service did not exit after Shutdown"));
        }
        Ok(())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.stdout_drain.is_some() {
            kill_pids(&self.backend_pids);
            self.kill();
        }
    }
}

/// Sends SIGKILL to processes this benchmark started indirectly (a
/// fleet's backends), waiting for `kill` itself to finish.
fn kill_pids(pids: &[u32]) {
    for pid in pids.iter().filter(|&&p| alive(p)) {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

/// Whether a process with this pid exists and is not a zombie.
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => !matches!(stat_fields(&stat).first(), Some(&"Z") | Some(&"X")),
        Err(_) => false,
    }
}

/// The fields of `/proc/<pid>/stat` after the parenthesized command name
/// (field 3, the state, first).
fn stat_fields(stat: &str) -> Vec<&str> {
    match stat.rfind(')') {
        Some(i) => stat[i + 1..].split_whitespace().collect(),
        None => Vec::new(),
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of a process (all its threads), in seconds.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let f = stat_fields(&stat);
    // utime and stime are fields 14 and 15; `f` starts at field 3.
    let ticks = |i: usize| -> io::Result<f64> {
        f.get(i - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("short /proc stat line"))
    };
    Ok((ticks(14)? + ticks(15)?) / TICKS_PER_SEC)
}

/// Steal time and total time of every CPU of the machine so far, in
/// ticks, from the first line of `/proc/stat`. Steal is time the
/// hypervisor ran something else while one of this machine's CPUs had
/// work; its share over a window tells host interference apart from the
/// program's own slowness.
pub fn host_steal_ticks() -> io::Result<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or_else(|| io::Error::other("no cpu line in /proc/stat"))?
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; the guest fields
    // after them are already counted in user and nice.
    let steal = *ticks
        .get(7)
        .ok_or_else(|| io::Error::other("no steal field in /proc/stat"))?;
    Ok((steal, ticks.iter().take(8).sum()))
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .map_err(|_| io::Error::other("bad VmHWM line"))?;
            return Ok(kb / 1024.0);
        }
    }
    Err(io::Error::other("no VmHWM line"))
}

/// Machine description for the run context: the CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
