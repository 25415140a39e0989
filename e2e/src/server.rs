//! Lifecycle of the `zenesis-serve` child the benchmark drives.
//!
//! Every workload talks to the real binary over TCP, started with one
//! fixed flag set. The child is killed and reaped by a drop guard, so it
//! cannot outlive the benchmark on success, error or panic.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The flag set every workload's server runs with. `ZENESIS_OBS` and
/// `ZENESIS_THREADS` are removed from its environment.
pub const SERVER_FLAGS: [&str; 8] = [
    "--tcp",
    "127.0.0.1:0",
    "--workers",
    "2",
    "--queue-cap",
    "64",
    "--tenant-cap",
    "8",
];

/// How to build the two binaries the benchmark needs.
pub const BUILD_COMMAND: &str = "cargo build --release -p zenesis-serve --bin zenesis-serve && \
     cargo build --release --manifest-path e2e/Cargo.toml";

/// The server binary: `zenesis-serve` beside this executable, which is
/// where a shared `CARGO_TARGET_DIR` puts it.
pub fn locate_server_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let bin = exe.with_file_name("zenesis-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "server binary {} not found; build it with: {BUILD_COMMAND}",
            bin.display()
        ))
    }
}

/// Owns a child process: kills it and waits for it on drop.
pub struct ChildGuard(Child);

impl ChildGuard {
    pub fn new(child: Child) -> ChildGuard {
        ChildGuard(child)
    }

    pub fn pid(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // Errors mean the child is already gone; `wait` still reaps it.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running `zenesis-serve --tcp` child that answered a probe request.
pub struct Server {
    guard: Option<ChildGuard>,
    log: Option<JoinHandle<()>>,
    pid: u32,
    pub addr: SocketAddr,
    /// Spawn to first answered request, ms.
    pub spawn_ready_ms: f64,
}

/// A request small enough that its answer proves only that the server
/// accepts, runs and answers jobs.
pub const PROBE_LINE: &str = r#"{"id":0,"spec":{"mode":"interactive","input":{"source":"phantom_slice","kind":"amorphous","seed":1,"side":16},"prompt":"particles"}}"#;

impl Server {
    /// Start the server with [`SERVER_FLAGS`] plus `extra`, copy its
    /// stderr to `log_path`, and wait until it answers a probe request.
    pub fn spawn(bin: &Path, extra: &[&str], log_path: &Path) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(SERVER_FLAGS)
            .args(extra)
            .env_remove("ZENESIS_OBS")
            .env_remove("ZENESIS_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| {
                format!(
                    "cannot start {}: {e}; build it with: {BUILD_COMMAND}",
                    bin.display()
                )
            })?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let guard = ChildGuard::new(child);
        let pid = guard.pid();
        let mut log_file = std::fs::File::create(log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = writeln!(log_file, "{line}");
                if let Some(addr) = parse_listening(&line) {
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = Server {
            guard: Some(guard),
            log: Some(log),
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawn_ready_ms: 0.0,
        };
        server.addr = rx.recv_timeout(Duration::from_secs(20)).map_err(|_| {
            format!(
                "server printed no `listening on` line; see {}",
                log_path.display()
            )
        })?;
        probe(server.addr)?;
        server.spawn_ready_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(server)
    }

    /// High-water resident set of the server and its live children, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = std::iter::once(self.pid)
            .chain(children_of(self.pid))
            .filter_map(vm_hwm_kb)
            .sum();
        kb as f64 / 1024.0
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The child dies first: that closes its stderr, which ends the
        // log thread.
        self.guard = None;
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// The address in a `zenesis-serve listening on 127.0.0.1:4242 (...)` line.
fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

fn probe(addr: SocketAddr) -> Result<(), String> {
    let io = |e: std::io::Error| format!("ready probe failed: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(io)?;
    writeln!(stream, "{PROBE_LINE}").map_err(io)?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(io)?;
    if line.contains(r#""status":"ok""#) {
        Ok(())
    } else {
        Err(format!("ready probe got {line:?}"))
    }
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Live processes whose parent is `pid`.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| {
            // `pid (comm) state ppid ...`; comm may contain spaces and
            // parentheses, so split after the last `)`.
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|s| {
                    let after = s.rsplit_once(')')?.1;
                    after.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(pid)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper() -> ChildGuard {
        ChildGuard::new(
            Command::new("sleep")
                .arg("1000")
                .spawn()
                .expect("`sleep` is on PATH"),
        )
    }

    fn alive(pid: u32) -> bool {
        children_of(std::process::id()).contains(&pid)
    }

    #[test]
    fn guard_kills_and_reaps_on_drop() {
        let guard = sleeper();
        let pid = guard.pid();
        assert!(alive(pid));
        drop(guard);
        assert!(!alive(pid), "child {pid} outlived its guard");
    }

    #[test]
    fn guard_kills_and_reaps_on_panic() {
        let (tx, rx) = mpsc::channel();
        let result = std::thread::spawn(move || {
            let guard = sleeper();
            tx.send(guard.pid()).unwrap();
            panic!("the run failed while the child was up");
        })
        .join();
        assert!(result.is_err());
        let pid = rx.recv().unwrap();
        assert!(!alive(pid), "child {pid} outlived a panicking run");
    }

    /// The real binary, when a release build of it sits in this target
    /// directory (`e2e/run.sh` builds it there).
    fn built_server() -> Option<PathBuf> {
        let deps = std::env::current_exe().ok()?;
        let target = deps.parent()?.parent()?.parent()?;
        let bin = target.join("release").join("zenesis-serve");
        bin.is_file().then_some(bin)
    }

    #[test]
    fn no_server_process_outlives_its_handle() {
        let Some(bin) = built_server() else {
            eprintln!("skipped: no release build of zenesis-serve in this target directory");
            return;
        };
        let log = crate::test_scratch("reaped-server.log");
        let server =
            Server::spawn(&bin, &[], &log).expect("the server starts and answers the probe");
        let pid = server.pid;
        assert!(alive(pid));
        assert!(server.peak_rss_mb() > 1.0);
        drop(server);
        assert!(
            !alive(pid),
            "zenesis-serve {pid} outlived the benchmark's handle"
        );
        let logged = std::fs::read_to_string(&log).unwrap();
        assert!(
            logged.contains("listening on"),
            "stderr goes to the log: {logged:?}"
        );
        std::fs::remove_file(log).unwrap();
    }

    #[test]
    fn listening_line_yields_the_bound_address() {
        let line = "zenesis-serve listening on 127.0.0.1:40123 (mux, max 1024 connections)";
        assert_eq!(
            parse_listening(line),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_listening("[serve-stats] qdepth=0"), None);
    }

    #[test]
    fn missing_server_binary_names_the_build_command() {
        let missing = Path::new("/nonexistent/zenesis-serve");
        let log = crate::test_scratch("missing-server.log");
        let err = match Server::spawn(missing, &[], &log) {
            Err(e) => e,
            Ok(_) => panic!("spawned a binary that does not exist"),
        };
        assert!(err.contains(BUILD_COMMAND), "{err}");
    }
}
