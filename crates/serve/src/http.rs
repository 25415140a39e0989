//! The telemetry sidecar: a minimal HTTP/1.1 listener for scrapers.
//!
//! `zenesis-serve --metrics-addr HOST:PORT` starts this listener next to
//! the job service. It speaks just enough HTTP for Prometheus and
//! orchestrator probes — no external dependencies, no keep-alive, one
//! short-lived connection at a time:
//!
//! * `GET /metrics` — the full registry in Prometheus text exposition
//!   format ([`zenesis_obs::prometheus_text`], content type
//!   `text/plain; version=0.0.4`).
//! * `GET /healthz` — liveness: `200 ok` whenever the process can
//!   accept a connection and answer.
//! * `GET /readyz` — readiness: `200 ready` only while the service can
//!   actually take work — the bounded queue has free slots, at least
//!   one worker thread is alive, and (when configured) the flight /
//!   checkpoint directory is writable. Otherwise `503` with one reason
//!   per line, so an orchestrator pulls the instance out of rotation
//!   before clients see `busy` responses.
//!
//! Telemetry must never take down serving: the listener runs on a
//! detached thread, handles requests sequentially (a scrape is a few
//! milliseconds), and enforces read/write timeouts so a stuck scraper
//! cannot wedge it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::server::Server;

/// Per-connection socket timeout: a scraper that stalls longer than
/// this is dropped so the next probe can get through.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on the request head (request line + headers) we are
/// willing to buffer; probes and scrapes are far smaller.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Bind `addr` and serve `/metrics`, `/healthz`, `/readyz` for the
/// given server on a detached background thread.
///
/// Returns the actual bound address (useful with port `0` in tests).
/// `probe_dir`, when set, is the directory `/readyz` verifies is
/// writable — the serving layer passes its flight/checkpoint directory.
/// The thread runs for the life of the process; there is no shutdown
/// handle because the sidecar holds no state worth draining.
pub fn start_metrics_http(
    addr: &str,
    server: Arc<Server>,
    probe_dir: Option<String>,
) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("serve-metrics-http".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                // Sequential handling is deliberate: responses are
                // small, and a bounded, single-lane sidecar cannot be
                // turned into a thread bomb by a misbehaving scraper.
                let _ = handle_connection(stream, &server, probe_dir.as_deref());
            }
        })
        .expect("spawn metrics http thread");
    Ok(local)
}

fn handle_connection(
    stream: TcpStream,
    server: &Server,
    probe_dir: Option<&str>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_REQUEST_BYTES as u64);
    let mut request_line = String::new();
    let mut stream = stream;
    if reader.read_line(&mut request_line)? == 0 {
        // Peer connected and closed (or sent nothing): clean close.
        return Ok(());
    }
    if request_line.trim().is_empty() {
        return respond_linger(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "empty request line\n",
        );
    }
    // Drain the header block so the peer sees a clean close; contents
    // are irrelevant to every endpoint we serve. A head that ends
    // without the blank line is malformed, and one that exhausts the
    // size cap gets the dedicated status — both answer instead of
    // silently serving a truncated request.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return if reader.limit() == 0 {
                respond_linger(
                    &mut stream,
                    "431 Request Header Fields Too Large",
                    "text/plain",
                    "request head exceeds 8192 bytes\n",
                )
            } else {
                respond_linger(
                    &mut stream,
                    "400 Bad Request",
                    "text/plain",
                    "request head ended without a blank line\n",
                )
            };
        }
        if header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        // The unsupported method may carry a body we never read.
        return respond_linger(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            let body = zenesis_obs::prometheus_text();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/readyz" => {
            let reasons = readiness_failures(server, probe_dir);
            if reasons.is_empty() {
                respond(&mut stream, "200 OK", "text/plain", "ready\n")
            } else {
                let mut body = String::from("not ready\n");
                for r in &reasons {
                    body.push_str(r);
                    body.push('\n');
                }
                respond(&mut stream, "503 Service Unavailable", "text/plain", &body)
            }
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "endpoints: /metrics /healthz /readyz\n",
        ),
    }
}

/// Why the service cannot take work right now (empty = ready).
fn readiness_failures(server: &Server, probe_dir: Option<&str>) -> Vec<String> {
    let mut reasons = Vec::new();
    let depth = server.queue_depth();
    let cap = server.queue_capacity();
    if depth >= cap {
        reasons.push(format!("queue saturated ({depth}/{cap})"));
    }
    if server.workers_alive() == 0 {
        reasons.push("no worker threads alive".to_string());
    }
    if let Some(n) = server.warden_recovering() {
        if n > 0 {
            reasons.push(format!("worker crash recovery in progress ({n} jobs)"));
        }
    }
    if let Some((open, cap)) = server.mux_connections() {
        if open >= cap {
            reasons.push(format!("connection cap saturated ({open}/{cap})"));
        }
    }
    if let Some(dir) = probe_dir {
        if let Err(e) = probe_writable(dir) {
            reasons.push(format!("flight/checkpoint dir {dir} not writable: {e}"));
        }
    }
    reasons
}

/// Verify `dir` is writable by renewing one stable probe file: write
/// `.readyz-probe-<pid>.tmp`, then atomically rename it over
/// `.readyz-probe-<pid>`. Earlier versions created and deleted a fresh
/// temp file on every poll, which churned directory entries and could
/// race its own create/unlink cycle under overlapping probes; reusing a
/// single probe path with an atomic rename leaves exactly one probe
/// file per process, never observable half-written.
fn probe_writable(dir: &str) -> io::Result<()> {
    let dir = std::path::Path::new(dir);
    let pid = std::process::id();
    let tmp = dir.join(format!(".readyz-probe-{pid}.tmp"));
    std::fs::write(&tmp, b"probe")?;
    std::fs::rename(&tmp, dir.join(format!(".readyz-probe-{pid}")))
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Upper bound on peer bytes discarded during a lingering close; enough
/// for any plausible request tail without letting a drip-feeding peer
/// hold the (sequential) sidecar indefinitely.
const MAX_LINGER_BYTES: usize = 64 * 1024;

/// [`respond`] for errors answered before the request was fully read
/// (oversized or malformed head, non-GET with a body). Closing with
/// unread bytes in the receive queue makes the kernel send RST, which
/// can destroy the response before the peer reads it — so half-close
/// the write side and drain a bounded amount of the remaining input
/// first. Reads inherit the connection's `IO_TIMEOUT`, so a stalled
/// peer cannot wedge the listener beyond one timeout.
fn respond_linger(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    respond(stream, status, content_type, body)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < MAX_LINGER_BYTES {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{JobRunner, ServeConfig, Server};
    use zenesis_core::job::{JobResult, JobSpec};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    fn idle_server() -> Arc<Server> {
        let runner: JobRunner =
            Arc::new(
                |_: &JobSpec, _: &zenesis_par::CancelToken| JobResult::Error {
                    message: "unused".into(),
                },
            );
        Arc::new(Server::start_with_runner(
            ServeConfig {
                workers: 1,
                queue_cap: 2,
                tenant_cap: 0,
                default_deadline_ms: None,
                max_retries: 0,
                retry_base_ms: 1,
                flight_dir: None,
                process_workers: false,
                heartbeat_ms: 1000,
                worker_exe: None,
            },
            runner,
        ))
    }

    #[test]
    fn health_metrics_and_unknown_routes() {
        let server = idle_server();
        let addr = start_metrics_http("127.0.0.1:0", Arc::clone(&server), None).unwrap();

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        // The drop-counter family is unconditionally present, so even a
        // cold registry yields a parseable exposition.
        assert!(body.contains("# TYPE zenesis_obs_events_dropped_total counter"));

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"), "{text}");
    }

    /// Edge-case requests must get a clean close or a well-formed
    /// error — never a hang past the IO timeout. Each sub-case times
    /// itself to catch a regression toward blocking reads.
    #[test]
    fn malformed_requests_answer_or_close_cleanly() {
        let server = idle_server();
        let addr = start_metrics_http("127.0.0.1:0", Arc::clone(&server), None).unwrap();
        let deadline = IO_TIMEOUT + Duration::from_secs(3);

        // Bare blank request line: well-formed 400.
        let started = std::time::Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(deadline)).unwrap();
        write!(s, "\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("empty request line"), "{text}");
        assert!(started.elapsed() < deadline);

        // Connect-and-close (zero bytes): clean close, no response.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(deadline)).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert_eq!(text, "");

        // Head exceeding MAX_REQUEST_BYTES: 431, not an unbounded read.
        let started = std::time::Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(deadline)).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Filler: {}\r\n", "y".repeat(1000));
        for _ in 0..(MAX_REQUEST_BYTES / filler.len() + 2) {
            if s.write_all(filler.as_bytes()).is_err() {
                break; // server already answered and closed; fine
            }
        }
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 431"), "{text}");
        assert!(started.elapsed() < deadline);

        // Header block never terminated by a blank line: 400.
        let started = std::time::Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(deadline)).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: test\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("without a blank line"), "{text}");
        assert!(started.elapsed() < deadline);

        // A stalled peer (partial head, never closes) is cut off by the
        // read timeout rather than wedging the sidecar: a subsequent
        // probe still gets through promptly.
        let mut stalled = TcpStream::connect(addr).unwrap();
        write!(stalled, "GET /healthz HTTP/1.1\r\nHost: t").unwrap();
        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        drop(stalled);
    }

    #[test]
    fn probe_reuses_one_stable_path_per_process() {
        let dir = std::env::temp_dir().join(format!("zenesis-probe-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_string_lossy().into_owned();
        // Repeated polls succeed and leave exactly one probe file — the
        // stable per-pid path — with no temp debris.
        for _ in 0..3 {
            probe_writable(&dir_str).unwrap();
        }
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            entries,
            vec![format!(".readyz-probe-{}", std::process::id())],
            "one reusable probe file, no leftover temp files"
        );
        // A missing directory is a clean error, not a panic.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(probe_writable(&dir_str).is_err());
    }

    #[test]
    fn readyz_reports_worker_crash_recovery() {
        let runner: JobRunner =
            Arc::new(
                |_: &JobSpec, _: &zenesis_par::CancelToken| JobResult::Error {
                    message: "unused".into(),
                },
            );
        let server = Arc::new(Server::start_with_runner(
            ServeConfig {
                workers: 1,
                queue_cap: 2,
                tenant_cap: 0,
                default_deadline_ms: None,
                max_retries: 0,
                retry_base_ms: 1,
                flight_dir: None,
                process_workers: true,
                heartbeat_ms: 1000,
                // Never spawned in this test; any path will do.
                worker_exe: Some("/bin/false".into()),
            },
            runner,
        ));
        assert!(readiness_failures(&server, None).is_empty());
        server.warden().unwrap().test_set_recovering(2);
        let reasons = readiness_failures(&server, None);
        assert_eq!(reasons.len(), 1, "{reasons:?}");
        assert!(
            reasons[0].contains("worker crash recovery in progress (2 jobs)"),
            "{reasons:?}"
        );
        server.warden().unwrap().test_set_recovering(0);
        assert!(readiness_failures(&server, None).is_empty());
    }

    #[test]
    fn readyz_reflects_queue_and_probe_dir() {
        let server = idle_server();
        let missing = std::env::temp_dir().join("zenesis-no-such-probe-dir");
        let _ = std::fs::remove_dir_all(&missing);
        let addr = start_metrics_http(
            "127.0.0.1:0",
            Arc::clone(&server),
            Some(missing.to_string_lossy().into_owned()),
        )
        .unwrap();
        // Queue is empty and workers are alive, but the probe dir does
        // not exist: not ready, with the reason spelled out.
        let (status, body) = get(addr, "/readyz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("not writable"), "{body}");

        std::fs::create_dir_all(&missing).unwrap();
        let (status, body) = get(addr, "/readyz");
        assert!(status.contains("200"), "{status} {body}");
        assert_eq!(body, "ready\n");
        let _ = std::fs::remove_dir_all(&missing);
    }
}
