//! End-to-end tests of the readiness-driven TCP mux: hundreds of
//! concurrent connections served from a fixed thread count, out-of-order
//! response routing, drain-on-half-close, and the connection cap.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zenesis_core::job::{JobResult, JobSpec};
use zenesis_serve::{JobRunner, Mux, MuxConfig, ServeConfig, Server};

fn config(workers: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap,
        tenant_cap: 0,
        default_deadline_ms: None,
        max_retries: 0,
        retry_base_ms: 1,
        flight_dir: None,
        process_workers: false,
        heartbeat_ms: 1000,
        worker_exe: None,
    }
}

fn ok_result() -> JobResult {
    JobResult::Volume {
        depth: 1,
        corrections: 0,
        per_slice_pixels: vec![1],
        degraded: vec![],
        failed: vec![],
    }
}

fn prompt_of(spec: &JobSpec) -> String {
    match spec {
        JobSpec::Interactive { prompt, .. } | JobSpec::Batch { prompt, .. } => prompt.clone(),
        JobSpec::Evaluate { .. } => String::new(),
    }
}

/// Runner that sleeps when the prompt starts with `slow`, else answers
/// immediately.
fn prompt_runner() -> JobRunner {
    Arc::new(|spec, _cancel| {
        if prompt_of(spec).starts_with("slow") {
            std::thread::sleep(Duration::from_millis(150));
        }
        ok_result()
    })
}

fn spec_line(prompt: &str) -> String {
    format!(
        r#"{{"mode": "interactive", "input": {{"source": "phantom_slice", "kind": "amorphous", "seed": 1, "side": 16}}, "prompt": "{prompt}"}}"#
    )
}

fn request(id: u64, prompt: &str, tenant: Option<&str>, lane: Option<&str>) -> String {
    let mut envelope = format!(r#"{{"id": {id}"#);
    if let Some(t) = tenant {
        envelope.push_str(&format!(r#", "tenant": "{t}""#));
    }
    if let Some(l) = lane {
        envelope.push_str(&format!(r#", "lane": "{l}""#));
    }
    envelope.push_str(&format!(r#", "spec": {}}}"#, spec_line(prompt)));
    envelope
}

fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(target_os = "linux")]
fn process_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// The tentpole claim: hundreds of concurrent connections are served by
/// the fixed reactor + worker threads — establishing 256 connections
/// creates zero new threads in this process, and every connection still
/// gets exactly one well-formed response per request.
#[test]
fn serves_256_concurrent_connections_from_fixed_threads() {
    const CONNS: usize = 256;
    let server = Arc::new(Server::start_with_runner(config(4, 2048), prompt_runner()));
    let mux =
        Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default()).expect("spawn mux");
    let addr = mux.local_addr();

    #[cfg(target_os = "linux")]
    let threads_before = process_thread_count();

    let mut clients: Vec<(TcpStream, BufReader<TcpStream>)> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let r = BufReader::new(s.try_clone().expect("clone"));
            (s, r)
        })
        .collect();
    wait_for(
        "all connections registered",
        Duration::from_secs(30),
        || mux.connections() == CONNS,
    );

    #[cfg(target_os = "linux")]
    assert_eq!(
        process_thread_count(),
        threads_before,
        "256 connections must not create a single new thread"
    );

    // One request per connection, mixing tenants and lanes; all 256 are
    // outstanding before any response is read.
    for (i, (w, _)) in clients.iter_mut().enumerate() {
        let tenant = match i % 3 {
            0 => Some("lab-a"),
            1 => Some("lab-b"),
            _ => None,
        };
        let lane = if i % 2 == 0 {
            Some("interactive")
        } else {
            Some("batch")
        };
        writeln!(w, "{}", request(i as u64 + 1, "fast", tenant, lane)).expect("write");
    }
    for (i, (_, r)) in clients.iter_mut().enumerate() {
        let mut line = String::new();
        r.read_line(&mut line).expect("response");
        let v: serde_json::Value = serde_json::from_str(line.trim()).expect("well-formed JSON");
        assert_eq!(v["id"], i as u64 + 1);
        assert_eq!(v["status"], "ok");
    }

    drop(clients);
    wait_for("connections torn down", Duration::from_secs(30), || {
        mux.connections() == 0
    });
    mux.shutdown();
    server.shutdown();
}

/// Drain protocol: a client may pipeline requests, half-close its write
/// side, and still receive every response before the server closes.
#[test]
fn half_closed_connection_drains_every_response() {
    const REQUESTS: u64 = 16;
    let server = Arc::new(Server::start_with_runner(config(2, 64), prompt_runner()));
    let mux =
        Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default()).expect("spawn mux");
    let s = TcpStream::connect(mux.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut w = s.try_clone().expect("clone");
    for id in 1..=REQUESTS {
        // Slow jobs guarantee the half-close lands while work is still
        // in flight.
        writeln!(w, "{}", request(id, "slow-drain", None, None)).expect("write");
    }
    w.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut ids: Vec<u64> = BufReader::new(s)
        .lines()
        .map(|l| {
            let l = l.expect("read");
            let v: serde_json::Value = serde_json::from_str(&l).expect("well-formed JSON");
            assert_eq!(v["status"], "ok");
            v["id"].as_u64().expect("numeric id")
        })
        .collect();
    // EOF arrived only after every pipelined request answered.
    ids.sort_unstable();
    assert_eq!(ids, (1..=REQUESTS).collect::<Vec<u64>>());
    mux.shutdown();
    server.shutdown();
}

/// Responses route to the connection that asked, even when they
/// complete out of submission order across connections.
#[test]
fn out_of_order_completion_routes_to_owning_connection() {
    let server = Arc::new(Server::start_with_runner(config(2, 64), prompt_runner()));
    let mux =
        Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default()).expect("spawn mux");
    let addr = mux.local_addr();
    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut fast = TcpStream::connect(addr).expect("connect fast");
    fast.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let t0 = Instant::now();
    writeln!(slow, "{}", request(100, "slow-crosstalk", None, None)).unwrap();
    writeln!(fast, "{}", request(200, "fast", None, None)).unwrap();
    let mut fast_reader = BufReader::new(fast.try_clone().unwrap());
    let mut line = String::new();
    fast_reader.read_line(&mut line).expect("fast response");
    let fast_elapsed = t0.elapsed();
    let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(v["id"], 200, "fast conn got its own response");
    assert!(
        fast_elapsed < Duration::from_millis(150),
        "fast response was not serialized behind the slow job ({fast_elapsed:?})"
    );
    let mut slow_reader = BufReader::new(slow.try_clone().unwrap());
    let mut line = String::new();
    slow_reader.read_line(&mut line).expect("slow response");
    let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(v["id"], 100, "slow conn got its own response");
    mux.shutdown();
    server.shutdown();
}

/// Tenant quotas surface as typed busy responses on the right
/// connection; the lane field round-trips through the mux.
#[test]
fn tenant_quota_busy_reaches_the_submitting_connection() {
    let mut cfg = config(1, 64);
    cfg.tenant_cap = 1;
    let server = Arc::new(Server::start_with_runner(cfg, prompt_runner()));
    let mux =
        Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default()).expect("spawn mux");
    let addr = mux.local_addr();
    let mut a = TcpStream::connect(addr).expect("connect");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut b = TcpStream::connect(addr).expect("connect");
    b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Same tenant from two connections: the first job occupies the
    // worker; the second must be refused over quota while it runs.
    writeln!(a, "{}", request(1, "slow-quota", Some("lab-q"), None)).unwrap();
    wait_for("first job admitted", Duration::from_secs(10), || {
        server.admission().outstanding("lab-q") == 1
    });
    writeln!(
        b,
        "{}",
        request(2, "fast", Some("lab-q"), Some("interactive"))
    )
    .unwrap();
    let mut line = String::new();
    BufReader::new(b.try_clone().unwrap())
        .read_line(&mut line)
        .expect("busy response");
    let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(v["id"], 2);
    assert_eq!(v["status"], "busy");
    assert!(
        v["result"]["message"]
            .as_str()
            .unwrap_or("")
            .contains("tenant"),
        "{line}"
    );
    let mut line = String::new();
    BufReader::new(a.try_clone().unwrap())
        .read_line(&mut line)
        .expect("slow job answers");
    let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(v["id"], 1);
    assert_eq!(v["status"], "ok");
    mux.shutdown();
    server.shutdown();
}

/// Connections beyond `max_conns` are refused with an immediate close,
/// and the saturation is visible to readiness probes.
#[test]
fn connection_cap_refuses_the_overflow() {
    const CAP: usize = 4;
    let server = Arc::new(Server::start_with_runner(config(1, 16), prompt_runner()));
    let mux_config = MuxConfig {
        max_conns: CAP,
        ..MuxConfig::default()
    };
    let mux = Mux::spawn(Arc::clone(&server), "127.0.0.1:0", mux_config).expect("spawn mux");
    let addr = mux.local_addr();
    let kept: Vec<TcpStream> = (0..CAP)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    wait_for("cap reached", Duration::from_secs(10), || {
        mux.connections() == CAP
    });
    assert_eq!(
        server.mux_connections(),
        Some((CAP, CAP)),
        "readyz sees saturation"
    );
    // The overflow connection is accepted and immediately closed: EOF.
    let over = TcpStream::connect(addr).expect("connect over cap");
    over.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut line = String::new();
    let n = BufReader::new(over)
        .read_line(&mut line)
        .expect("clean close");
    assert_eq!(n, 0, "refused connection reads EOF, got {line:?}");
    // Freeing a slot lets the next client in.
    drop(kept);
    wait_for("slots freed", Duration::from_secs(10), || {
        mux.connections() == 0
    });
    let mut again = TcpStream::connect(addr).expect("reconnect");
    again
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(again, "{}", request(9, "fast", None, None)).unwrap();
    let mut line = String::new();
    BufReader::new(again).read_line(&mut line).expect("served");
    let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(v["status"], "ok");
    mux.shutdown();
    server.shutdown();
}

/// Accepted sockets must have `TCP_NODELAY` set. Without it Nagle's
/// algorithm holds a small response back until the previous one has been
/// acknowledged, and a client that is only listening acknowledges on its
/// delayed-ACK timer (40 ms on Linux): the second of two answers written
/// a few milliseconds apart arrives a timer period late. Each round
/// pipelines an immediate and a 5 ms job and measures how far apart their
/// answers arrive; after the first few exchanges the client's stack is in
/// delayed-ACK mode, so the median round shows the stall if it is there.
#[test]
fn second_small_response_is_not_held_behind_an_unacknowledged_first() {
    const ROUNDS: usize = 21;
    let runner: JobRunner = Arc::new(|spec, _cancel| {
        if prompt_of(spec).starts_with("pause") {
            std::thread::sleep(Duration::from_millis(5));
        }
        ok_result()
    });
    let server = Arc::new(Server::start_with_runner(config(2, 64), runner));
    let mux =
        Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default()).expect("spawn mux");
    let mut s = TcpStream::connect(mux.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    let mut gaps_ms = Vec::with_capacity(ROUNDS);
    let mut line = String::new();
    for round in 0..ROUNDS as u64 {
        let pair = format!(
            "{}\n{}\n",
            request(2 * round, "now", None, None),
            request(2 * round + 1, "pause", None, None)
        );
        s.write_all(pair.as_bytes()).expect("write");
        line.clear();
        r.read_line(&mut line).expect("first answer");
        let first = Instant::now();
        line.clear();
        r.read_line(&mut line).expect("second answer");
        gaps_ms.push(first.elapsed().as_secs_f64() * 1e3);
    }
    gaps_ms.sort_by(|a, b| a.total_cmp(b));
    let median = gaps_ms[ROUNDS / 2];
    assert!(
        median < 25.0,
        "second answers arrive {median:.1} ms after the first (5 ms apart at the server): \
         held for a delayed ACK; gaps {gaps_ms:?}"
    );
    mux.shutdown();
    server.shutdown();
}
