//! Readiness-driven connection multiplexer for the TCP front end.
//!
//! The previous front end spawned one OS thread per connection, which
//! put a hard scalability ceiling on the service: a few hundred mostly
//! idle instrument clients cost a few hundred stacks and scheduler churn
//! before a single job ran. The mux replaces that with **one reactor
//! thread** owning every connection: sockets are switched to nonblocking
//! mode, registered with `poll(2)`, and serviced only when the kernel
//! reports them readable or writable. Connection count is bounded by
//! [`MuxConfig::max_conns`], not by thread count — the fixed worker pool
//! remains the only place jobs execute.
//!
//! Data flow:
//!
//! ```text
//!  clients ──▶ reactor ──(submit line)──▶ Server queue ──▶ workers
//!     ▲           │                                          │
//!     └── wbuf ◀──┴──◀── pending (conn_id, Response) ◀── ResponseSink
//!                         (wake byte via socketpair)
//! ```
//!
//! Workers never touch sockets: each connection's [`ResponseSink`]
//! pushes `(conn_id, Response)` onto a shared pending list and writes
//! one byte into a nonblocking socketpair to wake the poller, which
//! routes the response into the owning connection's write buffer.
//! Responses may interleave across requests of one connection — the
//! `id` field is the correlator (the protocol has always promised
//! out-of-order completion).
//!
//! No async runtime, no reactor crate: the poller is a ~30-line
//! `poll(2)` wrapper declared locally (`std` already links libc on
//! every unix target). Non-Linux unix builds fall back to a short-sleep
//! level-triggered emulation — correct, just less efficient.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::proto::Response;
use crate::server::{MuxStats, ResponseSink, Server};

/// Tuning knobs for the mux front end.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Maximum simultaneously open connections; accepts beyond this are
    /// closed immediately (`serve.mux.conn.refused`).
    pub max_conns: usize,
    /// Maximum bytes in one request line; longer lines kill the
    /// connection (the reactor cannot buffer unboundedly for a client
    /// that never sends a newline).
    pub max_line_bytes: usize,
    /// Maximum unflushed response bytes per connection; a consumer slow
    /// enough to exceed it is disconnected rather than allowed to pin
    /// response memory.
    pub max_wbuf_bytes: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            max_conns: 1024,
            max_line_bytes: 1 << 20,
            max_wbuf_bytes: 8 << 20,
        }
    }
}

/// State shared between the reactor and the worker-side response sinks.
struct Shared {
    /// Responses awaiting routing into their connection's write buffer.
    pending: Mutex<Vec<(u64, Response)>>,
    /// Write side of the wake socketpair (read side lives in the
    /// reactor's poll set).
    wake_tx: UnixStream,
    shutdown: AtomicBool,
}

impl Shared {
    fn push_response(&self, conn_id: u64, resp: Response) {
        self.pending.lock().push((conn_id, resp));
        // One byte is enough; WouldBlock means a wake is already queued.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// A running mux front end. Dropping it does *not* stop the reactor;
/// call [`Mux::shutdown`] (drains connections) or [`Mux::join`] (serve
/// forever).
pub struct Mux {
    shared: Arc<Shared>,
    stats: Arc<MuxStats>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl Mux {
    /// Bind `addr` and start the reactor thread serving `server`.
    pub fn spawn(server: Arc<Server>, addr: &str, config: MuxConfig) -> std::io::Result<Mux> {
        let listener = TcpListener::bind(addr)?;
        Mux::spawn_on(server, listener, config)
    }

    /// Start the reactor on an already-bound listener (tests bind port 0
    /// and read the assigned address back).
    pub fn spawn_on(
        server: Arc<Server>,
        listener: TcpListener,
        config: MuxConfig,
    ) -> std::io::Result<Mux> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            pending: Mutex::new(Vec::new()),
            wake_tx,
            shutdown: AtomicBool::new(false),
        });
        let stats = Arc::new(MuxStats {
            connections: Default::default(),
            max_connections: config.max_conns.max(1),
        });
        server.attach_mux_stats(Arc::clone(&stats));
        let reactor = {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("serve-mux".to_string())
                .spawn(move || reactor_loop(server, listener, wake_rx, shared, stats, config))?
        };
        Ok(Mux {
            shared,
            stats,
            local_addr,
            reactor: Some(reactor),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Open connections right now.
    pub fn connections(&self) -> usize {
        self.stats.connections.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain open connections, and join the reactor.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.shared.wake_tx).write(&[1]);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// Block on the reactor thread (production serve-forever mode).
    pub fn join(mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

/// How long the reactor keeps draining open connections after
/// [`Mux::shutdown`] before force-closing them (ms).
const DRAIN_GRACE_MS: u64 = 5_000;

/// Poll timeout: bounds how stale the shutdown flag can get even if no
/// fd ever becomes ready (the wake pipe normally cuts this short).
const POLL_TIMEOUT_MS: i32 = 500;

struct ConnEntry {
    conn: crate::conn::Conn,
    sink: ResponseSink,
}

fn reactor_loop(
    server: Arc<Server>,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    stats: Arc<MuxStats>,
    config: MuxConfig,
) {
    let mut conns: HashMap<u64, ConnEntry> = HashMap::new();
    let mut next_conn_id: u64 = 1;
    let mut drain_started: Option<std::time::Instant> = None;
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down && drain_started.is_none() {
            drain_started = Some(std::time::Instant::now());
        }
        if shutting_down && conns.is_empty() {
            break;
        }
        if let Some(started) = drain_started {
            if started.elapsed().as_millis() as u64 > DRAIN_GRACE_MS {
                // Grace expired: drop the stragglers.
                break;
            }
        }

        // Poll set layout: [wake, listener, conns...]; `ids[i]`
        // maps poll index `i + 2` back to the connection id. The
        // listener stays in the poll set even at the connection cap:
        // refusal is active (accept + immediate close) so a waiting
        // client sees EOF instead of hanging in the accept backlog.
        let accepting = !shutting_down;
        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(poller::pollfd(wake_rx.as_raw_fd(), true, false));
        fds.push(poller::pollfd(listener.as_raw_fd(), accepting, false));
        let mut ids = Vec::with_capacity(conns.len());
        for (&id, entry) in conns.iter() {
            fds.push(poller::pollfd(
                entry.conn.stream().as_raw_fd(),
                true,
                entry.conn.wants_write(),
            ));
            ids.push(id);
        }
        poller::poll(&mut fds, POLL_TIMEOUT_MS);

        // Wake pipe: drain it; the signal's payload is `shared.pending`.
        if poller::readable(&fds[0]) {
            let mut sink = [0u8; 256];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Route worker responses into their connections' write buffers.
        let pending = std::mem::take(&mut *shared.pending.lock());
        if !pending.is_empty() {
            let obs = zenesis_obs::enabled();
            for (conn_id, resp) in pending {
                match conns.get_mut(&conn_id) {
                    Some(entry) => {
                        let mut line = resp.to_json_line();
                        line.push('\n');
                        entry.conn.queue_write(&line);
                        if obs {
                            zenesis_obs::counter("serve.mux.responses").inc();
                        }
                    }
                    None => {
                        // Connection died before its response arrived;
                        // nobody is left to read it.
                        if obs {
                            zenesis_obs::counter("serve.mux.orphaned").inc();
                        }
                    }
                }
            }
        }

        // Accept until WouldBlock.
        if accepting && poller::readable(&fds[1]) {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if conns.len() >= config.max_conns {
                            // At capacity: refuse by immediate close.
                            if zenesis_obs::enabled() {
                                zenesis_obs::counter("serve.mux.conn.refused").inc();
                            }
                            drop(stream);
                            continue;
                        }
                        // Responses are small and written whole: with
                        // Nagle on, each would wait for the client's
                        // (delayed) ACK of the one before it.
                        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        let id = next_conn_id;
                        next_conn_id += 1;
                        let sink = {
                            let shared = Arc::clone(&shared);
                            ResponseSink::new(move |resp| shared.push_response(id, resp))
                        };
                        conns.insert(
                            id,
                            ConnEntry {
                                conn: crate::conn::Conn::new(stream),
                                sink,
                            },
                        );
                        stats.connections.store(conns.len(), Ordering::Relaxed);
                        if zenesis_obs::enabled() {
                            zenesis_obs::counter("serve.mux.conn.accepted").inc();
                            zenesis_obs::gauge("serve.mux.conn.open").set(conns.len() as i64);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Service readable/writable connections.
        for (i, &id) in ids.iter().enumerate() {
            let fd = &fds[i + 2];
            let entry = conns.get_mut(&id).expect("conn present");
            if poller::readable(fd) {
                let out = entry.conn.read_ready(config.max_line_bytes);
                if out.overflow && zenesis_obs::enabled() {
                    zenesis_obs::counter("serve.mux.line_overflow").inc();
                }
                for line in out.lines {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let fallback_id = entry.conn.next_line_id;
                    entry.conn.next_line_id += 1;
                    entry.conn.submitted += 1;
                    if zenesis_obs::enabled() {
                        zenesis_obs::counter("serve.mux.lines").inc();
                    }
                    server.submit(&line, fallback_id, &entry.sink);
                }
            }
            if poller::writable(fd) && entry.conn.wants_write() {
                entry.conn.write_ready();
            }
            if entry.conn.pending_write_bytes() > config.max_wbuf_bytes {
                entry.conn.dead = true;
                if zenesis_obs::enabled() {
                    zenesis_obs::counter("serve.mux.slow_consumer").inc();
                }
            }
        }

        // Tear down finished connections.
        let before = conns.len();
        conns.retain(|_, entry| !entry.conn.should_close());
        if conns.len() != before {
            stats.connections.store(conns.len(), Ordering::Relaxed);
            if zenesis_obs::enabled() {
                zenesis_obs::counter("serve.mux.conn.closed")
                    .add((before - conns.len()) as u64);
                zenesis_obs::gauge("serve.mux.conn.open").set(conns.len() as i64);
            }
        }
    }
    stats.connections.store(0, Ordering::Relaxed);
    if zenesis_obs::enabled() {
        zenesis_obs::gauge("serve.mux.conn.open").set(0);
    }
}

/// Minimal `poll(2)` wrapper. Linux declares the syscall locally (`std`
/// links libc, so the symbol is always available — no libc crate
/// needed); other unix targets emulate level-triggered readiness with a
/// short sleep, which is correct for nonblocking sockets, merely less
/// efficient.
mod poller {
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    pub fn pollfd(fd: i32, read: bool, write: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Treat errors/hangups as readable: the next nonblocking read
    /// observes the actual condition (EOF or error) and the connection
    /// state machine handles it.
    pub fn readable(fd: &PollFd) -> bool {
        fd.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    pub fn writable(fd: &PollFd) -> bool {
        fd.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }

    #[cfg(target_os = "linux")]
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        }
        loop {
            // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s
            // layout, and the pointer and count describe one exclusively
            // borrowed slice, which poll(2) only writes `revents` of.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            // EINTR: retry; any other failure degrades to the sleep
            // fallback so the reactor keeps making progress.
            if rc >= 0 {
                return rc;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            fallback_mark_all(fds);
            return fds.len() as i32;
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        std::thread::sleep(std::time::Duration::from_millis(
            (timeout_ms.max(1) as u64).min(5),
        ));
        fallback_mark_all(fds);
        fds.len() as i32
    }

    /// Mark every fd as ready for what it asked; nonblocking I/O turns
    /// the spurious readiness into `WouldBlock` no-ops.
    fn fallback_mark_all(fds: &mut [PollFd]) {
        for fd in fds {
            fd.revents = fd.events;
        }
    }
}
