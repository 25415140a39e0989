//! The load generator: one thread per connection, open or closed loop.
//!
//! An open loop sends on an evenly spaced schedule whatever the server
//! does, and times each request from when it was *due*, so a stall is
//! charged to every request it delays; how late the generator itself ran
//! is reported. A closed loop keeps a fixed number of requests in flight.
//! Arrivals are evenly spaced rather than random so that two runs offer
//! the server the same load.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::stats::median;

/// How long to wait for answers still outstanding when a phase ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x001;

    extern "C" {
        // `std` links libc, so the symbol is always there. `ppoll` and not
        // `poll` or `SO_RCVTIMEO`: those round the wait to milliseconds or
        // to scheduler ticks (4 ms here), which would make every open-loop
        // send late.
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Block until `fd` is readable or `timeout` passes.
fn wait_readable(fd: i32, timeout: Duration) -> bool {
    let mut pfd = sys::PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
    };
    // SAFETY: `pfd` and `ts` are live locals laid out as Linux's `struct
    // pollfd` and `struct timespec`; `nfds` is 1, the length of the array
    // `pfd` stands for; a null `sigmask` leaves the signal mask alone.
    let rc = unsafe { sys::ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    // An interrupted or failed wait reads as "not yet": the caller checks
    // the clock and comes back.
    rc > 0
}

/// One client connection speaking the JSONL protocol.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// When the bytes now in `buf` arrived.
    read_at: Instant,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            read_at: Instant::now(),
        })
    }

    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                // The socket is nonblocking for the reads' sake; a full
                // send buffer (never seen with these request sizes) waits.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next response line and its arrival time, or `None` once
    /// `deadline` has passed without one.
    pub fn recv_line(&mut self, deadline: Instant) -> std::io::Result<Option<(String, Instant)>> {
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                return Ok(Some((line, self.read_at)));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if !wait_readable(self.stream.as_raw_fd(), deadline - now) {
                continue;
            }
            self.read_at = Instant::now();
            let mut chunk = [0u8; 1 << 16];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// A parsed response line.
#[derive(Debug, Clone)]
pub struct Reply {
    pub id: u64,
    pub status: String,
    pub queue_ms: f64,
    pub run_ms: f64,
    pub result: Value,
}

/// Parse one response line of the serving protocol.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
    let field = |name: &str| v.get(name).ok_or_else(|| format!("no `{name}` field"));
    Ok(Reply {
        id: field("id")?
            .as_u64()
            .ok_or("`id` is not an unsigned integer")?,
        status: field("status")?
            .as_str()
            .ok_or("`status` is not a string")?
            .to_string(),
        queue_ms: field("queue_ms")?
            .as_f64()
            .ok_or("`queue_ms` is not a number")?,
        run_ms: field("run_ms")?
            .as_f64()
            .ok_or("`run_ms` is not a number")?,
        result: field("result")?.clone(),
    })
}

/// One request and, once it arrived, its answer.
#[derive(Debug, Clone)]
pub struct Record {
    /// Which expected answer this request must match (an index the
    /// workload assigns).
    pub key: usize,
    /// When the schedule said to send it; in a closed loop, when the
    /// previous answer freed its place.
    pub due: Instant,
    /// When an open loop had actually written it (`due` in a closed loop).
    pub sent: Instant,
    pub done: Option<Instant>,
    pub reply: Option<Reply>,
}

impl Record {
    /// Client latency from the due time, ms; `None` without an answer.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator sent it, ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Send on an evenly spaced schedule, whatever is outstanding.
    Open { per_s: f64 },
    /// Keep this many requests outstanding.
    Closed { in_flight: usize },
}

/// One stretch of traffic on one connection.
pub struct Drive<'a> {
    pub pace: Pace,
    /// Stop sending at this time; answers still outstanding are awaited.
    pub deadline: Instant,
    /// Stop sending as soon as this is set (another connection finished).
    pub stop: Option<&'a AtomicBool>,
    /// Closed loop of long jobs: do not start one that, going by the
    /// median so far, would not finish by the deadline.
    pub whole_jobs: bool,
    /// Send at most this many requests (warm-ups send a fixed number).
    pub limit: usize,
    /// Envelope `tenant`, if any.
    pub tenant: Option<&'a str>,
}

/// Run one stretch of traffic. `next` yields each request's expected-answer
/// key and its spec as JSON; `next_id` numbers the envelopes and carries
/// over between stretches on the same connection.
pub fn drive(
    conn: &mut Conn,
    cfg: &Drive,
    next_id: &mut u64,
    next: &mut dyn FnMut() -> (usize, String),
) -> Result<Vec<Record>, String> {
    let io = |e: std::io::Error| format!("connection failed: {e}");
    let first_id = *next_id;
    let start = Instant::now();
    let mut records: Vec<Record> = Vec::new();
    let mut outstanding = 0usize;
    let mut drain_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let stopped = now >= cfg.deadline
            || records.len() >= cfg.limit
            || cfg.stop.is_some_and(|s| s.load(Ordering::SeqCst));
        let mut wait_until = cfg.deadline;
        let mut due = None;
        if !stopped {
            match cfg.pace {
                Pace::Open { per_s } => {
                    let at = start + Duration::from_secs_f64(records.len() as f64 / per_s);
                    if at <= now {
                        due = Some(at);
                    } else {
                        wait_until = at.min(cfg.deadline);
                    }
                }
                Pace::Closed { in_flight } => {
                    let fits = !cfg.whole_jobs || {
                        let done: Vec<f64> =
                            records.iter().filter_map(Record::latency_ms).collect();
                        now + Duration::from_secs_f64(median(&done) / 1e3) <= cfg.deadline
                    };
                    if outstanding < in_flight && fits {
                        due = Some(now);
                    } else if outstanding == 0 {
                        break;
                    }
                }
            }
        } else if outstanding == 0 {
            break;
        } else {
            wait_until = *drain_until.get_or_insert(now + DRAIN_TIMEOUT);
            if now >= wait_until {
                break; // unanswered requests stay `done: None` and count as failed
            }
        }
        if let Some(due) = due {
            let (key, spec) = next();
            let id = *next_id;
            *next_id += 1;
            let line = match cfg.tenant {
                Some(t) => format!(r#"{{"id":{id},"tenant":"{t}","spec":{spec}}}"#),
                None => format!(r#"{{"id":{id},"spec":{spec}}}"#),
            };
            conn.send_line(&line).map_err(io)?;
            records.push(Record {
                key,
                due,
                // A closed loop has no schedule to be late against.
                sent: match cfg.pace {
                    Pace::Open { .. } => Instant::now(),
                    Pace::Closed { .. } => due,
                },
                done: None,
                reply: None,
            });
            outstanding += 1;
            continue;
        }
        if let Some((line, at)) = conn.recv_line(wait_until).map_err(io)? {
            let reply = parse_reply(&line).map_err(|e| format!("bad response {line:?}: {e}"))?;
            let slot = reply
                .id
                .checked_sub(first_id)
                .and_then(|i| records.get_mut(i as usize))
                .filter(|r| r.done.is_none())
                .ok_or_else(|| format!("response for unknown or answered id {}", reply.id))?;
            slot.done = Some(at);
            slot.reply = Some(reply);
            outstanding -= 1;
        }
    }
    Ok(records)
}

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_seconds() -> f64 {
    // Linux reports these in USER_HZ ticks, which is 100 on every
    // architecture the server builds for.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<&str> = s.rsplit_once(')')?.1.split_whitespace().collect();
            // After `)`: state is field 0, utime field 11, stime field 12.
            Some(
                (fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?)
                    / TICKS_PER_S,
            )
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// An in-process listener that answers every request line at once.
    fn echo_listener() -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut served = 0;
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                let v: Value = serde_json::from_str(&line).unwrap();
                let id = v["id"].as_u64().unwrap();
                writeln!(
                    writer,
                    r#"{{"id":{id},"status":"ok","trace_id":"00","attempts":1,"queue_ms":0.25,"run_ms":1.5,"result":{{"kind":"slice","detections":[],"mask_pixels":0,"coverage":0.0,"total_ms":0.0}}}}"#
                )
                .unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    fn spec_source() -> impl FnMut() -> (usize, String) {
        let mut n = 0;
        move || {
            n += 1;
            (n % 3, r#"{"mode":"interactive"}"#.to_string())
        }
    }

    #[test]
    fn open_loop_sends_on_the_schedule_and_matches_every_answer() {
        let (addr, server) = echo_listener();
        let mut conn = Conn::connect(addr).unwrap();
        let mut next_id = 100;
        let cfg = Drive {
            pace: Pace::Open { per_s: 200.0 },
            deadline: Instant::now() + Duration::from_millis(500),
            stop: None,
            whole_jobs: false,
            limit: usize::MAX,
            tenant: Some("ui"),
        };
        let records = drive(&mut conn, &cfg, &mut next_id, &mut spec_source()).unwrap();
        drop(conn);
        // 200/s for 0.5 s: due times 0, 5, ..., 495 ms.
        assert_eq!(records.len(), 100);
        assert_eq!(next_id, 200);
        assert_eq!(server.join().unwrap(), 100);
        for (i, pair) in records.windows(2).enumerate() {
            let gap = pair[1].due.duration_since(pair[0].due);
            assert_eq!(
                gap,
                Duration::from_millis(5),
                "due times {i} and {} are evenly spaced",
                i + 1
            );
        }
        for r in &records {
            let reply = r.reply.as_ref().expect("every request is answered");
            assert_eq!(reply.status, "ok");
            assert!(r.sent >= r.due, "nothing is sent before it is due");
            assert!(r.latency_ms().unwrap() >= r.late_ms());
            // Generous: a loaded test host may run late, a schedule bug
            // would run seconds late.
            assert!(r.late_ms() < 100.0, "sent {} ms late", r.late_ms());
        }
        assert_eq!(records[4].key, 5 % 3);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_stops_at_the_deadline() {
        let (addr, server) = echo_listener();
        let mut conn = Conn::connect(addr).unwrap();
        let mut next_id = 0;
        let deadline = Instant::now() + Duration::from_millis(200);
        let cfg = Drive {
            pace: Pace::Closed { in_flight: 4 },
            deadline,
            stop: None,
            whole_jobs: false,
            limit: usize::MAX,
            tenant: None,
        };
        let records = drive(&mut conn, &cfg, &mut next_id, &mut spec_source()).unwrap();
        drop(conn);
        assert!(
            records.len() > 4,
            "an echo server answers in well under 200 ms"
        );
        assert_eq!(server.join().unwrap(), records.len());
        assert!(records
            .iter()
            .all(|r| r.reply.is_some() && r.sent <= deadline));
    }

    #[test]
    fn stop_flag_ends_a_stretch_early() {
        let (addr, server) = echo_listener();
        let mut conn = Conn::connect(addr).unwrap();
        let stop = AtomicBool::new(true);
        let cfg = Drive {
            pace: Pace::Open { per_s: 1000.0 },
            deadline: Instant::now() + Duration::from_secs(30),
            stop: Some(&stop),
            whole_jobs: false,
            limit: usize::MAX,
            tenant: None,
        };
        let records = drive(&mut conn, &cfg, &mut 0, &mut spec_source()).unwrap();
        drop(conn);
        assert!(records.is_empty());
        assert_eq!(server.join().unwrap(), 0);
    }

    #[test]
    fn reply_parser_reads_the_protocol_fields() {
        let line = r#"{"id":7,"status":"ok","trace_id":"92d3f0a1c44be977","attempts":1,"queue_ms":0.4,"run_ms":113.0,"result":{"kind":"slice","detections":[{"x0":1,"y0":2,"x1":3,"y1":4}],"mask_pixels":9,"coverage":0.1,"total_ms":1.0}}"#;
        let r = parse_reply(line).unwrap();
        assert_eq!((r.id, r.status.as_str()), (7, "ok"));
        assert_eq!((r.queue_ms, r.run_ms), (0.4, 113.0));
        assert_eq!(r.result["mask_pixels"], 9u64);
        let busy = r#"{"id":8,"status":"busy","trace_id":"00","attempts":0,"queue_ms":0.0,"run_ms":0.0,"retry_after_ms":25,"result":{"kind":"busy","message":"queue full","capacity":64}}"#;
        assert_eq!(parse_reply(busy).unwrap().status, "busy");
    }

    #[test]
    fn reply_parser_rejects_lines_that_are_not_responses() {
        assert!(parse_reply("not json").is_err());
        assert!(parse_reply(r#"{"status":"ok"}"#)
            .unwrap_err()
            .contains("id"));
        assert!(
            parse_reply(r#"{"id":"7","status":"ok","queue_ms":0,"run_ms":0,"result":{}}"#).is_err()
        );
        assert!(
            parse_reply(r#"{"id":7,"status":"ok","queue_ms":0,"run_ms":0}"#)
                .unwrap_err()
                .contains("result")
        );
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() > before);
    }
}
