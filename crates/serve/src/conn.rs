//! Per-connection state for the readiness-driven mux.
//!
//! A `Conn` owns one nonblocking TCP stream plus the buffers the
//! reactor needs to speak line-delimited JSON over it: a read buffer
//! accumulating bytes until a `\n` completes a request line, and a
//! write buffer of queued response lines drained whenever the socket is
//! writable. All I/O is nonblocking; `WouldBlock` just parks the
//! connection until the poller reports readiness again.
//!
//! Lifecycle: a connection is torn down when it errors (`dead`), or when
//! the client has half-closed its write side (`read_eof`) *and* every
//! submitted request has been answered *and* the write buffer has
//! drained. That last rule is the drain protocol: a client may shut down
//! its write half after its final request and keep reading until EOF,
//! certain it will receive every response.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// One multiplexed client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed as complete lines.
    rbuf: Vec<u8>,
    /// Encoded response lines waiting for socket writability.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written to the socket.
    wpos: usize,
    /// Request lines handed to the server (blank lines excluded).
    pub(crate) submitted: u64,
    /// Responses queued back to this connection.
    pub(crate) answered: u64,
    /// Client half-closed its write side (read returned EOF).
    pub(crate) read_eof: bool,
    /// Connection errored; close unconditionally.
    pub(crate) dead: bool,
    /// Fallback id for the next request line (line number, 1-based).
    pub(crate) next_line_id: u64,
}

/// Outcome of one readiness-driven read pass.
pub(crate) struct ReadOutcome {
    /// Complete request lines extracted (without the trailing newline).
    pub(crate) lines: Vec<String>,
    /// The line-length cap was exceeded; the connection was marked dead.
    pub(crate) overflow: bool,
}

impl Conn {
    /// Wrap an accepted stream. The caller must already have switched it
    /// to nonblocking mode.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            submitted: 0,
            answered: 0,
            read_eof: false,
            dead: false,
            next_line_id: 1,
        }
    }

    /// The underlying stream (for poll registration).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Read until `WouldBlock`/EOF and extract complete lines. A line
    /// longer than `max_line_bytes` kills the connection — the reactor
    /// cannot buffer unboundedly for a client that never sends `\n`.
    pub(crate) fn read_ready(&mut self, max_line_bytes: usize) -> ReadOutcome {
        let mut out = ReadOutcome {
            lines: Vec::new(),
            overflow: false,
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if self.rbuf.len() > max_line_bytes && !self.rbuf.contains(&b'\n') {
                        out.overflow = true;
                        self.dead = true;
                        return out;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return out;
                }
            }
        }
        let mut start = 0;
        while let Some(nl) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            let end = start + nl;
            let mut line = &self.rbuf[start..end];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.len() > max_line_bytes {
                out.overflow = true;
                self.dead = true;
                return out;
            }
            out.lines.push(String::from_utf8_lossy(line).into_owned());
            start = end + 1;
        }
        if start > 0 {
            self.rbuf.drain(..start);
        }
        if self.rbuf.len() > max_line_bytes {
            out.overflow = true;
            self.dead = true;
        }
        out
    }

    /// Queue one response line for this connection.
    pub(crate) fn queue_write(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.answered += 1;
    }

    /// Bytes queued but not yet written.
    pub(crate) fn pending_write_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Write as much queued output as the socket accepts right now.
    pub(crate) fn write_ready(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            // Reclaim the written prefix so a slow reader doesn't pin
            // the full history of its responses in memory.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Whether the poller should watch this socket for writability.
    pub(crate) fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Whether the reactor should tear this connection down now.
    /// In-flight jobs (`answered < submitted`) keep an EOF'd connection
    /// alive so their responses can still be delivered.
    pub(crate) fn should_close(&self) -> bool {
        self.dead || (self.read_eof && self.answered >= self.submitted && !self.wants_write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn extracts_complete_lines_and_buffers_partials() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        client
            .write_all(b"{\"a\":1}\r\n{\"b\":2}\n{\"part")
            .unwrap();
        client.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let out = conn.read_ready(1024);
        assert_eq!(
            out.lines,
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
        assert!(!out.overflow);
        assert!(!conn.read_eof);
        // The partial tail completes on the next pass.
        client.write_all(b"ial\":3}\n").unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let out = conn.read_ready(1024);
        assert_eq!(out.lines, vec!["{\"partial\":3}".to_string()]);
        assert!(conn.read_eof);
    }

    #[test]
    fn oversized_line_kills_the_connection() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        client.write_all(&vec![b'x'; 256]).unwrap();
        client.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let out = conn.read_ready(64);
        assert!(out.overflow);
        assert!(conn.dead);
        assert!(conn.should_close());
    }

    #[test]
    fn drain_protocol_holds_connection_until_answers_flush() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        client.write_all(b"{\"id\":1}\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let out = conn.read_ready(1024);
        assert_eq!(out.lines.len(), 1);
        conn.submitted += 1;
        assert!(conn.read_eof);
        // EOF but unanswered: stays open for the in-flight response.
        assert!(!conn.should_close());
        conn.queue_write("{\"id\":1,\"status\":\"ok\"}\n");
        assert!(conn.wants_write());
        assert!(!conn.should_close());
        conn.write_ready();
        assert!(!conn.wants_write());
        // Answered and flushed: now it may close. Dropping the server
        // side (what the reactor does on should_close) gives the client
        // EOF after the response bytes.
        assert!(conn.should_close());
        drop(conn);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert!(got.contains("\"status\":\"ok\""), "{got}");
    }
}
