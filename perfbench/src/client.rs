//! A small HTTP/1.1 client for the server's wire formats: keep-alive
//! requests with `Content-Length` bodies, chunked NDJSON streams, and the
//! upgraded NDJSON session transport.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use voxolap_json::Value;

/// Longest a single read may block; a wedged server fails the operation
/// instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Response framing read from a status line plus headers.
struct Head {
    status: u16,
    chunked: bool,
    content_length: usize,
    keep_alive: bool,
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    /// `false` once the server announced `Connection: close` or the
    /// exchange broke off; the next request then reconnects.
    reusable: bool,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(stream), addr, reusable: true })
    }

    fn ensure_open(&mut self) -> io::Result<()> {
        if !self.reusable {
            *self = Conn::connect(self.addr)?;
        }
        Ok(())
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        self.ensure_open()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body);
        stream.write_all(&msg)?;
        stream.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_head(&mut self) -> io::Result<Head> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
        let mut head = Head { status, chunked: false, content_length: 0, keep_alive: false };
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim().to_ascii_lowercase();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    head.content_length =
                        value.parse().map_err(|_| invalid("bad Content-Length"))?
                }
                "transfer-encoding" => head.chunked = value.contains("chunked"),
                "connection" => head.keep_alive = value.contains("keep-alive"),
                _ => {}
            }
        }
        self.reusable = head.keep_alive;
        Ok(head)
    }

    fn read_sized_body(&mut self, head: &Head) -> io::Result<Vec<u8>> {
        let mut body = vec![0; head.content_length];
        self.reader.read_exact(&mut body)?;
        Ok(body)
    }

    /// Plain request/response exchange: `(status, body)`.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        let result = self.send(method, path, body).and_then(|()| {
            let head = self.read_head()?;
            let body = self.read_sized_body(&head)?;
            Ok((head.status, body))
        });
        if result.is_err() {
            self.reusable = false;
        }
        result
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.exchange("GET", path, b"")
    }

    /// `GET /stats` parsed as JSON.
    pub fn stats(&mut self) -> Result<Value, String> {
        match self.get("/stats") {
            Ok((200, body)) => Value::parse_slice(&body).map_err(|e| e.to_string()),
            Ok((status, _)) => Err(format!("/stats answered {status}")),
            Err(e) => Err(format!("/stats: {e}")),
        }
    }

    /// `POST path` whose answer is a chunked NDJSON stream; every event
    /// is handed to `on_event` with the instant its line arrived. A
    /// non-2xx answer is returned as `Ok(Err(status))` without events.
    pub fn post_stream(
        &mut self,
        path: &str,
        body: &[u8],
        mut on_event: impl FnMut(Value, Instant),
    ) -> io::Result<Result<(), u16>> {
        let result = self.send("POST", path, body).and_then(|()| {
            let head = self.read_head()?;
            if !head.chunked {
                self.read_sized_body(&head)?;
                return Ok(Err(head.status));
            }
            let mut pending = Vec::new();
            loop {
                let size_line = self.read_line()?;
                let size =
                    usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    self.read_line()?;
                    break;
                }
                let start = pending.len();
                pending.resize(start + size, 0);
                self.reader.read_exact(&mut pending[start..])?;
                self.read_line()?;
                let at = Instant::now();
                while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=nl).collect();
                    let event = Value::parse_slice(&line[..nl])
                        .map_err(|e| invalid(format!("bad NDJSON event: {e}")))?;
                    on_event(event, at);
                }
            }
            if (200..300).contains(&head.status) {
                Ok(Ok(()))
            } else {
                Ok(Err(head.status))
            }
        });
        if result.is_err() {
            self.reusable = false;
        }
        result
    }
}

/// An upgraded NDJSON session connection (`GET /session/<id>/attach`).
pub struct SessionConn {
    reader: BufReader<TcpStream>,
}

impl SessionConn {
    /// Attach to session `id`; fails unless the server answers `101` and
    /// greets with a `hello` event.
    pub fn attach(addr: SocketAddr, id: &str) -> io::Result<SessionConn> {
        let mut conn = Conn::connect(addr)?;
        let stream = conn.reader.get_mut();
        stream.write_all(
            format!("GET /session/{id}/attach HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
        )?;
        let head = conn.read_head()?;
        if head.status != 101 {
            return Err(invalid(format!("attach answered {}", head.status)));
        }
        let mut session = SessionConn { reader: conn.reader };
        let hello = session.next_event()?;
        if hello["type"].as_str() != Some("hello") {
            return Err(invalid(format!("expected hello, got {hello}")));
        }
        Ok(session)
    }

    pub fn send(&mut self, event: &Value) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("{event}\n").as_bytes())?;
        stream.flush()
    }

    /// The next event, skipping heartbeats.
    pub fn next_event(&mut self) -> io::Result<Value> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "session closed"));
            }
            let event = Value::parse(line.trim()).map_err(|e| invalid(e.to_string()))?;
            if event["type"].as_str() != Some("heartbeat") {
                return Ok(event);
            }
        }
    }
}
