//! Shared HTTP client helpers for the integration suites: a one-shot
//! raw `TcpStream` client (`Connection: close`), a keep-alive client
//! that reads responses by `Content-Length` and can decode chunked
//! trace streams, plus readers for JSON reply fields and metrics.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mcd_trace::json::{self, Value};

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// Body bytes (after the blank line), as a string.
    pub body: String,
    /// `Content-Type` header, when present.
    pub content_type: Option<String>,
    /// `Retry-After` header, when present.
    pub retry_after: Option<u64>,
    /// Whether the server answered `Connection: close`.
    pub closing: bool,
}

/// Sends one request and reads the full response. Errors are connection
/// errors; any complete HTTP exchange yields `Ok`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    // Runs can take a while; the read deadline only guards against a
    // genuinely hung server.
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let Some((headers, body)) = text.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("no header/body split in {text:?}"),
        ));
    };
    let status: u16 = headers
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line in {headers:?}"),
            )
        })?;
    let header = |wanted: &str| {
        headers.lines().find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.trim().eq_ignore_ascii_case(wanted) {
                Some(value.trim().to_string())
            } else {
                None
            }
        })
    };
    let retry_after = header("retry-after").and_then(|v| v.parse().ok());
    let content_type = header("content-type");
    let closing = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok(Reply {
        status,
        body: body.to_string(),
        content_type,
        retry_after,
        closing,
    })
}

/// A persistent (keep-alive) HTTP/1.1 client over one raw socket.
/// Responses are framed by `Content-Length`, so many exchanges — or
/// several pipelined ones — ride the same connection. Also decodes the
/// server's chunked NDJSON trace streams.
pub struct KeepAlive {
    stream: TcpStream,
    /// Read-ahead buffer: bytes received but not yet consumed (the tail
    /// of a pipelined batch, for instance).
    buf: Vec<u8>,
}

impl KeepAlive {
    /// Connects with generous deadlines (runs can take a while).
    pub fn connect(addr: SocketAddr) -> std::io::Result<KeepAlive> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(KeepAlive {
            stream,
            buf: Vec::new(),
        })
    }

    /// The underlying socket (for half-close / abort tests).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Writes raw bytes (for pipelining and partial-write tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Sends one request *without* `Connection: close`.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        self.send_raw(&wire)
    }

    /// Like [`KeepAlive::send`] but with an `Accept` header, for
    /// negotiating the binary `.mcdt` stream format.
    pub fn send_accept(
        &mut self,
        method: &str,
        path: &str,
        accept: &str,
        body: &[u8],
    ) -> std::io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nAccept: {accept}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        self.send_raw(&wire)
    }

    /// One full exchange: send, then read the reply.
    pub fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        self.send(method, path, body)?;
        self.read_reply()
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Consumes bytes from the buffer until `needle` has been seen,
    /// returning everything up to and including it.
    fn read_until(&mut self, needle: &[u8]) -> std::io::Result<Vec<u8>> {
        loop {
            if let Some(pos) = self.buf.windows(needle.len()).position(|w| w == needle) {
                let mut head: Vec<u8> = self.buf.drain(..pos + needle.len()).collect();
                head.truncate(pos + needle.len());
                return Ok(head);
            }
            if self.fill()? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("connection closed before {needle:?}"),
                ));
            }
        }
    }

    /// Consumes exactly `n` bytes.
    fn read_exact_buf(&mut self, n: usize) -> std::io::Result<Vec<u8>> {
        while self.buf.len() < n {
            if self.fill()? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// Reads one `Content-Length`-framed reply, leaving any pipelined
    /// successor bytes buffered.
    pub fn read_reply(&mut self) -> std::io::Result<Reply> {
        let (status, headers) = self.read_head()?;
        let header = |wanted: &str| find_header(&headers, wanted);
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("keep-alive reply without Content-Length: {headers:?}"),
                )
            })?;
        let body = self.read_exact_buf(len)?;
        Ok(Reply {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
            content_type: header("content-type"),
            retry_after: header("retry-after").and_then(|v| v.parse().ok()),
            closing: header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")),
        })
    }

    fn read_head(&mut self) -> std::io::Result<(u16, String)> {
        let head = self.read_until(b"\r\n\r\n")?;
        let headers = String::from_utf8_lossy(&head).into_owned();
        let status: u16 = headers
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line in {headers:?}"),
                )
            })?;
        Ok((status, headers))
    }

    /// Reads a chunked NDJSON stream to its terminating chunk: the
    /// response head must advertise `Transfer-Encoding: chunked`.
    /// Returns the status and the decoded body split into lines.
    pub fn read_stream(&mut self) -> std::io::Result<(u16, Vec<String>)> {
        let (status, body, _) = self.read_stream_raw()?;
        let text = String::from_utf8_lossy(&body);
        Ok((status, text.lines().map(|l| format!("{l}\n")).collect()))
    }

    /// Reads a chunked stream to its terminating chunk without decoding
    /// the payload as text: status, concatenated chunk bytes, and the
    /// `Content-Type` header (for binary `.mcdt` streams).
    pub fn read_stream_raw(&mut self) -> std::io::Result<(u16, Vec<u8>, Option<String>)> {
        let (status, headers) = self.read_head()?;
        let content_type = find_header(&headers, "content-type");
        if !find_header(&headers, "transfer-encoding").is_some_and(|v| v.contains("chunked")) {
            // Not a stream after all (e.g. a 4xx): frame by length.
            let len: usize = find_header(&headers, "content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let body = self.read_exact_buf(len)?;
            return Ok((status, body, content_type));
        }
        let mut decoded = Vec::new();
        loop {
            let size_line = self.read_until(b"\r\n")?;
            let size_text = String::from_utf8_lossy(&size_line);
            let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad chunk size {size_text:?}"),
                )
            })?;
            if size == 0 {
                let _ = self.read_until(b"\r\n")?; // trailing CRLF
                break;
            }
            decoded.extend_from_slice(&self.read_exact_buf(size)?);
            let _ = self.read_exact_buf(2)?; // chunk CRLF
        }
        Ok((status, decoded, content_type))
    }
}

fn find_header(headers: &str, wanted: &str) -> Option<String> {
    headers.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        if name.trim().eq_ignore_ascii_case(wanted) {
            Some(value.trim().to_string())
        } else {
            None
        }
    })
}

/// POSTs a `/run` body.
pub fn run(addr: SocketAddr, body: &str) -> std::io::Result<Reply> {
    request(addr, "POST", "/run", body.as_bytes())
}

/// Parses a JSON reply body strictly and returns the value at `path`
/// (`service.accepted`, `controller_activity.0.relay_fires`). Panics
/// with the body when it is not JSON or the path is absent.
pub fn json_at(body: &str, path: &str) -> Value {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {body}"));
    doc.path(path)
        .cloned()
        .unwrap_or_else(|| panic!("no {path} in {body}"))
}

/// Reads one unsigned counter, by path, out of `GET /metrics?format=json`
/// (the bare endpoint serves Prometheus text).
pub fn metric(addr: SocketAddr, path: &str) -> u64 {
    let reply =
        request(addr, "GET", "/metrics?format=json", b"").expect("metrics endpoint answers");
    assert_eq!(reply.status, 200, "metrics must be 200: {}", reply.body);
    json_at(&reply.body, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path} is not a counter in {}", reply.body))
}
