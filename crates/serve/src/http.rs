//! HTTP/1.1 framing for the readiness-based connection path — exactly
//! the subset the service needs.
//!
//! Parsing is **incremental**: [`parse_request`] examines a byte buffer
//! the event loop has accumulated so far and reports either a complete
//! request (plus how many bytes it consumed, so pipelined successors
//! stay in the buffer), "need more bytes", or a typed error. It never
//! blocks and never touches a socket, which is what lets one loop
//! thread interleave thousands of partially-read connections.
//!
//! Keep-alive is the default (HTTP/1.1 semantics); a request carries
//! [`Request::wants_close`] when the client opted out. Responses render
//! to a single byte buffer in one shot — the property that makes
//! "duplicate requests receive byte-identical response bodies" checkable
//! rather than hoped-for survives the I/O model swap because the body
//! bytes are still rendered exactly once and shared.
//!
//! Bounds are enforced everywhere: header bytes past [`MAX_HEADER_BYTES`]
//! are a 431, bodies past [`MAX_BODY`] a 413, so a hostile client costs
//! the loop a bounded buffer and one deadline, never a thread.

pub use mcd_trace::json::json_escape;

/// Largest accepted request body; larger requests get 413.
pub const MAX_BODY: usize = 64 * 1024;
/// Largest accepted request line or header line.
const MAX_LINE: usize = 8 * 1024;
/// Most header lines read before the request is rejected with 431.
const MAX_HEADERS: usize = 64;
/// Total header-section bound (request line + headers + separators);
/// beyond it the request is rejected with 431.
pub const MAX_HEADER_BYTES: usize = MAX_LINE + MAX_HEADERS * 256;

/// A parsed request: method, path, query, body, and the connection
/// disposition the client asked for.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw query string after `?` (empty when none; no decoding).
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// `true` when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without requesting keep-alive).
    pub wants_close: bool,
    /// `true` when the `Accept` header lists `application/x-mcdt`: the
    /// client wants trace streams as CRC'd binary frames, not NDJSON.
    pub accepts_mcdt: bool,
}

impl Request {
    /// Whether the query string contains the exact `key=value` pair
    /// (the only query syntax this service speaks; no percent-decoding).
    pub fn query_has(&self, key: &str, value: &str) -> bool {
        self.query
            .split('&')
            .any(|pair| pair.split_once('=') == Some((key, value)))
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request (maps to 400).
    Malformed(String),
    /// Header section over the configured bound (maps to 431).
    HeadersTooLarge,
    /// Body over the configured bound (maps to 413).
    BodyTooLarge,
}

impl HttpError {
    /// The response this parse error maps to. Every parse error closes
    /// the connection: framing is unreliable after a bad request.
    pub fn response(&self) -> Response {
        match self {
            HttpError::Malformed(m) => Response::error(400, "malformed", m),
            HttpError::HeadersTooLarge => Response::error(
                431,
                "headers-too-large",
                "request header section exceeds service bounds",
            ),
            HttpError::BodyTooLarge => {
                Response::error(413, "too-large", "request exceeds service bounds")
            }
        }
    }
}

/// What [`parse_request`] found at the front of the buffer.
pub enum Parsed {
    /// A complete request occupying the first `consumed` bytes.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
    /// The buffer holds a valid prefix; wait for more bytes.
    Partial,
    /// The buffer can never become a valid request.
    Error(HttpError),
}

/// Attempts to parse one request from the front of `buf`. Stateless:
/// call it again with the grown buffer after every read. O(len) per
/// call, which stays cheap because the header section is bounded.
pub fn parse_request(buf: &[u8]) -> Parsed {
    // Find the end of the header section.
    let Some(head_end) = find_header_end(buf) else {
        // No terminator yet — partial, unless the section can no longer
        // fit in bounds.
        if buf.len() > MAX_HEADER_BYTES {
            return Parsed::Error(HttpError::HeadersTooLarge);
        }
        return Parsed::Partial;
    };
    if head_end > MAX_HEADER_BYTES {
        return Parsed::Error(HttpError::HeadersTooLarge);
    }
    let head = &buf[..head_end];
    let mut lines = split_lines(head);
    let Some(request_line) = lines.next() else {
        return Parsed::Error(HttpError::Malformed("empty request".into()));
    };
    if request_line.len() > MAX_LINE {
        return Parsed::Error(HttpError::HeadersTooLarge);
    }
    let Ok(request_line) = std::str::from_utf8(request_line) else {
        return Parsed::Error(HttpError::Malformed("non-UTF-8 request line".into()));
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parsed::Error(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Parsed::Error(HttpError::Malformed(format!("bad version {version:?}")));
    }
    let http10 = version == "HTTP/1.0";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut wants_close = http10;
    let mut accepts_mcdt = false;
    let mut header_count = 0usize;
    for line in lines {
        header_count += 1;
        if header_count > MAX_HEADERS || line.len() > MAX_LINE {
            return Parsed::Error(HttpError::HeadersTooLarge);
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return Parsed::Error(HttpError::Malformed("non-UTF-8 header bytes".into()));
        };
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Error(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<usize>() else {
                return Parsed::Error(HttpError::Malformed(format!(
                    "bad content-length {value:?}"
                )));
            };
            if n > MAX_BODY {
                return Parsed::Error(HttpError::BodyTooLarge);
            }
            content_length = n;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                wants_close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                wants_close = false;
            }
        } else if name.eq_ignore_ascii_case("accept") {
            if value
                .split(',')
                .any(|m| m.trim().eq_ignore_ascii_case("application/x-mcdt"))
            {
                accepts_mcdt = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // The service never accepts chunked request bodies.
            return Parsed::Error(HttpError::Malformed(
                "transfer-encoding request bodies are not supported".into(),
            ));
        }
    }

    let body_start = head_end;
    if buf.len() < body_start + content_length {
        return Parsed::Partial;
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    Parsed::Complete {
        request: Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            body,
            wants_close,
            accepts_mcdt,
        },
        consumed: body_start + content_length,
    }
}

/// Index one past the `\r\n\r\n` (or `\n\n`) separating headers from
/// body, or `None` when the separator has not arrived yet.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // "\n\n" or "\n\r\n" both end the section.
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Splits the header section into lines, tolerating both `\r\n` and
/// bare `\n`, dropping the empty terminator line.
fn split_lines(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    head.split(|&b| b == b'\n').filter_map(|line| {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            None
        } else {
            Some(line)
        }
    })
}

/// A fully rendered response body plus the headers that depend on it.
/// The wire bytes are produced by [`Response::render`] exactly once per
/// connection; coalesced duplicates share the same body buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` seconds, set on load-shedding 503s.
    pub retry_after: Option<u64>,
}

/// Reason phrase for the status codes this service emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A response with an explicit `Content-Type` (e.g. the Prometheus
    /// text exposition format on `GET /metrics`).
    pub fn text(status: u16, body: String, content_type: &'static str) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type,
            retry_after: None,
        }
    }

    /// A structured error body: `{"error": <kind>, "message": <msg>}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\"error\": \"{}\", \"message\": \"{}\"}}\n",
                json_escape(kind),
                json_escape(message)
            ),
        )
    }

    /// The load-shedding response: 503 plus `Retry-After`. Always
    /// rendered with `Connection: close` — a shed connection must not
    /// be reused, or a pipelined successor would be half-answered.
    pub fn shed(retry_after_s: u64) -> Response {
        let mut r = Response::error(
            503,
            "overloaded",
            "service at capacity; retry after the indicated delay",
        );
        r.retry_after = Some(retry_after_s);
        r
    }

    /// Serializes status line, headers, and body into one wire buffer.
    /// `close` selects the `Connection` header; shed responses force it.
    pub fn render(&self, close: bool) -> Vec<u8> {
        let close = close || self.retry_after.is_some();
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        if let Some(s) = self.retry_after {
            head.push_str(&format!("Retry-After: {s}\r\n"));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// The response head that opens a trace stream: chunked JSON-lines,
/// `Connection: close` (a chunked stream is this connection's last act).
pub fn stream_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
      Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        .to_vec()
}

/// The stream head for `Accept: application/x-mcdt` subscribers: same
/// chunked framing, but the chunks carry self-contained binary frames
/// (see `mcd_trace::frame`) instead of JSON lines.
pub fn stream_head_mcdt() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\nContent-Type: application/x-mcdt\r\n\
      Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        .to_vec()
}

/// Wraps `data` as one HTTP chunk.
pub fn chunk(data: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating zero-length chunk.
pub fn chunk_end() -> &'static [u8] {
    b"0\r\n\r\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf) {
            Parsed::Complete { request, consumed } => (request, consumed),
            Parsed::Partial => panic!("unexpectedly partial"),
            Parsed::Error(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn parses_a_complete_request_and_reports_consumption() {
        let wire = b"POST /run?stream=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        let (req, consumed) = complete(wire);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.query, "stream=1");
        assert!(req.query_has("stream", "1"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(consumed, wire.len() - 5, "EXTRA stays for the pipeline");
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        assert!(matches!(parse_request(b"GET /hea"), Parsed::Partial));
        assert!(matches!(
            parse_request(b"GET /x HTTP/1.1\r\nHost: y\r\n"),
            Parsed::Partial
        ));
        // Headers complete but body still in flight.
        assert!(matches!(
            parse_request(b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Parsed::Partial
        ));
    }

    #[test]
    fn connection_close_and_http10_are_honored() {
        let (req, _) = complete(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close);
        let (req, _) = complete(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(req.wants_close, "HTTP/1.0 defaults to close");
        let (req, _) = complete(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.wants_close);
    }

    #[test]
    fn oversized_headers_are_431_and_oversized_bodies_413() {
        let long_line = vec![b'a'; MAX_HEADER_BYTES + 2];
        assert!(matches!(
            parse_request(&long_line),
            Parsed::Error(HttpError::HeadersTooLarge)
        ));
        let wire = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse_request(wire.as_bytes()),
            Parsed::Error(HttpError::BodyTooLarge)
        ));
        assert_eq!(HttpError::HeadersTooLarge.response().status, 431);
        assert_eq!(HttpError::BodyTooLarge.response().status, 413);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for wire in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse_request(wire), Parsed::Error(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, consumed) = complete(wire);
        assert_eq!(first.path, "/healthz");
        let (second, rest) = complete(&wire[consumed..]);
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + rest, wire.len());
    }

    #[test]
    fn render_emits_connection_header_and_shed_forces_close() {
        let ok = Response::json(200, "{}\n".to_string());
        let keep = String::from_utf8(ok.render(false)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        let closed = String::from_utf8(ok.render(true)).unwrap();
        assert!(closed.contains("Connection: close\r\n"), "{closed}");

        let shed = String::from_utf8(Response::shed(2).render(false)).unwrap();
        assert!(
            shed.contains("Connection: close\r\n"),
            "shed must never keep alive: {shed}"
        );
        assert!(shed.contains("Retry-After: 2\r\n"));
    }

    #[test]
    fn chunked_helpers_frame_correctly() {
        assert_eq!(chunk(b"abc"), b"3\r\nabc\r\n");
        assert_eq!(chunk_end(), b"0\r\n\r\n");
        let head = String::from_utf8(stream_head()).unwrap();
        assert!(head.contains("Transfer-Encoding: chunked"));
        assert!(head.ends_with("\r\n\r\n"));
        let bin = String::from_utf8(stream_head_mcdt()).unwrap();
        assert!(bin.contains("Content-Type: application/x-mcdt"));
        assert!(bin.contains("Transfer-Encoding: chunked"));
    }

    #[test]
    fn accept_header_selects_the_binary_stream_format() {
        let (req, _) = complete(b"GET /watch/k HTTP/1.1\r\nAccept: application/x-mcdt\r\n\r\n");
        assert!(req.accepts_mcdt);
        // A list with parameters still matches the exact media type.
        let (req, _) =
            complete(b"GET /watch/k HTTP/1.1\r\nAccept: text/html, application/x-mcdt\r\n\r\n");
        assert!(req.accepts_mcdt);
        let (req, _) = complete(b"GET /watch/k HTTP/1.1\r\nAccept: application/json\r\n\r\n");
        assert!(!req.accepts_mcdt);
        let (req, _) = complete(b"GET /watch/k HTTP/1.1\r\n\r\n");
        assert!(!req.accepts_mcdt, "no Accept header defaults to NDJSON");
    }

    #[test]
    fn error_responses_are_flat_json() {
        let r = Response::error(400, "bad-request", "missing \"experiment\"");
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"error\": \"bad-request\""));
        assert!(body.contains("missing \\\"experiment\\\""));
    }

    #[test]
    fn status_text_is_stable() {
        for s in [200, 400, 404, 405, 408, 413, 422, 431, 500, 503, 504] {
            assert_ne!(status_text(s), "Unknown");
        }
        assert_eq!(status_text(418), "Unknown");
    }
}
