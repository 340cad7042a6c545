//! Mutation suite for the HTTP request parser. Generated requests —
//! GET and POST, with and without a body, with and without a query,
//! `Connection: close` and `Accept: application/x-mcdt` — are cut at
//! every length and flipped at every bit. Every strict prefix is
//! `Partial`; the whole request is `Complete` with the fields it was
//! built from and consumes exactly its bytes; a flipped request is
//! `Partial`, a typed `Error`, or a `Complete` that consumes no more
//! than it was given, and never panics. A `Content-Length` past
//! `MAX_BODY`, up to `u64::MAX`, is a typed error under the same cuts
//! and flips.

use mcd_serve::http::{parse_request, HttpError, Parsed, MAX_BODY};

/// One request as the client meant it.
struct Case {
    method: &'static str,
    target: &'static str,
    body: &'static [u8],
    close: bool,
    mcdt: bool,
}

impl Case {
    fn wire(&self) -> Vec<u8> {
        let mut head = format!(
            "{} {} HTTP/1.1\r\nHost: localhost\r\n",
            self.method, self.target
        );
        if !self.body.is_empty() {
            head += &format!("Content-Length: {}\r\n", self.body.len());
        }
        if self.close {
            head += "Connection: close\r\n";
        }
        if self.mcdt {
            head += "Accept: text/plain, application/x-mcdt\r\n";
        }
        head += "\r\n";
        let mut wire = head.into_bytes();
        wire.extend_from_slice(self.body);
        wire
    }
}

/// Every combination of method, target, body, close and accept.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for method in ["GET", "POST"] {
        for target in ["/run", "/metrics?format=json", "/run?stream=1&x=y"] {
            for body in [&b""[..], b"{\"experiment\": \"fig9\", \"ops\": 4000}"] {
                for close in [false, true] {
                    for mcdt in [false, true] {
                        cases.push(Case {
                            method,
                            target,
                            body,
                            close,
                            mcdt,
                        });
                    }
                }
            }
        }
    }
    cases
}

/// What one parse must be for a buffer of `len` bytes that may be
/// anything: never a `Complete` claiming more bytes than it had.
fn check_total(parsed: Parsed, len: usize, what: &str) {
    if let Parsed::Complete { consumed, .. } = parsed {
        assert!(consumed <= len, "{what}: consumed {consumed} of {len}");
    }
}

#[test]
fn every_prefix_is_partial_and_the_whole_request_is_complete() {
    for case in cases() {
        let wire = case.wire();
        let shown = String::from_utf8_lossy(&wire).into_owned();
        for cut in 0..wire.len() {
            assert!(
                matches!(parse_request(&wire[..cut]), Parsed::Partial),
                "{cut}-byte prefix of {shown:?}"
            );
        }
        let Parsed::Complete { request, consumed } = parse_request(&wire) else {
            panic!("{shown:?} does not parse");
        };
        assert_eq!(consumed, wire.len(), "{shown:?}");
        let (path, query) = case.target.split_once('?').unwrap_or((case.target, ""));
        assert_eq!(request.method, case.method, "{shown:?}");
        assert_eq!(request.path, path, "{shown:?}");
        assert_eq!(request.query, query, "{shown:?}");
        assert_eq!(request.body, case.body, "{shown:?}");
        assert_eq!(request.wants_close, case.close, "{shown:?}");
        assert_eq!(request.accepts_mcdt, case.mcdt, "{shown:?}");
    }
}

#[test]
fn every_bit_flip_parses_to_a_bounded_result() {
    for case in cases() {
        let wire = case.wire();
        let mut flipped = wire.clone();
        for bit in 0..wire.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let what = format!("bit {bit} of {:?}", String::from_utf8_lossy(&wire));
            check_total(parse_request(&flipped), flipped.len(), &what);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn an_oversized_content_length_is_a_typed_error() {
    let past = (MAX_BODY + 1).to_string();
    for length in [past.as_str(), "4294967296", "18446744073709551615"] {
        let wire = format!("POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}");
        let wire = wire.as_bytes();
        assert!(
            matches!(parse_request(wire), Parsed::Error(HttpError::BodyTooLarge)),
            "Content-Length: {length}"
        );
        for cut in 0..wire.len() {
            check_total(parse_request(&wire[..cut]), cut, "prefix");
        }
        let mut flipped = wire.to_vec();
        for bit in 0..wire.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check_total(parse_request(&flipped), flipped.len(), "flip");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
