//! HTTP/1.x wire codec.
//!
//! This codec parses and serializes *complete* messages framed the classic
//! way: start line, header block terminated by an empty line, and a body
//! sized by `Content-Length`. Chunked transfer is handled one layer up, in
//! `botwall-serve`'s `frame` module, which measures and de-chunks requests
//! off a socket (handing this codec an identity-framed message). In the
//! server that is what this codec sees: requests in, and the responses
//! the gate or the server makes out. An origin's response never comes
//! here: it is relayed as a stream off its parsed head, whatever its
//! framing, and is never a complete message anywhere. Malformed framing
//! is reported precisely so failure-injection tests can assert on it.

use crate::error::HttpError;
use crate::headers::Headers;
use crate::method::Method;
use crate::request::{ClientIp, Request};
use crate::response::Response;
use crate::status::StatusCode;

/// Serializes a request to HTTP/1.x wire format.
///
/// # Examples
///
/// ```
/// use botwall_http::{Method, Request, wire};
/// let r = Request::builder(Method::Get, "http://h/x").build().unwrap();
/// let bytes = wire::serialize_request(&r);
/// assert!(bytes.starts_with(b"GET http://h/x HTTP/1.1\r\n"));
/// ```
pub fn serialize_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(req.wire_len());
    serialize_request_into(req, &mut buf);
    buf
}

/// Appends a request's wire bytes to `out` without an intermediate
/// buffer — the zero-copy sibling of [`serialize_request`] for callers
/// that serialize into a pooled buffer.
pub fn serialize_request_into(req: &Request, out: &mut Vec<u8>) {
    out.reserve(req.wire_len());
    out.extend_from_slice(req.method().as_str().as_bytes());
    out.push(b' ');
    // `Uri` renders via `Display`; `write!` into the byte buffer avoids
    // the intermediate `String`.
    use std::io::Write;
    let _ = write!(out, "{}", req.uri());
    out.push(b' ');
    out.extend_from_slice(req.version().as_bytes());
    out.extend_from_slice(b"\r\n");
    put_headers(out, req.headers());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(req.body());
}

/// Serializes a response to HTTP/1.x wire format.
pub fn serialize_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(resp.wire_len());
    serialize_response_into(resp, &mut buf);
    buf
}

/// Appends a response's wire bytes to `out` — head serialized directly
/// into the caller's buffer, body copied once after it. Callers with a
/// pooled write buffer use this to stage an entire response for a
/// single `write` without the build-then-copy of
/// [`serialize_response`].
pub fn serialize_response_into(resp: &Response, out: &mut Vec<u8>) {
    out.reserve(resp.wire_len());
    out.extend_from_slice(resp.version().as_bytes());
    out.push(b' ');
    let mut code = [0u8; 3];
    out.extend_from_slice(format_u16(resp.status().as_u16(), &mut code));
    out.push(b' ');
    out.extend_from_slice(resp.status().reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    put_headers(out, resp.headers());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(resp.body());
}

/// Renders a status code (always three digits) without allocating.
fn format_u16(mut n: u16, buf: &mut [u8; 3]) -> &[u8] {
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    &buf[..]
}

fn put_headers(buf: &mut Vec<u8>, headers: &Headers) {
    for (n, v) in headers.iter() {
        buf.extend_from_slice(n.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(v.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }
}

/// Parses a request from wire bytes. The `client` address is attached to
/// the parsed request (wire format does not carry it).
///
/// # Examples
///
/// ```
/// use botwall_http::{wire, request::ClientIp};
/// let raw = b"GET /index.html HTTP/1.0\r\nHost: h\r\n\r\n";
/// let req = wire::parse_request(raw, ClientIp::new(1)).unwrap();
/// assert_eq!(req.uri().path(), "/index.html");
/// assert_eq!(req.headers().get("Host"), Some("h"));
/// ```
pub fn parse_request(input: &[u8], client: ClientIp) -> Result<Request, HttpError> {
    let (start, headers, body) = split_message(input)?;
    let mut parts = start.split(' ');
    let method: Method = parts
        .next()
        .ok_or_else(|| HttpError::InvalidStartLine(start.to_string()))?
        .parse()?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::InvalidStartLine(start.to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::InvalidStartLine(start.to_string()))?;
    if parts.next().is_some() || !version.starts_with("HTTP/") {
        return Err(HttpError::InvalidStartLine(start.to_string()));
    }
    let mut builder = Request::builder(method, target)
        .version(version)
        .client(client);
    for (n, v) in headers {
        builder = builder.header(n, v);
    }
    builder.body_bytes(body.to_vec()).build()
}

/// Parses a response from wire bytes.
pub fn parse_response(input: &[u8]) -> Result<Response, HttpError> {
    let (start, headers, body) = split_message(input)?;
    let mut parts = start.splitn(3, ' ');
    let version = parts
        .next()
        .filter(|v| v.starts_with("HTTP/"))
        .ok_or_else(|| HttpError::InvalidStartLine(start.to_string()))?;
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| HttpError::InvalidStartLine(start.to_string()))?;
    let status = StatusCode::new(code)?;
    let mut b = Response::builder(status).version(version);
    for (n, v) in headers {
        b = b.header(n, v);
    }
    Ok(b.body_bytes(body.to_vec()).build())
}

/// A parsed message before any allocation: start line, header
/// name/value pairs, and body, all borrowed from the input buffer.
type BorrowedMessage<'a> = (&'a str, Vec<(&'a str, &'a str)>, &'a [u8]);

/// Splits raw bytes into (start line, headers, body), enforcing
/// `Content-Length` when present.
///
/// Zero-copy: the start line, header names/values, and body are slices
/// borrowed straight from `input` — nothing allocates until the caller
/// builds the owned message (one `String` per header there, instead of
/// the former intermediate-`Headers`-then-rebuild double allocation).
/// Error paths still allocate their diagnostic strings; they are off the
/// hot path by definition.
fn split_message(input: &[u8]) -> Result<BorrowedMessage<'_>, HttpError> {
    let head_end = find_header_end(input).ok_or(HttpError::UnexpectedEof)?;
    let head = std::str::from_utf8(&input[..head_end])
        .map_err(|_| HttpError::InvalidHeader("non-UTF8 header block".to_string()))?;
    let mut lines = head.split("\r\n");
    let start = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or(HttpError::UnexpectedEof)?;
    let mut headers: Vec<(&str, &str)> = Vec::new();
    let mut content_length: Option<&str> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::InvalidHeader(line.to_string()))?;
        if name.is_empty() || !name.bytes().all(Method::is_token_byte) {
            return Err(HttpError::InvalidHeader(line.to_string()));
        }
        let value = value.trim();
        // First Content-Length line wins, matching `Headers::get`.
        if content_length.is_none() && name.eq_ignore_ascii_case("Content-Length") {
            content_length = Some(value);
        }
        headers.push((name, value));
    }
    let body_start = head_end + 4;
    let available = &input[body_start.min(input.len())..];
    let body = match content_length {
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|_| HttpError::InvalidContentLength(raw.to_string()))?;
            if available.len() < n {
                return Err(HttpError::TruncatedBody {
                    expected: n,
                    actual: available.len(),
                });
            }
            &available[..n]
        }
        None => available,
    };
    Ok((start, headers, body))
}

fn find_header_end(input: &[u8]) -> Option<usize> {
    input.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request::builder(Method::Post, "http://h/cgi-bin/x")
            .header("User-Agent", "test/1.0")
            .header("Referer", "http://h/")
            .body_bytes(b"a=1".to_vec())
            .client(ClientIp::new(42))
            .build()
            .unwrap();
        let bytes = serialize_request(&r);
        let back = parse_request(&bytes, ClientIp::new(42)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn response_roundtrip() {
        let r = Response::builder(StatusCode::OK)
            .header("Content-Type", "text/html")
            .body_bytes(b"<html></html>".to_vec())
            .build();
        let bytes = serialize_response(&r);
        let back = parse_response(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn parse_http10_request_without_body() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        let r = parse_request(raw, ClientIp::new(0)).unwrap();
        assert_eq!(r.version(), "HTTP/1.0");
        assert!(r.body().is_empty());
    }

    #[test]
    fn truncated_body_is_detected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let err = parse_request(raw, ClientIp::new(0)).unwrap_err();
        assert_eq!(
            err,
            HttpError::TruncatedBody {
                expected: 10,
                actual: 3
            }
        );
    }

    #[test]
    fn missing_header_terminator_is_eof() {
        let raw = b"GET / HTTP/1.1\r\nHost: h\r\n";
        assert_eq!(
            parse_request(raw, ClientIp::new(0)).unwrap_err(),
            HttpError::UnexpectedEof
        );
    }

    #[test]
    fn malformed_header_line_rejected() {
        let raw = b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n";
        assert!(matches!(
            parse_request(raw, ClientIp::new(0)).unwrap_err(),
            HttpError::InvalidHeader(_)
        ));
    }

    #[test]
    fn bad_start_lines_rejected() {
        for raw in [
            &b"GET /\r\n\r\n"[..],
            &b"GET / HTTP/1.1 EXTRA\r\n\r\n"[..],
            &b"G ET / HTTP/1.1\r\n\r\n"[..],
        ] {
            assert!(parse_request(raw, ClientIp::new(0)).is_err());
        }
    }

    #[test]
    fn bad_content_length_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(matches!(
            parse_request(raw, ClientIp::new(0)).unwrap_err(),
            HttpError::InvalidContentLength(_)
        ));
    }

    #[test]
    fn response_status_out_of_range_rejected() {
        let raw = b"HTTP/1.1 999 Whatever\r\n\r\n";
        assert_eq!(
            parse_response(raw).unwrap_err(),
            HttpError::InvalidStatus(999)
        );
    }

    #[test]
    fn header_values_are_trimmed() {
        let raw = b"GET / HTTP/1.1\r\nHost:    spacey.example.com   \r\n\r\n";
        let r = parse_request(raw, ClientIp::new(0)).unwrap();
        assert_eq!(r.headers().get("Host"), Some("spacey.example.com"));
    }

    #[test]
    fn reason_phrase_with_spaces_parses() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status(), StatusCode::NOT_FOUND);
    }
}
