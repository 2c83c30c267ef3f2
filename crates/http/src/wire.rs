//! HTTP/1.x wire codec: owned messages to bytes and back.
//!
//! Parsing reads a head through [`crate::head::Head`], the one scanner
//! [`crate::frame`] stands on too, and decodes the body behind it with
//! [`crate::frame::BodyDecoder`] whatever its framing: a chunked message
//! comes back with its decoded body, no `Transfer-Encoding` and its real
//! `Content-Length`. [`parse_request`] and [`parse_response`] take a
//! whole message in hand, uncapped, and a body with no declared length
//! runs to the end of the input. [`read_request`] takes the next request
//! off a connection's read buffer under the front door's caps: the
//! server's one call into the codec per request. (An origin's response
//! is never an owned message there; it is relayed off its parsed head.)
//! Malformed framing is reported precisely so failure-injection tests
//! can assert on it.

use crate::error::HttpError;
use crate::frame::{self, BodyFraming, Framing, MAX_FRAME_BYTES, MAX_HEAD_BYTES};
use crate::head::Head;
use crate::headers::Headers;
use crate::request::{ClientIp, Request};
use crate::response::{Response, ResponseBuilder};

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
    let mut buf = Vec::new();
    serialize_request_as(req, req.version(), |_| true, &mut buf);
    buf
}

/// Appends a request's wire bytes to `out` as a proxy sends it on:
/// under this hop's protocol `version`, with the header lines whose
/// names `keep` takes and no others.
pub fn serialize_request_as(
    req: &Request,
    version: &str,
    keep: impl Fn(&str) -> bool,
    out: &mut Vec<u8>,
) {
    out.reserve(req.wire_len());
    out.extend_from_slice(req.method().as_str().as_bytes());
    out.push(b' ');
    // `Uri` renders via `Display`; `write!` into the byte buffer avoids
    // the intermediate `String`.
    use std::io::Write;
    let _ = write!(out, "{}", req.uri());
    out.push(b' ');
    out.extend_from_slice(version.as_bytes());
    out.extend_from_slice(b"\r\n");
    put_headers(out, req.headers().iter().filter(|(name, _)| keep(name)));
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
    put_headers(out, resp.headers().iter());
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

pub(crate) fn put_headers<'a>(buf: &mut Vec<u8>, lines: impl Iterator<Item = (&'a str, &'a str)>) {
    for (name, value) in lines {
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(value.as_bytes());
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
    request(input, client, false).map(|(request, _)| request)
}

/// Takes the next request off the front of a connection's read buffer:
/// the owned request and how many bytes it was, `Ok(None)` until it has
/// all arrived. No declared length means no body, the head is at most
/// [`MAX_HEAD_BYTES`] and the whole at most [`MAX_FRAME_BYTES`]; `Err`
/// is the `400`.
pub fn read_request(buf: &[u8], client: ClientIp) -> Result<Option<(Request, usize)>, HttpError> {
    match request(buf, client, true) {
        // The two errors more bytes can cure: no blank line, short body.
        Err(HttpError::UnexpectedEof | HttpError::TruncatedBody { .. }) => Ok(None),
        read => read.map(Some),
    }
}

/// The request at the front of `input` and its length there, `bounded`
/// as the front door reads one or not as [`parse_request`] does.
fn request(input: &[u8], client: ClientIp, bounded: bool) -> Result<(Request, usize), HttpError> {
    let (head_cap, cap, fallback) = match bounded {
        true => (MAX_HEAD_BYTES, MAX_FRAME_BYTES, BodyFraming::Length(0)),
        false => (usize::MAX, usize::MAX, BodyFraming::Close),
    };
    let head = Head::parse(input, head_cap)?.ok_or(HttpError::UnexpectedEof)?;
    let (headers, framing) = fields(&head, fallback)?;
    let (body, len) = body(input, head.len, framing, cap)?;
    let (method, target, version) = head.request_line()?;
    let mut builder = Request::builder(method, target)
        .version(version)
        .client(client)
        .body_bytes(body);
    builder.headers = headers;
    Ok((builder.build()?, len))
}

/// Parses a response from wire bytes.
pub fn parse_response(input: &[u8]) -> Result<Response, HttpError> {
    let head = Head::parse(input, usize::MAX)?.ok_or(HttpError::UnexpectedEof)?;
    let (builder, framing) = response_builder(&head)?;
    let (body, _) = body(input, head.len, framing, usize::MAX)?;
    Ok(builder.body_bytes(body).build())
}

/// The response `head` starts, short of its body, and how that body is
/// framed on the wire: for a caller that decodes it as it arrives.
pub fn response_builder(head: &Head<'_>) -> Result<(ResponseBuilder, BodyFraming), HttpError> {
    let (version, status) = head.status_line()?;
    let (headers, framing) = fields(head, BodyFraming::Close)?;
    let mut builder = Response::builder(status).version(version);
    builder.headers = headers;
    Ok((builder, framing))
}

/// A head's lines as owned [`Headers`], and how the body behind them is
/// framed. A chunked body is about to be decoded: `Transfer-Encoding`
/// and any `Content-Length` beside it describe bytes the owned message
/// will not have, so both are left out (a builder writes the real one).
pub(crate) fn fields(
    head: &Head<'_>,
    fallback: BodyFraming,
) -> Result<(Headers, BodyFraming), HttpError> {
    let mut lines = head.lines();
    let mut headers = Headers::new();
    for line in &mut lines {
        let line = line?;
        headers.insert(line.name, line.value);
    }
    let framing = lines.framing(fallback)?;
    if framing == BodyFraming::Chunked {
        headers.remove("Transfer-Encoding");
        headers.remove("Content-Length");
    }
    Ok((headers, framing))
}

/// The decoded body behind a head of `head_len` bytes, and where in
/// `input` the message ends, which is at most `cap`. A body that is not
/// all there is [`HttpError::TruncatedBody`].
pub(crate) fn body(
    input: &[u8],
    head_len: usize,
    framing: BodyFraming,
    cap: usize,
) -> Result<(Vec<u8>, usize), HttpError> {
    let mut body = Vec::new();
    let copy = |_, run: &[u8]| body.extend_from_slice(run);
    let (expected, actual) = match frame::extent(input, head_len, framing, cap, copy)? {
        Framing::Complete { len } => return Ok((body, len)),
        Framing::Partial if framing == BodyFraming::Close => return Ok((body, input.len())),
        Framing::NeedsBody { len } => (len - head_len, input.len() - head_len),
        Framing::Partial => (body.len() + 1, body.len()),
    };
    Err(HttpError::TruncatedBody { expected, actual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, StatusCode};

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
