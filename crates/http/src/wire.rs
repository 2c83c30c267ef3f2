//! HTTP/1.x wire codec: messages to bytes and back.
//!
//! Parsing reads a head through [`crate::head::Head`], the one scanner
//! [`crate::frame`] stands on too. [`read_incoming`] is the front door's
//! one call per request: it reads the next request off a connection's
//! read buffer *in place*, under the front door's caps, into an
//! [`Incoming`] — the [`RequestView`] the gate reads, the head it was
//! read from and where the message ends — with the body measured and
//! checked by [`crate::frame::BodyDecoder`] but not copied. Only a
//! request the gate leases to the origin becomes an owned [`Request`]
//! ([`Incoming::to_request`]), its body (a chunked one decoded) copied
//! once. [`read_request`] and [`parse_request`] are the same read
//! handing back the owned request at once; [`parse_response`] takes a
//! whole response in hand. (An origin's response is never an owned
//! message in the server; it is relayed off its parsed head.)
//! Malformed framing is reported precisely so failure-injection tests
//! can assert on it.
//!
//! Writing goes the other way: [`serialize_request_as`] sends a request
//! on, and an answer the server or the gate makes itself is written
//! straight into a connection's write buffer with this hop's framing and
//! `Connection` line ([`write_response`], [`write_empty`]).

use crate::error::HttpError;
use crate::frame::{self, BodyFraming, Framing, MAX_FRAME_BYTES, MAX_HEAD_BYTES};
use crate::head::Head;
use crate::headers::Headers;
use crate::request::{ClientIp, Request, RequestView};
use crate::response::{Response, ResponseBuilder};
use crate::status::StatusCode;
use crate::uri::UriRef;

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
    status_line(resp.version(), resp.status(), out);
    put_headers(out, resp.headers().iter());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(resp.body());
}

/// Appends `response` as an answer of this hop's own making: its status
/// line and headers under HTTP/1.1, a `Content-Length` when it declares
/// none (so a keep-alive client knows where it ends), this connection's
/// `Connection` line in place of any it carries, and its body.
pub fn write_response(response: &Response, close: bool, out: &mut Vec<u8>) {
    status_line(response.version(), response.status(), out);
    let lines = response.headers().iter();
    put_headers(
        out,
        lines.filter(|(name, _)| !name.eq_ignore_ascii_case("Connection")),
    );
    if !response.headers().contains("Content-Length") {
        content_length(response.body().len(), out);
    }
    end_head(close, out);
    out.extend_from_slice(response.body());
}

/// Appends a bodiless answer as fixed bytes: what [`write_response`]
/// makes of `Response::empty(status)`, with nothing built.
pub fn write_empty(status: StatusCode, close: bool, out: &mut Vec<u8>) {
    status_line("HTTP/1.1", status, out);
    out.extend_from_slice(b"Content-Length: 0\r\n");
    end_head(close, out);
}

/// Appends `Content-Length: <len>` and its CRLF.
pub fn content_length(len: usize, out: &mut Vec<u8>) {
    use std::io::Write;
    write!(out, "Content-Length: {len}\r\n").expect("a Vec takes any write");
}

/// Ends a head this hop writes: its `Connection` line (`close` ends the
/// connection after this message) and the blank line.
pub fn end_head(close: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(if close {
        b"Connection: close\r\n\r\n".as_slice()
    } else {
        b"Connection: keep-alive\r\n\r\n".as_slice()
    });
}

fn status_line(version: &str, status: StatusCode, out: &mut Vec<u8>) {
    out.extend_from_slice(version.as_bytes());
    out.push(b' ');
    let mut code = [0u8; 3];
    out.extend_from_slice(format_u16(status.as_u16(), &mut code));
    out.push(b' ');
    out.extend_from_slice(status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
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
    incoming(input, client, false).map(|read| read.to_request())
}

/// Takes the next request off the front of a connection's read buffer:
/// the owned request and how many bytes it was, `Ok(None)` until it has
/// all arrived. [`read_incoming`] with the request made owned at once.
pub fn read_request(buf: &[u8], client: ClientIp) -> Result<Option<(Request, usize)>, HttpError> {
    let read = read_incoming(buf, client)?;
    Ok(read.map(|read| (read.to_request(), read.len())))
}

/// Reads the next request in place off the front of a connection's read
/// buffer, `Ok(None)` until it has all arrived. No declared length means
/// no body, the head is at most [`MAX_HEAD_BYTES`] and the whole at most
/// [`MAX_FRAME_BYTES`]; `Err` is the `400`. Nothing is copied: a body,
/// chunked or not, is walked to find its end and checked, and a call on
/// a body still arriving costs that walk and nothing else.
pub fn read_incoming(buf: &[u8], client: ClientIp) -> Result<Option<Incoming<'_>>, HttpError> {
    match incoming(buf, client, true) {
        // The two errors more bytes can cure: no blank line, short body.
        Err(HttpError::UnexpectedEof | HttpError::TruncatedBody { .. }) => Ok(None),
        read => read.map(Some),
    }
}

/// A request read in place by [`read_incoming`]: what the gate reads,
/// the head it stands on, and where in the buffer its body and the
/// message end.
#[derive(Debug, Clone)]
pub struct Incoming<'a> {
    view: RequestView<'a>,
    head: Head<'a>,
    /// The message: head and body as they arrived.
    message: &'a [u8],
    framing: BodyFraming,
    /// `Connection` tokens: `(close, keep-alive)`.
    connection: (bool, bool),
}

impl<'a> Incoming<'a> {
    /// What the gate reads.
    pub fn view(&self) -> &RequestView<'a> {
        &self.view
    }

    /// How many bytes of the buffer the request took.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.message.len()
    }

    /// Whether the client wants the connection kept: HTTP/1.1 does
    /// unless it says `Connection: close`, HTTP/1.0 only when it says
    /// `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let (close, keep_alive) = self.connection;
        !close && (self.view.version() == "HTTP/1.1" || keep_alive)
    }

    /// The owned request, built from the head already parsed: its lines
    /// as [`Headers`] (a chunked body's `Transfer-Encoding` and
    /// `Content-Length` left out: the body is decoded, and the real
    /// length written), and its body copied out of the buffer once.
    pub fn to_request(&self) -> Request {
        let (headers, _) =
            fields(&self.head, self.framing).expect("read_incoming walked these lines");
        let body = match self.framing {
            BodyFraming::Chunked => {
                let mut body = Vec::new();
                let copy = |_, run: &[u8]| body.extend_from_slice(run);
                frame::extent(self.message, self.head.len, self.framing, usize::MAX, copy)
                    .expect("read_incoming walked this body");
                body
            }
            _ => self.message[self.head.len..].to_vec(),
        };
        let view = &self.view;
        Request::assemble(
            view.method(),
            view.uri().to_uri(),
            view.version().to_string(),
            headers,
            body,
            view.client(),
        )
    }
}

/// The request at the front of `input`, read in place, `bounded` as the
/// front door reads one or not, as [`parse_request`] does: no declared
/// length means a body running to the end of the input, and nothing is
/// capped.
fn incoming(input: &[u8], client: ClientIp, bounded: bool) -> Result<Incoming<'_>, HttpError> {
    let (head_cap, cap, fallback) = match bounded {
        true => (MAX_HEAD_BYTES, MAX_FRAME_BYTES, BodyFraming::Length(0)),
        false => (usize::MAX, usize::MAX, BodyFraming::Close),
    };
    let head = Head::parse(input, head_cap)?.ok_or(HttpError::UnexpectedEof)?;
    // The one walk of the lines: what the view holds, what the owned
    // request's headers would weigh, and the framing.
    let (mut user_agent, mut referer, mut host) = (None, None, None);
    let (mut close, mut keep_alive) = (false, false);
    let (mut fields_len, mut framing_len) = (0, 0);
    let mut lines = head.lines();
    for line in &mut lines {
        let line = line?;
        let len = line.name.len() + 2 + line.value.len() + 2;
        fields_len += len;
        let named = |name: &str| line.name.eq_ignore_ascii_case(name);
        if named("User-Agent") {
            user_agent = user_agent.or(Some(line.value));
        } else if named("Referer") {
            referer = referer.or(Some(line.value));
        } else if named("Host") {
            host = host.or(Some(line.value));
        } else if named("Connection") {
            close |= Headers::list_has(line.value, "close");
            keep_alive |= Headers::list_has(line.value, "keep-alive");
        } else if named("Transfer-Encoding") || named("Content-Length") {
            framing_len += len;
        }
    }
    let framing = lines.framing(fallback)?;
    // The body is measured, not copied.
    let mut body_len = 0;
    let count = |_, run: &[u8]| body_len += run.len();
    let end = match frame::extent(input, head.len, framing, cap, count)? {
        Framing::Complete { len } => len,
        Framing::Partial if framing == BodyFraming::Close => input.len(),
        Framing::NeedsBody { len } => {
            let (expected, actual) = (len - head.len, input.len() - head.len);
            return Err(HttpError::TruncatedBody { expected, actual });
        }
        Framing::Partial => {
            let (expected, actual) = (body_len + 1, body_len);
            return Err(HttpError::TruncatedBody { expected, actual });
        }
    };
    if framing != BodyFraming::Chunked {
        body_len = end - head.len;
    }
    let (method, target, version) = head.request_line()?;
    let uri = UriRef::parse(target)?;
    // What `Request::wire_len` will say of the owned request: a chunked
    // body's framing lines go, and a body no line declared the length of
    // (chunked, or running to the end of the input) gets one.
    if framing == BodyFraming::Chunked {
        fields_len -= framing_len;
    }
    if body_len > 0 && !matches!(framing, BodyFraming::Length(_)) {
        let digits = body_len.ilog10() as usize + 1;
        fields_len += "Content-Length: ".len() + digits + 2;
    }
    // The token as it stands at the front of the start line.
    let method = &head.start_line[..method.as_str().len()];
    let line = method.len() + 1 + uri.display_len() + 1 + version.len() + 2;
    let wire_len = line + fields_len + 2 + body_len;
    Ok(Incoming {
        view: RequestView {
            client,
            method,
            uri,
            version,
            user_agent,
            referer,
            host,
            wire_len,
        },
        head,
        message: &input[..end],
        framing,
        connection: (close, keep_alive),
    })
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
