//! HTTP/1.x framing over a byte stream: which buffered bytes are the
//! next message, and which of them are body.
//!
//! [`measure`] says how many buffered bytes make up the next complete
//! message when no length means no body, the rule for a request
//! ([`crate::wire::read_incoming`] is the same walk, handing back the
//! request read in place). [`response_head`] parses a response's head the moment
//! it is buffered; no length there means the body runs to the close.
//! [`BodyDecoder`] is the one walker of a body in any of the three
//! framings, incremental and in O(chunk) memory. Every head is read
//! through [`crate::head::Head`].

use crate::head::Head;
use crate::{wire, Headers, HttpError};
use std::borrow::Cow;

/// Cap on the header block of one message. A peer that streams more
/// header bytes without ever finishing the block is attacking, not slow.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on one whole request (head + declared body), and on the size
/// any one chunk may declare. A response has no cap: it is relayed as
/// it arrives, never held.
pub const MAX_FRAME_BYTES: usize = 1024 * 1024;

/// Cap on one chunk-size line (hex size + extensions + CRLF). Real
/// sizes fit in a dozen bytes; a peer streaming more is framing garbage.
pub const MAX_CHUNK_LINE: usize = 64;

/// How far the buffered prefix of a message stream has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// The header block is not complete yet; keep reading.
    Partial,
    /// The message is `len` bytes; the buffer holds at least that many.
    Complete {
        /// Total message length in bytes (head + body).
        len: usize,
    },
    /// The header block is complete but the body needs `len` total bytes.
    NeedsBody {
        /// Total message length in bytes once the body arrives.
        len: usize,
    },
}

/// How a message's body is delimited, read off its header block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// `Content-Length: n` (n = 0 when the header is absent on
    /// requests; bodyless responses too).
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// No length, no chunking: the body runs to connection close
    /// (responses only).
    Close,
}

/// The parsed prefix of a response: how long the header block is and
/// everything the streaming path needs to decide what to do with the
/// body before the body exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// Header block length in bytes, including the blank line.
    pub len: usize,
    /// The status code, in `100..=599`.
    pub status: u16,
    /// The `Content-Type` value, if present (lowercased, parameters
    /// stripped: `text/html; charset=utf-8` reads as `text/html`).
    pub content_type: Option<String>,
    /// How the body is delimited.
    pub framing: BodyFraming,
    /// Whether the peer announced `Connection: close` (matched
    /// case-insensitively, token by token) — after this response the
    /// connection must not be reused.
    pub connection_close: bool,
}

/// Parses the chunk-size line at `buf[pos..]`: `Ok(Some((size, data
/// start)))`, `Ok(None)` when the line is still incomplete, `Err` on a
/// garbage or oversized size line.
fn chunk_size_at(buf: &[u8], pos: usize) -> Result<Option<(usize, usize)>, HttpError> {
    let Some(line_end) = crlf_at(buf, pos, MAX_CHUNK_LINE)? else {
        return Ok(None);
    };
    // Chunk extensions (`;name=value`) are tolerated and ignored.
    let hex = buf[pos..line_end].split(|&b| b == b';').next();
    let hex = String::from_utf8_lossy(hex.unwrap_or_default().trim_ascii());
    if hex.is_empty() || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(HttpError::InvalidHeader(format!(
            "bad chunk-size line {hex:?}"
        )));
    }
    match usize::from_str_radix(&hex, 16) {
        Ok(size) if size <= MAX_FRAME_BYTES => Ok(Some((size, line_end + 2))),
        _ => Err(HttpError::InvalidContentLength(format!(
            "chunk size {hex:?} exceeds {MAX_FRAME_BYTES} bytes"
        ))),
    }
}

/// Finds the CRLF ending the line at `buf[pos..]` within `cap` bytes;
/// `Ok(None)` = incomplete, `Err` = the line overran its cap.
fn crlf_at(buf: &[u8], pos: usize, cap: usize) -> Result<Option<usize>, HttpError> {
    let window = &buf[pos.min(buf.len())..];
    match window.windows(2).take(cap).position(|w| w == b"\r\n") {
        Some(p) => Ok(Some(pos + p)),
        None if window.len() <= cap => Ok(None),
        None => Err(HttpError::InvalidHeader(format!(
            "chunk or trailer line exceeds {cap} bytes"
        ))),
    }
}

/// Measures the next message in `buf` as a request is framed: neither
/// `Content-Length` nor chunking means no body (responses go through
/// [`response_head`]). A chunked body measures to its terminal chunk
/// and reads as [`Framing::Partial`] until that arrives. `Err` means
/// the peer is framing garbage (an oversized head, a line no head may
/// hold, lengths that disagree, garbage chunk headers, more than
/// [`MAX_FRAME_BYTES`]) and the connection should answer 400 / close.
pub fn measure(buf: &[u8]) -> Result<Framing, HttpError> {
    let Some(head) = Head::parse(buf, MAX_HEAD_BYTES)? else {
        return Ok(Framing::Partial);
    };
    let framing = head.lines().framing(BodyFraming::Length(0))?;
    extent(buf, head.len, framing, MAX_FRAME_BYTES, |_, _| {})
}

/// How far the message in `buf` reaches, its head being `head_len`
/// bytes and its body framed as `framing`. The one [`BodyDecoder`]
/// walks the body and hands its runs to `body`; a declared length that
/// has not all arrived is [`Framing::NeedsBody`], unwalked. A message
/// that is, or already promises to be, over `cap` bytes is an error.
pub(crate) fn extent(
    buf: &[u8],
    head_len: usize,
    framing: BodyFraming,
    cap: usize,
    body: impl FnMut(usize, &[u8]),
) -> Result<Framing, HttpError> {
    let extent = match framing {
        BodyFraming::Length(n) if buf.len() - head_len < n => Framing::NeedsBody {
            len: head_len.saturating_add(n),
        },
        _ => match BodyDecoder::new(framing).decode(&buf[head_len..], body)? {
            (used, true) => Framing::Complete {
                len: head_len + used,
            },
            (_, false) => Framing::Partial,
        },
    };
    let len = match extent {
        Framing::Complete { len } | Framing::NeedsBody { len } => len,
        Framing::Partial => buf.len(),
    };
    if len > cap {
        return Err(HttpError::InvalidContentLength(format!(
            "message of {len} bytes exceeds {cap}"
        )));
    }
    Ok(extent)
}

/// Parses the header block of a response if it is fully buffered.
/// `Ok(None)` means keep reading; `Err` means the peer is framing
/// garbage. Unlike [`measure`] this never waits for the body — it is
/// the first step of every origin response, taken before any body byte
/// exists.
pub fn response_head(buf: &[u8]) -> Result<Option<ResponseHead>, HttpError> {
    let Some(head) = Head::parse(buf, MAX_HEAD_BYTES)? else {
        return Ok(None);
    };
    let (_, status) = head.status_line()?;
    let mut content_type = None;
    let mut connection_close = false;
    let mut lines = head.lines();
    for line in &mut lines {
        let line = line?;
        if line.name.eq_ignore_ascii_case("Content-Type") && content_type.is_none() {
            let value = line.value.split(';').next().unwrap_or("").trim();
            content_type = Some(value.to_ascii_lowercase());
        } else if line.name.eq_ignore_ascii_case("Connection") {
            connection_close |= Headers::list_has(line.value, "close");
        }
    }
    Ok(Some(ResponseHead {
        len: head.len,
        status: status.as_u16(),
        content_type,
        // Responses without a declared length run to connection close.
        framing: lines.framing(BodyFraming::Close)?,
        connection_close,
    }))
}

/// Where an incremental body decode currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeState {
    /// This many body bytes still owed: a declared length's, or (when
    /// the flag is set) the data of the current chunk.
    Data(usize, bool),
    /// Close-delimited body: everything until EOF is body.
    Close,
    /// Chunked: waiting for the next chunk-size line.
    ChunkSize,
    /// Chunked: the CRLF after a chunk's data.
    ChunkEnd,
    /// Chunked: trailer lines after the terminal chunk.
    Trailers,
    /// The body is complete.
    Done,
}

/// Incremental body decoder: show it raw socket bytes, it points out
/// which of them are body and tells you when the message ends. Holds no
/// body bytes itself — memory is bounded by whatever the caller buffers.
#[derive(Debug)]
pub struct BodyDecoder {
    state: DecodeState,
}

impl BodyDecoder {
    /// Starts a decoder for a body framed as `framing`.
    pub fn new(framing: BodyFraming) -> Self {
        let state = match framing {
            BodyFraming::Length(0) => DecodeState::Done,
            BodyFraming::Length(n) => DecodeState::Data(n, false),
            BodyFraming::Chunked => DecodeState::ChunkSize,
            BodyFraming::Close => DecodeState::Close,
        };
        BodyDecoder { state }
    }

    /// Walks the framing at the front of `buf` and hands each run of
    /// body bytes to `body`, in order, as its offset in `buf` and the
    /// slice there — nothing is copied, and a caller that keeps `buf`
    /// can keep the offset instead of the bytes. Returns how many bytes
    /// of `buf` were consumed (framing included; an unfinished
    /// chunk-size or trailer line is left for the next call) and whether
    /// the body is complete, after which the rest of `buf` belongs to
    /// the next message. `Err` means garbage chunk framing; runs handed
    /// over before it was met were good.
    pub fn decode(
        &mut self,
        buf: &[u8],
        mut body: impl FnMut(usize, &[u8]),
    ) -> Result<(usize, bool), HttpError> {
        let mut pos = 0usize;
        let done = loop {
            match self.state {
                DecodeState::Done => break true,
                DecodeState::Close => {
                    body(pos, &buf[pos..]);
                    pos = buf.len();
                    break false;
                }
                DecodeState::Data(remaining, chunk) => {
                    let take = remaining.min(buf.len() - pos);
                    body(pos, &buf[pos..pos + take]);
                    pos += take;
                    self.state = match remaining - take {
                        0 if chunk => DecodeState::ChunkEnd,
                        0 => DecodeState::Done,
                        left => DecodeState::Data(left, chunk),
                    };
                    if take < remaining {
                        break false;
                    }
                }
                DecodeState::ChunkSize => {
                    let Some((size, data_start)) = chunk_size_at(buf, pos)? else {
                        break false;
                    };
                    pos = data_start;
                    self.state = match size {
                        0 => DecodeState::Trailers,
                        size => DecodeState::Data(size, true),
                    };
                }
                DecodeState::ChunkEnd => {
                    if buf.len() - pos < 2 {
                        break false;
                    }
                    if &buf[pos..pos + 2] != b"\r\n" {
                        return Err(HttpError::InvalidHeader(
                            "chunk data not terminated by CRLF".to_string(),
                        ));
                    }
                    pos += 2;
                    self.state = DecodeState::ChunkSize;
                }
                DecodeState::Trailers => {
                    let Some(line_end) = crlf_at(buf, pos, MAX_HEAD_BYTES)? else {
                        break false;
                    };
                    if line_end == pos {
                        self.state = DecodeState::Done;
                    }
                    pos = line_end + 2;
                }
            }
        };
        Ok((pos, done))
    }

    /// [`BodyDecoder::decode`] for callers that want the body copied
    /// out: appends it to `out` and drains the consumed bytes from the
    /// front of `buf`. Returns `Ok(true)` once the body is complete.
    pub fn push(&mut self, buf: &mut Vec<u8>, out: &mut Vec<u8>) -> Result<bool, HttpError> {
        let (used, done) = self.decode(buf, |_, run| out.extend_from_slice(run))?;
        buf.drain(..used);
        Ok(done)
    }

    /// Whether connection close at this point is a clean end of body
    /// (close-delimited or already complete) rather than truncation.
    pub fn eof_ok(&self) -> bool {
        matches!(self.state, DecodeState::Close | DecodeState::Done)
    }
}

/// Rebuilds one complete chunked message as an identity-framed one:
/// the body de-chunked under its real `Content-Length`. Non-chunked
/// messages pass through unchanged and borrowed. Nothing in the server
/// needs this (the codec decodes a chunked body as it builds the
/// message); it stays for callers that want the bytes.
pub fn dechunk(raw: &[u8]) -> Result<Cow<'_, [u8]>, HttpError> {
    let head = Head::parse(raw, MAX_HEAD_BYTES)?.ok_or(HttpError::UnexpectedEof)?;
    if head.lines().framing(BodyFraming::Length(0))? != BodyFraming::Chunked {
        return Ok(Cow::Borrowed(raw));
    }
    let (mut headers, framing) = wire::fields(&head, BodyFraming::Length(0))?;
    let (body, _) = wire::body(raw, head.len, framing, usize::MAX)?;
    headers.insert("Content-Length", body.len().to_string());
    let mut out = format!("{}\r\n", head.start_line).into_bytes();
    wire::put_headers(&mut out, headers.iter());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&body);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ClientIp;

    #[test]
    fn partial_until_blank_line() {
        assert_eq!(
            measure(b"GET / HTTP/1.1\r\nHost: h\r\n"),
            Ok(Framing::Partial)
        );
        assert_eq!(measure(b""), Ok(Framing::Partial));
    }

    #[test]
    fn bodyless_message_ends_at_blank_line() {
        let raw = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        assert_eq!(measure(raw), Ok(Framing::Complete { len: raw.len() }));
    }

    #[test]
    fn content_length_extends_the_frame() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
        assert_eq!(measure(raw), Ok(Framing::NeedsBody { len: raw.len() + 3 }));
        let full = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde";
        assert_eq!(measure(full), Ok(Framing::Complete { len: full.len() }));
    }

    #[test]
    fn pipelined_second_request_is_not_swallowed() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let Ok(Framing::Complete { len }) = measure(raw) else {
            panic!("first frame complete");
        };
        assert_eq!(&raw[len..], b"GET /b HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn oversized_head_is_rejected_even_unterminated() {
        let raw = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(measure(&raw).is_err());
    }

    #[test]
    fn bad_content_length_is_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(matches!(
            measure(raw),
            Err(HttpError::InvalidContentLength(_))
        ));
    }

    #[test]
    fn declared_body_over_frame_cap_is_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_FRAME_BYTES
        );
        assert!(measure(raw.as_bytes()).is_err());
    }

    const CHUNKED: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
        4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";

    #[test]
    fn chunked_measures_to_terminal_chunk() {
        assert_eq!(
            measure(CHUNKED),
            Ok(Framing::Complete { len: CHUNKED.len() })
        );
        // Every proper prefix after the head is Partial, never an error.
        let head = CHUNKED.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        for cut in head..CHUNKED.len() {
            assert_eq!(
                measure(&CHUNKED[..cut]),
                Ok(Framing::Partial),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn chunked_wins_over_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\
            Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert_eq!(measure(raw), Ok(Framing::Complete { len: raw.len() }));
    }

    /// What `measure` → `dechunk` → `parse_request` → re-serialize once
    /// took between them and sent on to an origin.
    #[test]
    fn the_heads_three_splitters_disagreed_about_are_refused() {
        let cases = [
            (
                "cl_cl",
                "Content-Length: 5\r\nContent-Length: 0\r\n",
                "hello",
            ),
            ("signed_length", "Content-Length: +5\r\n", "hello"),
            (
                "bare_lf_hides_a_header",
                "X: a\nTransfer-Encoding: chunked\r\n",
                "",
            ),
            (
                "chunked_as_a_substring",
                "Transfer-Encoding: xchunkedy\r\n",
                "5\r\nhello\r\n0\r\n\r\n",
            ),
            ("bare_cr_and_nul_in_a_value", "X: a\rb\0c\r\n", ""),
        ];
        for (name, lines, body) in cases {
            let raw = format!("POST /form HTTP/1.1\r\nHost: h\r\n{lines}\r\n{body}");
            assert!(measure(raw.as_bytes()).is_err(), "{name}");
            assert!(
                wire::parse_request(raw.as_bytes(), ClientIp::new(1)).is_err(),
                "{name}"
            );
            assert!(
                wire::read_request(raw.as_bytes(), ClientIp::new(1)).is_err(),
                "{name}"
            );
        }
    }

    #[test]
    fn garbage_chunk_size_line_is_rejected() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nnope\r\n";
        assert!(matches!(measure(raw), Err(HttpError::InvalidHeader(_))));
    }

    #[test]
    fn oversized_chunk_size_line_is_rejected() {
        let mut raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&[b'1'; MAX_CHUNK_LINE + 2]);
        assert!(measure(&raw).is_err());
    }

    #[test]
    fn oversized_chunk_declaration_is_rejected() {
        let raw = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_FRAME_BYTES + 1
        );
        assert!(matches!(
            measure(raw.as_bytes()),
            Err(HttpError::InvalidContentLength(_))
        ));
    }

    #[test]
    fn chunk_data_missing_crlf_is_rejected() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX";
        assert!(matches!(measure(raw), Err(HttpError::InvalidHeader(_))));
    }

    #[test]
    fn chunk_extensions_are_tolerated() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
            4;ext=1\r\nWiki\r\n0\r\n\r\n";
        assert_eq!(measure(raw), Ok(Framing::Complete { len: raw.len() }));
        assert_eq!(
            &*dechunk(raw).unwrap(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nWiki"
        );
    }

    #[test]
    fn dechunk_rebuilds_identity_message() {
        let out = dechunk(CHUNKED).unwrap();
        assert_eq!(
            &*out,
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nWikipedia"
        );
        let parsed = wire::parse_response(&out).unwrap();
        assert_eq!(parsed.body(), b"Wikipedia");
    }

    #[test]
    fn dechunk_passes_identity_messages_through() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(&*dechunk(raw).unwrap(), raw);
    }

    #[test]
    fn dechunk_preserves_trailers_as_gone() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
            2\r\nhi\r\n0\r\nX-Trailer: t\r\n\r\n";
        assert_eq!(measure(raw), Ok(Framing::Complete { len: raw.len() }));
        assert_eq!(
            &*dechunk(raw).unwrap(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
        );
    }

    #[test]
    fn response_head_reads_status_type_and_framing() {
        let head = response_head(CHUNKED).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.framing, BodyFraming::Chunked);
        assert_eq!(head.content_type, None);

        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: text/HTML; charset=utf-8\r\n\
            Content-Length: 3\r\n\r\nnot";
        let head = response_head(raw).unwrap().unwrap();
        assert_eq!(head.status, 404);
        assert_eq!(head.content_type.as_deref(), Some("text/html"));
        assert_eq!(head.framing, BodyFraming::Length(3));
        assert_eq!(&raw[head.len..], b"not");

        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n";
        let head = response_head(raw).unwrap().unwrap();
        assert_eq!(head.framing, BodyFraming::Close);

        assert_eq!(response_head(b"HTTP/1.1 200 OK\r\n"), Ok(None));
        assert!(response_head(b"garbage\r\n\r\n").is_err());
        assert!(response_head(b"HTTP/1.1 99 Too Low\r\n\r\n").is_err());
        assert!(response_head(b"HTTP/1.1 600 Too High\r\n\r\n").is_err());
    }

    #[test]
    fn response_head_reads_connection_close_case_insensitively() {
        let plain = response_head(CHUNKED).unwrap().unwrap();
        assert!(!plain.connection_close, "no Connection header");

        let raw = b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n";
        assert!(!response_head(raw).unwrap().unwrap().connection_close);

        for close in [
            "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n".to_string(),
            "HTTP/1.1 200 OK\r\nCONNECTION: Close\r\nContent-Length: 0\r\n\r\n".to_string(),
            "HTTP/1.1 200 OK\r\nconnection: Keep-Alive, CLOSE\r\nContent-Length: 0\r\n\r\n"
                .to_string(),
        ] {
            let head = response_head(close.as_bytes()).unwrap().unwrap();
            assert!(head.connection_close, "{close:?} announces close");
        }
    }

    #[test]
    fn body_decoder_streams_chunked_across_arbitrary_splits() {
        let body = &CHUNKED[CHUNKED.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4..];
        for step in 1..=body.len() {
            let mut decoder = BodyDecoder::new(BodyFraming::Chunked);
            let mut buf = Vec::new();
            let mut out = Vec::new();
            let mut done = false;
            for piece in body.chunks(step) {
                assert!(!done, "decoder finished early");
                buf.extend_from_slice(piece);
                done = decoder.push(&mut buf, &mut out).unwrap();
            }
            assert!(done, "step {step} never finished");
            assert!(decoder.eof_ok());
            assert!(buf.is_empty());
            assert_eq!(out, b"Wikipedia");
        }
    }

    #[test]
    fn decode_says_where_in_the_buffer_each_run_lies() {
        let body = &CHUNKED[CHUNKED.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4..];
        let mut runs = Vec::new();
        let decoded = BodyDecoder::new(BodyFraming::Chunked).decode(body, |at, run| {
            assert_eq!(&body[at..at + run.len()], run);
            runs.push(at);
        });
        assert_eq!(decoded, Ok((body.len(), true)));
        assert_eq!(runs, [3, 12], "one run per chunk, past its size line");
    }

    #[test]
    fn body_decoder_handles_length_and_close() {
        let mut decoder = BodyDecoder::new(BodyFraming::Length(4));
        let mut buf = b"abcdEXTRA".to_vec();
        let mut out = Vec::new();
        assert!(decoder.push(&mut buf, &mut out).unwrap());
        assert_eq!(out, b"abcd");
        assert_eq!(buf, b"EXTRA");

        let mut decoder = BodyDecoder::new(BodyFraming::Close);
        assert!(decoder.eof_ok());
        let mut buf = b"everything".to_vec();
        let mut out = Vec::new();
        assert!(!decoder.push(&mut buf, &mut out).unwrap());
        assert_eq!(out, b"everything");
        assert!(buf.is_empty());

        let decoder = BodyDecoder::new(BodyFraming::Chunked);
        assert!(!decoder.eof_ok(), "mid-chunked EOF is truncation");
    }
}
