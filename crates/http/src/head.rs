//! The head of an HTTP/1.x message, and the one place its syntax is read.
//!
//! [`Head::parse`] finds the blank line that ends a head, checks once
//! that the block is UTF-8 with no stray CR, LF or NUL in it, and splits
//! off the start line. [`Head::lines`] walks the header lines, refuses
//! what no line may hold, and comes to the one decision on how the body
//! is framed ([`Lines::framing`]). [`crate::wire`], [`crate::frame`] and
//! a proxy relaying a head line by line all stand on this, so no two of
//! them can read one message differently.

use crate::error::HttpError;
use crate::frame::BodyFraming;
use crate::headers;
use crate::method::Method;
use crate::status::StatusCode;

/// A message head borrowed from the buffer it was read into.
#[derive(Debug, Clone, Copy)]
pub struct Head<'a> {
    /// The start line, without its CRLF.
    pub start_line: &'a str,
    /// Length of the head in bytes, blank line included.
    pub len: usize,
    /// The header lines, each with its CRLF.
    fields: &'a str,
}

impl<'a> Head<'a> {
    /// The head at the front of `buf`, of at most `cap` bytes before
    /// its blank line. `Ok(None)` means the blank line has not arrived.
    /// A CR or LF that is not half of a CRLF, or a NUL, anywhere in it
    /// is an error: no line it could be split into is safe to pass on.
    pub fn parse(buf: &'a [u8], cap: usize) -> Result<Option<Head<'a>>, HttpError> {
        let window = &buf[..buf.len().min(cap.saturating_add(4))];
        let Some(end) = blank_line(window) else {
            if buf.len() <= cap {
                return Ok(None);
            }
            return Err(HttpError::InvalidHeader(format!(
                "header block exceeds {cap} bytes"
            )));
        };
        // A NUL, a CR and an LF that are not each other's neighbours, or
        // no start line: one OR over every adjacent pair, no early exit,
        // so the loop runs at vector width.
        let block = &buf[..end + 2];
        let odd = |(&a, &b): (&u8, &u8)| (a == 0) | ((a == b'\r') ^ (b == b'\n'));
        let pairs = block.iter().zip(&block[1..]);
        let stray = matches!(block[0], b'\r' | b'\n') || pairs.fold(false, |any, p| any | odd(p));
        let text = match std::str::from_utf8(block) {
            Ok(text) if !stray => text,
            _ => {
                let what = "not UTF-8, a bare CR, a bare LF, a NUL or no start line in the head";
                return Err(HttpError::InvalidHeader(what.to_string()));
            }
        };
        // Every CR is half of a CRLF now: the first ends the start line.
        let cr = text
            .bytes()
            .position(|b| b == b'\r')
            .expect("the block ends in CRLF");
        let (start_line, fields) = (&text[..cr], &text[cr + 2..]);
        let len = end + 4;
        Ok(Some(Head {
            start_line,
            len,
            fields,
        }))
    }

    /// The start line read as a request's: method, target, version.
    pub fn request_line(&self) -> Result<(Method, &'a str, &'a str), HttpError> {
        let line = self.start_line;
        let space = |from: usize| {
            let at = line.as_bytes()[from..].iter().position(|&b| b == b' ');
            at.map(|at| from + at)
        };
        // Exactly two spaces, the version last.
        let split = space(0).and_then(|first| {
            let second = space(first + 1)?;
            let version = &line[second + 1..];
            let ok = version.starts_with("HTTP/") && space(second + 1).is_none();
            ok.then_some((first, second, version))
        });
        match split {
            Some((first, second, version)) => {
                Ok((line[..first].parse()?, &line[first + 1..second], version))
            }
            None => Err(HttpError::InvalidStartLine(line.to_string())),
        }
    }

    /// The start line read as a response's: version and status code.
    pub fn status_line(&self) -> Result<(&'a str, StatusCode), HttpError> {
        let mut parts = self.start_line.splitn(3, ' ');
        let version = parts.next().filter(|v| v.starts_with("HTTP/"));
        let code = parts.next().and_then(|code| code.parse().ok());
        match (version, code) {
            (Some(version), Some(code)) => Ok((version, StatusCode::new(code)?)),
            _ => Err(HttpError::InvalidStartLine(self.start_line.to_string())),
        }
    }

    /// The header lines in order. A response's may be folded (obs-fold,
    /// RFC 9112 §5.2); a request's may not.
    pub fn lines(&self) -> Lines<'a> {
        Lines {
            rest: self.fields,
            response: self.start_line.starts_with("HTTP/"),
            length: None,
            chunked: None,
        }
    }
}

/// Starts tested per step of [`blank_line`]'s block filter: a request
/// head is a handful of blocks, and the one that holds the blank line
/// is walked start by start, so the block is half the rewriter's.
const BLOCK: usize = 32;

/// Where the first CRLF CRLF in `hay` starts. A block of [`BLOCK`]
/// starts is tested at once, the outcomes OR-ed into one byte: fixed-size,
/// branch-free compares the compiler vectorises (as `scan::find_ci` in
/// the rewriter does), so a head's lines, each ending in a CRLF, cost a
/// few instructions per block; only the block that holds the blank line
/// is walked start by start. The last block overlaps the one before it
/// instead of leaving a tail to walk.
fn blank_line(hay: &[u8]) -> Option<usize> {
    const BLANK: &[u8; 4] = b"\r\n\r\n";
    let starts = (hay.len() + 1).checked_sub(BLANK.len())?;
    let at = |i: usize| &hay[i..i + BLANK.len()] == BLANK;
    if starts < BLOCK {
        return (0..starts).find(|&i| at(i));
    }
    let mut next = 0;
    loop {
        // Every start before `next` is cleared, so a hit in an overlap
        // is still the first.
        let pos = next.min(starts - BLOCK);
        let lane = |k: usize| -> &[u8; BLOCK] {
            hay[pos + k..pos + k + BLOCK]
                .try_into()
                .expect("a slice of BLOCK bytes")
        };
        let (cr, lf, cr2, lf2) = (lane(0), lane(1), lane(2), lane(3));
        let mut any = 0u8;
        for i in 0..BLOCK {
            any |= u8::from(cr[i] == b'\r')
                & u8::from(lf[i] == b'\n')
                & u8::from(cr2[i] == b'\r')
                & u8::from(lf2[i] == b'\n');
        }
        if any != 0 {
            return (pos..pos + BLOCK).find(|&i| at(i));
        }
        if pos == starts - BLOCK {
            return None;
        }
        next = pos + BLOCK;
    }
}

/// One header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// The line as it was sent, CRLF and any folded continuation
    /// included.
    pub raw: &'a str,
    /// The field name, a token.
    pub name: &'a str,
    /// The field value, trimmed.
    pub value: &'a str,
}

/// Iterator over a head's lines. It refuses a line without a colon or
/// with a name that is not a token, a folded line in a request, a
/// `Content-Length` that is not `1*DIGIT` and two that disagree (two
/// that agree are yielded once). After an error it yields nothing more.
#[derive(Debug, Clone)]
pub struct Lines<'a> {
    rest: &'a str,
    /// Whether the head is a response's: its start line says so.
    response: bool,
    length: Option<usize>,
    /// Whether the last transfer coding named so far is `chunked`.
    chunked: Option<bool>,
}

impl<'a> Lines<'a> {
    /// Walks whatever lines are left and says how the body is framed:
    /// a `Transfer-Encoding` that ends in `chunked` wins over any
    /// `Content-Length` (RFC 9112 §6.3); one that ends otherwise leaves
    /// a response to end at the close and is an error in a request, or
    /// for a caller whose `fallback` shows it cannot wait for a close;
    /// with neither header it is `fallback`.
    pub fn framing(mut self, fallback: BodyFraming) -> Result<BodyFraming, HttpError> {
        for line in &mut self {
            line?;
        }
        match (self.chunked, self.length) {
            (Some(true), _) => Ok(BodyFraming::Chunked),
            (Some(false), _) if self.response && fallback == BodyFraming::Close => {
                Ok(BodyFraming::Close)
            }
            (Some(false), _) => Err(HttpError::InvalidHeader(
                "Transfer-Encoding does not end in chunked".to_string(),
            )),
            (None, Some(n)) => Ok(BodyFraming::Length(n)),
            (None, None) => Ok(fallback),
        }
    }

    /// Takes the line at the front of `rest`; `Ok(None)` for a repeated
    /// `Content-Length` that agrees with the first.
    fn take(&mut self) -> Result<Option<Line<'a>>, HttpError> {
        let bytes = self.rest.as_bytes();
        let (mut end, mut folded) = (0, false);
        loop {
            let rest = &bytes[end..];
            end += rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |lf| lf + 1);
            if !matches!(bytes.get(end), Some(b' ' | b'\t')) {
                break;
            }
            folded = true;
        }
        let (raw, rest) = self.rest.split_at(end);
        self.rest = rest;
        let bad = || HttpError::InvalidHeader(raw.trim_end().to_string());
        // The name is the token the line starts with, and a colon must
        // end it: one pass finds both. (A line always ends in its CRLF,
        // so a byte that is not a token's is always there.)
        let colon = raw.bytes().position(|b| !Method::is_token_byte(b));
        let colon = colon.filter(|&at| at > 0 && raw.as_bytes()[at] == b':');
        let Some(colon) = colon.filter(|_| !folded || self.response) else {
            return Err(bad());
        };
        let (name, value) = (&raw[..colon], raw[colon + 1..].trim());
        if name.eq_ignore_ascii_case("Content-Length") {
            let n = headers::decimal(value)
                .filter(|n| self.length.is_none_or(|first| first == *n))
                .ok_or_else(|| HttpError::InvalidContentLength(value.to_string()))?;
            if self.length.replace(n).is_some() {
                return Ok(None);
            }
        } else if name.eq_ignore_ascii_case("Transfer-Encoding") {
            let last = value.rsplit(',').next().unwrap_or_default();
            self.chunked = Some(last.trim().eq_ignore_ascii_case("chunked"));
        }
        Ok(Some(Line { raw, name, value }))
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = Result<Line<'a>, HttpError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.rest.is_empty() {
            let line = self.take();
            if line.is_err() {
                self.rest = "";
            }
            if let Some(line) = line.transpose() {
                return Some(line);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(raw: &str) -> Head<'_> {
        Head::parse(raw.as_bytes(), usize::MAX).unwrap().unwrap()
    }

    fn framing(raw: &str, fallback: BodyFraming) -> Result<BodyFraming, HttpError> {
        let head = Head::parse(raw.as_bytes(), usize::MAX)?.unwrap();
        head.lines().framing(fallback)
    }

    #[test]
    fn a_head_ends_at_its_blank_line_and_under_its_cap() {
        let raw = b"GET / HTTP/1.1\r\nHost: h\r\n\r\nBODY";
        let head = Head::parse(raw, 64).unwrap().unwrap();
        assert_eq!(head.len, raw.len() - 4);
        assert_eq!(head.start_line, "GET / HTTP/1.1");
        assert_eq!(Head::parse(&raw[..20], 64).unwrap().map(|h| h.len), None);
        // The cap counts the bytes before the blank line.
        assert!(Head::parse(raw, 23).unwrap().is_some());
        assert!(Head::parse(raw, 22).is_err());
        assert!(Head::parse(&[b'a'; 65], 64).is_err());
        assert!(Head::parse(&[b'a'; 64], 64).unwrap().is_none());
        assert!(Head::parse(b"\r\n\r\n", 64).is_err());
        assert!(Head::parse(b"GET /\0 HTTP/1.1\r\n\r\n", 64).is_err());
    }

    #[test]
    fn the_blank_line_is_found_wherever_it_lies() {
        for len in 0..3 * BLOCK + 8 {
            // Lines of CRLFs everywhere, and one blank line, at every
            // offset and flush against the end.
            let mut hay: Vec<u8> = (0..len)
                .map(|i| if i % 5 == 4 { b'\n' } else { b'\r' })
                .collect();
            hay.iter_mut().step_by(7).for_each(|b| *b = b'x');
            let naive = |hay: &[u8]| hay.windows(4).position(|w| w == b"\r\n\r\n");
            assert_eq!(blank_line(&hay), naive(&hay), "none planted in {len}");
            for at in 0..len.saturating_sub(3) {
                let mut planted = hay.clone();
                planted[at..at + 4].copy_from_slice(b"\r\n\r\n");
                assert_eq!(blank_line(&planted), naive(&planted), "{len} at {at}");
            }
        }
    }

    #[test]
    fn lines_give_raw_name_and_trimmed_value() {
        let head = head("GET / HTTP/1.1\r\nHost:  h \r\nX-Empty:\r\n\r\n");
        let lines: Vec<_> = head.lines().map(Result::unwrap).collect();
        assert_eq!(
            lines,
            [
                Line {
                    raw: "Host:  h \r\n",
                    name: "Host",
                    value: "h"
                },
                Line {
                    raw: "X-Empty:\r\n",
                    name: "X-Empty",
                    value: ""
                },
            ]
        );
        assert_eq!(
            head.lines().framing(BodyFraming::Close),
            Ok(BodyFraming::Close)
        );
    }

    #[test]
    fn a_response_may_fold_a_line_and_a_request_may_not() {
        let folded = "X-Folded: one\r\n\ttwo\r\n  three\r\nNext: n\r\n\r\n";
        let raw = format!("HTTP/1.1 200 OK\r\n{folded}");
        let lines: Vec<_> = head(&raw).lines().map(Result::unwrap).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].raw, "X-Folded: one\r\n\ttwo\r\n  three\r\n");
        assert_eq!(lines[0].value, "one\r\n\ttwo\r\n  three");
        let raw = format!("GET / HTTP/1.1\r\n{folded}");
        assert!(head(&raw).lines().next().unwrap().is_err());
        // Nothing to continue: not a fold, and not a header line either.
        assert!(framing(
            "HTTP/1.1 200 OK\r\n folded: first\r\n\r\n",
            BodyFraming::Close
        )
        .is_err());
    }

    #[test]
    fn an_error_ends_the_walk() {
        let head = head("GET / HTTP/1.1\r\nA: 1\r\nno colon\r\nB: 2\r\n\r\n");
        let mut lines = head.lines();
        assert_eq!(lines.next().unwrap().unwrap().name, "A");
        assert!(lines.next().unwrap().is_err());
        assert!(lines.next().is_none());
    }

    #[test]
    fn start_lines_read_as_a_requests_or_a_responses() {
        let (method, target, version) = head("GET /x HTTP/1.0\r\n\r\n").request_line().unwrap();
        assert_eq!((method, target, version), (Method::Get, "/x", "HTTP/1.0"));
        assert!(head("GET /x\r\n\r\n").request_line().is_err());
        assert!(head("GET  /x HTTP/1.1\r\n\r\n").request_line().is_err());
        let (version, status) = head("HTTP/1.0 404 Not Here\r\n\r\n").status_line().unwrap();
        assert_eq!((version, status.as_u16()), ("HTTP/1.0", 404));
        assert_eq!(
            head("HTTP/1.1 204\r\n\r\n")
                .status_line()
                .unwrap()
                .1
                .as_u16(),
            204
        );
        assert!(head("GET /x HTTP/1.1\r\n\r\n").status_line().is_err());
    }

    /// The five heads the three old splitters accepted between them and
    /// forwarded, and their neighbours. Each is refused as a request;
    /// what a response may do differently is said beside it.
    #[test]
    fn what_a_head_line_may_hold() {
        let refused = [
            (
                "two lengths that disagree",
                "Content-Length: 5\r\nContent-Length: 0\r\n",
            ),
            ("a signed length", "Content-Length: +5\r\n"),
            (
                "a bare LF inside a value",
                "X: a\nTransfer-Encoding: chunked\r\n",
            ),
            (
                "a coding that only contains chunked",
                "Transfer-Encoding: xchunkedy\r\n",
            ),
            ("a bare CR and a NUL inside a value", "X: a\rb\0c\r\n"),
            ("a bare CR inside a name", "X\rY: a\r\n"),
            ("a NUL at the end of a value", "X: a\0\r\n"),
            ("an empty length", "Content-Length:\r\n"),
            ("a length list", "Content-Length: 5, 5\r\n"),
            (
                "a length past usize",
                "Content-Length: 99999999999999999999999\r\n",
            ),
            (
                "chunked that is not the last coding",
                "Transfer-Encoding: chunked, gzip\r\n",
            ),
            (
                "a coding list that ends empty",
                "Transfer-Encoding: chunked,\r\n",
            ),
            ("a folded line", "X: a\r\n b\r\n"),
        ];
        for (what, lines) in refused {
            let raw = format!("POST /x HTTP/1.1\r\n{lines}\r\n");
            assert!(framing(&raw, BodyFraming::Length(0)).is_err(), "{what}");
        }
        // A response whose codings end otherwise runs to the close.
        for lines in [
            "Transfer-Encoding: gzip\r\n",
            "Transfer-Encoding: chunked, gzip\r\n",
        ] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n{lines}\r\n");
            assert_eq!(framing(&raw, BodyFraming::Close), Ok(BodyFraming::Close));
        }
        let accepted = [
            (
                "Content-Length: 5\r\ncontent-length: 5\r\n",
                BodyFraming::Length(5),
            ),
            ("Content-Length: 007\r\n", BodyFraming::Length(7)),
            (
                "Transfer-Encoding: gzip, Chunked \r\n",
                BodyFraming::Chunked,
            ),
            (
                "Transfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n",
                BodyFraming::Chunked,
            ),
            (
                "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n",
                BodyFraming::Chunked,
            ),
            ("X: tab\there\r\n", BodyFraming::Length(0)),
        ];
        for (lines, expected) in accepted {
            let raw = format!("POST /x HTTP/1.1\r\n{lines}\r\n");
            assert_eq!(
                framing(&raw, BodyFraming::Length(0)),
                Ok(expected),
                "{lines:?}"
            );
        }
        // Lengths that agree are one line to whoever walks them.
        let head =
            head("POST /x HTTP/1.1\r\nContent-Length: 5\r\nX: y\r\ncontent-length: 5\r\n\r\n");
        let names: Vec<_> = head.lines().map(|line| line.unwrap().name).collect();
        assert_eq!(names, ["Content-Length", "X"]);
    }
}
