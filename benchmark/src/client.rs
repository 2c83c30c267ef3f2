//! The load generator's HTTP client: blocking sockets, one request in
//! flight, and a response-framing reader of its own.
//!
//! It deliberately shares no code with `botwall-serve`: the instrument
//! must not get faster or slower (or inherit a framing bug) when the
//! system it measures changes.

use crate::sys::monotonic_ns;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A head larger than this is malformed framing, not a response.
const MAX_HEAD: usize = 16 * 1024;
/// How much one `read` may take.
const READ_SIZE: usize = 64 * 1024;

/// What one response looked like on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// The status code.
    pub status: u16,
    /// Every byte of the response, head and framing included.
    pub wire_bytes: usize,
    /// Whether the body arrived chunked.
    pub chunked: bool,
    /// Whether the peer announced `Connection: close`.
    pub close: bool,
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Where `needle` first occurs in `hay` at or after `from`.
pub(crate) fn find(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// The framing reader: the connection's carry-over bytes (none between
/// responses on a serial connection) and a fixed read scratch.
#[derive(Debug)]
pub struct ResponseReader {
    buf: Vec<u8>,
    scratch: Box<[u8]>,
}

impl Default for ResponseReader {
    fn default() -> Self {
        ResponseReader {
            buf: Vec::with_capacity(READ_SIZE),
            scratch: vec![0; READ_SIZE].into_boxed_slice(),
        }
    }
}

impl ResponseReader {
    /// Whether bytes beyond the last response are waiting (on a serial
    /// connection: bytes nobody asked for).
    pub fn has_leftover(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads more bytes onto the end of the buffer; EOF is an error here
    /// because every framing this reader accepts announces its own end.
    fn fill<R: Read>(&mut self, src: &mut R, on_first: &mut impl FnMut()) -> io::Result<()> {
        let n = loop {
            match src.read(&mut self.scratch) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        if self.buf.is_empty() {
            on_first();
        }
        self.buf.extend_from_slice(&self.scratch[..n]);
        Ok(())
    }

    /// Reads exactly one response from `src`; the decoded body replaces
    /// the contents of `body`. `on_first` runs when the first response
    /// bytes arrive. Accepts `Content-Length` and chunked framing; a
    /// response with neither has an empty body (the server under test
    /// never sends close-delimited bodies on keep-alive).
    pub fn read<R: Read>(
        &mut self,
        src: &mut R,
        body: &mut Vec<u8>,
        mut on_first: impl FnMut(),
    ) -> io::Result<ResponseMeta> {
        body.clear();
        let mut scanned = 0;
        let head_end = loop {
            if let Some(p) = find(&self.buf, scanned, b"\r\n\r\n") {
                break p + 4;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill(src, &mut on_first)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1."))
            .and_then(|l| l.get(2..5))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.to_ascii_lowercase().contains("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut pos = head_end;
        if chunked {
            loop {
                let line_end = loop {
                    match find(&self.buf, pos, b"\r\n") {
                        Some(p) => break p,
                        None if self.buf.len() - pos > 64 => {
                            return Err(bad("chunk size line too long"))
                        }
                        None => self.fill(src, &mut on_first)?,
                    }
                };
                let line = std::str::from_utf8(&self.buf[pos..line_end])
                    .map_err(|_| bad("bad chunk size line"))?;
                let hex = line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(hex, 16).map_err(|_| bad("bad chunk size"))?;
                pos = line_end + 2;
                if size == 0 {
                    // Trailers (none expected) end with an empty line.
                    loop {
                        let end = loop {
                            match find(&self.buf, pos, b"\r\n") {
                                Some(p) => break p,
                                None => self.fill(src, &mut on_first)?,
                            }
                        };
                        let empty = end == pos;
                        pos = end + 2;
                        if empty {
                            break;
                        }
                    }
                    break;
                }
                while self.buf.len() < pos + size + 2 {
                    self.fill(src, &mut on_first)?;
                }
                body.extend_from_slice(&self.buf[pos..pos + size]);
                if &self.buf[pos + size..pos + size + 2] != b"\r\n" {
                    return Err(bad("chunk not terminated by CRLF"));
                }
                pos += size + 2;
            }
        } else if let Some(n) = length {
            while self.buf.len() < pos + n {
                self.fill(src, &mut on_first)?;
            }
            body.extend_from_slice(&self.buf[pos..pos + n]);
            pos += n;
        }
        self.buf.drain(..pos);
        Ok(ResponseMeta {
            status,
            wire_bytes: pos,
            chunked,
            close,
        })
    }
}

/// One fetch: what came back and when, on the shared monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Fetched {
    /// What came back.
    pub meta: ResponseMeta,
    /// When the operation began: before the request was handed to the
    /// socket, and before the connect if the operation opened one.
    pub sent_ns: u64,
    /// When the first response byte was read.
    pub first_byte_ns: u64,
    /// When the last response byte was read.
    pub done_ns: u64,
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: ResponseReader,
}

impl Conn {
    /// Connects with Nagle off (requests are single small writes) and a
    /// read timeout, so a wedged server fails the run instead of hanging it.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            reader: ResponseReader::default(),
        })
    }

    /// Sends `request` and reads its response into `body`; the operation
    /// is stamped as having begun at `sent_ns`.
    pub fn fetch(
        &mut self,
        request: &[u8],
        body: &mut Vec<u8>,
        sent_ns: u64,
    ) -> io::Result<Fetched> {
        if self.reader.has_leftover() {
            return Err(bad("unsolicited bytes before the request"));
        }
        self.stream.write_all(request)?;
        let mut first_byte_ns = 0;
        let meta = self
            .reader
            .read(&mut self.stream, body, || first_byte_ns = monotonic_ns())?;
        Ok(Fetched {
            meta,
            sent_ns,
            first_byte_ns,
            done_ns: monotonic_ns(),
        })
    }
}

/// Where a [`crate::drive::Driver`] sends one leg's requests.
pub trait Transport {
    /// Performs one `GET` (the full request bytes are in `request`),
    /// first replacing the connection if `reconnect`, and leaves the
    /// decoded body in `body`.
    fn fetch(&mut self, request: &[u8], reconnect: bool, body: &mut Vec<u8>)
        -> io::Result<Fetched>;
}

/// A [`Transport`] over one blocking keep-alive connection to `addr`.
#[derive(Debug)]
pub struct Socket {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Socket {
    /// A transport that connects on first use.
    pub fn new(addr: SocketAddr) -> Socket {
        Socket {
            addr,
            conn: None,
            connects: 0,
        }
    }
}

impl Transport for Socket {
    fn fetch(
        &mut self,
        request: &[u8],
        reconnect: bool,
        body: &mut Vec<u8>,
    ) -> io::Result<Fetched> {
        let sent_ns = monotonic_ns();
        if reconnect {
            // Close first, as a browser ending one visit before the next.
            self.conn = None;
        }
        let conn = match &mut self.conn {
            Some(conn) => conn,
            slot => {
                self.connects += 1;
                slot.insert(Conn::open(self.addr)?)
            }
        };
        match conn.fetch(request, body, sent_ns) {
            Ok(fetched) => {
                if fetched.meta.close {
                    self.conn = None;
                }
                Ok(fetched)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// A `GET` for `target` as `agent`, the bytes a browser would send.
pub fn get_request(out: &mut Vec<u8>, target: &str, agent: &str) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: site.example\r\nUser-Agent: ");
    out.extend_from_slice(agent.as_bytes());
    out.extend_from_slice(b"\r\nAccept: */*\r\n\r\n");
}
