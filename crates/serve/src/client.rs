//! A minimal blocking HTTP/1.1 client for exercising the front door
//! from tests, benches, and the binary's smoke mode: a [`Client`] owns
//! one connection, puts requests on it and reads framed responses back.
//!
//! The reader understands all three response framings — `Content-Length`,
//! `Transfer-Encoding: chunked` (decoded incrementally, so a multi-MB
//! streamed response is not subject to the request-frame cap), and
//! close-delimited.

use crate::frame::{BodyDecoder, MAX_HEAD_BYTES};
use botwall_http::{wire, Head, HttpError, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One client connection: the stream, and the bytes read off it past
/// the last response. A server answering pipelined requests can put
/// two responses in one segment, and one `read` then returns the first
/// and the start of the next; those bytes are kept for the next
/// [`Client::read_response`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// A client on an open stream.
    pub fn new(stream: TcpStream) -> Client {
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        TcpStream::connect(addr).map(Client::new)
    }

    /// The stream, for socket options, raw writes and shutdown. Read
    /// only through [`Client::read_response`]: a read around it misses
    /// the bytes the client holds.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Writes `request` in wire format.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.stream.write_all(&wire::serialize_request(request))
    }

    /// Reads exactly one response, honoring `Content-Length` framing,
    /// decoding `Transfer-Encoding: chunked` bodies chunk by chunk (a
    /// half-sent chunked body at EOF is an error, not a short body), and
    /// falling back to read-to-EOF when the server closes a response
    /// with neither. Bytes past the response stay for the next call.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 8192];
        let (builder, framing, head_len) = loop {
            if let Some(head) = Head::parse(&self.buf, MAX_HEAD_BYTES).map_err(invalid)? {
                let (builder, framing) = wire::response_builder(&head).map_err(invalid)?;
                break (builder, framing, head.len);
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.buf.is_empty() {
                            "connection closed before any response bytes"
                        } else {
                            "connection closed mid-header"
                        },
                    ));
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        self.buf.drain(..head_len);
        let mut decoder = BodyDecoder::new(framing);
        let mut body = Vec::new();
        while !decoder.push(&mut self.buf, &mut body).map_err(invalid)? {
            match self.stream.read(&mut chunk)? {
                0 if decoder.eof_ok() => break,
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-body (truncated chunked stream)",
                    ));
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        Ok(builder.body_bytes(body).build())
    }

    /// One request/response round trip.
    pub fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.read_response()
    }
}

fn invalid(e: HttpError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::StatusCode;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Two responses that arrive in one segment are two responses: the
    /// second read is answered from what the first one read past, not
    /// by waiting on a server that has nothing more to send.
    #[test]
    fn a_second_response_read_past_the_first_is_kept_for_the_next_read() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, hold) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst\
                  HTTP/1.1 404 Not Found\r\nContent-Length: 6\r\n\r\nsecond",
            )
            .unwrap();
            // The socket stays open until the client is done: a read
            // that waits for more bytes waits out its timeout.
            hold.recv().ok();
        });
        let mut client = Client::connect(addr).unwrap();
        client
            .stream()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let first = client.read_response().unwrap();
        let second = client.read_response().unwrap();
        done.send(()).unwrap();
        server.join().unwrap();
        assert_eq!(
            (first.status(), first.body()),
            (StatusCode::OK, &b"first"[..])
        );
        assert_eq!(
            (second.status(), second.body()),
            (StatusCode::NOT_FOUND, &b"second"[..])
        );
    }
}
