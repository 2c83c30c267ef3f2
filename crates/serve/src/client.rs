//! A minimal blocking HTTP/1.1 client for exercising the front door
//! from tests, benches, and the binary's smoke mode. One function per
//! concern: put a request on a stream, read one framed response back.
//!
//! The reader understands all three response framings — `Content-Length`,
//! `Transfer-Encoding: chunked` (decoded incrementally, so a multi-MB
//! streamed response is not subject to the request-frame cap), and
//! close-delimited.

use crate::frame::{BodyDecoder, MAX_HEAD_BYTES};
use botwall_http::{wire, Head, HttpError, Request, Response};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Writes `request` to the stream in wire format.
pub fn send_request(conn: &mut TcpStream, request: &Request) -> io::Result<()> {
    conn.write_all(&wire::serialize_request(request))
}

/// Reads exactly one response off the stream, honoring `Content-Length`
/// framing, decoding `Transfer-Encoding: chunked` bodies chunk by chunk
/// (a half-sent chunked body at EOF is an error, not a short body), and
/// falling back to read-to-EOF when the server closes a response with
/// neither.
pub fn read_response(conn: &mut TcpStream) -> io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let (builder, framing, head_len) = loop {
        if let Some(head) = Head::parse(&buf, MAX_HEAD_BYTES).map_err(invalid)? {
            let (builder, framing) = wire::response_builder(&head).map_err(invalid)?;
            break (builder, framing, head.len);
        }
        match conn.read(&mut chunk)? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    if buf.is_empty() {
                        "connection closed before any response bytes"
                    } else {
                        "connection closed mid-header"
                    },
                ));
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let mut rest = buf.split_off(head_len);
    let mut decoder = BodyDecoder::new(framing);
    let mut body = Vec::new();
    let mut done = decoder.push(&mut rest, &mut body).map_err(invalid)?;
    while !done {
        match conn.read(&mut chunk)? {
            0 => {
                if decoder.eof_ok() {
                    break;
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body (truncated chunked stream)",
                ));
            }
            n => {
                rest.extend_from_slice(&chunk[..n]);
                done = decoder.push(&mut rest, &mut body).map_err(invalid)?;
            }
        }
    }
    Ok(builder.body_bytes(body).build())
}

/// One request/response round trip on an existing connection.
pub fn roundtrip(conn: &mut TcpStream, request: &Request) -> io::Result<Response> {
    send_request(conn, request)?;
    read_response(conn)
}

fn invalid(e: HttpError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
