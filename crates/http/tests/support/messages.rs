// Byte strings shaped like HTTP/1.x messages, for the codec's property
// tests: this crate's `proptest_frame.rs` and the ones in the server's
// `server.rs`, which `include!` this file (hence no `//!` here).
// Uniform random bytes almost never hold a blank line, let alone a
// framing header, so a message is put together from fragments that
// matter to a parser (good ones, the ones the old splitters disagreed
// about, and plain garbage) and then a few of its bytes are overwritten
// at random.

use proptest::collection::vec;
use proptest::prelude::*;

const STARTS: &[&str] = &[
    "GET / HTTP/1.1",
    "POST /form?x=1 HTTP/1.1",
    "GET http://h.example:8080/a/b HTTP/1.0",
    "HEAD /p HTTP/1.1",
    "PURGE /cache HTTP/1.1",
    "HTTP/1.1 200 OK",
    "HTTP/1.0 404 Not Here",
    "HTTP/1.1 204",
    "HTTP/1.1 999 Nope",
    "GET /",
    "GET  / HTTP/1.1",
    "",
];

/// How many of [`LINES`], from the front, any head may hold: drawn
/// three times in four, so that a fair share of messages parse.
const BENIGN: usize = 14;

const LINES: &[&str] = &[
    "Host: site.example",
    "User-Agent: Mozilla/5.0 fuzz",
    "Cookie: a=1",
    "Content-Type: text/html; charset=utf-8",
    "Content-Length: 5",
    "content-length: 5",
    "Transfer-Encoding: chunked",
    "transfer-encoding: gzip, Chunked",
    "Connection: keep-alive, close",
    "Connection: TE, Upgrade",
    "Keep-Alive: timeout=5",
    "Upgrade: h2c",
    "X-Empty:",
    "X-Wide: caf\u{e9} \u{2028}",
    "Content-Length: 0",
    "Content-Length: 11",
    "Content-Length: +5",
    "Content-Length: 5, 5",
    "Content-Length: 18446744073709551615",
    "Transfer-Encoding: xchunkedy",
    "Transfer-Encoding: gzip",
    "Proxy-Connection: keep-alive",
    "Trailer: Expires",
    "X: a\nTransfer-Encoding: chunked",
    "X: a\rb\0c",
    "X-Folded: one\r\n two\r\n\tthree",
    " leading: space",
    "NoColonHere",
    ": no name",
];

const BODIES: &[&str] = &[
    "",
    "hello",
    "hello world",
    "5\r\nhello\r\n0\r\n\r\n",
    "5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nExpires: now\r\n\r\n",
    "5\r\nhello\r\n0\r\n\r\nGET /next HTTP/1.1\r\n\r\n",
    "5\r\nhelloXX",
    "zz\r\nhello",
    "fffffffffffffffff\r\n",
    "helloGET /next HTTP/1.1\r\nHost: h\r\n\r\n",
];

/// A message-shaped byte string: a start line, up to six header lines,
/// a blank line and a body, each drawn from the tables above, with up
/// to three bytes then overwritten.
pub fn message() -> impl Strategy<Value = Vec<u8>> {
    let parts = (
        0..STARTS.len(),
        vec(0..4 * LINES.len(), 0..7),
        0..BODIES.len(),
    );
    let noise = vec((any::<u16>(), any::<u8>()), 0..4);
    (parts, noise).prop_map(|((start, lines, body), noise)| {
        let mut raw = format!("{}\r\n", STARTS[start]);
        for line in lines {
            raw.push_str(LINES[if line < LINES.len() { line } else { line % BENIGN }]);
            raw.push_str("\r\n");
        }
        raw.push_str("\r\n");
        raw.push_str(BODIES[body]);
        let mut raw = raw.into_bytes();
        // One time in four the fragments are left as they are.
        if noise.len() < 3 {
            for (at, byte) in noise {
                let at = at as usize % raw.len();
                raw[at] = byte;
            }
        }
        raw
    })
}

/// Where to cut a buffer of `len` bytes into pieces: the end of each
/// piece, the last of them `len`.
pub fn cuts(len: usize, steps: &[usize]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    for step in steps {
        at += step;
        if at >= len {
            break;
        }
        ends.push(at);
    }
    ends.push(len);
    ends
}
