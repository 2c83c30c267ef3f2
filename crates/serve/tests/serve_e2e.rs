//! End-to-end loopback exercises of the TCP front door: a real server
//! thread, a real (deliberately blocking) mock origin, and real client
//! sockets. Sessions are keyed (ClientIp, User-Agent); every connection
//! here shares 127.0.0.1, so each test scenario gets its own User-Agent.

use botwall_core::classifier::{Reason, Verdict};
use botwall_gateway::{Gateway, Origin};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_serve::client::Client;
use botwall_serve::{
    frame, MockOrigin, MockOriginHandle, ORIGIN_POOL_CAP, ORIGIN_POOL_IDLE, ORIGIN_TIMEOUT,
    READ_TIMEOUT,
};
use botwall_sessions::{SessionKey, SimTime};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod support;
use support::{Fixture, PAGE};

fn request(path: &str, ua: &str) -> Request {
    Request::builder(Method::Get, path)
        .header("User-Agent", ua)
        .header("Host", "site.example")
        .build()
        .unwrap()
}

/// The session key the server derives for loopback traffic with `ua`.
fn loopback_key(ua: &str) -> SessionKey {
    let probe = Request::builder(Method::Get, "/")
        .header("User-Agent", ua)
        .client(ClientIp::new(u32::from_be_bytes([127, 0, 0, 1])))
        .build()
        .unwrap();
    SessionKey::of(&probe)
}

fn get_on(conn: &mut Client, path: &str, ua: &str) -> Response {
    conn.roundtrip(&request(path, ua)).unwrap()
}

fn get(addr: SocketAddr, path: &str, ua: &str) -> Response {
    get_on(&mut Client::connect(addr).unwrap(), path, ua)
}

/// Every `quote`-delimited absolute URL in `text`, reduced to its
/// path-and-query — the shapes a browser would request back. HTML
/// attributes use double quotes; the generated JS uses single quotes.
fn quoted_paths(text: &str, quote: char) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in text.split(quote).skip(1).step_by(2) {
        if let Some(rest) = chunk.split("://").nth(1) {
            if let Some(slash) = rest.find('/') {
                out.push(rest[slash..].to_string());
            }
        }
    }
    out
}

/// What a browser does on mouse movement: read the handler name out of
/// the page's `onmousemove` attribute, find that function in the
/// generated script, and return the beacon URL it fetches.
fn mouse_beacon_path(html: &str, js: &str) -> String {
    let handler = html
        .split("onmousemove=\"return ")
        .nth(1)
        .and_then(|rest| rest.split('(').next())
        .unwrap_or_else(|| panic!("page wires an onmousemove handler: {html}"));
    let body = js
        .split(&format!("function {handler}()"))
        .nth(1)
        .map(|rest| rest.split("function ").next().unwrap_or(rest))
        .unwrap_or_else(|| panic!("script defines the handler {handler}: {js}"));
    quoted_paths(body, '\'')
        .into_iter()
        .next()
        .unwrap_or_else(|| panic!("handler {handler} fetches a beacon image: {body}"))
}

fn body_str(response: &Response) -> String {
    String::from_utf8(response.body().to_vec()).unwrap()
}

#[test]
fn serves_an_instrumented_page_end_to_end() {
    let fx = Fixture::standard();
    let response = get(fx.addr, "/index.html", "Mozilla/5.0 e2e-page");
    assert_eq!(response.status(), StatusCode::OK);
    let body = body_str(&response);
    assert!(body.contains("content"), "origin HTML survives: {body}");
    assert!(
        body.contains("onmousemove"),
        "page is instrumented on the way out: {body}"
    );
    // Pages go out chunked; the test client decodes the stream and
    // reframes it as identity, so the length here is the decoded body's.
    assert_eq!(
        response.headers().content_length(),
        Some(response.body().len()),
        "client reframes the decoded stream with its real length"
    );
    let stats = fx.gateway.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.served, 1);
    assert!(stats.instrumentation_bytes > 0);
    fx.finish();
}

/// A page well past the request-frame cap (1 MB), chunk-fed by the
/// origin, must flow through instrumented end to end — the streaming
/// path never buffers the page whole on either hop. Neither does it an
/// asset of the same size: that one arrives byte for byte under the
/// `Content-Length` the origin declared.
#[test]
fn streams_a_multi_megabyte_page_chunked_end_to_end() {
    let paragraph = "<p>the quick brown fox jumps over the lazy dog</p>\n";
    let mut big = String::with_capacity(3 * 1024 * 1024 + 256);
    big.push_str("<html><head><title>big</title></head><body>\n");
    while big.len() < 3 * 1024 * 1024 {
        big.push_str(paragraph);
    }
    big.push_str("<p>the-last-paragraph</p></body></html>");
    let asset: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
    let origin = MockOrigin::new()
        .page("/big.html", big.clone())
        .chunked("/big.html", 8 * 1024)
        .asset("/big.bin", asset.clone())
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(9).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let response = get(fx.addr, "/big.html", "Mozilla/5.0 e2e-big");
    assert_eq!(response.status(), StatusCode::OK);
    let body = body_str(&response);
    assert!(body.len() > big.len(), "instrumentation only adds bytes");
    assert!(
        body.contains("the-last-paragraph"),
        "the stream reaches the end of the page"
    );
    assert!(body.contains("onmousemove"), "the big page is instrumented");
    let stats = fx.gateway.stats();
    assert_eq!(stats.served, 1);
    assert!(stats.instrumentation_bytes > 0);
    let page_overhead = body.len() - big.len();
    assert_eq!(
        stats.instrumentation_bytes as usize, page_overhead,
        "overhead accounting matches the observed growth exactly"
    );

    let conn = TcpStream::connect(fx.addr).unwrap();
    let (_, raw, head, body) = raw_exchange(conn, "/big.bin", "Mozilla/5.0 e2e-big", read_to_end);
    assert_eq!(head.status, 200);
    assert_eq!(head.framing, frame::BodyFraming::Length(asset.len()));
    let head_text = String::from_utf8_lossy(&raw[..head.len]).to_ascii_lowercase();
    assert!(!head_text.contains("transfer-encoding"), "{head_text}");
    assert!(body == asset, "the asset, byte for byte");
    let stats = fx.gateway.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(
        stats.instrumentation_bytes as usize, page_overhead,
        "not a byte of it counted as markup"
    );
    fx.finish();
}

/// On the wire (below the test client's reframing) a page really is
/// `Transfer-Encoding: chunked` with a terminal chunk.
#[test]
fn pages_use_chunked_framing_on_the_wire() {
    let fx = Fixture::standard();
    let mut conn = TcpStream::connect(fx.addr).unwrap();
    let req = Request::builder(Method::Get, "/index.html")
        .header("User-Agent", "Mozilla/5.0 e2e-wire")
        .header("Host", "site.example")
        .header("Connection", "close")
        .build()
        .unwrap();
    conn.write_all(&botwall_http::wire::serialize_request(&req))
        .unwrap();
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut conn, &mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.contains("Transfer-Encoding: chunked"),
        "wire framing is chunked: {}",
        &text[..text.len().min(300)]
    );
    assert!(
        !text.to_ascii_lowercase().contains("content-length"),
        "chunked and Content-Length never mix"
    );
    assert!(
        raw.ends_with(b"0\r\n\r\n"),
        "terminal chunk closes the stream"
    );
    fx.finish();
}

/// An origin that dies mid-body must stay visibly truncated: the client
/// never sees a terminal chunk, and the leased exchange still completes
/// so the session's in-flight count returns to zero.
#[test]
fn truncated_origin_stream_is_not_reframed_as_complete() {
    for threads in [1, 2] {
        a_truncated_origin_stream_stays_truncated(threads);
    }
}

fn a_truncated_origin_stream_stays_truncated(threads: usize) {
    let paragraph = "<p>soon to be cut off mid sentence</p>\n";
    let mut page = String::from("<html><head></head><body>");
    while page.len() < 256 * 1024 {
        page.push_str(paragraph);
    }
    page.push_str("</body></html>");
    let origin = MockOrigin::new()
        .page("/dying.html", page)
        .chunked("/dying.html", 4 * 1024)
        .truncate_after("/dying.html", 64 * 1024)
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(10).build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = threads;
        },
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-truncated";
    let mut conn = Client::connect(fx.addr).unwrap();
    let err = conn
        .roundtrip(&request("/dying.html", ua))
        .expect_err("a truncated stream must not parse as a complete response");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    // The lease completed despite the mid-stream death.
    let in_flight = fx
        .gateway
        .detector()
        .with_key_state(&loopback_key(ua), |_, state| state.in_flight)
        .expect("session exists");
    assert_eq!(in_flight, 0);
    fx.finish();

    // An asset under a `Content-Length` the origin never honours: cut
    // by a close mid-body, or by a stall past `ORIGIN_TIMEOUT`. The
    // client reads the head as declared, fewer bytes than it declares,
    // and then a close; what it was sent is what the ledger says; and
    // the origin connection is dropped on the spot, not parked.
    const DECLARED: usize = 100_000;
    const SENT: usize = 40_000;
    for stalls in [false, true] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let origin_addr = listener.local_addr().unwrap();
        let origin = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_request(&mut conn).expect("a request");
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
                 Content-Length: {DECLARED}\r\n\r\n"
            );
            conn.write_all(head.as_bytes()).unwrap();
            conn.write_all(&[0x5A; SENT]).unwrap();
            if !stalls {
                return true;
            }
            // Whether the server hangs up before the origin gives up.
            conn.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            matches!(std::io::Read::read(&mut conn, &mut [0u8; 1]), Ok(0))
        });
        let fx = Fixture::with(
            Gateway::builder().seed(10).build(),
            |config| {
                config.origin = Some(origin_addr);
                config.threads = threads;
            },
            None,
        );
        let ua = "Mozilla/5.0 e2e-truncated-asset";
        let req = request("/dying.bin", ua);
        let mut conn = TcpStream::connect(fx.addr).unwrap();
        conn.write_all(&botwall_http::wire::serialize_request(&req))
            .unwrap();
        let started = Instant::now();
        // Everything the origin sent, then (a stall) time past the
        // deadline its last byte armed.
        let mut raw = Vec::new();
        let mut piece = [0u8; 16 * 1024];
        while frame::response_head(&raw)
            .unwrap()
            .is_none_or(|head| raw.len() < head.len + SENT)
        {
            let n = std::io::Read::read(&mut conn, &mut piece).unwrap();
            assert!(n > 0, "closed before what the origin sent arrived");
            raw.extend_from_slice(&piece[..n]);
        }
        fx.advance_until_readable(&conn, ORIGIN_TIMEOUT);
        read_to_end(&mut conn, &mut raw);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the close follows the cut, or the stall deadline: {:?}",
            started.elapsed()
        );
        let head = frame::response_head(&raw).unwrap().expect("a whole head");
        assert_eq!(head.framing, frame::BodyFraming::Length(DECLARED));
        assert!(raw[head.len..] == [0x5A; SENT], "what arrived, and no more");
        assert!(origin.join().unwrap(), "the origin connection was dropped");
        let stats = fx.gateway.stats();
        assert_eq!((stats.requests, stats.served), (1, 1));
        let sent = botwall_http::wire::serialize_request(&req).len();
        assert_eq!(stats.total_bytes, (sent + raw.len()) as u64);
        let in_flight = fx
            .gateway
            .detector()
            .with_key_state(&loopback_key(ua), |_, state| state.in_flight);
        assert_eq!(in_flight, Some(0));
        let report = fx.finish();
        assert_eq!((report.origin_connects, report.origin_reuses), (1, 0));
    }
}

/// A well-formed page of at least `size` bytes with a tag every fifty.
fn page_of(size: usize) -> String {
    let mut page = String::from("<html><head><title>t</title></head><body>\n");
    while page.len() < size {
        page.push_str("<p>the quick brown fox jumps over the lazy dog</p>\n");
    }
    page.push_str("</body></html>");
    page
}

/// One `Connection: close` fetch of a page at `path`: [`raw_exchange`]
/// for a response that is chunked on the wire.
fn raw_fetch(
    conn: TcpStream,
    path: &str,
    ua: &str,
    read: impl FnOnce(&mut TcpStream, &mut Vec<u8>),
) -> (usize, Vec<u8>, Vec<u8>) {
    let (sent, raw, head, body) = raw_exchange(conn, path, ua, read);
    assert_eq!(head.framing, frame::BodyFraming::Chunked);
    (sent, raw, body)
}

/// One `Connection: close` fetch of `path` with the socket in hand:
/// sends the request on `conn`, hands it to `read` to drain however it
/// likes, and returns the request's length on the wire, the raw
/// response bytes `read` collected, the response head as parsed, and
/// the decoded body, which must be whole with nothing after it.
fn raw_exchange(
    mut conn: TcpStream,
    path: &str,
    ua: &str,
    read: impl FnOnce(&mut TcpStream, &mut Vec<u8>),
) -> (usize, Vec<u8>, frame::ResponseHead, Vec<u8>) {
    let req = Request::builder(Method::Get, path)
        .header("User-Agent", ua)
        .header("Host", "site.example")
        .header("Connection", "close")
        .build()
        .unwrap();
    let sent = botwall_http::wire::serialize_request(&req);
    conn.write_all(&sent).unwrap();
    let mut raw = Vec::new();
    read(&mut conn, &mut raw);
    let head = frame::response_head(&raw).unwrap().expect("a whole head");
    let mut body = Vec::new();
    let decoded = frame::BodyDecoder::new(head.framing)
        .decode(&raw[head.len..], |_, run| body.extend_from_slice(run));
    assert_eq!(
        decoded,
        Ok((raw.len() - head.len, true)),
        "the stream is whole and nothing follows it"
    );
    (sent.len(), raw, head, body)
}

fn read_to_end(conn: &mut TcpStream, raw: &mut Vec<u8>) {
    std::io::Read::read_to_end(conn, raw).unwrap();
}

/// The front door over an origin that serves `page` at /page.html,
/// `Content-Length`-framed or in `chunked`-byte chunks.
fn page_fixture(page: &str, chunked: Option<usize>) -> Fixture {
    let mut origin = MockOrigin::new().page("/page.html", page);
    if let Some(size) = chunked {
        origin = origin.chunked("/page.html", size);
    }
    let origin = origin.start().unwrap();
    let origin_addr = origin.addr();
    Fixture::with(
        Gateway::builder().seed(77).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    )
}

/// The byte ledger counts what a streamed page put on the client's
/// wire (the client's head, its chunk framing, the injected markup),
/// not what the origin's side of the exchange weighed. The one part the
/// server cannot know when it commits the exchange is the framing of
/// the rewriter's tail chunk and the terminal chunk behind it.
#[test]
fn a_streamed_page_is_ledgered_as_the_bytes_the_client_was_sent() {
    for (page, chunked) in [
        (PAGE.to_string(), None),
        (PAGE.to_string(), Some(7)),
        (page_of(200 * 1024), None),
        (page_of(200 * 1024), Some(8 * 1024)),
    ] {
        let fx = page_fixture(&page, chunked);
        let conn = TcpStream::connect(fx.addr).unwrap();
        let (sent, raw, body) =
            raw_fetch(conn, "/page.html", "Mozilla/5.0 e2e-ledger", read_to_end);
        let stats = fx.gateway.stats();
        assert_eq!(
            stats.instrumentation_bytes as usize,
            body.len() - page.len()
        );
        let on_the_wire = (sent + raw.len()) as u64;
        assert!(
            stats.total_bytes <= on_the_wire && on_the_wire - stats.total_bytes <= 16,
            "ledger {} for {on_the_wire} bytes on the wire (chunked: {chunked:?})",
            stats.total_bytes
        );
        fx.finish();
    }
    // A relayed asset is ledgered the same way: to the byte under a
    // `Content-Length`, short of the terminal chunk when re-chunked.
    let asset: Vec<u8> = (0..40_000u32).map(|i| (i % 253) as u8).collect();
    for chunked in [false, true] {
        let response = body_response("application/octet-stream", &asset, 7000, chunked);
        let (origin_addr, origin) = scripted_origin(vec![response.concat()], Duration::ZERO);
        let fx = Fixture::with(
            Gateway::builder().seed(77).build(),
            |config| config.origin = Some(origin_addr),
            None,
        );
        let conn = TcpStream::connect(fx.addr).unwrap();
        let (sent, raw, head, body) =
            raw_exchange(conn, "/asset.bin", "Mozilla/5.0 e2e-ledger", read_to_end);
        origin.join().unwrap();
        let expected = if chunked {
            frame::BodyFraming::Chunked
        } else {
            frame::BodyFraming::Length(asset.len())
        };
        assert_eq!(head.framing, expected);
        assert!(
            body == asset,
            "the asset, byte for byte (chunked: {chunked})"
        );
        let stats = fx.gateway.stats();
        assert_eq!(stats.instrumentation_bytes, 0);
        let on_the_wire = (sent + raw.len()) as u64;
        let unledgered = if chunked {
            b"0\r\n\r\n".len() as u64
        } else {
            0
        };
        assert_eq!(
            stats.total_bytes + unledgered,
            on_the_wire,
            "chunked: {chunked}"
        );
        fx.finish();
    }
}

/// An origin for one fetch that answers with `pieces`, one `write` each
/// and `gap` apart, and closes: framing and pacing are the test's.
fn scripted_origin(pieces: Vec<Vec<u8>>, gap: Duration) -> (SocketAddr, JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let origin = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut request = Vec::new();
        let mut byte = [0u8; 1];
        while !request.ends_with(b"\r\n\r\n") {
            std::io::Read::read_exact(&mut conn, &mut byte).unwrap();
            request.push(byte[0]);
        }
        for piece in pieces {
            conn.write_all(&piece).unwrap();
            std::thread::sleep(gap);
        }
    });
    (addr, origin)
}

/// `page` as a `200 text/html` response in pieces of `size` body bytes,
/// each a chunk of its own when `chunked`, under a `Content-Length`
/// otherwise.
fn page_response(page: &str, size: usize, chunked: bool) -> Vec<Vec<u8>> {
    body_response("text/html", page.as_bytes(), size, chunked)
}

/// The same for any body and type.
fn body_response(content_type: &str, body: &[u8], size: usize, chunked: bool) -> Vec<Vec<u8>> {
    let framing = if chunked {
        "Transfer-Encoding: chunked".to_string()
    } else {
        format!("Content-Length: {}", body.len())
    };
    let head = format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n{framing}\r\n\r\n");
    let mut pieces = vec![head.into_bytes()];
    for piece in body.chunks(size) {
        pieces.push(if chunked {
            [format!("{:x}\r\n", piece.len()).as_bytes(), piece, b"\r\n"].concat()
        } else {
            piece.to_vec()
        });
    }
    if chunked {
        pieces.push(b"0\r\n\r\n".to_vec());
    }
    pieces
}

/// Checks that `body` is `page`, every byte in order, with markup at
/// the three injection sites (before `</head>`, inside `<body`, before
/// the last `</body>`) and nowhere else. Returns the markup's length.
fn markup_in(page: &str, body: &[u8]) -> usize {
    let head_end = page.find("</head>").unwrap();
    let body_open = page.find("<body").unwrap() + "<body".len();
    let body_end = page.rfind("</body>").unwrap();
    let page = page.as_bytes();
    let (mut at, mut markup) = (0, 0);
    for run in [
        &page[..head_end],
        &page[head_end..body_open],
        &page[body_open..body_end],
        &page[body_end..],
    ] {
        let skipped = body[at..]
            .windows(run.len())
            .position(|window| window == run)
            .expect("the origin's bytes, in order");
        markup += skipped;
        at += skipped + run.len();
    }
    assert_eq!(at, body.len(), "nothing after the page");
    assert_eq!(body.len() - page.len(), markup);
    markup
}

/// A client whose receive buffer is fixed (a few loopback segments; the
/// kernel would grow it to tens of megabytes otherwise) lets the page
/// pile up against it until the server's write blocks, and then reads
/// it in 1 KB sips, while the origin keeps sending 64 KB every few
/// milliseconds: the vectored write is cut short, the rest queues behind
/// it, the origin is paused and resumed around the backlog's water
/// marks, and the page arrives whole, byte for byte and in order, over
/// both origin framings, with the ledger balanced.
#[test]
fn a_slow_reader_gets_the_same_page_through_backpressure() {
    // With the client's buffer fixed, what the kernel can still take
    // off the server's hands is the server's own send buffer, which
    // grows to the host's ceiling on loopback. The page is 2 MB more.
    let send_buffer_max = std::fs::read_to_string("/proc/sys/net/ipv4/tcp_wmem")
        .ok()
        .and_then(|wmem| wmem.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(4 * 1024 * 1024);
    let page = page_of(send_buffer_max + 2 * 1024 * 1024);
    let ua = "Mozilla/5.0 e2e-sips";
    // The third pass sends the same bytes as somebody else's format,
    // under a `Content-Length`: relayed through the same backpressure,
    // unframed and untouched.
    for (content_type, chunked) in [
        ("text/html", false),
        ("text/html", true),
        ("application/octet-stream", false),
    ] {
        let is_page = content_type == "text/html";
        // Slowly enough that the server is never a piece behind: when
        // its write blocks, most of the last 2 MB is still to come.
        let (origin_addr, origin) = scripted_origin(
            body_response(content_type, page.as_bytes(), 64 * 1024, chunked),
            Duration::from_millis(3),
        );
        let fx = Fixture::with(
            Gateway::builder().seed(77).build(),
            |config| config.origin = Some(origin_addr),
            None,
        );
        let addr = fx.addr;
        let conn = TcpStream::connect(addr).unwrap();
        reactor::net::set_recv_buffer(&conn, 256 * 1024).unwrap();
        let (sent, raw, head, body) = raw_exchange(conn, "/page.html", ua, |conn, raw| {
            // Not a byte is read until the server's write has blocked
            // and the origin has had time to run into the pause.
            let patience = Instant::now() + Duration::from_secs(30);
            while stat(
                &body_str(&get(addr, "/admin/stats", ua)),
                "sys_writes_blocked",
            ) == 0
            {
                assert!(Instant::now() < patience, "the write never blocked");
                std::thread::sleep(Duration::from_millis(10));
            }
            std::thread::sleep(Duration::from_millis(50));
            let mut sip = [0u8; 1024];
            loop {
                match std::io::Read::read(conn, &mut sip).unwrap() {
                    0 => break,
                    n => raw.extend_from_slice(&sip[..n]),
                }
            }
        });
        origin.join().unwrap();
        let stats = fx.gateway.stats();
        assert_eq!((stats.requests, stats.served), (1, 1));
        if is_page {
            assert_eq!(head.framing, frame::BodyFraming::Chunked);
            assert_eq!(
                markup_in(&page, &body) as u64,
                stats.instrumentation_bytes,
                "chunked: {chunked}"
            );
        } else {
            assert_eq!(head.framing, frame::BodyFraming::Length(page.len()));
            assert!(body == page.as_bytes(), "byte for byte");
            assert_eq!(stats.instrumentation_bytes, 0);
        }
        let on_the_wire = (sent + raw.len()) as u64;
        assert!(
            stats.total_bytes <= on_the_wire && on_the_wire - stats.total_bytes <= 16,
            "ledger {} for {on_the_wire} bytes on the wire",
            stats.total_bytes
        );
        let in_flight = fx
            .gateway
            .detector()
            .with_key_state(&loopback_key(ua), |_, state| state.in_flight);
        assert_eq!(in_flight, Some(0));
        let report = fx.finish();
        assert!(report.sys.writes_blocked > 0, "the client's socket filled");
        assert!(
            report.interest_changes >= 3,
            "WRITABLE, pause, resume: {}",
            report.interest_changes
        );
    }
}

/// A hostile origin's framing: the page in 4 000 and some chunks of one
/// byte, sent in one piece, so a single step decodes thousands of runs.
/// The list of ranges is capped and the rest copied; the client gets
/// the page, every byte in order.
#[test]
fn a_page_in_one_byte_chunks_comes_out_the_same() {
    let page = page_of(4000);
    let response = page_response(&page, 1, true).concat();
    let (origin_addr, origin) = scripted_origin(vec![response], Duration::ZERO);
    let fx = Fixture::with(
        Gateway::builder().seed(77).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let conn = TcpStream::connect(fx.addr).unwrap();
    let (_, _, body) = raw_fetch(conn, "/page.html", "Mozilla/5.0 e2e-one-byte", read_to_end);
    assert_eq!(
        markup_in(&page, &body) as u64,
        fx.gateway.stats().instrumentation_bytes
    );
    origin.join().unwrap();
    fx.finish();
}

#[test]
fn human_beacon_flow_flips_the_verdict_over_the_wire() {
    let fx = Fixture::standard();
    let ua = "Mozilla/5.0 e2e-human";
    let body = body_str(&get(fx.addr, "/index.html", ua));

    // Act like a browser: fetch the generated script, then fire the
    // beacon the page's onmousemove handler points at.
    let js_path = quoted_paths(&body, '"')
        .into_iter()
        .find(|p| p.ends_with(".js"))
        .expect("instrumented page links a generated script");
    let mut conn = Client::connect(fx.addr).unwrap();
    let js = get_on(&mut conn, &js_path, ua);
    assert_eq!(js.status(), StatusCode::OK);
    let js_body = body_str(&js);
    assert!(js_body.contains("new Image()"), "{js_body}");

    let beacon_path = mouse_beacon_path(&body, &js_body);
    let beacon = get_on(&mut conn, &beacon_path, ua);
    assert_eq!(beacon.status(), StatusCode::OK);

    assert_eq!(
        fx.gateway.verdict(&loopback_key(ua)),
        Verdict::Human(Reason::MouseActivity),
        "mouse beacon round-trip proves the human"
    );
    assert!(fx.gateway.stats().probe_requests >= 2);
    fx.finish();
}

#[test]
fn decoy_fetch_convicts_then_throttles_then_blocks() {
    let fx = Fixture::standard();
    let ua = "scraper/1.0 e2e-robot";
    let body = body_str(&get(fx.addr, "/index.html", ua));

    // A crawler follows every link — including the invisible decoy the
    // instrumenter planted (a 20-digit nonce .html).
    let decoy = quoted_paths(&body, '"')
        .into_iter()
        .find(|p| {
            p.ends_with(".html")
                && p.trim_start_matches('/')
                    .trim_end_matches(".html")
                    .bytes()
                    .all(|b| b.is_ascii_digit())
        })
        .expect("instrumented page plants a decoy link");
    get(fx.addr, &decoy, ua);
    let key = loopback_key(ua);
    assert!(
        matches!(fx.gateway.verdict(&key), Verdict::Robot(_)),
        "decoy fetch convicts: {:?}",
        fx.gateway.verdict(&key)
    );

    // A convicted robot runs on the tight robot bucket (burst 2): a few
    // more rapid requests and the wire starts answering 429.
    let mut conn = Client::connect(fx.addr).unwrap();
    let mut throttled = 0;
    for i in 0..6 {
        let response = get_on(&mut conn, &format!("/p{i}.html"), ua);
        if response.status() == StatusCode::TOO_MANY_REQUESTS {
            throttled += 1;
        }
    }
    assert!(throttled > 0, "robot bucket must bite within six requests");
    assert_eq!(fx.gateway.stats().throttled, throttled);

    // Operator escalates to a block; the wire answers 403 from then on.
    fx.gateway
        .detector()
        .with_key_state(&key, |_, state| state.policy.block());
    let blocked = get(fx.addr, "/index.html", ua);
    assert_eq!(blocked.status(), StatusCode::FORBIDDEN);
    assert_eq!(fx.gateway.stats().blocked, 1);
    fx.finish();
}

#[test]
fn burst_past_the_rate_threshold_draws_403s() {
    let fx = Fixture::standard();
    let ua = "wget/1.0 e2e-burst";
    let mut conn = Client::connect(fx.addr).unwrap();
    let mut pushed_back = 0;
    for i in 0..80 {
        let response = get_on(&mut conn, &format!("/p{i}.html"), ua);
        match response.status() {
            // The rate threshold convicts and blocks; the robot bucket
            // may squeeze in a 429 first depending on timing.
            StatusCode::FORBIDDEN | StatusCode::TOO_MANY_REQUESTS => pushed_back += 1,
            StatusCode::NOT_FOUND | StatusCode::OK => {}
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(
        pushed_back > 0,
        "a same-second 80-request burst must draw enforcement"
    );
    let stats = fx.gateway.stats();
    assert_eq!(stats.blocked + stats.throttled, pushed_back);
    assert!(stats.blocked > 0, "the hard rate threshold blocks outright");
    assert!(
        fx.gateway.is_blocked(&loopback_key(ua)),
        "the block is durable session policy, not a one-off answer"
    );
    fx.finish();
}

/// With `challenge_on_throttle` set, a crawler that outruns the robot
/// bucket is answered with the interstitial, not a 429: one page a
/// second on the server's clock, until the throttle bites.
#[test]
fn a_throttled_crawler_is_served_the_interstitial() {
    let origin = MockOrigin::new().page("/index.html", PAGE).start().unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder()
            .seed(7)
            .challenge_on_throttle(true)
            .build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let mut conn = Client::connect(fx.addr).unwrap();
    let mut pages = 0;
    let response = loop {
        let response = get_on(&mut conn, "/index.html", "wget/1.0 e2e-challenge");
        if response.status() != StatusCode::OK {
            break response;
        }
        pages += 1;
        assert!(pages < 60, "a paced crawler is challenged within 60 pages");
        fx.advance(Duration::from_secs(1));
    };
    assert_eq!(response.status(), StatusCode::FORBIDDEN);
    assert!(
        body_str(&response).contains("solve to continue"),
        "the 403 carries the challenge interstitial"
    );
    let stats = fx.gateway.stats();
    assert_eq!((stats.challenged, stats.throttled), (1, 0));
    fx.finish();
}

#[test]
fn keep_alive_carries_many_requests_on_one_connection() {
    let fx = Fixture::standard();
    let ua = "Mozilla/5.0 e2e-keepalive";
    let mut conn = Client::connect(fx.addr).unwrap();
    for _ in 0..3 {
        let response = get_on(&mut conn, "/index.html", ua);
        assert_eq!(response.status(), StatusCode::OK);
        assert_eq!(response.headers().get("Connection"), Some("keep-alive"));
    }
    drop(conn);
    let report = fx.finish();
    assert_eq!(report.requests, 3);
    assert_eq!(report.connections, 1, "one socket served all three");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let fx = Fixture::standard();
    let ua = "Mozilla/5.0 e2e-pipeline";
    let mut conn = Client::connect(fx.addr).unwrap();
    // Both requests in one write; responses must come back one by one.
    let mut batch = Vec::new();
    batch.extend_from_slice(&botwall_http::wire::serialize_request(&request(
        "/index.html",
        ua,
    )));
    batch.extend_from_slice(&botwall_http::wire::serialize_request(&request(
        "/missing.html",
        ua,
    )));
    conn.stream().write_all(&batch).unwrap();
    let first = conn.read_response().unwrap();
    let second = conn.read_response().unwrap();
    assert_eq!(first.status(), StatusCode::OK);
    assert_eq!(second.status(), StatusCode::NOT_FOUND);
    fx.finish();
}

#[test]
fn one_slow_origin_stalls_only_its_own_connection() {
    let origin = MockOrigin::new()
        .page("/slow.html", PAGE)
        .page("/fast.html", PAGE)
        .latency("/slow.html", Duration::from_millis(1500))
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(3).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let addr = fx.addr;
    let slow = std::thread::spawn(move || {
        let started = Instant::now();
        let response = get(addr, "/slow.html", "Mozilla/5.0 e2e-slow");
        (response.status(), started.elapsed())
    });
    // Give the slow request time to reach its origin fetch.
    std::thread::sleep(Duration::from_millis(200));
    let started = Instant::now();
    let fast = get(addr, "/fast.html", "Mozilla/5.0 e2e-fast");
    let fast_elapsed = started.elapsed();
    assert_eq!(fast.status(), StatusCode::OK);
    assert!(
        fast_elapsed < Duration::from_millis(1000),
        "neighbor finished in {fast_elapsed:?} while the slow origin hung"
    );
    let (slow_status, slow_elapsed) = slow.join().unwrap();
    assert_eq!(slow_status, StatusCode::OK, "the slow request still lands");
    assert!(
        slow_elapsed >= Duration::from_millis(1400),
        "{slow_elapsed:?}"
    );
    fx.finish();
}

#[test]
fn origin_timeout_answers_504_and_releases_the_lease() {
    for threads in [1, 2] {
        an_origin_timeout_answers_504(threads);
    }
}

fn an_origin_timeout_answers_504(threads: usize) {
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .latency("/index.html", Duration::from_millis(3000))
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(4).build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = threads;
        },
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-504";
    let started = Instant::now();
    let mut conn = Client::connect(fx.addr).unwrap();
    conn.send(&request("/index.html", ua)).unwrap();
    fx.advance_until_readable(conn.stream(), ORIGIN_TIMEOUT);
    let response = conn.read_response().unwrap();
    assert_eq!(response.status(), StatusCode::GATEWAY_TIMEOUT);
    assert!(
        started.elapsed() < Duration::from_millis(2000),
        "the deadline, not the origin, ended the wait"
    );
    // The lease completed (with the synthesized 504) instead of being
    // dropped: the session's in-flight count is back to zero, so
    // enforcement math stays exact.
    let in_flight = fx
        .gateway
        .detector()
        .with_key_state(&loopback_key(ua), |_, state| state.in_flight)
        .expect("session exists");
    assert_eq!(in_flight, 0);
    fx.finish();
}

#[test]
fn admin_stats_serves_a_json_snapshot() {
    let fx = Fixture::standard();
    let ua = "Mozilla/5.0 e2e-admin";
    get(fx.addr, "/index.html", ua);
    let response = get(fx.addr, "/admin/stats", ua);
    assert_eq!(response.status(), StatusCode::OK);
    assert_eq!(response.content_type(), Some("application/json"));
    let body = body_str(&response);
    assert!(body.contains("\"requests\":1"), "{body}");
    assert!(body.contains("\"live_sessions\":"), "{body}");
    // The admin plane is not gateway traffic: it never counts itself.
    assert_eq!(fx.gateway.stats().requests, 1);
    fx.finish();
}

#[test]
fn connections_over_the_cap_answer_503() {
    let fx = Fixture::with(
        Gateway::builder().seed(5).build(),
        |config| config.max_connections = 1,
        None,
    );
    let mut first = Client::connect(fx.addr).unwrap();
    // Complete a round trip so the first connection is fully accepted.
    let response = get_on(&mut first, "/index.html", "Mozilla/5.0 e2e-cap-a");
    assert_eq!(response.status(), StatusCode::NOT_FOUND); // no origin wired
    let mut second = Client::connect(fx.addr).unwrap();
    let rejected = second.read_response().unwrap();
    assert_eq!(rejected.status(), StatusCode::SERVICE_UNAVAILABLE);
    assert_eq!(rejected.headers().get("Connection"), Some("close"));
    fx.finish();
}

#[test]
fn malformed_requests_answer_400_and_close() {
    let fx = Fixture::standard();
    let mut conn = Client::connect(fx.addr).unwrap();
    conn.stream()
        .write_all(b"NOT AN HTTP LINE\r\n\r\n")
        .unwrap();
    let response = conn.read_response().unwrap();
    assert_eq!(response.status(), StatusCode::BAD_REQUEST);
    assert_eq!(response.headers().get("Connection"), Some("close"));
    fx.finish();
}

#[test]
fn a_half_sent_request_times_out_with_408() {
    for threads in [1, 2] {
        let fx = Fixture::with(
            Gateway::builder().seed(6).build(),
            |config| config.threads = threads,
            None,
        );
        let mut conn = Client::connect(fx.addr).unwrap();
        conn.stream()
            .write_all(b"GET /index.html HTTP/1.1\r\nUser-Agent: slow")
            .unwrap();
        fx.advance_until_readable(conn.stream(), READ_TIMEOUT);
        let response = conn.read_response().unwrap();
        assert_eq!(response.status(), StatusCode::REQUEST_TIMEOUT);
        fx.finish();
    }
}

/// Sequential page fetches against a keep-alive origin ride one
/// upstream connection: the first fetch connects, every later one
/// reuses the parked socket, and both `/admin/stats` and the final
/// report show the arithmetic.
#[test]
fn origin_pool_reuses_one_connection_across_a_burst() {
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(30).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-pool-reuse";
    for _ in 0..4 {
        let response = get(fx.addr, "/index.html", ua);
        assert_eq!(response.status(), StatusCode::OK);
        assert!(body_str(&response).contains("content"));
    }
    let stats = body_str(&get(fx.addr, "/admin/stats", ua));
    assert!(stats.contains("\"origin_connects\":1"), "{stats}");
    assert!(stats.contains("\"origin_reuses\":3"), "{stats}");
    assert!(stats.contains("\"origin_retries\":0"), "{stats}");
    let report = fx.finish();
    assert_eq!(report.origin_connects, 1, "one socket fed every fetch");
    assert_eq!(report.origin_reuses, 3);
    assert_eq!(report.origin_retries, 0);
}

/// Non-HTML responses take the buffered path, and their connection
/// goes back to the pool just like a streamed page's: ten asset fetches
/// cost one connect.
#[test]
fn asset_fetches_return_their_connection_to_the_pool() {
    let asset = vec![0xA5u8; 4096];
    let origin = MockOrigin::new()
        .asset("/pixel.bin", asset.clone())
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(33).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-pool-assets";
    let mut conn = Client::connect(fx.addr).unwrap();
    for _ in 0..10 {
        let response = get_on(&mut conn, "/pixel.bin", ua);
        assert_eq!(response.status(), StatusCode::OK);
        assert_eq!(response.body(), asset.as_slice());
    }
    drop(conn);
    let report = fx.finish();
    assert_eq!(report.origin_connects, 1, "one socket fed every fetch");
    assert_eq!(report.origin_reuses, 9);
    assert_eq!(report.origin_retries, 0);
}

/// An origin that writes past the end of its own message has a
/// connection nobody can trust: the surplus is neither served nor
/// parked over.
#[test]
fn bytes_past_the_frame_keep_a_connection_out_of_the_pool() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let origin_addr = listener.local_addr().unwrap();
    // Two connections, one exchange each: answer with the message and
    // its surplus in a single write, then wait for the peer to hang up.
    let origin = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") {
                assert_eq!(std::io::Read::read(&mut conn, &mut byte).unwrap(), 1);
                request.push(byte[0]);
            }
            conn.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
                  Content-Length: 5\r\n\r\nhelloSURPLUS",
            )
            .unwrap();
            let mut rest = Vec::new();
            let _ = std::io::Read::read_to_end(&mut conn, &mut rest);
        }
    });
    let fx = Fixture::with(
        Gateway::builder().seed(34).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let ua = "Mozilla/5.0 e2e-pool-surplus";
    let mut conn = Client::connect(fx.addr).unwrap();
    for _ in 0..2 {
        let response = get_on(&mut conn, "/blob.bin", ua);
        assert_eq!(response.status(), StatusCode::OK);
        assert_eq!(response.body(), b"hello");
    }
    drop(conn);
    let report = fx.finish();
    origin.join().unwrap();
    assert_eq!(report.origin_connects, 2, "each fetch dialed afresh");
    assert_eq!(report.origin_reuses, 0);
}

/// A parked connection the origin kills on reuse costs exactly one
/// transparent retry — never a user-visible error, never a leaked
/// lease. `close_after_responses(1)` makes the race deterministic: the
/// parked socket looks healthy until the reused request arrives, then
/// closes without answering.
#[test]
fn stale_pooled_connection_retries_once_and_serves() {
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .keep_alive()
        .close_after_responses(1)
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(31).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-pool-stale";
    for _ in 0..2 {
        let response = get(fx.addr, "/index.html", ua);
        assert_eq!(response.status(), StatusCode::OK, "retry is invisible");
        assert!(body_str(&response).contains("content"));
    }
    // The retried exchange still completed its lease.
    let in_flight = fx
        .gateway
        .detector()
        .with_key_state(&loopback_key(ua), |_, state| state.in_flight)
        .expect("session exists");
    assert_eq!(in_flight, 0);
    let report = fx.finish();
    assert_eq!(report.origin_retries, 1, "exactly one retry");
    assert_eq!(report.origin_reuses, 1, "the stale socket was picked up");
    assert_eq!(report.origin_connects, 2, "initial connect + the retry");
}

/// Unsolicited bytes on a parked connection poison it: the pool retires
/// the socket, and the garbage — though it parses as a complete HTTP
/// response — is never served to any later request.
#[test]
fn garbage_on_a_parked_connection_never_bleeds_into_a_response() {
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .keep_alive()
        .garbage_after(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nBLEED"
                .as_slice(),
        )
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(32).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-pool-garbage";
    let first = get(fx.addr, "/index.html", ua);
    assert_eq!(first.status(), StatusCode::OK);
    // Let the origin's delayed garbage land on the now-parked socket.
    std::thread::sleep(Duration::from_millis(200));
    let second = get(fx.addr, "/index.html", ua);
    assert_eq!(second.status(), StatusCode::OK);
    let body = body_str(&second);
    assert!(body.contains("content"), "real page served: {body}");
    assert!(
        !body.contains("BLEED"),
        "parked garbage must never be parsed"
    );
    let report = fx.finish();
    assert_eq!(report.origin_reuses, 0, "a poisoned socket is never reused");
    assert_eq!(report.origin_connects, 2);
    assert_eq!(report.origin_retries, 0);
}

/// The pool cap bounds how many idle connections survive a concurrent
/// burst, and the idle deadline evicts even those: the origin's own
/// live-connection gauge watches both happen.
#[test]
fn pool_cap_and_idle_deadline_bound_parked_connections() {
    for threads in [1, 2] {
        the_pool_cap_and_idle_deadline_bound(threads);
    }
}

fn the_pool_cap_and_idle_deadline_bound(threads: usize) {
    // Twice the cap a reactor: however the kernel shards the accepts,
    // the fetches in flight together outnumber what the pools may keep.
    let clients = 2 * ORIGIN_POOL_CAP * threads;
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .latency("/index.html", Duration::from_millis(200))
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let live = |origin: &MockOriginHandle| origin.live_conns();
    let fx = Fixture::with(
        Gateway::builder().seed(33).build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = threads;
        },
        None, // held locally so the test can watch live_conns
    );
    let addr = fx.addr;
    let clients: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                get(
                    addr,
                    "/index.html",
                    &format!("Mozilla/5.0 e2e-pool-cap-{i}"),
                )
            })
        })
        .collect();
    let fetches = clients.len() as u64;
    for client in clients {
        assert_eq!(client.join().unwrap().status(), StatusCode::OK);
    }
    // Connections over the cap close as they finish; at most the cap a
    // reactor stay parked. (Give the origin's threads a beat to observe
    // the closes.)
    std::thread::sleep(Duration::from_millis(200));
    let parked = live(&origin);
    assert!(
        (1..=ORIGIN_POOL_CAP * threads).contains(&parked),
        "pool cap {ORIGIN_POOL_CAP} must bound parked connections, saw {parked}"
    );
    // The idle deadline evicts the rest without any new traffic.
    fx.advance_until(ORIGIN_POOL_IDLE, || live(&origin) == 0);
    assert_eq!(live(&origin), 0, "idle deadline evicts parked connections");
    let report = fx.finish();
    assert_eq!(report.origin_connects + report.origin_reuses, fetches);
    assert!(
        report.origin_connects > (ORIGIN_POOL_CAP * threads) as u64,
        "the burst opened more connections than the pools may keep"
    );
    drop(origin);
}

/// Drain closes every parked origin connection: after shutdown the
/// origin sees zero live connections, not a stranded keep-alive socket.
#[test]
fn drain_closes_parked_origin_connections() {
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(34).build(),
        |config| config.origin = Some(origin_addr),
        None, // held locally so the test can watch live_conns
    );
    let ua = "Mozilla/5.0 e2e-pool-drain";
    for _ in 0..2 {
        assert_eq!(get(fx.addr, "/index.html", ua).status(), StatusCode::OK);
    }
    assert_eq!(origin.live_conns(), 1, "one connection parked in the pool");
    let report = fx.finish();
    assert_eq!(report.origin_reuses, 1);
    let deadline = Instant::now() + Duration::from_secs(2);
    while origin.live_conns() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        origin.live_conns(),
        0,
        "drain must close the parked connection"
    );
    drop(origin);
}

#[test]
fn shutdown_drains_every_observed_session_exactly_once() {
    let fx = Fixture::standard();
    let agents = [
        "Mozilla/5.0 e2e-drain-a",
        "Mozilla/5.0 e2e-drain-b",
        "wget/1.0 e2e-drain-c",
    ];
    for ua in agents {
        let response = get(fx.addr, "/index.html", ua);
        assert_eq!(response.status(), StatusCode::OK);
    }
    let addr = fx.addr;
    let report = fx.finish();
    assert_eq!(report.requests, agents.len() as u64);
    assert_eq!(
        report.drained_sessions,
        agents.len(),
        "conservation: every session observed on the wire is classified at drain"
    );
    // The listener is gone: new connections are refused (or reset).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300));
    assert!(
        refused.is_err() || {
            let mut conn = Client::new(refused.unwrap());
            conn.roundtrip(&request("/index.html", "late/1.0")).is_err()
        },
        "the drained server must not accept new work"
    );
}

/// A browser talking to a reverse proxy sends an origin-form target and
/// names the site in `Host`. Every probe URL the page injects, and every
/// URL in the script it links, must point back at that host — or no real
/// browser can ever fetch a probe — and each must resolve as a probe hit.
#[test]
fn probe_urls_carry_the_requests_host_and_resolve_as_probe_hits() {
    let fx = Fixture::standard();
    let ua = "Mozilla/5.0 e2e-host";
    let mut conn = Client::connect(fx.addr).unwrap();
    let mut fetch = |target: &str| {
        let request = Request::builder(Method::Get, target)
            .header("User-Agent", ua)
            .header("Host", "shop.example.org")
            .build()
            .unwrap();
        conn.roundtrip(&request).unwrap()
    };
    let absolute_urls = |text: &str, quote: char| -> Vec<String> {
        text.split(quote)
            .skip(1)
            .step_by(2)
            .filter(|quoted| quoted.contains("://"))
            .map(str::to_string)
            .collect()
    };
    let on_host = |urls: &[String]| {
        for url in urls {
            assert!(url.starts_with("http://shop.example.org/"), "{url}");
        }
    };

    let page = body_str(&fetch("/index.html"));
    let injected = absolute_urls(&page, '"');
    assert_eq!(injected.len(), 4, "css, script, hidden link, pixel: {page}");
    on_host(&injected);

    let js_path = quoted_paths(&page, '"')
        .into_iter()
        .find(|p| p.ends_with(".js"))
        .unwrap();
    let script = body_str(&fetch(&js_path));
    let in_script = absolute_urls(&script, '\'');
    let decoys = botwall_instrument::token::DECOYS;
    assert_eq!(in_script.len(), decoys + 2, "real, decoys, agent: {script}");
    on_host(&in_script);

    // One hit so far (the script). The other three injected URLs, the
    // agent beacon the script reports to and the handler's mouse beacon
    // are all answered by the gateway itself, none by the origin. The
    // hidden link goes last: following it is what a human never does.
    assert_eq!(fx.gateway.stats().probe_requests, 1);
    let agent = quoted_paths(&script, '\'')
        .into_iter()
        .find(|p| p.ends_with(".gif"))
        .unwrap();
    let (hidden, visible): (Vec<String>, Vec<String>) = quoted_paths(&page, '"')
        .into_iter()
        .filter(|p| *p != js_path)
        .partition(|p| p.ends_with(".html"));
    let mut hits = 1;
    for path in visible
        .into_iter()
        .chain([
            format!("{agent}?agent=mozilla/5.0e2e-host&wd=0&pl=3"),
            mouse_beacon_path(&page, &script),
        ])
        .chain(hidden)
    {
        assert_eq!(fetch(&path).status(), StatusCode::OK, "{path}");
        hits += 1;
        assert_eq!(fx.gateway.stats().probe_requests, hits, "{path}");
    }
    assert_eq!(hits, 6);
    fx.finish();
}

/// A streamed page changes no socket's epoll interest unless a write
/// blocks: the client keeps the registration it has while the origin is
/// fetched, and the pooled origin connection keeps its own. A write that
/// blocks costs two changes, WRITABLE and back.
#[test]
fn a_streamed_page_changes_epoll_interest_at_most_twice() {
    let mut page = String::from("<html><head><title>t</title></head><body>\n");
    while page.len() < 64 * 1024 {
        page.push_str("<p>the quick brown fox jumps over the lazy dog</p>\n");
    }
    page.push_str("</body></html>");
    let origin = MockOrigin::new()
        .page("/big.html", page)
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(31).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-epoll";
    let mut conn = Client::connect(fx.addr).unwrap();
    const PAGES: u64 = 10;
    for _ in 0..PAGES {
        let response = get_on(&mut conn, "/big.html", ua);
        assert_eq!(response.status(), StatusCode::OK);
        assert!(response.body().len() > 64 * 1024);
    }
    drop(conn);
    let report = fx.finish();
    assert_eq!(report.requests, PAGES);
    assert!(
        report.interest_changes <= 2 * report.sys.writes_blocked,
        "{} interest changes for {PAGES} pages, {} writes blocked",
        report.interest_changes,
        report.sys.writes_blocked
    );
}

/// A number out of the `/admin/stats` object.
fn stat(body: &str, field: &str) -> u64 {
    body.split(&format!("\"{field}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from {body}"))
}

/// `/admin/stats` fetched on `conn` itself, so the snapshot costs no
/// accept and no registration. Between two of them on one connection
/// lie the first one's `write`, the second one's `read` (and wait), and
/// whatever was sent in between.
fn stats_on(conn: &mut Client) -> String {
    body_str(&get_on(conn, "/admin/stats", "ops/1.0 e2e-stats"))
}

/// How far each listed counter moved between two snapshots.
fn moved<const N: usize>(before: &str, after: &str, fields: [&str; N]) -> [u64; N] {
    fields.map(|field| stat(after, field) - stat(before, field))
}

/// The fixed price of a request the gate answers alone, on a warm
/// keep-alive connection: the kernel is crossed three times (the wait,
/// the read, the write) and never to be told `EAGAIN` or to change a
/// registration.
#[test]
fn syscall_budget_a_gate_answered_request_is_one_read_and_one_write() {
    let fx = Fixture::standard();
    let ua = "scraper/1.0 e2e-budget-gate";
    let mut conn = Client::connect(fx.addr).unwrap();
    assert_eq!(
        get_on(&mut conn, "/index.html", ua).status(),
        StatusCode::OK
    );
    fx.gateway
        .detector()
        .with_key_state(&loopback_key(ua), |_, state| state.policy.block());
    const REQUESTS: u64 = 50;
    let before = stats_on(&mut conn);
    for _ in 0..REQUESTS {
        let refused = get_on(&mut conn, "/index.html", ua);
        assert_eq!(refused.status(), StatusCode::FORBIDDEN);
    }
    let after = stats_on(&mut conn);
    let [reads, eagain, writes, blocked, ctls, accepts, connects] = moved(
        &before,
        &after,
        [
            "sys_reads",
            "sys_reads_eagain",
            "sys_writes",
            "sys_writes_blocked",
            "sys_epoll_ctls",
            "sys_accepts",
            "sys_connects",
        ],
    );
    // One more of each than the requests: the snapshots' own halves.
    assert_eq!(reads, REQUESTS + 1, "{after}");
    assert_eq!(writes, REQUESTS + 1, "{after}");
    assert_eq!(
        (eagain, blocked, ctls, accepts, connects),
        (0, 0, 0, 0, 0),
        "{after}"
    );
    drop(conn);
    fx.finish();
}

/// A buffered asset through a warm pooled origin connection: the
/// client's request, the takeout probe (the one read made to hear
/// `EAGAIN`) and the origin's response are the reads, the upstream
/// request and the answer are the writes, and no registration changes.
#[test]
fn syscall_budget_a_pooled_asset_fetch_is_three_reads_and_two_writes() {
    let asset = vec![0x5Au8; 4096];
    let origin = MockOrigin::new()
        .asset("/pixel.bin", asset.clone())
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(35).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-budget-asset";
    let mut conn = Client::connect(fx.addr).unwrap();
    assert_eq!(get_on(&mut conn, "/pixel.bin", ua).body(), asset.as_slice());
    // Few enough that the gate never rations this session.
    const FETCHES: u64 = 8;
    let before = stats_on(&mut conn);
    for _ in 0..FETCHES {
        assert_eq!(get_on(&mut conn, "/pixel.bin", ua).body(), asset.as_slice());
    }
    let after = stats_on(&mut conn);
    let [reads, eagain, writes, ctls, connects] = moved(
        &before,
        &after,
        [
            "sys_reads",
            "sys_reads_eagain",
            "sys_writes",
            "sys_epoll_ctls",
            "sys_connects",
        ],
    );
    assert!(reads <= 3 * FETCHES + 1, "{reads} reads: {after}");
    assert!(writes <= 2 * FETCHES + 1, "{writes} writes: {after}");
    assert!(eagain <= FETCHES, "{eagain} EAGAIN reads: {after}");
    assert_eq!((ctls, connects), (0, 0), "{after}");
    assert_eq!(stat(&after, "origin_reuses"), FETCHES);
    drop(conn);
    fx.finish();
}

/// A 64 KB page streamed through a warm pooled origin connection costs
/// what a buffered asset does: the client's request, the takeout probe
/// and the body are the reads, the upstream request and one vectored
/// write (head, chunk framing, body where it was read, markup, terminal
/// chunk) are the writes. A write the client's socket cuts short costs
/// one more, and the two interest changes that wait for room. The
/// origin's thread writes the page in one call, but nothing stops the
/// kernel delivering it in two; each such split is one more read and
/// one more (vectored) write, and the budget allows two in ten pages.
#[test]
fn syscall_budget_a_streamed_page_is_one_vectored_write() {
    let origin = MockOrigin::new()
        .page("/big.html", page_of(64 * 1024))
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(38).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-budget-page";
    let mut conn = Client::connect(fx.addr).unwrap();
    // Warm the client connection, the pool and the buffers.
    assert!(get_on(&mut conn, "/big.html", ua).body().len() > 64 * 1024);
    const PAGES: u64 = 10;
    const SPLITS: u64 = 2;
    let before = stats_on(&mut conn);
    for _ in 0..PAGES {
        assert!(get_on(&mut conn, "/big.html", ua).body().len() > 64 * 1024);
    }
    let after = stats_on(&mut conn);
    let [reads, eagain, writes, blocked, ctls, connects] = moved(
        &before,
        &after,
        [
            "sys_reads",
            "sys_reads_eagain",
            "sys_writes",
            "sys_writes_blocked",
            "sys_epoll_ctls",
            "sys_connects",
        ],
    );
    assert!(reads <= 3 * PAGES + 1 + SPLITS, "{reads} reads: {after}");
    assert_eq!(eagain, PAGES, "the takeout probes: {after}");
    // One write per body read, however the body arrived.
    let body_reads = reads - 1 - eagain - PAGES;
    assert!(
        writes <= PAGES + body_reads + blocked + 1,
        "{writes} writes for {body_reads} body reads: {after}"
    );
    assert!(ctls <= 2 * blocked, "{ctls} epoll_ctls: {after}");
    assert_eq!(connects, 0, "{after}");
    assert_eq!(stat(&after, "origin_reuses"), PAGES);
    drop(conn);
    fx.finish();
}

/// A client that sends its next request while the first still waits on
/// a slow origin is the one client whose read interest has to go: the
/// event that delivers those bytes drops it (one `EPOLL_CTL_MOD`), the
/// return to reading restores it (one more), and in between the
/// level-triggered loop does not spin on the unread bytes.
#[test]
fn syscall_budget_a_pipelining_client_costs_one_interest_change_down_and_one_up() {
    let origin = MockOrigin::new()
        .asset("/slow.bin", b"slow".to_vec())
        .asset("/fast.bin", b"fast".to_vec())
        .latency("/slow.bin", Duration::from_millis(200))
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(36).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-budget-pipeline";
    let mut conn = Client::connect(fx.addr).unwrap();
    conn.stream().set_nodelay(true).unwrap();
    // Warm the client connection and park one origin connection.
    assert_eq!(get_on(&mut conn, "/fast.bin", ua).body(), b"fast");
    let before = stats_on(&mut conn);
    conn.send(&request("/slow.bin", ua)).unwrap();
    // The second request lands while the first is parked on the origin.
    std::thread::sleep(Duration::from_millis(50));
    conn.send(&request("/fast.bin", ua)).unwrap();
    assert_eq!(conn.read_response().unwrap().body(), b"slow");
    assert_eq!(conn.read_response().unwrap().body(), b"fast");
    let after = stats_on(&mut conn);
    let [ctls, waits, connects] = moved(
        &before,
        &after,
        ["sys_epoll_ctls", "sys_epoll_waits", "sys_connects"],
    );
    assert_eq!(ctls, 2, "one change down, one up: {after}");
    assert_eq!(connects, 0, "both fetches rode the parked connection");
    // Two requests, two origin answers, the parked bytes, a snapshot and
    // a few timer ticks; a spin would be thousands in 200 ms.
    assert!(waits <= 24, "{waits} epoll_waits: {after}");
    drop(conn);
    fx.finish();
}

/// After ten thousand requests on one keep-alive connection, each
/// re-arming the client's deadline and its pooled origin connection's,
/// the timer wheel holds an entry per descriptor that is alive, not one
/// per arm of the last `read_timeout`.
#[test]
fn syscall_budget_the_timer_wheel_is_bounded_by_live_descriptors() {
    let origin = MockOrigin::new()
        .asset("/pixel.bin", vec![1u8; 64])
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(37).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    let ua = "Mozilla/5.0 e2e-budget-wheel";
    let mut conn = Client::connect(fx.addr).unwrap();
    for _ in 0..10_000 {
        let response = get_on(&mut conn, "/pixel.bin", ua);
        assert!(matches!(
            response.status(),
            StatusCode::OK | StatusCode::TOO_MANY_REQUESTS | StatusCode::FORBIDDEN
        ));
    }
    let stats = stats_on(&mut conn);
    let parked_origins = 1;
    assert!(
        stat(&stats, "timer_entries") <= stat(&stats, "serve_live") + parked_origins + 2,
        "{stats}"
    );
    drop(conn);
    let report = fx.finish();
    assert_eq!(report.requests, 10_001);
}

/// An origin that frames its page by closing the connection: the
/// hang-up event reads to EOF in the wakeup that delivered it, whether
/// the FIN rode with the body or came later, so the page's terminal
/// chunk never waits for `ORIGIN_TIMEOUT`.
#[test]
fn a_close_delimited_origin_response_completes_at_the_fin() {
    let fin_timings = [Duration::ZERO, Duration::from_millis(150)];
    let cases = ["text/html", "text/plain"]
        .into_iter()
        .flat_map(|content_type| fin_timings.map(|fin_after| (content_type, fin_after)));
    for (content_type, fin_after) in cases {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let origin_addr = listener.local_addr().unwrap();
        let origin = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") {
                assert_eq!(std::io::Read::read(&mut conn, &mut byte).unwrap(), 1);
                request.push(byte[0]);
            }
            let head = format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\r\n");
            conn.write_all(head.as_bytes()).unwrap();
            conn.write_all(PAGE.as_bytes()).unwrap();
            std::thread::sleep(fin_after);
        });
        let fx = Fixture::with(
            Gateway::builder().seed(38).build(),
            |config| config.origin = Some(origin_addr),
            None,
        );
        let started = Instant::now();
        let response = get(fx.addr, "/page.html", "Mozilla/5.0 e2e-close-delimited");
        assert_eq!(response.status(), StatusCode::OK);
        let body = body_str(&response);
        assert!(
            body.contains("content") && body.ends_with("</html>"),
            "{body}"
        );
        // Anything but a page keeps its type and every byte of its
        // body: a response without a length has one all the same.
        assert_eq!(response.content_type(), Some(content_type));
        assert_eq!(body == PAGE, content_type == "text/plain", "{body}");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "the FIN ({fin_after:?} after the body), not the deadline, ended the fetch: {:?}",
            started.elapsed()
        );
        origin.join().unwrap();
        fx.finish();
    }
}

/// Only `text/html` itself is a page. A type that merely starts with
/// the string is somebody else's format: it is relayed as it came, not
/// buffered and instrumented as HTML.
#[test]
fn a_type_that_only_starts_with_text_html_passes_through_untouched() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let origin_addr = listener.local_addr().unwrap();
    let origin = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut request = Vec::new();
        let mut byte = [0u8; 1];
        while !request.ends_with(b"\r\n\r\n") {
            assert_eq!(std::io::Read::read(&mut conn, &mut byte).unwrap(), 1);
            request.push(byte[0]);
        }
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/htmlx\r\nContent-Length: {}\r\n\r\n",
            PAGE.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(PAGE.as_bytes()).unwrap();
    });
    let fx = Fixture::with(
        Gateway::builder().seed(39).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let response = get(fx.addr, "/page.htmlx", "Mozilla/5.0 e2e-htmlx");
    assert_eq!(response.status(), StatusCode::OK);
    assert_eq!(response.content_type(), Some("text/htmlx"));
    assert_eq!(response.headers().content_length(), Some(PAGE.len()));
    assert_eq!(body_str(&response), PAGE, "not a byte injected");
    assert!(response.headers().get("Transfer-Encoding").is_none());
    origin.join().unwrap();
    let stats = fx.gateway.stats();
    assert_eq!((stats.requests, stats.served), (1, 1));
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged
    );
    assert_eq!(stats.token_entries, 0, "no page, no token");
    fx.finish();
}

/// Reads one bodiless request or one response head off `conn`, a byte
/// at a time so that nothing past the blank line is taken. `None` when
/// the peer closed first.
fn read_request(conn: &mut TcpStream) -> Option<Vec<u8>> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if std::io::Read::read(conn, &mut byte).unwrap_or(0) == 0 {
            return None;
        }
        head.push(byte[0]);
    }
    Some(head)
}

fn read_head(conn: &mut TcpStream) -> String {
    String::from_utf8(read_request(conn).expect("a head")).unwrap()
}

/// RFC 9112 §6.3: nothing follows a response to `HEAD`, a 204 or a 304,
/// whatever length it declares or fails to. Each is answered the moment
/// its head arrives, with the origin's head; the client's connection
/// carries the next request, and so does the origin's. (Before the relay
/// knew this, `HEAD` for an asset waited out `ORIGIN_TIMEOUT` for five
/// bytes that were never coming and answered 504, and `HEAD` for a page
/// minted a token and opened a chunked stream only the deadline ended.)
/// That next request is for a page the origin does not have, and its
/// own 404 page, headers and all, is what the client gets: a 404 is an
/// origin response like any other, not a cue to make one up.
#[test]
fn a_response_without_a_body_is_answered_at_once_with_the_origins_head() {
    let page_length = format!("Content-Length: {}", PAGE.len());
    let answers = [
        (
            "HEAD /pixel.bin ",
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
             Content-Length: 5\r\n\r\n"
                .to_string(),
        ),
        (
            "HEAD /index.html ",
            format!("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n{page_length}\r\n\r\n"),
        ),
        (
            "GET /empty ",
            "HTTP/1.1 204 No Content\r\nX-Origin: yes\r\n\r\n".to_string(),
        ),
        (
            "GET /cached.css ",
            "HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n".to_string(),
        ),
        // The next request on both connections: the origin's own 404
        // page, which reaches the client as the origin sent it.
        (
            "GET /gone.html ",
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\nSet-Cookie: a=1\r\n\
             Set-Cookie: b=2\r\nContent-Length: 24\r\n\r\n<html>long gone</html>\r\n"
                .to_string(),
        ),
    ];
    // One connection, every request on it: the origin side of "parked".
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let origin_addr = listener.local_addr().unwrap();
    let script = answers.clone();
    let origin = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut answered = 0;
        while let Some(request) = read_request(&mut conn) {
            let (_, answer) = script
                .iter()
                .find(|(line, _)| request.starts_with(line.as_bytes()))
                .expect("a scripted request");
            conn.write_all(answer.as_bytes()).unwrap();
            answered += 1;
        }
        answered
    });
    let fx = Fixture::with(
        Gateway::builder().seed(40).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let ua = "Mozilla/5.0 e2e-bodiless";
    let mut conn = TcpStream::connect(fx.addr).unwrap();
    let started = Instant::now();
    let mut heads = Vec::new();
    for (line, _) in &answers {
        let (method, path) = line.trim_end().split_once(' ').unwrap();
        let request = Request::builder(method.parse().unwrap(), path)
            .header("User-Agent", ua)
            .header("Host", "site.example")
            .build()
            .unwrap();
        conn.write_all(&botwall_http::wire::serialize_request(&request))
            .unwrap();
        // Had the last response carried a body, or chunk framing, it
        // would be in front of this head.
        heads.push(read_head(&mut conn));
    }
    let mut body = [0u8; 24];
    std::io::Read::read_exact(&mut conn, &mut body).unwrap();
    assert_eq!(
        &body, b"<html>long gone</html>\r\n",
        "the one that has a body"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "nobody waited for a body: {:?}",
        started.elapsed()
    );
    let expected = [
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
         Content-Length: 5\r\nConnection: keep-alive\r\n\r\n"
            .to_string(),
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n{page_length}\r\n\
             Connection: keep-alive\r\n\r\n"
        ),
        "HTTP/1.1 204 No Content\r\nX-Origin: yes\r\nConnection: keep-alive\r\n\r\n".to_string(),
        "HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\nConnection: keep-alive\r\n\r\n".to_string(),
        "HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\nSet-Cookie: a=1\r\n\
         Set-Cookie: b=2\r\nContent-Length: 24\r\nConnection: keep-alive\r\n\r\n"
            .to_string(),
    ];
    assert_eq!(heads, expected);
    let stats = fx.gateway.stats();
    assert_eq!((stats.requests, stats.served), (5, 5));
    assert_eq!(stats.token_entries, 0, "HEAD for a page mints nothing");
    assert_eq!(stats.instrumentation_bytes, 0);
    let in_flight = fx
        .gateway
        .detector()
        .with_key_state(&loopback_key(ua), |_, state| state.in_flight);
    assert_eq!(in_flight, Some(0));
    drop(conn);
    let report = fx.finish();
    assert_eq!(origin.join().unwrap(), 5);
    assert_eq!(
        (report.origin_connects, report.origin_reuses),
        (1, 4),
        "every fetch after the first rode the parked connection"
    );
}

/// `Connection` is about one hop. A client that asks for its own
/// connection to be closed is not asking for the origin's: the upstream
/// request goes out without the line, and the fetch parks its origin
/// connection like any other. (The mock origin closes when it reads
/// `Connection: close`, as origins do.)
#[test]
fn a_connection_close_client_still_parks_its_origin_connection() {
    let asset = vec![0xC3u8; 2048];
    let origin = MockOrigin::new()
        .asset("/pixel.bin", asset.clone())
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(41).build(),
        |config| config.origin = Some(origin_addr),
        Some(origin),
    );
    for _ in 0..3 {
        let conn = TcpStream::connect(fx.addr).unwrap();
        let (_, raw, head, body) = raw_exchange(
            conn,
            "/pixel.bin",
            "Mozilla/5.0 e2e-hop-by-hop",
            read_to_end,
        );
        assert!(body == asset);
        assert!(head.connection_close, "the client's own hop does close");
        assert_eq!(head.framing, frame::BodyFraming::Length(asset.len()));
        assert_eq!(raw.len(), head.len + asset.len());
    }
    let report = fx.finish();
    assert_eq!(
        (report.origin_connects, report.origin_reuses),
        (1, 2),
        "one origin connection fed all three"
    );
}

/// `Connection` is a token list. A client that lists `close` among
/// other tokens has asked for its connection to be closed: the answer
/// says so and the close follows it. (The whole value used to be
/// compared to `close`, so these kept the connection open and a client
/// reading to the close waited out the idle timeout.)
#[test]
fn a_close_token_anywhere_in_the_connection_list_closes_the_clients_connection() {
    let fx = Fixture::standard();
    for listed in ["keep-alive, close", "TE, Close"] {
        let mut conn = TcpStream::connect(fx.addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let request = format!(
            "GET /missing HTTP/1.1\r\nHost: site.example\r\n\
             User-Agent: Mozilla/5.0 e2e-close-token\r\nConnection: {listed}\r\n\r\n"
        );
        conn.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        std::io::Read::read_to_end(&mut conn, &mut raw)
            .unwrap_or_else(|e| panic!("`Connection: {listed}` left the connection open: {e}"));
        let head = frame::response_head(&raw).unwrap().expect("a whole head");
        assert!(head.connection_close, "`Connection: {listed}`");
    }
    fx.finish();
}

/// An origin that keeps every byte it is sent, answers each request
/// with `answer` and closes, for `connections` connections and no more.
/// The bytes are the test's to read once the thread is joined.
fn recording_origin(answer: &'static str, connections: usize) -> (SocketAddr, JoinHandle<Vec<u8>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let origin = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for conn in listener.incoming().take(connections) {
            let mut conn = conn.unwrap();
            let mut request = Vec::new();
            let mut piece = [0u8; 4096];
            while !matches!(
                frame::measure(&request),
                Ok(frame::Framing::Complete { .. }) | Err(_)
            ) {
                match std::io::Read::read(&mut conn, &mut piece) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => request.extend_from_slice(&piece[..n]),
                }
            }
            seen.extend_from_slice(&request);
            let _ = conn.write_all(answer.as_bytes());
        }
        seen
    });
    (addr, origin)
}

const PLAIN_OK: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
    Content-Length: 2\r\nConnection: close\r\n\r\nok";

/// One request of `lines` and `body` behind a `POST /form` request line
/// and a `Host`, on a connection of its own.
fn post(addr: SocketAddr, ua: &str, lines: &str, body: &str) -> Response {
    let mut conn = Client::connect(addr).unwrap();
    let request = format!(
        "POST /form HTTP/1.1\r\nHost: site.example\r\nUser-Agent: {ua}\r\n{lines}\r\n{body}"
    );
    conn.stream().write_all(request.as_bytes()).unwrap();
    conn.read_response().unwrap()
}

/// The heads `measure` → `dechunk` → `parse_request` → re-serialize
/// took between them and sent on: two lengths that disagree (both
/// lines went upstream), a signed length, a bare LF that hides a
/// `Transfer-Encoding` from this hop inside a value, a coding that only
/// contains `chunked`, and a value holding a bare CR and a NUL. Each is
/// a `400` and a close at the front door, the gate never hears of it,
/// and not one byte of it reaches the origin.
#[test]
fn a_head_no_two_parsers_would_read_alike_never_reaches_the_origin() {
    let (origin_addr, origin) = recording_origin(PLAIN_OK, 2);
    let fx = Fixture::with(
        Gateway::builder().seed(43).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let ua = "Mozilla/5.0 e2e-one-scanner";
    let refused = [
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
        ("folded_line", "X: a\r\n b\r\n", ""),
        ("another_coding", "Transfer-Encoding: gzip\r\n", ""),
    ];
    for (name, lines, body) in refused {
        let response = post(fx.addr, ua, lines, body);
        assert_eq!(response.status(), StatusCode::BAD_REQUEST, "{name}");
        assert_eq!(
            response.headers().get("Connection"),
            Some("close"),
            "{name}"
        );
    }
    assert_eq!(fx.gateway.stats().requests, 0, "the gate saw none of them");

    // Lengths that agree are one length, and reach the origin as one
    // line; a chunked body reaches it decoded, under its real length.
    let response = post(
        fx.addr,
        ua,
        "Content-Length: 5\r\ncontent-length: 5\r\n",
        "hello",
    );
    assert_eq!(
        (response.status(), response.body()),
        (StatusCode::OK, &b"ok"[..])
    );
    let chunked = "Content-Length: 99\r\nTransfer-Encoding: gzip, chunked\r\n";
    let response = post(fx.addr, ua, chunked, "2\r\nhe\r\n3\r\nllo\r\n0\r\n\r\n");
    assert_eq!(response.status(), StatusCode::OK);
    // Everything the origin was ever sent is these two requests: no
    // byte of the seven refused ones is in front of them.
    let sent = String::from_utf8(origin.join().unwrap()).unwrap();
    let expected = format!(
        "POST /form HTTP/1.1\r\nHost: site.example\r\nUser-Agent: {ua}\r\n\
         Content-Length: 5\r\n\r\nhello"
    );
    assert_eq!(sent, expected.repeat(2));
    assert_eq!(fx.gateway.stats().requests, 2);
    fx.finish();
}

/// The same disagreement from the other side: an origin whose response
/// declares two different lengths has sent no head this hop can relay.
/// That is the `502`, not a response framed by whichever came first.
#[test]
fn an_origin_whose_lengths_disagree_is_a_bad_gateway() {
    let (origin_addr, origin) = recording_origin(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\
         Content-Length: 7\r\n\r\nok?????",
        1,
    );
    let fx = Fixture::with(
        Gateway::builder().seed(44).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let response = get(fx.addr, "/asset.txt", "Mozilla/5.0 e2e-origin-cl-cl");
    assert_eq!(response.status(), StatusCode::BAD_GATEWAY);
    let stats = fx.gateway.stats();
    assert_eq!(
        (stats.requests, stats.served),
        (1, 1),
        "the lease committed"
    );
    origin.join().unwrap();
    fx.finish();
}

/// RFC 9110 §15.2: an interim response is not the answer, and any number
/// of them may come first. `upstream_request` passes a client's
/// `Expect: 100-continue` on, so an origin that honours it says `100
/// Continue` before its response. (That `100` used to be relayed as the
/// response, bodiless and final; the page behind it was left in the
/// fetch's buffer and thrown away with the connection.) Each is skipped
/// and the final head waited for, whether they arrive together or
/// apart. A `101` is an origin changing protocols on a hop that never
/// asked it to: the `502`.
#[test]
fn an_interim_response_from_the_origin_is_skipped_not_relayed() {
    let interim = [
        "HTTP/1.1 100 Continue\r\n\r\n",
        "HTTP/1.1 102 Processing\r\n\r\n",
        "HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n",
    ];
    let page = page_response(PAGE, PAGE.len(), false).concat();
    let apart: Vec<Vec<u8>> = interim
        .iter()
        .map(|head| head.as_bytes().to_vec())
        .collect();
    let together = [interim.concat().as_bytes(), &page].concat();
    for (case, pieces) in [[apart, vec![page]].concat(), vec![together]]
        .into_iter()
        .enumerate()
    {
        let (origin_addr, origin) = scripted_origin(pieces, Duration::from_millis(20));
        let fx = Fixture::with(
            Gateway::builder().seed(46).build(),
            |config| config.origin = Some(origin_addr),
            None,
        );
        let response = get(fx.addr, "/index.html", "Mozilla/5.0 e2e-interim");
        assert_eq!(response.status(), StatusCode::OK, "case {case}");
        assert_eq!(response.content_type(), Some("text/html"), "case {case}");
        assert!(markup_in(PAGE, response.body()) > 0, "case {case}");
        let stats = fx.gateway.stats();
        assert_eq!((stats.requests, stats.served), (1, 1), "case {case}");
        assert_eq!(stats.token_entries, 1, "the page behind the 100 was served");
        origin.join().unwrap();
        fx.finish();
    }

    let (origin_addr, origin) = scripted_origin(
        vec![b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n".to_vec()],
        Duration::ZERO,
    );
    let fx = Fixture::with(
        Gateway::builder().seed(46).build(),
        |config| config.origin = Some(origin_addr),
        None,
    );
    let response = get(fx.addr, "/index.html", "Mozilla/5.0 e2e-upgrade");
    assert_eq!(response.status(), StatusCode::BAD_GATEWAY);
    let stats = fx.gateway.stats();
    assert_eq!(
        (stats.requests, stats.served),
        (1, 1),
        "the lease committed"
    );
    origin.join().unwrap();
    fx.finish();
}

/// An HTTP/1.0 client was never taught chunks. A body whose length
/// nobody knows when its head is written (a page under the rewriter, an
/// asset the origin chunked) reaches it as HTTP/1.0 bodies always have:
/// as it is, ended by the close. One whose length the origin declared
/// keeps it.
#[test]
fn an_http_1_0_client_is_never_sent_chunks() {
    let asset: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
    let fetch = |addr: SocketAddr, path: &str| {
        let mut conn = TcpStream::connect(addr).unwrap();
        let request = format!(
            "GET {path} HTTP/1.0\r\nHost: site.example\r\nUser-Agent: Mozilla/5.0 e2e-http10\r\n\r\n"
        );
        conn.write_all(request.as_bytes()).unwrap();
        let started = Instant::now();
        let mut raw = Vec::new();
        read_to_end(&mut conn, &mut raw);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the close, not a deadline, ends the body: {:?}",
            started.elapsed()
        );
        let head_len = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let head = String::from_utf8(raw[..head_len].to_vec()).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(!head.contains("Transfer-Encoding"), "{head}");
        assert!(head.ends_with("Connection: close\r\n\r\n"), "{head}");
        (head, raw.split_off(head_len))
    };

    let fx = Fixture::standard();
    let (head, body) = fetch(fx.addr, "/index.html");
    assert!(!head.contains("Content-Length"), "{head}");
    assert!(markup_in(PAGE, &body) > 0, "the whole page, instrumented");
    assert_eq!(fx.gateway.stats().token_entries, 1);
    fx.finish();

    for chunked in [true, false] {
        let response = body_response("application/octet-stream", &asset, 4096, chunked);
        let (origin_addr, origin) = scripted_origin(vec![response.concat()], Duration::ZERO);
        let fx = Fixture::with(
            Gateway::builder().seed(42).build(),
            |config| config.origin = Some(origin_addr),
            None,
        );
        let (head, body) = fetch(fx.addr, "/asset.bin");
        origin.join().unwrap();
        assert_eq!(
            head.contains(&format!("Content-Length: {}\r\n", asset.len())),
            !chunked,
            "{head}"
        );
        assert!(body == asset, "no chunk framing in it (chunked: {chunked})");
        let stats = fx.gateway.stats();
        assert_eq!((stats.requests, stats.served), (1, 1));
        fx.finish();
    }
}

/// A head bigger than the first landing area, then a body that trickles
/// in: every read lands behind the last, the buffer grows under the
/// data, and the message parses whole.
#[test]
fn a_large_head_and_a_body_in_three_segments_parse() {
    let fx = Fixture::standard();
    let body = vec![b'b'; 3000];
    let post = Request::builder(Method::Post, "/index.html")
        .header("User-Agent", "Mozilla/5.0 e2e-segments")
        .header("Host", "site.example")
        .header("X-Padding", "p".repeat(10 * 1024))
        .header("Content-Length", body.len().to_string())
        .body_bytes(body)
        .build()
        .unwrap();
    let raw = botwall_http::wire::serialize_request(&post);
    let head_len = raw.len() - 3000;
    assert!(head_len > 8 * 1024, "the head outgrows the first read");
    let mut conn = Client::connect(fx.addr).unwrap();
    conn.stream().set_nodelay(true).unwrap();
    for piece in [
        &raw[..head_len + 1000],
        &raw[head_len + 1000..head_len + 2000],
        &raw[head_len + 2000..],
    ] {
        conn.stream().write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let response = conn.read_response().unwrap();
    assert_eq!(response.status(), StatusCode::OK);
    assert!(body_str(&response).contains("content"));
    assert_eq!(fx.gateway.stats().requests, 1);
    fx.finish();
}

/// A client that sends its request and half-closes is still answered:
/// the hang-up event reads the request to EOF, the answer goes out, and
/// only then does the connection end.
#[test]
fn a_client_that_half_closes_after_its_request_is_still_answered() {
    let fx = Fixture::standard();
    let ua = "scraper/1.0 e2e-half-close";
    get(fx.addr, "/index.html", ua);
    fx.gateway
        .detector()
        .with_key_state(&loopback_key(ua), |_, state| state.policy.block());
    let mut conn = Client::connect(fx.addr).unwrap();
    conn.send(&request("/index.html", ua)).unwrap();
    conn.stream().shutdown(std::net::Shutdown::Write).unwrap();
    let response = conn.read_response().unwrap();
    assert_eq!(response.status(), StatusCode::FORBIDDEN);
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut conn.stream(), &mut rest).unwrap();
    assert!(rest.is_empty(), "then the server closes its half");
    fx.finish();
}

/// The live server sweeps: with the paper's one-hour idle timeout and a
/// 24-session cap, forty one-request clients come and go while one
/// client keeps asking. Nobody calls `sweep`; the reactors' own ticks
/// must classify the evicted and, once the clock has moved past the
/// hour, the idle while traffic flows.
fn the_live_server_sweeps_under_load(threads: usize) {
    use botwall_core::DetectorConfig;
    use botwall_sessions::TrackerConfig;
    const CAP: u64 = 24;
    const VISITORS: u64 = 40;
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder()
            .seed(16)
            .detector(DetectorConfig {
                tracker: TrackerConfig {
                    max_sessions: CAP as usize,
                    ..TrackerConfig::default()
                },
            })
            .build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = threads;
        },
        Some(origin),
    );
    let resident = "Mozilla/5.0 e2e-sweep-resident";
    let sent = std::cell::Cell::new(0u64);
    // Served at first, refused once the detector has seen enough of a
    // client that never fetches a probe: traffic and ledger either way.
    let ask = |conn: &mut Client| {
        get_on(conn, "/index.html", resident);
        sent.set(sent.get() + 1);
    };
    let admin_stats = || {
        sent.set(sent.get() + 1);
        body_str(&get(fx.addr, "/admin/stats", resident))
    };
    let mut conn = Client::connect(fx.addr).unwrap();
    ask(&mut conn);
    for n in 0..VISITORS {
        let visitor = format!("Mozilla/5.0 e2e-sweep-visitor/{n}");
        assert_eq!(
            get(fx.addr, "/index.html", &visitor).status(),
            StatusCode::OK
        );
        sent.set(sent.get() + 1);
        ask(&mut conn);
    }
    let stats = admin_stats();
    assert_eq!(stat(&stats, "evicted_sessions"), VISITORS + 1 - CAP);
    assert!(stat(&stats, "live_sessions") <= CAP);

    // The visitors go idle past the hour while the resident, asking
    // every forty minutes, never does; then the ticks finalize them, a
    // shard a slice, while the resident keeps the server busy. Its
    // keep-alive connection does not outlive the read timeout.
    let mut seen_live = Vec::new();
    for _ in 0..2 {
        fx.advance(Duration::from_secs(40 * 60));
        conn = Client::connect(fx.addr).unwrap();
        ask(&mut conn);
    }
    let mut last = String::new();
    fx.advance_until(Duration::from_millis(100), || {
        ask(&mut conn);
        last = admin_stats();
        seen_live.push(stat(&last, "live_sessions"));
        stat(&last, "completed_sessions") == VISITORS
    });
    let stats = last;
    assert_eq!(
        stat(&stats, "live_sessions"),
        1,
        "only the resident is live"
    );
    assert!(
        seen_live.windows(2).all(|w| w[0] >= w[1]),
        "live sessions only fall once arrivals stop: {seen_live:?}"
    );
    assert_eq!(
        stat(&stats, "requests"),
        ["served", "throttled", "blocked", "challenged"]
            .iter()
            .map(|column| stat(&stats, column))
            .sum::<u64>(),
        "the ledger balances while sessions finalize"
    );
    let in_flight = fx
        .gateway
        .detector()
        .with_key_state(&loopback_key(resident), |_, state| state.in_flight)
        .expect("the resident's session was never idle");
    assert_eq!(in_flight, 0);

    drop(conn);
    let sent = sent.get();
    let report = fx.finish();
    assert_eq!(report.requests, sent);
    assert_eq!(
        stat(&stats, "completed_sessions") + report.drained_sessions as u64,
        VISITORS + 1,
        "every key is classified exactly once: by a tick, or by the drain"
    );
}

#[test]
fn the_live_server_sweeps_under_load_on_one_reactor() {
    the_live_server_sweeps_under_load(1);
}

#[test]
fn the_live_server_sweeps_under_load_on_two_reactors() {
    the_live_server_sweeps_under_load(2);
}

/// A late beacon reads the same over the socket as in process: a page's
/// token expires where the beacon redeems it, an hour after the page,
/// whether or not the server's tick has passed the session since. A
/// page and its script, an asset every forty minutes to keep the
/// session live, a rotation of ticks through every shard, then the
/// page's mouse beacon at eighty minutes: `handle_with` on a gateway of
/// the same seed, at the same instants, answers every request with the
/// same status and leaves the same verdict.
fn a_late_beacon_reads_the_same_over_the_socket_as_in_process(threads: usize) {
    const SEED: u64 = 50;
    const ASSET: &str = "/style.css";
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .asset(ASSET, b"body{}")
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(SEED).build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = threads;
        },
        Some(origin),
    );
    let local = Gateway::builder().seed(SEED).build();
    let ua = "Mozilla/5.0 e2e-late-beacon";
    let key = loopback_key(ua);
    // One request both ways at `now`, `paths.0` over the socket and
    // `paths.1` in process from the same loopback client, the origin
    // answering what the mock does. Each side asks for its own page's
    // script and beacon: a session's stream is seeded by when it
    // started, which the socket's clock puts a few milliseconds after
    // the in-process zero.
    let both = |paths: (&str, &str), now: SimTime| {
        let socket = get(fx.addr, paths.0, ua);
        let request = Request::builder(Method::Get, paths.1)
            .header("User-Agent", ua)
            .header("Host", "site.example")
            .client(ClientIp::new(u32::from_be_bytes([127, 0, 0, 1])))
            .build()
            .unwrap();
        let inproc = local
            .handle_with(&request, now, |r| match r.uri().path() {
                "/index.html" => Origin::Page(PAGE.to_string()),
                ASSET => Origin::Response(
                    Response::builder(StatusCode::OK)
                        .body_bytes(b"body{}".to_vec())
                        .build(),
                ),
                _ => Origin::NotFound,
            })
            .into_response();
        assert_eq!(socket.status(), inproc.status(), "{paths:?}");
        assert_eq!(fx.gateway.verdict(&key), local.verdict(&key), "{paths:?}");
        (socket, inproc)
    };
    let text = |(socket, inproc): (Response, Response)| (body_str(&socket), body_str(&inproc));
    let mut now = SimTime::ZERO;
    let page = text(both(("/index.html", "/index.html"), now));
    let script_of = |html: &str| {
        quoted_paths(html, '"')
            .into_iter()
            .find(|p| p.ends_with(".js"))
            .expect("instrumented page links a generated script")
    };
    let script = text(both((&script_of(&page.0), &script_of(&page.1)), now));
    for _ in 0..2 {
        fx.advance(Duration::from_secs(40 * 60));
        now += 40 * 60 * 1000;
        both((ASSET, ASSET), now);
    }
    // Every shard's turn at the tick passes before the beacon.
    let ticks = 2 * fx.gateway.stats().shard_count;
    let mut ticked = 0;
    fx.advance_until(Duration::from_millis(100), || {
        ticked += 1;
        ticked == ticks
    });
    now += 100 * ticks as u64;
    let beacons = (
        mouse_beacon_path(&page.0, &script.0),
        mouse_beacon_path(&page.1, &script.1),
    );
    both((&beacons.0, &beacons.1), now);
    assert_eq!(fx.gateway.stats().live_sessions, 1);
    assert_ne!(
        local.verdict(&key),
        Verdict::Human(Reason::MouseActivity),
        "an eighty-minute-old key proves nothing"
    );
    fx.finish();
}

#[test]
fn a_late_beacon_reads_the_same_over_the_socket_as_in_process_on_one_reactor() {
    a_late_beacon_reads_the_same_over_the_socket_as_in_process(1);
}

#[test]
fn a_late_beacon_reads_the_same_over_the_socket_as_in_process_on_two_reactors() {
    a_late_beacon_reads_the_same_over_the_socket_as_in_process(2);
}

/// Advances the clock past the paper's one-hour idle timeout and on
/// until the tick has finalized one more session.
fn idle_past_the_hour(fx: &Fixture) {
    let before = fx.gateway.stats().completed_sessions;
    fx.advance(Duration::from_secs(60 * 60));
    fx.advance_until(Duration::from_millis(100), || {
        fx.gateway.stats().completed_sessions == before + 1
    });
}

/// A client idle past the hour is finalized by the tick, not by any
/// request of its own; when it comes back it is a new incarnation,
/// counting its requests from one.
fn an_idle_client_returns_as_a_new_incarnation(threads: usize) {
    let fx = Fixture::on_reactors(threads, 51);
    let ua = "Mozilla/5.0 e2e-idle";
    let key = loopback_key(ua);
    let requests = || {
        fx.gateway
            .detector()
            .with_key_state(&key, |session, _| session.request_count())
    };
    for _ in 0..3 {
        assert_eq!(get(fx.addr, "/index.html", ua).status(), StatusCode::OK);
    }
    assert_eq!(requests(), Some(3));
    idle_past_the_hour(&fx);
    let stats = fx.gateway.stats();
    assert_eq!((stats.completed_sessions, stats.live_sessions), (1, 0));
    assert_eq!(requests(), None, "finalized, not waiting for its key");
    assert_eq!(get(fx.addr, "/index.html", ua).status(), StatusCode::OK);
    assert_eq!(requests(), Some(1), "the count restarts");
    let report = fx.finish();
    assert_eq!(report.drained_sessions, 1, "only the new incarnation");
}

#[test]
fn an_idle_client_is_finalized_and_returns_as_a_new_incarnation_on_one_reactor() {
    an_idle_client_returns_as_a_new_incarnation(1);
}

#[test]
fn an_idle_client_is_finalized_and_returns_as_a_new_incarnation_on_two_reactors() {
    an_idle_client_returns_as_a_new_incarnation(2);
}

/// What a blocked client meets when it idles past the hour: the tick
/// finalizes its session, and a swept key starts clean, so it is served
/// again. A block carries over a rollover (a key that returns before
/// anything swept it: `blocked_sessions_stay_blocked_across_idle_rollover`
/// in the gateway's tests), but on the live server the tick sweeps an
/// idle key within a rotation of its shards, long before it could
/// return past the hour. This pins the design as it stands.
fn a_blocked_client_idle_past_the_hour_starts_clean(threads: usize) {
    let fx = Fixture::on_reactors(threads, 52);
    let ua = "scraper/1.0 e2e-blocked-idle";
    let key = loopback_key(ua);
    assert_eq!(get(fx.addr, "/index.html", ua).status(), StatusCode::OK);
    fx.gateway
        .detector()
        .with_key_state(&key, |_, state| state.policy.block());
    assert_eq!(
        get(fx.addr, "/index.html", ua).status(),
        StatusCode::FORBIDDEN
    );
    assert!(fx.gateway.is_blocked(&key));
    idle_past_the_hour(&fx);
    assert!(
        !fx.gateway.is_blocked(&key),
        "the sweep took the block along"
    );
    assert_eq!(get(fx.addr, "/index.html", ua).status(), StatusCode::OK);
    assert!(!fx.gateway.is_blocked(&key));
    let stats = fx.gateway.stats();
    assert_eq!((stats.blocked, stats.completed_sessions), (1, 1));
    fx.finish();
}

#[test]
fn a_blocked_client_idle_past_the_hour_returns_clean_on_one_reactor() {
    a_blocked_client_idle_past_the_hour_starts_clean(1);
}

#[test]
fn a_blocked_client_idle_past_the_hour_returns_clean_on_two_reactors() {
    a_blocked_client_idle_past_the_hour_starts_clean(2);
}
