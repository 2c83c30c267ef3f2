//! A loopback origin for tests, benches, and the `--mock-origin` mode
//! of the binary: a deliberately *blocking*, thread-per-connection HTTP
//! server with configurable per-path latency. Its slowness is the test
//! fixture — the front door must keep other connections moving while
//! this origin sits on one.

use botwall_http::request::ClientIp;
use botwall_http::{wire, Response, StatusCode};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Builder for a mock origin server.
#[derive(Debug, Default)]
pub struct MockOrigin {
    pages: HashMap<String, String>,
    /// Non-HTML bodies, served as `application/octet-stream`.
    assets: HashMap<String, Vec<u8>>,
    latency: HashMap<String, Duration>,
    /// Pages served with `Transfer-Encoding: chunked`, in slices of the
    /// mapped size.
    chunked: HashMap<String, usize>,
    /// Chunked pages whose connection drops after roughly this many
    /// body bytes, without ever sending the terminal chunk.
    truncate_after: HashMap<String, usize>,
    /// Serve multiple requests per connection (loop until EOF or a
    /// `Connection: close` request).
    keep_alive: bool,
    /// In keep-alive mode, answer at most this many requests per
    /// connection; the next request on that connection closes it
    /// *without* a response — the deterministic stale-pool race.
    close_after: Option<usize>,
    /// In keep-alive mode, write these bytes 50ms after each response
    /// and close — unsolicited garbage on a connection a pool may have
    /// parked.
    garbage_after: Option<Vec<u8>>,
}

impl MockOrigin {
    /// An origin with no pages (every path 404s).
    pub fn new() -> MockOrigin {
        MockOrigin::default()
    }

    /// Registers an HTML page at `path`.
    pub fn page(mut self, path: impl Into<String>, html: impl Into<String>) -> MockOrigin {
        self.pages.insert(path.into(), html.into());
        self
    }

    /// Registers a non-HTML body at `path` (`application/octet-stream`)
    /// — what the front door relays as it came instead of instrumenting.
    pub fn asset(mut self, path: impl Into<String>, bytes: impl Into<Vec<u8>>) -> MockOrigin {
        self.assets.insert(path.into(), bytes.into());
        self
    }

    /// Delays every response for `path` by `by` — the "one slow CGI
    /// script" of the paper's deployment, in miniature.
    pub fn latency(mut self, path: impl Into<String>, by: Duration) -> MockOrigin {
        self.latency.insert(path.into(), by);
        self
    }

    /// Serves `path`'s page with `Transfer-Encoding: chunked`, split
    /// into chunks of `chunk_size` bytes.
    pub fn chunked(mut self, path: impl Into<String>, chunk_size: usize) -> MockOrigin {
        self.chunked.insert(path.into(), chunk_size.max(1));
        self
    }

    /// Makes a [`chunked`](MockOrigin::chunked) page die mid-stream:
    /// the connection drops after about `bytes` body bytes, terminal
    /// chunk never sent.
    pub fn truncate_after(mut self, path: impl Into<String>, bytes: usize) -> MockOrigin {
        self.truncate_after.insert(path.into(), bytes);
        self
    }

    /// Serves multiple requests per connection: read → respond in a
    /// loop until EOF or a request bearing `Connection: close`. (The
    /// default remains one response per connection, matching an origin
    /// that refuses reuse.)
    pub fn keep_alive(mut self) -> MockOrigin {
        self.keep_alive = true;
        self
    }

    /// With [`keep_alive`](MockOrigin::keep_alive): each connection
    /// answers at most `n` requests; when one more request arrives on
    /// it, the connection closes without responding. A pool that parked
    /// the connection sees a socket that probes live but dies the
    /// moment it is reused — the stale race, on demand.
    pub fn close_after_responses(mut self, n: usize) -> MockOrigin {
        self.close_after = Some(n);
        self
    }

    /// With [`keep_alive`](MockOrigin::keep_alive): 50ms after each
    /// response the connection emits `bytes` unsolicited and closes.
    /// The delay lets a pool park the connection first, so the garbage
    /// lands on a parked socket.
    pub fn garbage_after(mut self, bytes: impl Into<Vec<u8>>) -> MockOrigin {
        self.garbage_after = Some(bytes.into());
        self
    }

    /// Binds a loopback port and starts serving on background threads.
    pub fn start(self) -> std::io::Result<MockOriginHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let hits = Arc::new(AtomicU64::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        // A connection only needs its own thread when serving it can
        // *block*: configured latency, or a keep-alive connection that
        // sits in its read loop between requests (serving that inline
        // would wedge the accept loop). A latency-free one-shot origin
        // answers inline on the accept thread — each response is
        // microseconds, and skipping a thread spawn per fetch keeps the
        // fixture's fixed cost out of every front-door measurement.
        let spawn_per_conn = !self.latency.is_empty() || self.keep_alive;
        let shared = Arc::new(self);
        let accept = {
            let stop = Arc::clone(&stop);
            let hits = Arc::clone(&hits);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    if spawn_per_conn {
                        let origin = Arc::clone(&shared);
                        let hits = Arc::clone(&hits);
                        let live = Arc::clone(&live);
                        std::thread::spawn(move || origin.serve_conn(conn, &hits, &live));
                    } else {
                        shared.serve_conn(conn, &hits, &live);
                    }
                }
            })
        };
        Ok(MockOriginHandle {
            addr,
            stop,
            hits,
            live,
            accept: Some(accept),
        })
    }

    /// One connection: read a request, answer it, and either loop
    /// (keep-alive mode) or close. (The pool-less front door opens a
    /// fresh origin connection per fetch.)
    fn serve_conn(&self, mut conn: TcpStream, hits: &AtomicU64, live: &AtomicUsize) {
        live.fetch_add(1, Ordering::SeqCst);
        let _open = Gauge(live);
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut served = 0usize;
        loop {
            let (request, frame) = loop {
                match wire::read_request(&buf, ClientIp::new(0)) {
                    Ok(Some(read)) => break read,
                    Ok(None) => {}
                    Err(_) => return,
                }
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            };
            // Past the per-connection response budget, the *arrival* of
            // the next request closes the connection unanswered — so a
            // parked pooled socket looks perfectly healthy right up to
            // the moment something reuses it.
            if self.close_after.is_some_and(|cap| served >= cap) {
                return;
            }
            buf.drain(..frame);
            let path = request.uri().path().to_string();
            if let Some(by) = self.latency.get(&path) {
                std::thread::sleep(*by);
            }
            hits.fetch_add(1, Ordering::SeqCst);
            served += 1;
            let response = match self.pages.get(&path) {
                Some(html) => {
                    if let Some(&size) = self.chunked.get(&path) {
                        let cut = self.truncate_after.get(&path).copied();
                        let _ = write_chunked(&mut conn, html.as_bytes(), size, cut);
                        // Chunked pages keep their one-shot close-after
                        // semantics: the stream's end is the test.
                        return;
                    }
                    Response::builder(StatusCode::OK)
                        .header("Content-Type", "text/html")
                        .body_bytes(html.clone().into_bytes())
                        .build()
                }
                None => match self.assets.get(&path) {
                    Some(bytes) => Response::builder(StatusCode::OK)
                        .header("Content-Type", "application/octet-stream")
                        .body_bytes(bytes.clone())
                        .build(),
                    None => Response::builder(StatusCode::NOT_FOUND)
                        .header("Content-Length", "0")
                        .build(),
                },
            };
            if conn
                .write_all(&wire::serialize_response(&response))
                .is_err()
            {
                return;
            }
            if !self.keep_alive || request.headers().has_token("Connection", "close") {
                return;
            }
            if let Some(garbage) = &self.garbage_after {
                // Give the peer time to park the connection first.
                std::thread::sleep(Duration::from_millis(50));
                let _ = conn.write_all(garbage);
                return;
            }
        }
    }
}

/// Decrements a gauge when dropped, however `serve_conn` returns.
struct Gauge<'a>(&'a AtomicUsize);

impl Drop for Gauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Writes `body` as a chunked `200 text/html` response in `size`-byte
/// chunks. With `truncate_after`, the connection drops once that many
/// body bytes have gone out — no terminal chunk, a mid-stream death.
fn write_chunked(
    conn: &mut TcpStream,
    body: &[u8],
    size: usize,
    truncate_after: Option<usize>,
) -> std::io::Result<()> {
    conn.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n",
    )?;
    let mut sent = 0usize;
    for piece in body.chunks(size) {
        if truncate_after.is_some_and(|cap| sent >= cap) {
            return Ok(());
        }
        conn.write_all(format!("{:x}\r\n", piece.len()).as_bytes())?;
        conn.write_all(piece)?;
        conn.write_all(b"\r\n")?;
        sent += piece.len();
    }
    if truncate_after.is_none() {
        conn.write_all(b"0\r\n\r\n")?;
    }
    Ok(())
}

/// A running mock origin. Dropping it stops the accept loop.
#[derive(Debug)]
pub struct MockOriginHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hits: Arc<AtomicU64>,
    live: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
}

impl MockOriginHandle {
    /// The loopback address the origin listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (after any configured latency).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }

    /// Connections currently being served — with keep-alive, exactly the
    /// connections the peer is holding open (parked pool sockets
    /// included), so tests can watch cap and idle eviction directly.
    pub fn live_conns(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }
}

impl Drop for MockOriginHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::{Method, Request};
    use std::time::Instant;

    fn get(addr: SocketAddr, path: &str) -> Response {
        let request = Request::builder(Method::Get, path).build().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&wire::serialize_request(&request)).unwrap();
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).unwrap();
        wire::parse_response(&raw).unwrap()
    }

    #[test]
    fn serves_pages_and_404s() {
        let origin = MockOrigin::new()
            .page("/index.html", "<html><body>hi</body></html>")
            .start()
            .unwrap();
        let ok = get(origin.addr(), "/index.html");
        assert_eq!(ok.status(), StatusCode::OK);
        assert_eq!(ok.body(), b"<html><body>hi</body></html>");
        assert_eq!(
            get(origin.addr(), "/missing").status(),
            StatusCode::NOT_FOUND
        );
        assert_eq!(origin.hits(), 2);
    }

    #[test]
    fn latency_delays_only_the_configured_path() {
        let origin = MockOrigin::new()
            .page("/slow.html", "<html></html>")
            .page("/fast.html", "<html></html>")
            .latency("/slow.html", Duration::from_millis(300))
            .start()
            .unwrap();
        let t = Instant::now();
        get(origin.addr(), "/fast.html");
        assert!(t.elapsed() < Duration::from_millis(200));
        let t = Instant::now();
        get(origin.addr(), "/slow.html");
        assert!(t.elapsed() >= Duration::from_millis(300));
    }
}
