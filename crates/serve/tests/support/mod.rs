//! What the serve tests share: a server on a thread of its own whose
//! clock the test drives, raw request bytes, a response read back
//! exactly as it was sent, and a browser's walk to every probe of a
//! page.

#![allow(dead_code)]

use botwall_gateway::Gateway;
use botwall_serve::{
    MockOrigin, MockOriginHandle, ServeConfig, ServeReport, Server, ShutdownHandle,
};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The page every fixture's origin serves at `/index.html`.
pub const PAGE: &str = "<html><head><title>t</title></head>\
<body><p>content</p><a href=\"/about.html\">about</a></body></html>";

/// Where every fixture's origin serves [`big_page`]: under its
/// `Content-Length`, in 8 KB chunks, and a byte a chunk.
pub const BIG_PATHS: [&str; 3] = ["/big.html", "/big-chunked.html", "/big-bytes.html"];

/// A 64 KB page of links and images, a tag every twenty bytes.
pub fn big_page() -> String {
    let item = "<div class=\"c7\"><a href=\"/page/7.html\">fox</a><img src=\"/a/3.png\"></div>\n";
    let mut html = String::from("<html><head><title>big</title></head><body>\n");
    while html.len() < 64 * 1024 - 16 {
        html.push_str(item);
    }
    html + "</body></html>\n"
}

/// An asset every fixture's origin serves at [`ASSET_PATH`]: relayed
/// under its `Content-Length`, so it reads back raw.
pub const ASSET: &[u8] = b"sixteen bytes ok";

/// Where [`ASSET`] is.
pub const ASSET_PATH: &str = "/asset.bin";

/// A running server on a thread of its own, its gateway, the handle
/// that stops it and drives its clock, and (when it owns one) its
/// origin.
pub struct Fixture {
    pub gateway: Arc<Gateway>,
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    server: JoinHandle<io::Result<ServeReport>>,
    _origin: Option<MockOriginHandle>,
}

/// How many times [`Fixture::advance_until`] and
/// [`Fixture::advance_until_readable`] advance before they give up.
const ROUNDS: u32 = 500;

/// How long those two wait after each advance for its effect to show:
/// the reactors wake, and the test's own peers (a mock origin's
/// threads) notice what the server did.
const PACE: Duration = Duration::from_millis(10);

impl Fixture {
    /// `gateway` behind a server configured by `tune`, holding `origin`
    /// (if given) until the fixture is dropped.
    pub fn with(
        gateway: Gateway,
        tune: impl FnOnce(&mut ServeConfig),
        origin: Option<MockOriginHandle>,
    ) -> Fixture {
        Fixture::spawn(gateway, tune, origin, || {})
    }

    /// A seed-42 gateway on one reactor in front of an origin serving
    /// [`PAGE`] at `/index.html`.
    pub fn standard() -> Fixture {
        Fixture::on_reactors(1, 42)
    }

    /// A gateway seeded `seed` on `threads` reactors behind one port, in
    /// front of an origin serving [`PAGE`] at `/index.html`.
    pub fn on_reactors(threads: usize, seed: u64) -> Fixture {
        let origin = MockOrigin::new().page("/index.html", PAGE).start().unwrap();
        let origin_addr = origin.addr();
        Fixture::with(
            Gateway::builder().seed(seed).build(),
            |config| {
                config.origin = Some(origin_addr);
                config.threads = threads;
            },
            Some(origin),
        )
    }

    /// A seed-42 gateway in front of an origin serving [`PAGE`], the
    /// [`BIG_PATHS`] and [`ASSET`], `tune` applied to the server's
    /// config, and `on_thread` run first on the server's own thread (the
    /// one reactor runs there).
    pub fn start(tune: impl FnOnce(&mut ServeConfig), on_thread: fn()) -> Fixture {
        let [whole, chunked, bytes] = BIG_PATHS;
        let origin = MockOrigin::new()
            .page("/index.html", PAGE)
            .asset(ASSET_PATH, ASSET)
            .page(whole, big_page())
            .page(chunked, big_page())
            .chunked(chunked, 8 * 1024)
            .page(bytes, big_page())
            .chunked(bytes, 1)
            .start()
            .unwrap();
        let origin_addr = origin.addr();
        Fixture::spawn(
            Gateway::builder().seed(42).build(),
            |config| {
                config.origin = Some(origin_addr);
                tune(config);
            },
            Some(origin),
            on_thread,
        )
    }

    fn spawn(
        gateway: Gateway,
        tune: impl FnOnce(&mut ServeConfig),
        origin: Option<MockOriginHandle>,
        on_thread: fn(),
    ) -> Fixture {
        let gateway = Arc::new(gateway);
        let mut config = ServeConfig::default();
        tune(&mut config);
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&gateway), config).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let server = std::thread::spawn(move || {
            on_thread();
            server.run()
        });
        Fixture {
            gateway,
            addr,
            shutdown,
            server,
            _origin: origin,
        }
    }

    pub fn connect(&self) -> TcpStream {
        TcpStream::connect(self.addr).unwrap()
    }

    /// Moves the server's clock forward by `by`, waking every reactor.
    pub fn advance(&self, by: Duration) {
        self.shutdown.advance(by);
    }

    /// Advances the clock by `step` until `done` holds: for what the
    /// server does on its own once time has passed (a deadline, the
    /// sweep tick's next slice). An advance that lands before the
    /// server armed what it is waiting for moves nothing for it, so one
    /// advance may not be enough.
    pub fn advance_until(&self, step: Duration, mut done: impl FnMut() -> bool) {
        for _ in 0..ROUNDS {
            self.advance(step);
            std::thread::sleep(PACE);
            if done() {
                return;
            }
        }
        panic!("nothing came of {ROUNDS} advances of {step:?}");
    }

    /// Advances the clock by `step` until `conn` has something to read
    /// (or is closed): the answer a deadline sends.
    pub fn advance_until_readable(&self, conn: &TcpStream, step: Duration) {
        conn.set_read_timeout(Some(PACE)).unwrap();
        self.advance_until(step, || match conn.peek(&mut [0u8; 1]) {
            Ok(_) => true,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => false,
            Err(e) => panic!("{e}"),
        });
        conn.set_read_timeout(None).unwrap();
    }

    pub fn finish(self) -> ServeReport {
        self.shutdown.shutdown();
        self.server.join().unwrap().unwrap()
    }
}

/// A `GET` of `path` as a browser behind a reverse proxy sends it.
pub fn get(path: &str, ua: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!("GET {path} HTTP/1.1\r\nHost: site.example\r\nUser-Agent: {ua}\r\n{connection}\r\n")
        .into_bytes()
}

/// One response exactly as the server sent it: a head, and the
/// `Content-Length` bytes that follow it.
pub fn read_raw(conn: &mut TcpStream) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(conn.read(&mut byte).unwrap(), 1, "closed inside a head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw.clone()).unwrap();
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("every answer declares its length")
        .parse()
        .unwrap();
    let start = raw.len();
    raw.resize(start + length, 0);
    conn.read_exact(&mut raw[start..]).unwrap();
    raw
}

/// Sends `request` and reads its response raw.
pub fn exchange(conn: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    conn.write_all(request).unwrap();
    read_raw(conn)
}

/// Every `quote`-delimited absolute URL in `text`, reduced to its path.
pub fn quoted_paths(text: &str, quote: char) -> Vec<String> {
    text.split(quote)
        .skip(1)
        .step_by(2)
        .filter_map(|quoted| {
            let rest = quoted.split("://").nth(1)?;
            Some(rest[rest.find('/')?..].to_string())
        })
        .collect()
}

/// The paths a browser (and a crawler) finds on one instrumented page.
#[derive(Debug)]
pub struct Probes {
    pub css: String,
    pub script: String,
    pub pixel: String,
    pub hidden_link: String,
    pub agent_beacon: String,
    pub mouse_beacon: String,
}

impl Probes {
    /// What `page` links and what its generated `script` fetches.
    pub fn of(page: &str, script: &str) -> Probes {
        let on_page = quoted_paths(page, '"');
        let ending = |paths: &[String], ext: &str| {
            paths
                .iter()
                .find(|p| p.ends_with(ext))
                .unwrap_or_else(|| panic!("no {ext} in {paths:?}"))
                .clone()
        };
        // The page's onmousemove handler names the function in the
        // script whose first quoted URL is the mouse beacon.
        let handler = page
            .split("onmousemove=\"return ")
            .nth(1)
            .and_then(|rest| rest.split('(').next())
            .expect("the page wires a handler");
        let body = script
            .split(&format!("function {handler}()"))
            .nth(1)
            .map(|rest| rest.split("function ").next().unwrap_or(rest))
            .expect("the script defines the handler");
        Probes {
            css: ending(&on_page, ".css"),
            script: ending(&on_page, ".js"),
            pixel: ending(&on_page, ".gif"),
            hidden_link: ending(&on_page, ".html"),
            agent_beacon: format!(
                "{}?agent=mozilla/5.0&wd=0&pl=3",
                ending(&quoted_paths(script, '\''), ".gif")
            ),
            mouse_beacon: quoted_paths(body, '\'').remove(0),
        }
    }
}

/// The body of a raw response.
pub fn body(raw: &[u8]) -> &[u8] {
    let at = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    &raw[at + 4..]
}

/// The page at `/index.html`, fetched by `ua` on `conn`.
pub fn page(conn: &mut TcpStream, ua: &str) -> String {
    page_at(conn, "/index.html", ua)
}

/// The page at `path`, fetched by `ua` on `conn`. It comes back chunked,
/// so it is read with the client that decodes chunks, on a clone of
/// `conn`: one request is outstanding, so nothing follows its response
/// for the client to keep.
pub fn page_at(conn: &mut TcpStream, path: &str, ua: &str) -> String {
    let mut client = botwall_serve::client::Client::new(conn.try_clone().unwrap());
    let page = client
        .roundtrip(
            &botwall_http::Request::builder(botwall_http::Method::Get, path)
                .header("Host", "site.example")
                .header("User-Agent", ua)
                .build()
                .unwrap(),
        )
        .unwrap();
    String::from_utf8(page.body().to_vec()).unwrap()
}

/// The page at `/index.html` and its script, fetched by `ua` on `conn`:
/// the probes they hold.
pub fn browse(conn: &mut TcpStream, ua: &str) -> Probes {
    let page = page(conn, ua);
    let script_path = quoted_paths(&page, '"')
        .into_iter()
        .find(|p| p.ends_with(".js"))
        .expect("the page links its script");
    let script = exchange(conn, &get(&script_path, ua, false));
    Probes::of(&page, std::str::from_utf8(body(&script)).unwrap())
}
