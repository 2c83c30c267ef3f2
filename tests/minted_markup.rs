//! The markup a page is minted into, pinned byte for byte, and the
//! manifest a caller reads of it checked against what was served.
//!
//! A page serve writes a CSS probe, a script, a `<body onmousemove>`
//! handler, a hidden link and a pixel into the page, every probe URL on
//! the site the request named: its `Host` header, its absolute-form
//! target, or nothing (path-only URLs, which is also what a `Host` that
//! is not a plain `host[:port]` gets). The byte-locks serve pages
//! through a seeded gateway on simulated time, once for each way of
//! naming the site, and through the engine's `begin_stream` (each page's
//! script generated over the URLs its manifest spells), and fold
//! every byte served (the pages, and the scripts their `<script src>`
//! URLs fetch, which spell out each page's beacon key and decoys) into
//! an FNV-1a digest with a fixed golden: what a page and its token hold
//! may not move.

use botwall::gateway::{Decision, Gateway, Origin, PendingServe};
use botwall::http::request::ClientIp;
use botwall::http::{Method, Request, Uri};
use botwall::instrument::jsgen::{self, JsSpec};
use botwall::instrument::token::DECOYS;
use botwall::instrument::{InstrumentConfig, Obfuscation, ProbeManifest, RewriteEngine};
use botwall::sessions::SimTime;
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const HTML: &str =
    "<html><head><title>m</title></head><body class=\"c\"><p>minted</p></body></html>";

/// One way a request names its site: a target with `{}` for the page
/// name, and the `Host` header sent with it, if any.
struct Form {
    name: &'static str,
    target: &'static str,
    host: Option<&'static str>,
}

const FORMS: [Form; 5] = [
    Form {
        name: "Host",
        target: "/shop/{}.html",
        host: Some("shop.example.org"),
    },
    Form {
        name: "Host:port",
        target: "/shop/{}.html",
        host: Some("shop.example.org:8080"),
    },
    Form {
        name: "absolute-form target",
        target: "http://abs.example:81/shop/{}.html",
        host: None,
    },
    Form {
        name: "no authority",
        target: "/shop/{}.html",
        host: None,
    },
    Form {
        name: "a Host Site::of rejects",
        target: "/shop/{}.html",
        host: Some("evil\"><script>alert(1)</script>"),
    },
];

impl Form {
    /// A GET for the page named `page` (or, with a leading `/` or a
    /// scheme, for that URL as given) from client `ip`.
    fn request(&self, ip: u32, page: &str) -> Request {
        let target = if page.starts_with('/') || page.starts_with("http://") {
            page.to_string()
        } else {
            self.target.replace("{}", page)
        };
        let mut b = Request::builder(Method::Get, target)
            .header("User-Agent", "Mozilla/5.0 (minted markup)")
            .client(ClientIp::new(ip));
        if let Some(host) = self.host {
            b = b.header("Host", host);
        }
        b.build().expect("a well-formed request")
    }

    /// The request a browser sends for `url` off a page served in this
    /// form: the path under the same `Host`, or the URL as written.
    fn fetch(&self, ip: u32, url: &Uri) -> Request {
        match self.host {
            Some(_) => self.request(ip, url.path()),
            None => self.request(ip, &url.to_string()),
        }
    }
}

/// FNV-1a over `bytes`: a golden digest short enough to keep in source.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Thirty pages served in `form` across six clients, each followed by
/// the script its `<script src>` names, every byte of both appended.
fn render_gateway(form: &Form) -> Vec<u8> {
    let gw = Gateway::builder().seed(29).build();
    let mut clock = SimTime::from_hours(5);
    let mut served = Vec::new();
    for page in 0..30u32 {
        let ip = 1 + page % 6;
        clock += 40;
        let d = gw.handle_with(&form.request(ip, &page.to_string()), clock, |_| {
            Origin::Page(HTML.into())
        });
        let Decision::Serve {
            response, manifest, ..
        } = d
        else {
            panic!("{}: page {page} was not served", form.name);
        };
        served.extend_from_slice(response.body());
        let script = manifest.and_then(|m| m.js_file).expect("a script URL");
        clock += 15;
        let Decision::Serve { response, .. } = gw.handle(&form.fetch(ip, &script), clock) else {
            panic!("{}: the script of page {page} was not served", form.name);
        };
        served.extend_from_slice(response.body());
    }
    served
}

/// Ten pages for each of three page URLs through
/// `RewriteEngine::begin_stream`, each followed by the script its token
/// stands for (`jsgen::generate` over the finished page's manifest, on
/// the token's script seed: the bytes a fetch of its URL is answered
/// with), across three issue hours.
fn render_engine() -> Vec<u8> {
    let engine = RewriteEngine::new(InstrumentConfig::default(), 29);
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let mut served = Vec::new();
    for (n, page) in [
        "http://engine.example/a.html",
        "http://engine.example:8080/b.html",
        "/c.html",
    ]
    .into_iter()
    .enumerate()
    {
        let uri: Uri = page.parse().expect("a page URL");
        for i in 0..10u64 {
            let now = SimTime::from_hours(n as u64) + 1000 * i;
            let mut stream = engine.begin_stream(&uri, now, &mut rng);
            let token = stream.token().cloned().expect("the mouse beacon is on");
            let mut out = Vec::new();
            stream.write(HTML.as_bytes(), &mut out);
            let m = stream
                .finish(&mut out)
                .manifest(&uri, uri.authority().as_deref());
            served.extend_from_slice(&out);
            let spec = JsSpec {
                mouse_beacon: m.mouse_beacon.expect("the mouse beacon is on"),
                decoys: m.decoy_beacons,
                agent_beacon: m.agent_beacon.expect("the agent beacon rides with it"),
                obfuscation: engine.config().obfuscation,
                target_size: 1024,
            };
            let script = jsgen::generate(&spec, &mut ChaCha8Rng::seed_from_u64(token.script.seed));
            served.extend_from_slice(script.source.as_bytes());
        }
    }
    served
}

#[test]
fn minted_markup_byte_lock() {
    // (length, FNV-1a) of everything served, per form of `FORMS`; a
    // rejected `Host` gets the path-only URLs of no authority at all.
    const GOLDEN: [(usize, u64); 5] = [
        (69_817, 0x8829_8674_7e16_87ff),
        (71_467, 0x53d3_f720_d361_f78d),
        (69_157, 0x2226_1ef1_7d7d_568f),
        (62_227, 0xc721_d525_666f_5221),
        (62_227, 0xc721_d525_666f_5221),
    ];
    const ENGINE: (usize, u64) = (67_655, 0xf509_8969_22d1_e5e7);
    let mut pinned = Vec::new();
    for (form, golden) in FORMS.iter().zip(GOLDEN) {
        let served = render_gateway(form);
        assert!(
            !served.windows(8).any(|w| w == b"alert(1)"),
            "{}",
            form.name
        );
        pinned.push((form.name, (served.len(), fnv1a(&served)), golden));
    }
    let served = render_engine();
    pinned.push(("begin_stream", (served.len(), fnv1a(&served)), ENGINE));
    for (name, (len, digest), _) in &pinned {
        println!("{name}: ({len}, {digest:#018x})");
    }
    for (name, got, golden) in pinned {
        assert_eq!(got, golden, "{name}: what a page and its token hold moved");
    }
}

/// Every URL between single quotes in a script: what it fetches, when
/// the obfuscation level keeps literals whole.
fn fetched_by(script: &str) -> Vec<String> {
    let mut urls: Vec<String> = script
        .split('\'')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect();
    urls.sort();
    urls
}

/// The manifest's mouse, decoy and agent beacon URLs, as the script
/// spells them.
fn beacons_of(m: &ProbeManifest) -> Vec<String> {
    let mut urls: Vec<String> = m
        .mouse_beacon
        .iter()
        .chain(&m.decoy_beacons)
        .chain(&m.agent_beacon)
        .map(Uri::to_string)
        .collect();
    urls.sort();
    urls
}

proptest! {
    /// The manifest a caller reads of a streamed page points where the
    /// page does: the CSS probe and the script sit before `</head>`, the
    /// hidden link and the pixel before the last `</body>`, the script
    /// the token stands for fetches exactly the manifest's mouse beacon,
    /// decoys and agent beacon, and `html_overhead` is what the page
    /// grew by.
    #[test]
    fn the_manifest_on_demand_matches_the_markup(
        seed in any::<u64>(),
        form in 0usize..FORMS.len(),
        plain in any::<bool>(),
        hour in 0u64..48,
    ) {
        let form = &FORMS[form];
        let obfuscation = if plain { Obfuscation::None } else { Obfuscation::Lexical };
        let gw = Gateway::builder()
            .seed(seed)
            .instrument(InstrumentConfig { obfuscation, ..InstrumentConfig::default() })
            .build();
        let now = SimTime::from_hours(hour) + 7;
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&form.request(3, "p"), now)
        else {
            panic!("a fresh session's page leases");
        };
        let mut stream = gw.begin_page_stream(&pending, now);
        let mut page = Vec::new();
        stream.write(HTML.as_bytes(), &mut page);
        let sent = page.len() as u64;
        let served = gw.finish_page_stream(pending, stream, &mut page, sent, now);
        let m = served.manifest.expect("an instrumented page has a manifest");
        let page = String::from_utf8(page).expect("ASCII markup into a UTF-8 page");

        prop_assert_eq!(m.html_overhead, page.len() - HTML.len());
        let (css, js) = (m.css_probe.as_ref().unwrap(), m.js_file.as_ref().unwrap());
        let head = format!(
            "<link rel=\"stylesheet\" type=\"text/css\" href=\"{css}\">\n\
             <script language=\"javascript\" src=\"{js}\"></script>\n</head>"
        );
        prop_assert!(page.contains(&head), "{} in {}", head, page);
        let (link, pixel) = (m.hidden_link.as_ref().unwrap(), m.transparent_pixel.as_ref().unwrap());
        let tail = format!(
            "<a href=\"{link}\"><img src=\"{pixel}\" width=\"1\" height=\"1\" border=\"0\"></a>\n\
             </body></html>"
        );
        prop_assert!(page.ends_with(&tail), "{} at the end of {}", tail, page);
        prop_assert!(page.contains("<body onmousemove=\"return "));

        prop_assert_eq!(gw.stats().probe_requests, 0);
        let Decision::Serve { response, .. } = gw.handle(&form.fetch(3, js), now + 1) else {
            panic!("the script is served");
        };
        prop_assert_eq!(gw.stats().probe_requests, 1, "the script is instrumentation traffic");
        let script = String::from_utf8(response.body().to_vec()).expect("an ASCII script");
        prop_assert_eq!(fetched_by(&script), beacons_of(&m));
        prop_assert_eq!(m.decoy_beacons.len(), DECOYS);
    }
}
