//! Instrumentation configuration, classification types, and the
//! single-owner [`Instrumenter`] harness.
//!
//! Since PR 4 the actual rewriting and classification machinery lives in
//! the immutable [`crate::RewriteEngine`]; per-session beacon state
//! lives in [`crate::TokenState`]. The [`Instrumenter`] here composes
//! both behind the original `&mut self` API — a self-contained
//! instrumentation endpoint for tests, harnesses, and single-threaded
//! pipelines (the paper's per-IP token table, a shared RNG stream, a
//! script store). The concurrent gateway does not use it: it shares one
//! `RewriteEngine` and keeps each session's `TokenState` inside the
//! detector's shard entries instead.

use crate::engine::{RewriteEngine, Sighting};
use crate::jsgen::Obfuscation;
use crate::probe::{ProbeHit, ProbeKind};
use crate::token::{BeaconKey, KeyOutcome, TokenTable, TokenTableConfig};
use botwall_http::request::ClientIp;
use botwall_http::{Request, Response, Uri};
use botwall_sessions::SimTime;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for the instrumentation scheme (shared by
/// [`crate::RewriteEngine`] and [`Instrumenter`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrumentConfig {
    /// Number of decoy functions `m` (§2.1); a blind fetcher is caught
    /// with probability `m/(m+1)`.
    pub decoys: usize,
    /// Script obfuscation level.
    pub obfuscation: Obfuscation,
    /// Approximate generated-script size in bytes (paper: ~1 KB).
    pub js_target_size: usize,
    /// Inject the empty CSS probe (§2.2).
    pub css_probe: bool,
    /// Inject the hidden-link trap (§2.2).
    pub hidden_link: bool,
    /// Inject the mouse-event beacon machinery (§2.1).
    pub mouse_beacon: bool,
    /// Token tuning: `max_entries_per_ip` bounds one session's (or, in
    /// the per-IP table, one client's) outstanding keys; `entry_ttl_ms`
    /// expires them at sweep.
    pub token_table: TokenTableConfig,
    /// Maximum generated scripts the [`Instrumenter`] harness retains
    /// for serving (the gateway stores scripts per-session instead).
    pub max_stored_scripts: usize,
    /// First-party asset-proxy rewriting (the trusted-server attribute
    /// surface: `src`/`href`, `srcset`/`imagesrcset`, CSS `url(...)`,
    /// SVG `href`/`xlink:href`, `<object data>`). `None` leaves asset
    /// URLs untouched.
    pub asset_proxy: Option<crate::stream::AssetProxyConfig>,
}

impl Default for InstrumentConfig {
    fn default() -> Self {
        InstrumentConfig {
            decoys: 5,
            obfuscation: Obfuscation::Lexical,
            js_target_size: 1024,
            css_probe: true,
            hidden_link: true,
            mouse_beacon: true,
            token_table: TokenTableConfig::default(),
            max_stored_scripts: 100_000,
            asset_proxy: None,
        }
    }
}

/// Everything the instrumenter injected into one page.
///
/// Agents consume this as the "parsed DOM" view of the instrumented page:
/// a browser fetches `css_probe` because the link tag is there, fires
/// `mouse_beacon` when its user moves the mouse, and never touches
/// `hidden_link`; a blind crawler scans the HTML bytes instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeManifest {
    /// The page that was instrumented.
    pub page: Uri,
    /// URL of the generated external script.
    pub js_file: Option<Uri>,
    /// URL the script fetches on execution (reports the agent string).
    pub agent_beacon: Option<Uri>,
    /// URL the event handler fetches on mouse/keyboard activity.
    pub mouse_beacon: Option<Uri>,
    /// Decoy beacon URLs embedded in the script.
    pub decoy_beacons: Vec<Uri>,
    /// URL of the empty CSS probe.
    pub css_probe: Option<Uri>,
    /// URL of the hidden link target.
    pub hidden_link: Option<Uri>,
    /// URL of the transparent 1×1 image that masks the hidden link.
    pub transparent_pixel: Option<Uri>,
    /// Bytes added to the HTML by rewriting.
    pub html_overhead: usize,
}

/// Classification of an incoming request against the instrumentation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Classified {
    /// A mouse-beacon fetch carrying `key`; `outcome` is the token-state
    /// verdict (valid/replay/decoy/unknown).
    MouseBeacon {
        /// The key presented in the URL.
        key: BeaconKey,
        /// The token-state verdict for this session and key.
        outcome: KeyOutcome,
    },
    /// A non-beacon probe hit (CSS probe, JS file, agent beacon, hidden
    /// link, transparent pixel).
    Probe(ProbeHit),
    /// Not instrumentation traffic.
    Ordinary,
}

/// Cumulative instrumentation statistics (feeds the §3.2 overhead
/// experiment: probe bandwidth was 0.3% of CoDeeN's total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrumenterStats {
    /// Pages rewritten.
    pub pages_instrumented: u64,
    /// Bytes added to HTML bodies.
    pub html_overhead_bytes: u64,
    /// Bytes served for generated scripts.
    pub js_bytes_served: u64,
    /// Bytes served for other probe objects.
    pub probe_bytes_served: u64,
}

impl InstrumenterStats {
    /// Total instrumentation bytes (HTML delta + probe payloads).
    pub fn total_overhead(&self) -> u64 {
        self.html_overhead_bytes + self.js_bytes_served + self.probe_bytes_served
    }
}

/// Atomic backing store for [`InstrumenterStats`], so probe serving
/// ([`Instrumenter::respond`]) can account bytes through `&self`.
#[derive(Debug, Default)]
struct SharedStats {
    pages_instrumented: AtomicU64,
    html_overhead_bytes: AtomicU64,
    js_bytes_served: AtomicU64,
    probe_bytes_served: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> InstrumenterStats {
        InstrumenterStats {
            pages_instrumented: self.pages_instrumented.load(Ordering::Relaxed),
            html_overhead_bytes: self.html_overhead_bytes.load(Ordering::Relaxed),
            js_bytes_served: self.js_bytes_served.load(Ordering::Relaxed),
            probe_bytes_served: self.probe_bytes_served.load(Ordering::Relaxed),
        }
    }
}

/// A self-contained server-side instrumentation endpoint: one
/// [`RewriteEngine`] plus the paper's per-IP [`TokenTable`], a shared
/// RNG stream, and a bounded script store.
///
/// # Examples
///
/// ```
/// use botwall_http::request::ClientIp;
/// use botwall_http::Uri;
/// use botwall_instrument::{InstrumentConfig, Instrumenter};
/// use botwall_sessions::SimTime;
///
/// let mut ins = Instrumenter::new(InstrumentConfig::default(), 1);
/// let page: Uri = "http://site.example/index.html".parse().unwrap();
/// let html = "<html><head></head><body><p>hi</p></body></html>";
/// let (rewritten, manifest) =
///     ins.instrument_page(html, &page, ClientIp::new(9), SimTime::ZERO);
/// assert!(rewritten.contains("onmousemove"));
/// assert!(manifest.css_probe.is_some());
/// ```
#[derive(Debug)]
pub struct Instrumenter {
    engine: RewriteEngine,
    tokens: TokenTable,
    rng: ChaCha8Rng,
    scripts: HashMap<u64, String>,
    script_order: Vec<u64>,
    stats: SharedStats,
}

impl Instrumenter {
    /// Creates an instrumenter with the given config and RNG seed.
    pub fn new(config: InstrumentConfig, seed: u64) -> Instrumenter {
        Instrumenter {
            tokens: TokenTable::new(config.token_table.clone()),
            rng: ChaCha8Rng::seed_from_u64(seed),
            engine: RewriteEngine::new(config, seed),
            scripts: HashMap::new(),
            script_order: Vec::new(),
            stats: SharedStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &InstrumentConfig {
        self.engine.config()
    }

    /// The underlying immutable engine.
    pub fn engine(&self) -> &RewriteEngine {
        &self.engine
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> InstrumenterStats {
        self.stats.snapshot()
    }

    /// Read access to the token table (diagnostics).
    pub fn tokens(&self) -> &TokenTable {
        &self.tokens
    }

    /// Rewrites one HTML page served to `client`, returning the new HTML
    /// and the manifest of injected probes.
    pub fn instrument_page(
        &mut self,
        html: &str,
        page: &Uri,
        client: ClientIp,
        now: SimTime,
    ) -> (String, ProbeManifest) {
        let built = self.engine.build_page(html, page, now, &mut self.rng);
        if let Some(token) = built.token {
            // This harness serves scripts through `&self` from a plain
            // store, so it generates at page time what the gateway
            // generates on the first fetch.
            let js = self.engine.generate_script(
                page.authority().as_deref(),
                token.key,
                &token.decoys,
                token.script,
            );
            self.tokens
                .issue(client, page.path(), token.key, token.decoys, now);
            if self.scripts.len() >= self.config().max_stored_scripts {
                if let Some(old) = self.script_order.first().copied() {
                    self.script_order.remove(0);
                    self.scripts.remove(&old);
                }
            }
            self.scripts.insert(token.js_nonce, js.source);
            self.script_order.push(token.js_nonce);
        }
        self.stats
            .pages_instrumented
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .html_overhead_bytes
            .fetch_add(built.manifest.html_overhead as u64, Ordering::Relaxed);
        (built.html, built.manifest)
    }

    /// Marks a page response uncacheable, as §2.1 requires for rewritten
    /// pages and probe objects.
    pub fn mark_uncacheable(response: &mut Response) {
        RewriteEngine::mark_uncacheable(response);
    }

    /// Classifies an incoming request against the instrumentation state,
    /// redeeming beacon keys as a side effect.
    pub fn classify(&mut self, request: &Request, now: SimTime) -> Classified {
        match self.engine.classify(request, now) {
            Sighting::MouseBeacon(key) => Classified::MouseBeacon {
                key,
                outcome: self.tokens.redeem(request.client(), key, now),
            },
            Sighting::Probe(hit) => Classified::Probe(hit),
            Sighting::Ordinary => Classified::Ordinary,
        }
    }

    /// Serves the response for instrumentation traffic: the generated
    /// script for JS-file hits, an empty style sheet for CSS probes, tiny
    /// images for beacons, a stub page for hidden links.
    ///
    /// Returns `None` for [`Classified::Ordinary`].
    pub fn respond(&self, classified: &Classified) -> Option<Response> {
        let js = match classified {
            Classified::Probe(hit) if hit.kind == ProbeKind::JsFile => {
                self.scripts.get(&hit.nonce).map(String::as_str)
            }
            _ => None,
        };
        let resp = self.engine.respond(classified, js)?;
        let served = resp.body().len() as u64;
        match classified {
            Classified::Probe(hit) if hit.kind == ProbeKind::JsFile => {
                self.stats
                    .js_bytes_served
                    .fetch_add(served, Ordering::Relaxed);
            }
            _ => {
                self.stats
                    .probe_bytes_served
                    .fetch_add(served, Ordering::Relaxed);
            }
        }
        Some(resp)
    }

    /// Purges expired tokens.
    pub fn sweep(&mut self, now: SimTime) {
        self.tokens.sweep(now);
        self.script_order.retain(|n| self.scripts.contains_key(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::Method;

    fn page_uri() -> Uri {
        "http://site.example/index.html".parse().unwrap()
    }

    fn ins() -> Instrumenter {
        Instrumenter::new(InstrumentConfig::default(), 77)
    }

    const HTML: &str = "<html><head><title>t</title></head><body><p>content</p></body></html>";

    #[test]
    fn injects_all_probes() {
        let mut i = ins();
        let (html, m) = i.instrument_page(HTML, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        assert!(html.contains("onmousemove=\"return "));
        assert!(html.contains("rel=\"stylesheet\""));
        assert!(html.contains("width=\"1\" height=\"1\""));
        assert!(m.css_probe.is_some());
        assert!(m.js_file.is_some());
        assert!(m.mouse_beacon.is_some());
        assert!(m.agent_beacon.is_some());
        assert!(m.hidden_link.is_some());
        assert_eq!(m.decoy_beacons.len(), 5);
        assert_eq!(m.html_overhead, html.len() - HTML.len());
    }

    #[test]
    fn disabled_probes_are_not_injected() {
        let cfg = InstrumentConfig {
            css_probe: false,
            hidden_link: false,
            mouse_beacon: false,
            ..InstrumentConfig::default()
        };
        let mut i = Instrumenter::new(cfg, 1);
        let (html, m) = i.instrument_page(HTML, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        assert_eq!(html, HTML);
        assert!(m.css_probe.is_none());
        assert!(m.mouse_beacon.is_none());
        assert!(m.hidden_link.is_none());
        assert_eq!(m.html_overhead, 0);
    }

    #[test]
    fn mouse_beacon_classification_lifecycle() {
        let mut i = ins();
        let client = ClientIp::new(5);
        let (_, m) = i.instrument_page(HTML, &page_uri(), client, SimTime::ZERO);
        let beacon_url = m.mouse_beacon.unwrap();
        let req = Request::builder(Method::Get, beacon_url.to_string())
            .client(client)
            .build()
            .unwrap();
        match i.classify(&req, SimTime::from_secs(1)) {
            Classified::MouseBeacon { outcome, .. } => assert_eq!(outcome, KeyOutcome::Valid),
            other => panic!("expected mouse beacon, got {other:?}"),
        }
        // Second fetch is a replay.
        match i.classify(&req, SimTime::from_secs(2)) {
            Classified::MouseBeacon { outcome, .. } => {
                assert_eq!(outcome, KeyOutcome::Replay)
            }
            other => panic!("expected mouse beacon, got {other:?}"),
        }
    }

    #[test]
    fn decoy_fetch_is_flagged() {
        let mut i = ins();
        let client = ClientIp::new(5);
        let (_, m) = i.instrument_page(HTML, &page_uri(), client, SimTime::ZERO);
        let decoy = m.decoy_beacons[2].clone();
        let req = Request::builder(Method::Get, decoy.to_string())
            .client(client)
            .build()
            .unwrap();
        match i.classify(&req, SimTime::from_secs(1)) {
            Classified::MouseBeacon { outcome, .. } => assert_eq!(outcome, KeyOutcome::Decoy),
            other => panic!("expected decoy, got {other:?}"),
        }
    }

    #[test]
    fn stolen_key_from_other_client_is_unknown() {
        let mut i = ins();
        let (_, m) = i.instrument_page(HTML, &page_uri(), ClientIp::new(5), SimTime::ZERO);
        let beacon_url = m.mouse_beacon.unwrap();
        let thief = Request::builder(Method::Get, beacon_url.to_string())
            .client(ClientIp::new(6))
            .build()
            .unwrap();
        match i.classify(&thief, SimTime::from_secs(1)) {
            Classified::MouseBeacon { outcome, .. } => {
                assert_eq!(outcome, KeyOutcome::Unknown)
            }
            other => panic!("expected mouse beacon, got {other:?}"),
        }
    }

    #[test]
    fn js_file_serves_generated_source() {
        let mut i = ins();
        let client = ClientIp::new(5);
        let (_, m) = i.instrument_page(HTML, &page_uri(), client, SimTime::ZERO);
        let js_url = m.js_file.unwrap();
        let req = Request::builder(Method::Get, js_url.to_string())
            .client(client)
            .build()
            .unwrap();
        let c = i.classify(&req, SimTime::from_secs(1));
        let resp = i.respond(&c).expect("probe response");
        assert!(resp.is_uncacheable());
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("new Image()"));
        assert!(body.contains("navigator.userAgent"));
    }

    #[test]
    fn css_probe_serves_empty_uncacheable_css() {
        let mut i = ins();
        let (_, m) = i.instrument_page(HTML, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        let req = Request::builder(Method::Get, m.css_probe.unwrap().to_string())
            .build()
            .unwrap();
        let c = i.classify(&req, SimTime::ZERO);
        let resp = i.respond(&c).unwrap();
        assert_eq!(resp.content_type(), Some("text/css"));
        assert!(resp.body().is_empty());
        assert!(resp.is_uncacheable());
    }

    #[test]
    fn ordinary_traffic_passes_through() {
        let mut i = ins();
        i.instrument_page(HTML, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        let req = Request::builder(Method::Get, "http://site.example/other.html")
            .build()
            .unwrap();
        assert_eq!(i.classify(&req, SimTime::ZERO), Classified::Ordinary);
        assert!(i.respond(&Classified::Ordinary).is_none());
    }

    #[test]
    fn stats_accumulate() {
        let mut i = ins();
        let client = ClientIp::new(1);
        let (_, m) = i.instrument_page(HTML, &page_uri(), client, SimTime::ZERO);
        assert_eq!(i.stats().pages_instrumented, 1);
        assert!(i.stats().html_overhead_bytes > 0);
        let req = Request::builder(Method::Get, m.js_file.unwrap().to_string())
            .client(client)
            .build()
            .unwrap();
        let c = i.classify(&req, SimTime::ZERO);
        i.respond(&c);
        assert!(i.stats().js_bytes_served > 0);
    }

    #[test]
    fn missing_head_and_body_degrade_gracefully() {
        let mut i = ins();
        let bare = "<p>no structure at all</p>";
        let (html, m) = i.instrument_page(bare, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        // Probes still present in the output, tags appended around content.
        assert!(html.contains("rel=\"stylesheet\""));
        assert!(html.contains(&m.hidden_link.unwrap().to_string()));
        assert!(html.contains("no structure at all"));
    }

    #[test]
    fn keys_differ_across_pages_and_clients() {
        let mut i = ins();
        let (_, m1) = i.instrument_page(HTML, &page_uri(), ClientIp::new(1), SimTime::ZERO);
        let (_, m2) = i.instrument_page(HTML, &page_uri(), ClientIp::new(2), SimTime::ZERO);
        assert_ne!(m1.mouse_beacon, m2.mouse_beacon, "fresh key per serve");
        assert_ne!(m1.css_probe, m2.css_probe, "fresh nonce per serve");
    }
}
