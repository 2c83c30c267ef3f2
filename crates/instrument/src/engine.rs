//! The shared, immutable rewrite engine.
//!
//! [`RewriteEngine`] is the PR-4 split of the old monolithic
//! instrumenter: everything that is *not* per-session — the
//! configuration, the HTML rewriter, the script generator, and the probe
//! classifier — with **no interior mutability at all**. Every method is
//! plain `&self` over immutable data, so one engine is shared freely
//! across request threads with no lock, no `RwLock`, not even an atomic.
//!
//! Two design moves make that possible:
//!
//! * **Self-authenticating probe URLs.** The old probe registry
//!   recognized probe traffic by *remembering the nonces it issued* — a
//!   global mutable table on the request path. The engine instead makes
//!   the nonce prove itself: its 64 bits pack a random salt, the probe
//!   kind, and a keyed-hash tag over both (`tag = H(secret, salt,
//!   kind)`), so classification is a recomputation, not a lookup. Probe
//!   URLs still look like ordinary site content (a bare 20-digit name,
//!   exactly as before — the paper's `2031464296.css` camouflage), a
//!   blindly forged nonce has a 2⁻⁴⁰ chance per guess of classifying at
//!   all, and the MAC input includes the full issue hour, so harvested
//!   URLs expire like the old registry's TTL. (The keyed hash is
//!   simulation-grade double splitmix64, not cryptographic — a real
//!   deployment would swap in SipHash/HMAC, same construction.)
//! * **Per-session mutable state.** Issued beacon keys, their decoys,
//!   and the scripts belong to exactly one session, so they live in
//!   that session's [`TokenState`] — colocated with the rest of the
//!   per-key detection state in its tracker shard entry. The engine
//!   only *produces* them ([`RewriteEngine::begin_session_page`] stores
//!   a page's token into the `TokenState` its caller lends it, under
//!   whatever lock the caller already holds).
//! * **Scripts are written when fetched, every time.** A page rewrite
//!   mints the probe URLs and the token but not the ~1 KB obfuscated
//!   script: it draws one 64-bit script seed from the session's stream,
//!   wires the handler name that seed implies into `<body onmousemove>`,
//!   and the token entry keeps the seed (a [`ScriptSeed`], 16 bytes) and
//!   never a source. [`RewriteEngine::object_in_session`] writes the
//!   script from the entry's own key, decoys and seed straight into the
//!   response on every fetch of the `<script src>` URL, allocating
//!   nothing; a page whose script is never fetched never pays for one,
//!   and one that is fetched costs its session no more memory than one
//!   that is not.
//! * **Probe URLs are written where they are injected; the manifest is
//!   derived for callers that read it.** The mint writes each URL
//!   straight into the page's one markup buffer from its nonce (the
//!   site's `http://authority`, then the 20 digits and the extension)
//!   and keeps only the nonces and the token. A [`ProbeManifest`], with
//!   a [`Uri`] per probe, is built from those by
//!   [`crate::FinishedStream::manifest`], for the caller that asks: a
//!   page the front door serves never builds one.

use crate::beacon;
use crate::jsgen::{self, Push, ScriptUrl, ScriptUrls};
use crate::probe::{AutomationReport, ProbeHit, ProbeKind, ProbeObject};
use crate::rewrite::{Classified, InstrumentConfig, ProbeManifest};
use crate::stream::StreamingRewrite;
use crate::token::{BeaconKey, ScriptRecipe, ScriptSeed, TokenState, DECOYS};
use botwall_http::{Request, RequestView, Response, Uri, UriRef};
use botwall_sessions::SimTime;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bits of MAC tag in a probe nonce.
const TAG_BITS: u32 = 40;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// Bits encoding the probe kind.
const KIND_BITS: u32 = 3;
const KIND_MASK: u64 = (1 << KIND_BITS) - 1;
/// The 21-bit salt splits into the issue hour (freshness) and random
/// bits: `[hour:10 | rand:11]`. The *full* (unwrapped) issue hour goes
/// into the MAC input — the nonce only stores its low 10 bits, and the
/// verifier reconstructs the full hour from its own clock — so a
/// harvested nonce stops verifying outside the current/previous hour
/// (the same ~1-hour lifetime the old probe registry enforced by
/// sweeping its nonce table) and does NOT come back when the stamped
/// bits wrap ~43 days later: the reconstructed full hour would differ,
/// and with it the tag.
const HOUR_BITS: u32 = 10;
const HOUR_MASK: u64 = (1 << HOUR_BITS) - 1;
const SALT_RAND_BITS: u32 = 64 - TAG_BITS - KIND_BITS - HOUR_BITS;
const SALT_RAND_MASK: u64 = (1 << SALT_RAND_BITS) - 1;

/// Domain-separation constants for deriving the two engine secrets from
/// the public seed.
const SECRET_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const SECRET_SALT_2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Approximate generated-script size in bytes (paper: ~1 KB).
const JS_TARGET_SIZE: usize = 1024;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit bijection used as
/// the round function of the nonce MAC and for stream-seed derivation.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

fn kind_code(kind: ProbeKind) -> u64 {
    match kind {
        ProbeKind::CssProbe => 0,
        ProbeKind::JsFile => 1,
        ProbeKind::AgentBeacon => 2,
        ProbeKind::MouseBeacon => 3,
        ProbeKind::HiddenLink => 4,
        ProbeKind::TransparentPixel => 5,
    }
}

fn code_kind(code: u64) -> Option<ProbeKind> {
    Some(match code {
        0 => ProbeKind::CssProbe,
        1 => ProbeKind::JsFile,
        2 => ProbeKind::AgentBeacon,
        3 => ProbeKind::MouseBeacon,
        4 => ProbeKind::HiddenLink,
        5 => ProbeKind::TransparentPixel,
        _ => return None,
    })
}

/// What the engine's stateless classifier saw in a request, before any
/// per-session state is consulted.
///
/// This is the pre-lock half of classification: beacon-shaped URLs are
/// recognized by shape only (whether the key is genuine, a decoy, or a
/// replay is the session's [`TokenState`]'s call, made under the
/// session's shard lock), and probe URLs are verified against the
/// engine's keyed-hash nonce scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sighting {
    /// A mouse-beacon-shaped fetch carrying `key` (validity unresolved).
    MouseBeacon(BeaconKey),
    /// A verified probe hit.
    Probe(ProbeHit),
    /// Not instrumentation traffic.
    Ordinary,
}

impl Sighting {
    /// Resolves the sighting against the session it arrived in: a
    /// beacon-shaped fetch redeems its key in the session's `tokens`
    /// (the one stateful step of classification, made under the lock
    /// that guards them); probe hits and ordinary traffic carry over.
    pub fn resolve(&self, tokens: &mut TokenState, now: SimTime) -> Classified {
        match self {
            Sighting::MouseBeacon(key) => Classified::MouseBeacon {
                key: *key,
                outcome: tokens.redeem(*key, now),
            },
            Sighting::Probe(hit) => Classified::Probe(hit.clone()),
            Sighting::Ordinary => Classified::Ordinary,
        }
    }
}

/// The per-page beacon token a rewrite issues: the real key, its decoys,
/// and what the script that references them (served under its probe
/// nonce) will be generated from.
#[derive(Debug, Clone, Copy)]
pub struct IssuedPageToken {
    /// The real 128-bit beacon key.
    pub key: BeaconKey,
    /// The decoy keys embedded alongside it, in the order they were
    /// drawn.
    pub decoys: [BeaconKey; DECOYS],
    /// The nonce of the `<script src>` probe URL.
    pub js_nonce: u64,
    /// The seed of the script served under that nonce; see
    /// [`RewriteEngine::object_in_session`].
    pub script: ScriptSeed,
}

/// Where one page's probe URLs point: `http://authority` in front of
/// every path, or nothing — path-only URLs — when the request named no
/// usable authority.
#[derive(Debug, Clone, Copy)]
struct Site<'a>(Option<&'a str>);

impl<'a> Site<'a> {
    /// The authority arrives in a request line or a `Host` header and
    /// leaves inside an HTML attribute: anything but a plain
    /// `host[:port]` is dropped.
    fn of(authority: Option<&'a str>) -> Site<'a> {
        Site(authority.filter(|a| {
            !a.is_empty()
                && a.len() <= 255
                && a.bytes().all(|b| {
                    b.is_ascii_alphanumeric()
                        || matches!(b, b'.' | b'-' | b'_' | b':' | b'[' | b']')
                })
        }))
    }

    /// How many bytes this site puts in front of every path.
    fn prefix_len(self) -> usize {
        self.0
            .map_or(0, |authority| "http://".len() + authority.len())
    }

    /// Appends the URL of the probe `nonce` of `kind` names, as it goes
    /// into markup.
    fn push_probe(self, out: &mut impl Push, nonce: u64, kind: ProbeKind) {
        self.push_prefix(out);
        push_probe_path(out, nonce, kind);
    }

    /// Appends the URL of `key`'s mouse beacon, as a script fetches it.
    fn push_beacon(self, out: &mut impl Push, key: BeaconKey) {
        self.push_prefix(out);
        out.push_str("/");
        key.push_digits(out);
        out.push_str(".");
        out.push_str(beacon::BEACON_EXT);
    }

    fn push_prefix(self, out: &mut impl Push) {
        if let Some(authority) = self.0 {
            out.push_str("http://");
            out.push_str(authority);
        }
    }

    /// The [`Uri`] of the probe [`Site::push_probe`] writes.
    fn probe(self, nonce: u64, kind: ProbeKind) -> Uri {
        let mut path = String::with_capacity(PROBE_NAME_LEN);
        push_probe_path(&mut path, nonce, kind);
        self.uri(path)
    }

    /// The [`Uri`] of `key`'s mouse beacon.
    fn beacon(self, key: BeaconKey) -> Uri {
        self.uri(beacon::path(key))
    }

    fn uri(self, path: String) -> Uri {
        match self.0 {
            Some(authority) => Uri::absolute(authority, path),
            None => path.parse().expect("probe paths are origin-form"),
        }
    }
}

/// The longest probe path: `/`, 20 digits, `.` and a four-letter
/// extension.
const PROBE_NAME_LEN: usize = 26;

/// Appends `/<nonce as 20 digits>.<ext>`, formatted on the stack.
fn push_probe_path(out: &mut impl Push, nonce: u64, kind: ProbeKind) {
    let mut digits = [b'0'; 20];
    let mut rest = nonce;
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.push_str("/");
    out.push_ascii(&digits);
    out.push_str(".");
    out.push_str(kind.extension());
}

/// The URLs of the script one token entry stands for, on one site:
/// each spelled as the page's manifest spells it.
struct RecipeUrls<'a> {
    site: Site<'a>,
    recipe: ScriptRecipe<'a>,
}

impl ScriptUrls for RecipeUrls<'_> {
    fn decoys(&self) -> usize {
        self.recipe.decoys.len()
    }

    fn push(&self, url: ScriptUrl, out: &mut impl Push) {
        match url {
            ScriptUrl::Mouse => self.site.push_beacon(out, self.recipe.key),
            ScriptUrl::Decoy(i) => self.site.push_beacon(out, self.recipe.decoys[i]),
            ScriptUrl::Agent => {
                let nonce = self.recipe.seed.agent_nonce;
                self.site.push_probe(out, nonce, ProbeKind::AgentBeacon)
            }
        }
    }
}

/// What one mint drew for a page besides the markup it wrote: the nonce
/// of every probe URL and the beacon token, from which
/// [`Minted::manifest`] spells the page's URLs for a caller that reads
/// them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Minted {
    css: Option<u64>,
    pub(crate) token: Option<IssuedPageToken>,
    /// The hidden link's nonce and the pixel's.
    trap: Option<(u64, u64)>,
}

impl Minted {
    /// The manifest of a page `page` minted with this on `authority`'s
    /// site, `html_overhead` bytes of markup: every URL the markup and
    /// the script point at, as [`Uri`]s.
    pub(crate) fn manifest(
        &self,
        page: &Uri,
        authority: Option<&str>,
        html_overhead: usize,
    ) -> ProbeManifest {
        let site = Site::of(authority);
        let probe = |nonce: Option<u64>, kind| nonce.map(|nonce| site.probe(nonce, kind));
        let token = self.token.as_ref();
        ProbeManifest {
            page: page.clone(),
            js_file: probe(token.map(|t| t.js_nonce), ProbeKind::JsFile),
            agent_beacon: probe(token.map(|t| t.script.agent_nonce), ProbeKind::AgentBeacon),
            mouse_beacon: token.map(|t| site.beacon(t.key)),
            decoy_beacons: token.map_or_else(Vec::new, |t| {
                t.decoys.iter().map(|d| site.beacon(*d)).collect()
            }),
            css_probe: probe(self.css, ProbeKind::CssProbe),
            hidden_link: probe(self.trap.map(|(link, _)| link), ProbeKind::HiddenLink),
            transparent_pixel: probe(
                self.trap.map(|(_, pixel)| pixel),
                ProbeKind::TransparentPixel,
            ),
            html_overhead,
        }
    }
}

/// The immutable page-rewriting and probe-classifying engine.
///
/// # Examples
///
/// ```
/// use botwall_http::{Method, Request};
/// use botwall_instrument::{InstrumentConfig, RewriteEngine, TokenState};
/// use botwall_sessions::SimTime;
///
/// let engine = RewriteEngine::new(InstrumentConfig::default(), 7);
/// let page = Request::builder(Method::Get, "/index.html")
///     .header("Host", "site.example")
///     .build()
///     .unwrap();
/// let mut tokens = TokenState::default();
/// // 1234: the session's stream seed, asked for on each page.
/// let mut stream = engine.begin_session_page(&page, &mut tokens, || 1234, SimTime::ZERO);
/// assert_eq!(tokens.len(), 1, "the token is in before a body byte");
/// let mut html = Vec::new();
/// stream.write(b"<html><head></head><body></body></html>", &mut html);
/// let finished = stream.finish(&mut html);
/// let html = String::from_utf8(html).unwrap();
/// assert!(html.contains("onmousemove"));
/// assert!(html.contains("href=\"http://site.example/"));
/// let manifest = finished.manifest(page.uri(), page.authority().as_deref());
/// assert!(manifest.mouse_beacon.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RewriteEngine {
    config: InstrumentConfig,
    secret: u64,
    secret2: u64,
}

impl RewriteEngine {
    /// Creates an engine; `seed` keys the nonce MAC and every derived
    /// per-session RNG stream.
    pub fn new(config: InstrumentConfig, seed: u64) -> RewriteEngine {
        RewriteEngine {
            config,
            secret: mix64(seed ^ SECRET_SALT),
            secret2: mix64(seed.rotate_left(31) ^ SECRET_SALT_2),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &InstrumentConfig {
        &self.config
    }

    /// Derives the deterministic RNG stream seed for one session
    /// incarnation, from the engine secret and the session's identity
    /// (key hash + start time). Identical runs derive identical streams;
    /// distinct sessions never share one.
    pub fn session_stream_seed(&self, key_hash: u64, started: SimTime) -> u64 {
        mix64(self.secret ^ key_hash.rotate_left(17) ^ started.as_millis())
    }

    /// The nonce MAC: two keyed splitmix64 rounds over the random bits,
    /// the kind, and the **full** (unwrapped) issue hour, truncated to
    /// the tag width. Two independently derived secrets sandwich the
    /// rounds, so inverting the (public) bijection from a truncated tag
    /// does not fall out to a small enumeration the way a single
    /// `mix64(secret ^ input)` would — recovering the key pair from
    /// harvested nonces requires a 64-bit search per candidate pair.
    /// Still simulation-grade, not cryptographic: a production build
    /// would drop in SipHash/HMAC here, same shape.
    fn nonce_tag(&self, rand_bits: u64, code: u64, full_hour: u64) -> u64 {
        let input = (full_hour << (SALT_RAND_BITS + KIND_BITS)) ^ (rand_bits << KIND_BITS) ^ code;
        mix64(mix64(input ^ self.secret) ^ self.secret2) & TAG_MASK
    }

    /// Mints a self-authenticating probe nonce of `kind`, stamped with
    /// the issue hour.
    fn probe_nonce<R: Rng>(&self, kind: ProbeKind, now: SimTime, rng: &mut R) -> u64 {
        let full_hour = now.as_millis() / 3_600_000;
        let rand_bits = rng.gen::<u64>() & SALT_RAND_MASK;
        let salt = ((full_hour & HOUR_MASK) << SALT_RAND_BITS) | rand_bits;
        let code = kind_code(kind);
        (salt << (TAG_BITS + KIND_BITS))
            | (code << TAG_BITS)
            | self.nonce_tag(rand_bits, code, full_hour)
    }

    /// Recomputes the MAC for a candidate nonce and checks its
    /// freshness; `Some(kind)` iff this engine minted it within the
    /// current or previous hour of `now`. The full issue hour is
    /// reconstructed from the verifier's clock (the nonce carries only
    /// its low bits), so a stale nonce fails the tag check outright —
    /// including after the stamped bits wrap.
    fn verify_nonce(&self, nonce: u64, now: SimTime) -> Option<ProbeKind> {
        let salt = nonce >> (TAG_BITS + KIND_BITS);
        let code = (nonce >> TAG_BITS) & KIND_MASK;
        let kind = code_kind(code)?;
        let rand_bits = salt & SALT_RAND_MASK;
        let stamped = salt >> SALT_RAND_BITS;
        let tag = nonce & TAG_MASK;
        let hour = now.as_millis() / 3_600_000;
        let fresh = [hour, hour.wrapping_sub(1)].into_iter().any(|candidate| {
            candidate & HOUR_MASK == stamped && self.nonce_tag(rand_bits, code, candidate) == tag
        });
        fresh.then_some(kind)
    }

    /// Classifies a request against the instrumentation scheme without
    /// touching any mutable state — the engine's whole contribution to
    /// the hot path happens before any lock is taken. Probe nonces
    /// older than their freshness window (~1 hour, like the old
    /// registry's TTL) read as ordinary traffic: a harvested probe URL
    /// stops earning browser-signal evidence.
    pub fn classify(&self, request: &Request, now: SimTime) -> Sighting {
        self.sight(request.uri().view(), now)
    }

    /// [`RewriteEngine::classify`] for a request read in place.
    pub fn classify_view(&self, request: &RequestView<'_>, now: SimTime) -> Sighting {
        self.sight(*request.uri(), now)
    }

    /// Classification reads the target and nothing else.
    fn sight(&self, uri: UriRef<'_>, now: SimTime) -> Sighting {
        if let Some(key) = beacon::decode_name(uri.file_name()) {
            return Sighting::MouseBeacon(key);
        }
        let name = uri.file_name();
        let Some((stem, ext)) = name.rsplit_once('.') else {
            return Sighting::Ordinary;
        };
        if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
            return Sighting::Ordinary;
        }
        let Ok(nonce) = stem.parse::<u64>() else {
            return Sighting::Ordinary;
        };
        let Some(kind) = self.verify_nonce(nonce, now) else {
            return Sighting::Ordinary;
        };
        if kind.extension() != ext {
            return Sighting::Ordinary;
        }
        let (reported_agent, automation) = if kind == ProbeKind::AgentBeacon {
            let param = |name: &str| {
                uri.query().and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix(name))
                        .map(|v| v.to_string())
                })
            };
            let agent = param("agent=");
            // The webdriver and plugin-count parameters travel together;
            // both must parse for the report to count.
            let automation = match (
                param("wd=").and_then(|v| v.parse::<u8>().ok()),
                param("pl=").and_then(|v| v.parse::<u32>().ok()),
            ) {
                (Some(wd), Some(plugins)) => Some(AutomationReport {
                    webdriver: wd != 0,
                    plugins,
                }),
                _ => None,
            };
            (agent, automation)
        } else {
            (None, None)
        };
        Sighting::Probe(ProbeHit {
            kind,
            nonce,
            reported_agent,
            automation,
        })
    }

    /// Begins a streaming page rewrite: mints this page's probes, beacon
    /// token and script seed up front (drawing all randomness from
    /// `rng`), and returns a [`StreamingRewrite`] to feed origin chunks
    /// through. The issued token is available immediately via
    /// [`StreamingRewrite::token`] — streaming callers store it in the
    /// session *before* the body has streamed, so a probe fetched by a
    /// fast browser mid-stream already redeems. Probe URLs point at
    /// `page`'s authority (path-only when it has none).
    pub fn begin_stream<R: Rng>(&self, page: &Uri, now: SimTime, rng: &mut R) -> StreamingRewrite {
        self.mint(page.authority().as_deref(), now, rng)
    }

    /// [`RewriteEngine::begin_stream`] for the page `request` asked for,
    /// into the session it was asked in: the randomness comes from the
    /// session's own stream (reseeded from `stream_seed()` and moved past
    /// what the session's earlier pages drew), the probe URLs point at
    /// [`Request::authority`] (a browser talking to a reverse proxy names
    /// the site in its `Host` header, not in the request target), and the
    /// issued token — its script still a seed — is in `tokens` before a
    /// body byte has gone through, so a probe fetched mid-stream already
    /// redeems. Designed to run inside the session's shard critical
    /// section, touching nothing shared.
    pub fn begin_session_page(
        &self,
        request: &Request,
        tokens: &mut TokenState,
        stream_seed: impl FnOnce() -> u64,
        now: SimTime,
    ) -> StreamingRewrite {
        let stream = tokens.draw(stream_seed, |rng| {
            self.mint(request.authority().as_deref(), now, rng)
        });
        // The stream keeps its own: a manifest derived later spells the
        // decoy URLs from it.
        if let Some(token) = stream.token() {
            tokens.issue_page(*token, now);
        }
        stream
    }

    /// Draws this page's probes and token from `rng` and writes the
    /// markup that carries them, every probe URL on `authority`'s site
    /// written in place from its nonce.
    fn mint<R: Rng>(&self, authority: Option<&str>, now: SimTime, rng: &mut R) -> StreamingRewrite {
        let site = Site::of(authority);
        let mut minted = Minted::default();
        // Four URLs, and under 200 bytes of tags and handler name.
        let mut markup = String::with_capacity(200 + 4 * (site.prefix_len() + PROBE_NAME_LEN));
        if self.config.css_probe {
            let nonce = self.probe_nonce(ProbeKind::CssProbe, now, rng);
            markup.push_str("<link rel=\"stylesheet\" type=\"text/css\" href=\"");
            site.push_probe(&mut markup, nonce, ProbeKind::CssProbe);
            markup.push_str("\">\n");
            minted.css = Some(nonce);
        }
        if self.config.mouse_beacon {
            let key = BeaconKey::random(rng);
            // Drawn in index order, after the key.
            let decoys: [BeaconKey; DECOYS] = std::array::from_fn(|_| BeaconKey::random(rng));
            let agent_nonce = self.probe_nonce(ProbeKind::AgentBeacon, now, rng);
            let js_nonce = self.probe_nonce(ProbeKind::JsFile, now, rng);
            // The script itself is written by each fetch of its URL;
            // the page only needs the name of the handler it defines.
            let script = ScriptSeed {
                seed: rng.gen(),
                agent_nonce,
            };
            markup.push_str("<script language=\"javascript\" src=\"");
            site.push_probe(&mut markup, js_nonce, ProbeKind::JsFile);
            markup.push_str("\"></script>\n");
            minted.token = Some(IssuedPageToken {
                key,
                decoys,
                js_nonce,
                script,
            });
        }
        let attr = markup.len();
        if let Some(token) = &minted.token {
            markup.push_str(" onmousemove=\"return ");
            jsgen::handler_name(token.script.seed, self.config.obfuscation, &mut markup);
            markup.push_str("();\"");
        }
        let body = markup.len();
        if self.config.hidden_link {
            let link = self.probe_nonce(ProbeKind::HiddenLink, now, rng);
            let pixel = self.probe_nonce(ProbeKind::TransparentPixel, now, rng);
            markup.push_str("<a href=\"");
            site.push_probe(&mut markup, link, ProbeKind::HiddenLink);
            markup.push_str("\"><img src=\"");
            site.push_probe(&mut markup, pixel, ProbeKind::TransparentPixel);
            markup.push_str("\" width=\"1\" height=\"1\" border=\"0\"></a>\n");
            minted.trap = Some((link, pixel));
        }
        StreamingRewrite::new(markup, attr, body, minted)
    }

    /// Appends to `out` the answer instrumentation traffic gets inside
    /// the session `request` arrived in, `close` deciding its
    /// `Connection` line ([`ProbeObject::write`]): a JS-file hit's body is
    /// the script written from the session's own `tokens` entry for its
    /// nonce — the same bytes on every fetch, its URLs on the authority
    /// `request` was addressed to (the one the page's `<script src>`
    /// sent the browser to); empty when they hold
    /// no entry for the nonce live at `now`
    /// ([`crate::token::TOKEN_LIFETIME_MS`]). Anything else gets its
    /// fixed bytes. Returns what was written; `None`, with nothing
    /// written, for ordinary traffic.
    pub fn object_in_session(
        &self,
        classified: &Classified,
        tokens: &TokenState,
        request: &RequestView<'_>,
        now: SimTime,
        close: bool,
        out: &mut Vec<u8>,
    ) -> Option<ProbeObject> {
        ProbeObject::write(classified, close, out, |out| {
            let Classified::Probe(hit) = classified else {
                return;
            };
            let Some(recipe) = tokens.script_for(hit.nonce, now) else {
                return;
            };
            let authority = request.authority();
            let urls = RecipeUrls {
                site: Site::of(authority.as_deref()),
                recipe,
            };
            // Room for the script and its answer's head at once, not
            // grown piece by piece: the default one is ~1.85 KB, and each
            // decoy adds ~250 bytes.
            out.reserve(JS_TARGET_SIZE + 256 * (recipe.decoys.len() + 2));
            let mut rng = ChaCha8Rng::seed_from_u64(recipe.seed.seed);
            jsgen::write(
                &urls,
                self.config.obfuscation,
                JS_TARGET_SIZE,
                &mut rng,
                out,
            );
        })
    }

    /// Marks a page response uncacheable, as §2.1 requires for rewritten
    /// pages and probe objects.
    pub fn mark_uncacheable(response: &mut Response) {
        response
            .headers_mut()
            .set("Cache-Control", "no-cache, no-store");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsgen::JsSpec;
    use crate::Obfuscation;
    use botwall_http::request::ClientIp;
    use botwall_http::Method;
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const HTML: &str = "<html><head><title>t</title></head><body><p>content</p></body></html>";

    fn engine() -> RewriteEngine {
        RewriteEngine::new(InstrumentConfig::default(), 77)
    }

    fn page_request() -> Request {
        get("http://site.example/index.html")
    }

    /// `html`, held whole, served into the session that owns `tokens`
    /// as a stream of one chunk, and the manifest derived.
    fn session_page(
        e: &RewriteEngine,
        html: &str,
        page: &Request,
        tokens: &mut TokenState,
        stream_seed: u64,
        now: SimTime,
    ) -> (String, ProbeManifest) {
        let mut stream = e.begin_session_page(page, tokens, || stream_seed, now);
        let mut out = Vec::new();
        stream.write(html.as_bytes(), &mut out);
        let finished = stream.finish(&mut out);
        let manifest = finished.manifest(page.uri(), page.authority().as_deref());
        (String::from_utf8(out).unwrap(), manifest)
    }

    impl RewriteEngine {
        /// A fresh probe URL of `kind` on `site`, and its nonce.
        fn probe_url<R: Rng>(
            &self,
            kind: ProbeKind,
            site: Site<'_>,
            now: SimTime,
            rng: &mut R,
        ) -> (Uri, u64) {
            let nonce = self.probe_nonce(kind, now, rng);
            (site.probe(nonce, kind), nonce)
        }
    }

    fn get(uri: &str) -> Request {
        Request::builder(Method::Get, uri)
            .client(ClientIp::new(1))
            .build()
            .unwrap()
    }

    #[test]
    fn nonces_round_trip_for_every_kind() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for kind in [
            ProbeKind::CssProbe,
            ProbeKind::JsFile,
            ProbeKind::AgentBeacon,
            ProbeKind::MouseBeacon,
            ProbeKind::HiddenLink,
            ProbeKind::TransparentPixel,
        ] {
            for _ in 0..50 {
                let nonce = e.probe_nonce(kind, SimTime::ZERO, &mut rng);
                assert_eq!(e.verify_nonce(nonce, SimTime::ZERO), Some(kind));
            }
        }
    }

    #[test]
    fn classify_recognizes_issued_probe_urls() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for kind in [
            ProbeKind::CssProbe,
            ProbeKind::JsFile,
            ProbeKind::AgentBeacon,
            ProbeKind::HiddenLink,
            ProbeKind::TransparentPixel,
        ] {
            let (url, nonce) = e.probe_url(kind, Site(Some("h.example")), SimTime::ZERO, &mut rng);
            match e.classify(&get(&url.to_string()), SimTime::ZERO) {
                Sighting::Probe(hit) => {
                    assert_eq!(hit.kind, kind);
                    assert_eq!(hit.nonce, nonce);
                }
                other => panic!("{kind:?} misclassified: {other:?}"),
            }
        }
    }

    #[test]
    fn forged_and_foreign_nonces_stay_ordinary() {
        let e = engine();
        // Random 20-digit names do not verify.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let forged: u64 = rng.gen();
            let req = get(&format!("http://h/{forged:020}.css"));
            assert_eq!(
                e.classify(&req, SimTime::ZERO),
                Sighting::Ordinary,
                "forged {forged}"
            );
        }
        // Another engine's genuine nonces do not verify here.
        let other = RewriteEngine::new(InstrumentConfig::default(), 78);
        let (url, _) = other.probe_url(
            ProbeKind::CssProbe,
            Site(Some("h")),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(
            e.classify(&get(&url.to_string()), SimTime::ZERO),
            Sighting::Ordinary
        );
        // Ordinary site content stays ordinary.
        for u in [
            "http://h/index.html",
            "http://h/12345.css",
            "http://h/style.css",
        ] {
            assert_eq!(
                e.classify(&get(u), SimTime::ZERO),
                Sighting::Ordinary,
                "{u}"
            );
        }
    }

    #[test]
    fn wrong_extension_is_rejected() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (url, _) = e.probe_url(
            ProbeKind::CssProbe,
            Site(Some("h")),
            SimTime::ZERO,
            &mut rng,
        );
        let forged = url.to_string().replace(".css", ".html");
        assert_eq!(e.classify(&get(&forged), SimTime::ZERO), Sighting::Ordinary);
    }

    #[test]
    fn harvested_probe_urls_expire_like_the_old_registry_ttl() {
        // A probe URL scraped from an instrumented page must stop
        // classifying (and thus stop earning browser-signal evidence)
        // after its freshness window, even though no table remembers it.
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let issued_at = SimTime::from_hours(5);
        let (url, _) = e.probe_url(ProbeKind::CssProbe, Site(Some("h")), issued_at, &mut rng);
        let req = get(&url.to_string());
        // Fresh (same hour) and grace (next hour): classifies.
        assert!(matches!(
            e.classify(&req, issued_at + 1),
            Sighting::Probe(_)
        ));
        assert!(matches!(
            e.classify(&req, SimTime::from_hours(6) + 1),
            Sighting::Probe(_)
        ));
        // Two hours on: a replayed URL reads as ordinary traffic.
        assert_eq!(
            e.classify(&req, SimTime::from_hours(7) + 1),
            Sighting::Ordinary
        );
        assert_eq!(
            e.classify(&req, SimTime::from_hours(72)),
            Sighting::Ordinary
        );
        // And a nonce "from the future" (clock skew / fabrication) does
        // not classify either.
        assert_eq!(e.classify(&req, SimTime::from_hours(4)), Sighting::Ordinary);
    }

    #[test]
    fn agent_beacon_carries_reported_agent() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (url, _) = e.probe_url(
            ProbeKind::AgentBeacon,
            Site(Some("h")),
            SimTime::ZERO,
            &mut rng,
        );
        let with_agent = format!("{url}?agent=mozilla/4.0(compatible;msie6.0)");
        match e.classify(&get(&with_agent), SimTime::ZERO) {
            Sighting::Probe(hit) => assert_eq!(
                hit.reported_agent.as_deref(),
                Some("mozilla/4.0(compatible;msie6.0)")
            ),
            other => panic!("{other:?}"),
        }
        match e.classify(&get(&url.to_string()), SimTime::ZERO) {
            Sighting::Probe(hit) => assert_eq!(hit.reported_agent, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn agent_beacon_carries_automation_report() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (url, _) = e.probe_url(
            ProbeKind::AgentBeacon,
            Site(Some("h")),
            SimTime::ZERO,
            &mut rng,
        );
        // A leaky automation framework: webdriver on, empty plugin list.
        let leaky = format!("{url}?agent=mozilla/5.0&wd=1&pl=0");
        match e.classify(&get(&leaky), SimTime::ZERO) {
            Sighting::Probe(hit) => assert_eq!(
                hit.automation,
                Some(AutomationReport {
                    webdriver: true,
                    plugins: 0
                })
            ),
            other => panic!("{other:?}"),
        }
        // A real browser: webdriver off, plugins present.
        let clean = format!("{url}?agent=mozilla/5.0&wd=0&pl=3");
        match e.classify(&get(&clean), SimTime::ZERO) {
            Sighting::Probe(hit) => assert_eq!(
                hit.automation,
                Some(AutomationReport {
                    webdriver: false,
                    plugins: 3
                })
            ),
            other => panic!("{other:?}"),
        }
        // Pre-upgrade beacons (no wd/pl params) and half reports omit it.
        let legacy = format!("{url}?agent=mozilla/5.0");
        match e.classify(&get(&legacy), SimTime::ZERO) {
            Sighting::Probe(hit) => assert_eq!(hit.automation, None),
            other => panic!("{other:?}"),
        }
        let half = format!("{url}?agent=mozilla/5.0&wd=1");
        match e.classify(&get(&half), SimTime::ZERO) {
            Sighting::Probe(hit) => assert_eq!(hit.automation, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn beacon_shaped_urls_are_sighted_by_shape_only() {
        let e = engine();
        let key = BeaconKey::from_raw(0xabc);
        let url = beacon::encode("h", key);
        assert_eq!(
            e.classify(&get(&url.to_string()), SimTime::ZERO),
            Sighting::MouseBeacon(key)
        );
    }

    #[test]
    fn probe_urls_look_ordinary() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let site = Site(Some("www.example.com"));
        let (url, _) = e.probe_url(ProbeKind::CssProbe, site, SimTime::ZERO, &mut rng);
        let s = url.to_string();
        assert!(s.starts_with("http://www.example.com/"));
        assert!(s.ends_with(".css"));
        assert!(!s.contains("probe"), "no give-away in the URL: {s}");
        assert_eq!(url.file_name().len(), 20 + 4);
    }

    #[test]
    fn session_page_stores_token_and_script_in_the_session() {
        let e = engine();
        let mut tokens = TokenState::default();
        let (html, m) = session_page(&e, HTML, &page_request(), &mut tokens, 99, SimTime::ZERO);
        assert!(html.contains("onmousemove=\"return "));
        assert_eq!(tokens.len(), 1);
        // The beacon key redeems against the session state.
        let key = beacon::decode(m.mouse_beacon.as_ref().unwrap()).unwrap();
        assert_eq!(
            tokens.redeem(key, SimTime::from_secs(1)),
            crate::KeyOutcome::Valid
        );
        // The script is retrievable by its nonce.
        let fetch = get(&m.js_file.as_ref().unwrap().to_string());
        let src = fetched(&e, &tokens, js_nonce(&m), &fetch).expect("script seeded");
        assert!(src.contains("new Image()"));
        assert_eq!(fetched(&e, &tokens, js_nonce(&m) ^ 1, &fetch), None);
    }

    /// The script a fetch of `nonce` is answered with, if the session
    /// holds one: the body of the gate's answer to a JS-file hit.
    fn fetched(
        e: &RewriteEngine,
        tokens: &TokenState,
        nonce: u64,
        fetch: &Request,
    ) -> Option<String> {
        let hit = Classified::Probe(ProbeHit {
            kind: ProbeKind::JsFile,
            nonce,
            reported_agent: None,
            automation: None,
        });
        let mut out = Vec::new();
        let object = e
            .object_in_session(&hit, tokens, &fetch.view(), SimTime::ZERO, false, &mut out)
            .expect("a JS-file hit is answered");
        let body = object.to_response(&out).body().to_vec();
        (!body.is_empty()).then(|| String::from_utf8(body).unwrap())
    }

    fn js_nonce(m: &ProbeManifest) -> u64 {
        let name = m.js_file.as_ref().unwrap().file_name();
        name.rsplit_once('.').unwrap().0.parse().unwrap()
    }

    /// A page request as a browser behind a reverse proxy sends it.
    fn origin_form(path: &str, host: Option<&str>) -> Request {
        let mut b = Request::builder(Method::Get, path).client(ClientIp::new(1));
        if let Some(host) = host {
            b = b.header("Host", host);
        }
        b.build().unwrap()
    }

    proptest! {
        #[test]
        fn the_script_served_on_fetch_is_the_one_eager_generation_built(
            engine_seed in any::<u64>(),
            stream_seed in any::<u64>(),
            obfuscation in prop_oneof![
                Just(Obfuscation::None),
                Just(Obfuscation::Lexical),
                Just(Obfuscation::SplitStrings),
            ],
        ) {
            let config = InstrumentConfig { obfuscation, ..InstrumentConfig::default() };
            let e = RewriteEngine::new(config, engine_seed);
            let page = origin_form("/index.html", Some("shop.example.org"));
            let mut tokens = TokenState::default();
            let (html, m) = session_page(&e, HTML, &page, &mut tokens, stream_seed, SimTime::ZERO);

            // What the page rewrite used to do on the spot: `generate`
            // over the same URLs and an rng on the same seed (read off
            // a second mint from the same session stream).
            let token = e
                .begin_stream(page.uri(), SimTime::ZERO, &mut ChaCha8Rng::seed_from_u64(stream_seed))
                .token()
                .cloned()
                .unwrap();
            let spec = JsSpec {
                mouse_beacon: m.mouse_beacon.clone().unwrap(),
                decoys: m.decoy_beacons.clone(),
                agent_beacon: m.agent_beacon.clone().unwrap(),
                obfuscation,
                target_size: JS_TARGET_SIZE,
            };
            let eager = jsgen::oracle::generate(&spec, &mut ChaCha8Rng::seed_from_u64(token.script.seed));

            let fetch = origin_form(m.js_file.as_ref().unwrap().path(), Some("shop.example.org"));
            let served = fetched(&e, &tokens, js_nonce(&m), &fetch).unwrap();
            prop_assert_eq!(&served, &eager.source);
            // The page wired the handler this script defines.
            prop_assert!(html.contains(&format!(" onmousemove=\"return {}();\"", eager.handler_name)));
            prop_assert!(served.contains(&format!("function {}()", eager.handler_name)));
            // Every URL the manifest promises is in it (whole, unless
            // the obfuscation level splits literals).
            if obfuscation != Obfuscation::SplitStrings {
                let urls = m.decoy_beacons.iter().chain(&m.mouse_beacon).chain(&m.agent_beacon);
                for url in urls {
                    prop_assert!(served.contains(&format!("'{url}'")), "{url} missing");
                }
            }
        }
    }

    proptest! {
        /// The writer against the generator it replaced, kept as the
        /// oracle: for any seed, obfuscation, decoy count, padding target
        /// and authority a page's URLs may be on, the same bytes and the
        /// same handler, appended after whatever the buffer held.
        #[test]
        fn the_script_writer_is_the_generator_it_replaced(
            seed in any::<u64>(),
            obfuscation in prop_oneof![
                Just(Obfuscation::None),
                Just(Obfuscation::Lexical),
                Just(Obfuscation::SplitStrings),
            ],
            key in any::<u128>(),
            decoys in proptest::collection::vec(any::<u128>(), 0..=20),
            agent_nonce in any::<u64>(),
            target_size in 0usize..=4096,
            authority in proptest::option::of(
                "([a-z0-9.-]{1,60}(:[0-9]{1,5})?|[a-zA-Z0-9._:\\[\\]-]{1,255})"
            ),
        ) {
            let site = Site::of(authority.as_deref());
            prop_assert_eq!(site.0, authority.as_deref(), "a plain host[:port] is kept");
            let decoys: Vec<BeaconKey> = decoys.into_iter().map(BeaconKey::from_raw).collect();
            let recipe = ScriptRecipe {
                key: BeaconKey::from_raw(key),
                decoys: &decoys,
                seed: ScriptSeed { seed, agent_nonce },
            };
            let mut written = b"earlier".to_vec();
            let handler = jsgen::write(
                &RecipeUrls { site, recipe },
                obfuscation,
                target_size,
                &mut ChaCha8Rng::seed_from_u64(seed),
                &mut written,
            );
            let spec = JsSpec {
                mouse_beacon: site.beacon(recipe.key),
                decoys: decoys.iter().map(|d| site.beacon(*d)).collect(),
                agent_beacon: site.probe(agent_nonce, ProbeKind::AgentBeacon),
                obfuscation,
                target_size,
            };
            let oracle = jsgen::oracle::generate(&spec, &mut ChaCha8Rng::seed_from_u64(seed));
            prop_assert_eq!(&written[..7], b"earlier");
            prop_assert_eq!(std::str::from_utf8(&written[7..]).unwrap(), oracle.source.as_str());
            prop_assert_eq!(handler.as_str(), oracle.handler_name.as_str());
        }
    }

    #[test]
    fn a_refetch_is_byte_identical_to_the_first_fetch() {
        let e = engine();
        let mut tokens = TokenState::default();
        let (_, m) = session_page(&e, HTML, &page_request(), &mut tokens, 3, SimTime::ZERO);
        let fetch = get(&m.js_file.as_ref().unwrap().to_string());
        let first = fetched(&e, &tokens, js_nonce(&m), &fetch).unwrap();
        for _ in 0..3 {
            assert_eq!(
                fetched(&e, &tokens, js_nonce(&m), &fetch),
                Some(first.clone())
            );
        }
        // Through the whole answer too: the same bytes behind the same head.
        let Sighting::Probe(hit) = e.classify(&fetch, SimTime::ZERO) else {
            panic!("the script URL is a probe");
        };
        let classified = Classified::Probe(hit);
        let answer = || {
            let mut out = Vec::new();
            e.object_in_session(
                &classified,
                &tokens,
                &fetch.view(),
                SimTime::ZERO,
                false,
                &mut out,
            )
            .unwrap();
            out
        };
        let once = answer();
        assert!(once.ends_with(first.as_bytes()));
        assert_eq!(answer(), once);
    }

    #[test]
    fn an_entry_holds_no_script_bytes_after_a_fetch() {
        let e = engine();
        let mut tokens = TokenState::default();
        let page = origin_form("/catalogue/page.html", Some("shop.example.org"));
        let mut pages = Vec::new();
        for i in 0..64 {
            let (_, m) = session_page(&e, HTML, &page, &mut tokens, 3, SimTime::from_secs(i));
            pages.push(m);
        }
        assert_eq!(tokens.len(), 64);
        let seeded = tokens.heap_bytes();
        assert!(seeded < 16 * 1024, "64 seeded entries weigh {seeded} B");
        // Every page's script fetched, twice: the entries weigh what
        // they did.
        for m in pages.iter().chain(&pages) {
            let fetch = origin_form(m.js_file.as_ref().unwrap().path(), Some("shop.example.org"));
            assert!(fetched(&e, &tokens, js_nonce(m), &fetch).unwrap().len() > JS_TARGET_SIZE);
        }
        assert_eq!(tokens.heap_bytes(), seeded);
    }

    #[test]
    fn probe_urls_follow_the_host_header_or_go_path_only() {
        let e = engine();
        // Every double-quoted URL whose file name is a 20-digit nonce.
        let urls_of = |html: &str| -> Vec<String> {
            html.split('"')
                .filter(|quoted| {
                    let name = quoted.rsplit('/').next().unwrap_or("");
                    name.split_once('.').is_some_and(|(stem, _)| {
                        stem.len() == 20 && stem.bytes().all(|b| b.is_ascii_digit())
                    })
                })
                .map(str::to_string)
                .collect()
        };
        let mut tokens = TokenState::default();
        let page = origin_form("/index.html", Some("shop.example.org:8080"));
        let (html, m) = session_page(&e, HTML, &page, &mut tokens, 1, SimTime::ZERO);
        let urls = urls_of(&html);
        assert_eq!(urls.len(), 4, "{html}");
        assert!(
            urls.iter()
                .all(|u| u.starts_with("http://shop.example.org:8080/")),
            "{urls:?}"
        );
        let css = m.css_probe.as_ref().unwrap();
        assert_eq!(
            (css.host(), css.port()),
            (Some("shop.example.org"), Some(8080))
        );
        assert!(html.contains(&format!("href=\"{css}\"")));
        let fetch = origin_form(
            m.js_file.as_ref().unwrap().path(),
            Some("shop.example.org:8080"),
        );
        let script = fetched(&e, &tokens, js_nonce(&m), &fetch).unwrap();
        assert!(script.contains(&format!("'{}'", m.mouse_beacon.as_ref().unwrap())));
        assert!(!script.contains("unknown.example"));

        // No authority anywhere (HTTP/1.0 without Host), or one that is
        // not a plain host[:port]: path-only URLs, which a browser
        // resolves against whatever it did connect to.
        for host in [None, Some("evil\"><script>alert(1)</script>"), Some("")] {
            let mut tokens = TokenState::default();
            let page = origin_form("/index.html", host);
            let (html, m) = session_page(&e, HTML, &page, &mut tokens, 1, SimTime::ZERO);
            assert!(!html.contains("alert(1)"), "{html}");
            let urls = urls_of(&html);
            assert_eq!(urls.len(), 4, "{html}");
            assert!(urls.iter().all(|u| u.starts_with('/')), "{urls:?}");
            assert_eq!(m.css_probe.as_ref().unwrap().host(), None);
            let fetch = origin_form(m.js_file.as_ref().unwrap().path(), host);
            assert!(matches!(
                e.classify(&fetch, SimTime::ZERO),
                Sighting::Probe(_)
            ));
            let script = fetched(&e, &tokens, js_nonce(&m), &fetch).unwrap();
            assert!(script.contains(&format!("'{}'", m.mouse_beacon.as_ref().unwrap().path())));
            assert!(!script.contains("alert(1)"));
        }
    }

    #[test]
    fn identical_stream_seeds_rewrite_identically() {
        let e = engine();
        let run = |seed| {
            let mut tokens = TokenState::default();
            session_page(&e, HTML, &page_request(), &mut tokens, seed, SimTime::ZERO)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1.mouse_beacon, run(6).1.mouse_beacon);
    }

    #[test]
    fn respond_serves_probe_payloads() {
        let e = engine();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (url, _) = e.probe_url(
            ProbeKind::CssProbe,
            Site(Some("h")),
            SimTime::ZERO,
            &mut rng,
        );
        let Sighting::Probe(hit) = e.classify(&get(&url.to_string()), SimTime::ZERO) else {
            panic!("probe expected");
        };
        let (request, tokens) = (get(&url.to_string()), TokenState::default());
        let mut out = Vec::new();
        let resp = e
            .object_in_session(
                &Classified::Probe(hit),
                &tokens,
                &request.view(),
                SimTime::ZERO,
                false,
                &mut out,
            )
            .map(|o| o.to_response(&out))
            .unwrap();
        assert_eq!(resp.content_type(), Some("text/css"));
        assert!(resp.body().is_empty());
        assert!(resp.is_uncacheable());
        out.clear();
        let ordinary = e.object_in_session(
            &Classified::Ordinary,
            &tokens,
            &request.view(),
            SimTime::ZERO,
            false,
            &mut out,
        );
        assert!(ordinary.is_none() && out.is_empty());
    }

    #[test]
    fn session_stream_seeds_differ_across_sessions_and_incarnations() {
        let e = engine();
        let a = e.session_stream_seed(1, SimTime::ZERO);
        let b = e.session_stream_seed(2, SimTime::ZERO);
        let c = e.session_stream_seed(1, SimTime::from_secs(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, e.session_stream_seed(1, SimTime::ZERO));
    }
}
