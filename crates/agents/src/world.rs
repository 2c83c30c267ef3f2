//! The client-side view of the network: what an agent can do.
//!
//! Agents run against a [`ClientWorld`]. The world exposes exactly what a
//! real client sees: it can fetch URLs, wait, and be offered a CAPTCHA.
//! Crucially, a fetched page comes back in *two* forms — the raw HTML
//! bytes (what a scanning robot greps) and a structured [`PageView`]
//! (what a rendering browser's DOM exposes) — so human models and
//! byte-level robots exercise genuinely different paths through the
//! instrumentation.
//!
//! [`Client`] is the one world, wherever an agent runs in process (a
//! CoDeeN node of `botwall-codeen`, the examples' protected site,
//! [`crate::testutil::MockWorld`]): a client of a [`Gateway`] (the gate,
//! the rewriter and the detector `botwall-serve` runs) in front of the
//! webgraph origin ([`resolve_origin`]), so an agent is measured against
//! the deployed detector. A client also keeps the log the offline study
//! reads (§4.1: AdaBoost over logged sessions): a [`RequestRecord`] of
//! each exchange, built from the response the gateway returned by the
//! same [`SeenUrls::record`] step the gateway's session folds, so the
//! live table keeps only counts and the log costs the simulation alone.

use crate::origin::resolve_origin;
use botwall_captcha::Challenge;
use botwall_gateway::{Decision, Gateway};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, StatusCode, Uri};
use botwall_instrument::ProbeManifest;
use botwall_sessions::record::MAX_RECORDS_PER_SESSION;
use botwall_sessions::{RequestRecord, SeenUrls, SessionKey, SimTime};
use botwall_webgraph::Web;
use std::sync::Arc;

/// The network round trip one fetch costs a client, in ms (CoDeeN's).
pub const ROUND_TRIP_MS: u64 = 40;

/// A fetch an agent wants to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchSpec {
    /// HTTP method.
    pub method: Method,
    /// Target URL.
    pub uri: Uri,
    /// Optional `Referer` header value.
    pub referer: Option<String>,
    /// Optional request body (POSTs).
    pub body: Vec<u8>,
}

impl FetchSpec {
    /// A plain GET.
    pub fn get(uri: Uri) -> FetchSpec {
        FetchSpec {
            method: Method::Get,
            uri,
            referer: None,
            body: Vec::new(),
        }
    }

    /// A GET with a `Referer`.
    pub fn get_with_referer(uri: Uri, referer: impl Into<String>) -> FetchSpec {
        FetchSpec {
            method: Method::Get,
            uri,
            referer: Some(referer.into()),
            body: Vec::new(),
        }
    }

    /// A POST with a body.
    pub fn post(uri: Uri, body: Vec<u8>) -> FetchSpec {
        FetchSpec {
            method: Method::Post,
            uri,
            referer: None,
            body,
        }
    }
}

/// The structured, browser-eye view of a fetched HTML page.
#[derive(Debug, Clone, Default)]
pub struct PageView {
    /// Visible links (absolute URIs) a human could click.
    pub links: Vec<Uri>,
    /// Embedded objects the page references from the origin site
    /// (images, the site stylesheet, site scripts).
    pub embedded: Vec<Uri>,
    /// A CGI form endpoint, if the page has one.
    pub cgi: Option<Uri>,
    /// Instrumentation injected by the server, if any. A JS-capable
    /// browser "sees" the manifest by executing the page; non-JS agents
    /// must scan `html` instead.
    pub manifest: Option<ProbeManifest>,
    /// The raw HTML bytes as served (after instrumentation).
    pub html: String,
}

/// What came back from a fetch.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// Response status (a throttled/blocked request gets 429/403).
    pub status: StatusCode,
    /// Structured page view when the response was an HTML page.
    pub page: Option<PageView>,
    /// Response body size in bytes.
    pub body_len: usize,
}

impl Default for FetchOutcome {
    fn default() -> Self {
        FetchOutcome {
            status: StatusCode::NOT_FOUND,
            page: None,
            body_len: 0,
        }
    }
}

/// Everything an agent can do to the outside world.
pub trait ClientWorld {
    /// Performs one HTTP exchange.
    fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Advances simulated time (think time, typing, dwell).
    fn sleep(&mut self, ms: u64);

    /// The entry-point page of the site this session targets.
    fn entry_point(&self) -> Uri;

    /// Asks whether a CAPTCHA is on offer for this session; returns the
    /// challenge if so. Each session is offered at most one.
    fn offer_captcha(&mut self) -> Option<Challenge>;

    /// Submits a CAPTCHA answer; returns whether it passed.
    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool;
}

/// What one client's requests came to, by the status each got back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Requests issued.
    pub requests: u64,
    /// Requests answered neither `429` nor `403`.
    pub allowed: u64,
    /// Requests throttled (`429`).
    pub throttled: u64,
    /// Requests blocked (`403`).
    pub blocked: u64,
    /// CAPTCHA answers that passed.
    pub captcha_passes: u64,
}

/// One client, `(ip, user_agent)`, of a [`Gateway`] in front of a
/// [`Web`]: the [`ClientWorld`] every in-process agent runs in. It keeps
/// the client's clock (each fetch costs [`ROUND_TRIP_MS`]), its one
/// CAPTCHA offer, its [`Ledger`] and the log of its first
/// [`MAX_RECORDS_PER_SESSION`] exchanges; the gateway and the web are
/// shared, so many clients can drive one gateway.
#[derive(Debug)]
pub struct Client {
    gateway: Arc<Gateway>,
    web: Arc<Web>,
    ip: ClientIp,
    user_agent: String,
    entry: Uri,
    now: SimTime,
    captcha_offered: bool,
    ledger: Ledger,
    seen: SeenUrls,
    records: Vec<RequestRecord>,
}

impl Client {
    /// A client of `gateway` in front of `web`, entering at `entry`, its
    /// clock reading `start`.
    pub fn new(
        gateway: Arc<Gateway>,
        web: Arc<Web>,
        (ip, user_agent): (ClientIp, String),
        entry: Uri,
        start: SimTime,
    ) -> Client {
        Client {
            gateway,
            web,
            ip,
            user_agent,
            entry,
            now: start,
            captcha_offered: false,
            ledger: Ledger::default(),
            seen: SeenUrls::default(),
            records: Vec::new(),
        }
    }

    /// The session key the gateway files this client under.
    pub fn key(&self) -> SessionKey {
        SessionKey::new(self.ip, &self.user_agent)
    }

    /// What the client's requests have come to so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// The record of each exchange so far, in order, up to
    /// [`MAX_RECORDS_PER_SESSION`]: what the offline study folds into a
    /// session's features.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// The gateway the client fetches through.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The sites behind the gateway.
    pub fn web(&self) -> &Web {
        &self.web
    }

    /// One exchange: the request this client sends for `spec` (a body
    /// only on a `POST` that has one) goes through the gateway's
    /// [`Gateway::handle_with`] to the origin of the site its host
    /// names, and comes back as the outcome the agent sees, its record
    /// logged. A spec that makes no valid request comes back as
    /// [`FetchOutcome::default`], and the gateway never saw it.
    fn exchange(&mut self, spec: &FetchSpec) -> FetchOutcome {
        let mut b = Request::builder(spec.method.clone(), spec.uri.to_string())
            .header("User-Agent", self.user_agent.as_str())
            .client(self.ip);
        if let Some(r) = &spec.referer {
            b = b.header("Referer", r.clone());
        }
        if spec.method == Method::Post && !spec.body.is_empty() {
            b = b.body_bytes(spec.body.clone());
        }
        let Ok(request) = b.build() else {
            return FetchOutcome::default();
        };
        let site = self.web.site_for(&spec.uri);
        let mut view = None;
        let decision = self.gateway.handle_with(&request, self.now, |req| {
            let (origin, page) = resolve_origin(site, req);
            view = page;
            origin
        });
        // The origin ran, so `view` is set, only for a request the gate
        // let through: a rejection never carries a page.
        let (response, manifest) = match decision {
            Decision::Serve {
                response, manifest, ..
            } => (response, manifest),
            rejected => (rejected.into_response(), None),
        };
        let record = self.seen.record(&request.view(), Some(response.summary()));
        if self.records.len() < MAX_RECORDS_PER_SESSION {
            self.records.push(record);
        }
        FetchOutcome {
            status: response.status(),
            body_len: response.body().len(),
            page: view.map(|view| PageView {
                manifest,
                html: String::from_utf8_lossy(response.body()).into_owned(),
                ..view
            }),
        }
    }
}

impl ClientWorld for Client {
    fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome {
        self.now += ROUND_TRIP_MS;
        self.ledger.requests += 1;
        let out = self.exchange(&spec);
        match out.status {
            StatusCode::TOO_MANY_REQUESTS => self.ledger.throttled += 1,
            StatusCode::FORBIDDEN => self.ledger.blocked += 1,
            _ => self.ledger.allowed += 1,
        }
        out
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn sleep(&mut self, ms: u64) {
        self.now += ms;
    }

    fn entry_point(&self) -> Uri {
        self.entry.clone()
    }

    fn offer_captcha(&mut self) -> Option<Challenge> {
        if self.captcha_offered {
            return None;
        }
        self.captcha_offered = true;
        self.gateway.offer_captcha()
    }

    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool {
        let passed = self
            .gateway
            .verify_captcha(&self.key(), id, answer, self.now);
        self.ledger.captcha_passes += u64::from(passed);
        passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_spec_constructors() {
        let uri: Uri = "http://h/a.html".parse().unwrap();
        let g = FetchSpec::get(uri.clone());
        assert_eq!(g.method, Method::Get);
        assert!(g.referer.is_none());
        let r = FetchSpec::get_with_referer(uri.clone(), "http://h/");
        assert_eq!(r.referer.as_deref(), Some("http://h/"));
        let p = FetchSpec::post(uri, b"a=1".to_vec());
        assert_eq!(p.method, Method::Post);
        assert_eq!(p.body, b"a=1");
    }
}
