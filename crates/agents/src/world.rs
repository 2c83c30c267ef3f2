//! The client-side view of the network: what an agent can do.
//!
//! Agents run against a [`ClientWorld`]: the proxy simulation in
//! `botwall-codeen`, [`crate::testutil::MockWorld`] in tests, a
//! protected site in the examples. The world exposes exactly what a real
//! client sees: it can fetch URLs, wait, and be offered a CAPTCHA.
//! Crucially, a fetched page comes back in *two* forms — the raw HTML
//! bytes (what a scanning robot greps) and a structured [`PageView`]
//! (what a rendering browser's DOM exposes) — so human models and
//! byte-level robots exercise genuinely different paths through the
//! instrumentation.
//!
//! Every one of those worlds fetches the same way, through
//! [`fetch_through`]: the agent's request goes through a
//! [`Gateway`] (the gate, the rewriter and the detector `botwall-serve`
//! runs) in front of the webgraph origin ([`resolve_origin`]), so an
//! agent is measured against the deployed detector wherever it runs.

use crate::origin::resolve_origin;
use botwall_captcha::Challenge;
use botwall_gateway::{Decision, Gateway};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, StatusCode, Uri};
use botwall_instrument::ProbeManifest;
use botwall_sessions::SimTime;
use botwall_webgraph::Site;

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

/// One exchange through `gateway` in front of the webgraph origin, `site`
/// being the site `spec`'s host names: the request the client
/// `(ip, user_agent)` sends for `spec` (a body only on a `POST` that has
/// one) goes through [`Gateway::handle_with`], and what comes back is
/// the outcome the agent sees. A spec that makes no valid request comes
/// back as [`FetchOutcome::default`].
pub fn fetch_through(
    gateway: &Gateway,
    site: Option<&Site>,
    (ip, user_agent): (ClientIp, &str),
    spec: &FetchSpec,
    now: SimTime,
) -> FetchOutcome {
    let mut b = Request::builder(spec.method.clone(), spec.uri.to_string())
        .header("User-Agent", user_agent)
        .client(ip);
    if let Some(r) = &spec.referer {
        b = b.header("Referer", r.clone());
    }
    if spec.method == Method::Post && !spec.body.is_empty() {
        b = b.body_bytes(spec.body.clone());
    }
    let Ok(request) = b.build() else {
        return FetchOutcome::default();
    };
    let mut view = None;
    let decision = gateway.handle_with(&request, now, |req| {
        let (origin, page) = resolve_origin(site, req);
        view = page;
        origin
    });
    match decision {
        Decision::Serve {
            response,
            body,
            manifest,
            ..
        } => FetchOutcome {
            status: response.status(),
            body_len: response.body().len(),
            page: view.map(|view| PageView {
                manifest,
                html: body.unwrap_or_default(),
                ..view
            }),
        },
        rejected => {
            let response = rejected.into_response();
            FetchOutcome {
                status: response.status(),
                body_len: response.body().len(),
                page: None,
            }
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

    /// The agent's client address.
    fn client_ip(&self) -> ClientIp;

    /// The entry-point page of the site this session targets.
    fn entry_point(&self) -> Uri;

    /// Asks whether a CAPTCHA is on offer for this session; returns the
    /// challenge if so. Each session is offered at most one.
    fn offer_captcha(&mut self) -> Option<Challenge>;

    /// Submits a CAPTCHA answer; returns whether it passed.
    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool;
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
