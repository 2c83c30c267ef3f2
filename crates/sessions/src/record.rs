//! What a session keeps of each request it saw, and the URL hash its
//! seen-URL set remembers.
//!
//! A [`RequestRecord`] is the five facts the paper's offline stage
//! (§4.1, AdaBoost over the Table-2 attributes) reads of a logged
//! request, and nothing else: `botwall_ml::features::extract_prefix`
//! folds a prefix of a session's log through [`SessionCounters::update`],
//! the one reader. What the session needs of a request past those five
//! it keeps elsewhere, folded in before the record is pushed: the URL in
//! the seen-URL set, the time in the session's `last_seen`. The wire
//! bytes are not kept per session at all: the gateway's byte ledger
//! counts them. A feature that reads more of a request (the parked
//! traversal-shape attributes, say) adds back the field it reads.
//!
//! [`SessionCounters::update`]: crate::SessionCounters::update

use botwall_http::{ContentClass, MethodKind, RequestView, ResponseSummary, UriRef};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

/// One observed request/response exchange, reduced to what the Table-2
/// attributes count: five bytes, whatever the size of the messages (the
/// paper's design goal is to decide "without overburdening the server
/// with excessive memory consumption"). Its place in the session's log
/// is its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Which method the request used (an extension method's token is
    /// not kept).
    pub method: MethodKind,
    /// Content class of the target.
    pub class: ContentClass,
    /// Response status class (2, 3, 4, 5) or 0 when no response was seen.
    pub status_class: u8,
    /// Whether a `Referer` header was present.
    pub has_referer: bool,
    /// Whether the `Referer` named a URL this session had already visited.
    /// Always `false` when `has_referer` is `false`.
    pub referer_seen: bool,
}

/// The hasher as a `fmt::Write`: `str`'s `Hash` is its bytes and then
/// `0xff`, and the bytes may arrive in pieces.
struct Pieces(DefaultHasher);

impl Write for Pieces {
    fn write_str(&mut self, piece: &str) -> fmt::Result {
        self.0.write(piece.as_bytes());
        Ok(())
    }
}

impl Pieces {
    fn finish(mut self) -> u64 {
        self.0.write_u8(0xff);
        self.0.finish()
    }
}

impl RequestRecord {
    /// Hashes a URL string the way the seen-URL set expects.
    pub fn hash_url(url: &str) -> u64 {
        let mut h = DefaultHasher::new();
        url.hash(&mut h);
        h.finish()
    }

    /// [`RequestRecord::hash_url`] of the target as it renders, fed to
    /// the hasher piece by piece instead of rendered into a `String`.
    pub fn hash_uri(uri: &UriRef<'_>) -> u64 {
        let mut pieces = Pieces(DefaultHasher::new());
        write!(pieces, "{uri}").expect("hashing cannot fail");
        pieces.finish()
    }

    /// [`RequestRecord::hash_url`] of the URL a request names, as the
    /// `Referer` of a link followed from it would spell it: an
    /// origin-form target sent with a `Host` is `http://{host}{target}`,
    /// any other target is [`RequestRecord::hash_uri`] of it. Nothing is
    /// rendered into a `String`.
    pub fn hash_target(request: &RequestView<'_>) -> u64 {
        let uri = request.uri();
        let mut pieces = Pieces(DefaultHasher::new());
        if uri.host().is_none() && uri.path().starts_with('/') {
            // With no host in the target, the authority is the `Host`
            // header, borrowed.
            if let Some(host) = request.authority() {
                write!(pieces, "http://{host}").expect("hashing cannot fail");
            }
        }
        write!(pieces, "{uri}").expect("hashing cannot fail");
        pieces.finish()
    }

    /// Builds a record from an exchange: the request as the gate reads
    /// it, and what a record keeps of its response. `referer_seen` must
    /// be computed by the caller against the session's seen-URL set
    /// *before* inserting the current URL.
    pub fn from_exchange(
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        referer_seen: bool,
    ) -> RequestRecord {
        RequestRecord {
            method: request.method_kind(),
            class: ContentClass::of_view(request, response.and_then(|r| r.class)),
            status_class: response.map_or(0, |r| r.status.class()),
            has_referer: request.referer().is_some(),
            referer_seen: referer_seen && request.referer().is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, Request, Response, StatusCode};

    fn exchange(uri: &str, referer: Option<&str>) -> (Request, Response) {
        let mut b = Request::builder(Method::Get, uri).client(ClientIp::new(1));
        if let Some(r) = referer {
            b = b.header("Referer", r);
        }
        (
            b.build().unwrap(),
            Response::builder(StatusCode::OK)
                .header("Content-Type", "text/html")
                .build(),
        )
    }

    #[test]
    fn record_captures_exchange_facts() {
        let (req, resp) = exchange("http://h/x.html", Some("http://h/"));
        let rec = RequestRecord::from_exchange(&req.view(), Some(resp.summary()), true);
        assert_eq!(rec.method, MethodKind::Get);
        assert_eq!(rec.class, ContentClass::Html);
        assert_eq!(rec.status_class, 2);
        assert!(rec.has_referer);
        assert!(rec.referer_seen);
    }

    #[test]
    fn referer_seen_requires_referer() {
        let (req, resp) = exchange("http://h/x.html", None);
        let rec = RequestRecord::from_exchange(&req.view(), Some(resp.summary()), true);
        assert!(!rec.has_referer);
        assert!(!rec.referer_seen, "referer_seen implies has_referer");
    }

    #[test]
    fn missing_response_has_status_class_zero() {
        let (req, _) = exchange("http://h/x.html", None);
        let rec = RequestRecord::from_exchange(&req.view(), None, false);
        assert_eq!(rec.status_class, 0);
    }

    #[test]
    fn a_target_hashes_as_its_rendering_does() {
        for uri in ["/", "*", "/a?b=c", "http://h:8080/x.css?v=1", "https://h/"] {
            let uri: botwall_http::Uri = uri.parse().unwrap();
            let rendered = RequestRecord::hash_url(&uri.to_string());
            assert_eq!(RequestRecord::hash_uri(&uri.view()), rendered, "{uri}");
        }
    }

    #[test]
    fn an_origin_form_target_hashes_as_the_url_its_host_names() {
        let target = |uri: &str, host: Option<&str>| {
            let mut b = Request::builder(Method::Get, uri);
            if let Some(host) = host {
                b = b.header("Host", host);
            }
            RequestRecord::hash_target(&b.build().unwrap().view())
        };
        let hash = RequestRecord::hash_url;
        assert_eq!(
            target("/a.html?q=1", Some("h:8080")),
            hash("http://h:8080/a.html?q=1")
        );
        assert_eq!(target("/a.html", None), hash("/a.html"));
        assert_eq!(target("*", Some("h")), hash("*"));
        assert_eq!(
            target("https://g/a.html", Some("h")),
            hash("https://g/a.html")
        );
    }

    #[test]
    fn url_hash_is_stable_and_discriminates() {
        assert_eq!(
            RequestRecord::hash_url("http://h/a"),
            RequestRecord::hash_url("http://h/a")
        );
        assert_ne!(
            RequestRecord::hash_url("http://h/a"),
            RequestRecord::hash_url("http://h/b")
        );
    }
}
