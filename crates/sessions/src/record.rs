//! Compact per-request records kept inside a session.

use crate::time::SimTime;
use botwall_http::{ContentClass, MethodKind, RequestView, ResponseSummary, UriRef};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

/// One observed request/response exchange, reduced to the fields the
/// detector and feature extractor need.
///
/// Full messages are *not* retained — the paper's design goal is to make
/// decisions "without overburdening the server with excessive memory
/// consumption", so a record is a few dozen bytes regardless of message
/// size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// 1-based index of this request within its session.
    pub index: u32,
    /// When the request was observed.
    pub time: SimTime,
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
    /// Hash of the normalized request URL (for the seen-URL set).
    pub url_hash: u64,
    /// Approximate bytes transferred (request + response wire size).
    pub bytes: u64,
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
        /// The hasher as a `fmt::Write`: `str`'s `Hash` is its bytes
        /// and then `0xff`, and the bytes may arrive in pieces.
        struct Pieces(DefaultHasher);
        impl Write for Pieces {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                self.0.write(piece.as_bytes());
                Ok(())
            }
        }
        let mut pieces = Pieces(DefaultHasher::new());
        write!(pieces, "{uri}").expect("hashing cannot fail");
        pieces.0.write_u8(0xff);
        pieces.0.finish()
    }

    /// Builds a record from an exchange: the request as the gate reads
    /// it, and what a record keeps of its response. `referer_seen` must
    /// be computed by the caller against the session's seen-URL set
    /// *before* inserting the current URL.
    pub fn from_exchange(
        index: u32,
        time: SimTime,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        referer_seen: bool,
    ) -> RequestRecord {
        RequestRecord {
            index,
            time,
            method: request.method_kind(),
            class: ContentClass::of_view(request, response.and_then(|r| r.class)),
            status_class: response.map_or(0, |r| r.status.class()),
            has_referer: request.referer().is_some(),
            referer_seen: referer_seen && request.referer().is_some(),
            url_hash: Self::hash_uri(request.uri()),
            bytes: (request.wire_len() + response.map_or(0, |r| r.wire_len)) as u64,
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
        let rec = RequestRecord::from_exchange(
            1,
            SimTime::from_secs(5),
            &req.view(),
            Some(resp.summary()),
            true,
        );
        assert_eq!(rec.index, 1);
        assert_eq!(rec.method, MethodKind::Get);
        assert_eq!(rec.class, ContentClass::Html);
        assert_eq!(rec.status_class, 2);
        assert!(rec.has_referer);
        assert!(rec.referer_seen);
        assert!(rec.bytes > 0);
    }

    #[test]
    fn referer_seen_requires_referer() {
        let (req, resp) = exchange("http://h/x.html", None);
        let rec =
            RequestRecord::from_exchange(1, SimTime::ZERO, &req.view(), Some(resp.summary()), true);
        assert!(!rec.has_referer);
        assert!(!rec.referer_seen, "referer_seen implies has_referer");
    }

    #[test]
    fn missing_response_has_status_class_zero() {
        let (req, _) = exchange("http://h/x.html", None);
        let rec = RequestRecord::from_exchange(1, SimTime::ZERO, &req.view(), None, false);
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
