//! What a request comes to for the session features, and the seen-URL
//! set that decides one of its facts.
//!
//! A [`RequestRecord`] is the five facts the paper's offline stage
//! (§4.1, AdaBoost over the Table-2 attributes) reads of a logged
//! request, and nothing else. A live session folds each record into its
//! [`SessionCounters`] and keeps none; the log the offline stage reads
//! (`botwall_ml::features::extract_prefix`) is the in-process client's,
//! built by the same [`SeenUrls::record`]. The URL goes into the
//! seen-URL set, the time into `last_seen`, the wire bytes into the
//! gateway's byte ledger. A feature that reads more of a request adds
//! back the field it reads, to the offline log.
//!
//! [`SessionCounters`]: crate::SessionCounters

use botwall_http::{ContentClass, MethodKind, RequestView, ResponseSummary};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

/// Distinct URLs a [`SeenUrls`] remembers, and records an offline log
/// keeps. Counters keep counting past it.
pub const MAX_RECORDS_PER_SESSION: usize = 512;

/// One observed request/response exchange, reduced to what the Table-2
/// attributes count: five bytes, whatever the size of the messages (the
/// paper's design goal is to decide "without overburdening the server
/// with excessive memory consumption"). Its place in a log is its index.
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

    /// [`RequestRecord::hash_url`] of the URL a request names, as the
    /// `Referer` of a link followed from it would spell it: an
    /// origin-form target sent with a `Host` is `http://{host}{target}`,
    /// any other target is the target as it renders. The pieces are fed
    /// to the hasher one by one: nothing is rendered into a `String`.
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
}

/// The hashes of the first [`MAX_RECORDS_PER_SESSION`] distinct URLs a
/// session asked for, kept sorted: a lookup is a binary search. The
/// first hash is kept inline, so a session that asked for one URL holds
/// no heap block for it; the second spills both into one flat vector,
/// which grows as `Vec` does (4 → 8 → … 512). Ordered, not hashed, so
/// iteration (and `Debug`, rendered as the set a `BTreeSet` would print)
/// is the same in every run.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SeenUrls(Hashes);

/// A set's one representation: at most one hash is never a vector.
#[derive(Clone, Default, PartialEq, Eq)]
enum Hashes {
    #[default]
    Empty,
    One(u64),
    Many(Vec<u64>),
}

impl SeenUrls {
    /// The hashes, ascending.
    fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Hashes::Empty => &[],
            Hashes::One(hash) => std::slice::from_ref(hash),
            Hashes::Many(hashes) => hashes,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub(crate) fn contains(&self, hash: u64) -> bool {
        self.as_slice().binary_search(&hash).is_ok()
    }

    /// Remembers `hash` unless the set is full.
    pub(crate) fn insert(&mut self, hash: u64) {
        match &mut self.0 {
            Hashes::Empty => self.0 = Hashes::One(hash),
            // A second hash: both spill, sorted.
            Hashes::One(first) if *first != hash => {
                let mut hashes = Vec::new();
                hashes.extend([hash.min(*first), hash.max(*first)]);
                self.0 = Hashes::Many(hashes);
            }
            Hashes::One(_) => {}
            Hashes::Many(hashes) => {
                if let Err(at) = hashes.binary_search(&hash) {
                    if hashes.len() < MAX_RECORDS_PER_SESSION {
                        hashes.insert(at, hash);
                    }
                }
            }
        }
    }

    /// Whether the set holds no heap block.
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        !matches!(self.0, Hashes::Many(_))
    }

    /// The record of one exchange: the `Referer` is looked up before the
    /// target is remembered, so a page naming itself is not yet seen.
    pub fn record(
        &mut self,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
    ) -> RequestRecord {
        let referer = request.referer();
        let referer_seen = referer.is_some_and(|r| self.contains(RequestRecord::hash_url(r)));
        self.insert(RequestRecord::hash_target(request));
        RequestRecord {
            method: request.method_kind(),
            class: ContentClass::of_view(request, response.and_then(|r| r.class)),
            status_class: response.map_or(0, |r| r.status.class()),
            has_referer: referer.is_some(),
            referer_seen,
        }
    }
}

impl fmt::Debug for SeenUrls {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
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
        let mut seen = SeenUrls::default();
        let (home, resp) = exchange("http://h/", None);
        seen.record(&home.view(), Some(resp.summary()));
        let (req, resp) = exchange("http://h/x.html", Some("http://h/"));
        let rec = seen.record(&req.view(), Some(resp.summary()));
        assert_eq!(rec.method, MethodKind::Get);
        assert_eq!(rec.class, ContentClass::Html);
        assert_eq!(rec.status_class, 2);
        assert!(rec.has_referer);
        assert!(rec.referer_seen);
    }

    #[test]
    fn referer_seen_requires_referer() {
        let mut seen = SeenUrls::default();
        let (req, resp) = exchange("http://h/x.html", None);
        seen.record(&req.view(), Some(resp.summary()));
        let rec = seen.record(&req.view(), Some(resp.summary()));
        assert!(!rec.has_referer);
        assert!(!rec.referer_seen, "referer_seen implies has_referer");
    }

    #[test]
    fn missing_response_has_status_class_zero() {
        let (req, _) = exchange("http://h/x.html", None);
        let rec = SeenUrls::default().record(&req.view(), None);
        assert_eq!(rec.status_class, 0);
    }

    /// The `Referer` is checked against the URLs remembered before this
    /// exchange, and the target is remembered after: a page that names
    /// itself is unseen the first time, and a link from it is followed
    /// from a seen page.
    #[test]
    fn a_record_reads_the_referer_before_its_target_is_remembered() {
        let mut seen = SeenUrls::default();
        let mut record = |uri: &str, referer: Option<&str>| {
            let (req, resp) = exchange(uri, referer);
            seen.record(&req.view(), Some(resp.summary()))
        };
        let first = record("http://h/a.html", Some("http://h/a.html"));
        assert!(first.has_referer && !first.referer_seen);
        let again = record("http://h/a.html", Some("http://h/a.html"));
        assert!(again.referer_seen);
        let link = record("http://h/b.html", Some("http://h/a.html"));
        assert!(link.referer_seen);
        let elsewhere = record("http://h/c.html", Some("http://h/z.html"));
        assert!(elsewhere.has_referer && !elsewhere.referer_seen);
        assert_eq!(seen.len(), 3, "a, b and c remembered, z never asked for");
    }

    /// One hash takes no heap block; the second distinct one spills
    /// both into a vector of `Vec`'s first size, four, so a longer list
    /// grows as `Vec` does.
    #[test]
    fn the_first_hash_is_inline_and_the_second_spills() {
        let mut seen = SeenUrls::default();
        seen.insert(9);
        seen.insert(9);
        assert!(seen.is_inline(), "a repeat hash does not spill");
        seen.insert(3);
        let Hashes::Many(hashes) = &seen.0 else {
            panic!("two hashes spill: {seen:?}");
        };
        assert_eq!((hashes.as_slice(), hashes.capacity()), (&[3, 9][..], 4));
        assert_eq!(format!("{seen:?}"), "{3, 9}");
    }

    #[test]
    fn a_target_hashes_as_its_rendering_does() {
        for uri in ["/", "*", "/a?b=c", "http://h:8080/x.css?v=1", "https://h/"] {
            let request = Request::builder(Method::Get, uri).build().unwrap();
            let rendered = RequestRecord::hash_url(&request.uri().to_string());
            assert_eq!(
                RequestRecord::hash_target(&request.view()),
                rendered,
                "{uri}"
            );
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
