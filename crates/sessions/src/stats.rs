//! Incremental per-session counters.
//!
//! These counters are the raw numerators behind the paper's Table-2
//! attributes and the policy thresholds of §3.2 (CGI request rate, GET
//! request rate, error response codes). They update in O(1) per request.

use crate::record::RequestRecord;
use botwall_http::{ContentClass, Method};

/// O(1)-updatable counters over a session's request stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Total requests observed.
    pub total: u64,
    /// `HEAD` requests.
    pub head: u64,
    /// `GET` requests.
    pub get: u64,
    /// `POST` requests.
    pub post: u64,
    /// HTML page requests.
    pub html: u64,
    /// Image requests.
    pub image: u64,
    /// CSS requests.
    pub css: u64,
    /// Script requests.
    pub script: u64,
    /// CGI requests.
    pub cgi: u64,
    /// Favicon requests.
    pub favicon: u64,
    /// Audio requests.
    pub audio: u64,
    /// Requests carrying a `Referer`.
    pub with_referer: u64,
    /// Requests whose `Referer` named a URL not previously visited in this
    /// session.
    pub unseen_referer: u64,
    /// Embedded-object requests (CSS, JS, image, audio).
    pub embedded_obj: u64,
    /// Link-following requests (HTML target whose `Referer` was a page this
    /// session already visited).
    pub link_following: u64,
    /// 2xx responses.
    pub resp_2xx: u64,
    /// 3xx responses.
    pub resp_3xx: u64,
    /// 4xx responses.
    pub resp_4xx: u64,
    /// 5xx responses.
    pub resp_5xx: u64,
    /// Total bytes transferred (request + response wire sizes).
    pub bytes: u64,
}

impl SessionCounters {
    /// Creates zeroed counters.
    pub fn new() -> SessionCounters {
        SessionCounters::default()
    }

    /// Folds one record into the counters.
    pub fn update(&mut self, rec: &RequestRecord) {
        self.total += 1;
        match rec.method {
            Method::Head => self.head += 1,
            Method::Get => self.get += 1,
            Method::Post => self.post += 1,
            _ => {}
        }
        match rec.class {
            ContentClass::Html => self.html += 1,
            ContentClass::Image => self.image += 1,
            ContentClass::Css => self.css += 1,
            ContentClass::Script => self.script += 1,
            ContentClass::Cgi => self.cgi += 1,
            ContentClass::Favicon => self.favicon += 1,
            ContentClass::Audio => self.audio += 1,
            ContentClass::Other => {}
        }
        if rec.has_referer {
            self.with_referer += 1;
            if !rec.referer_seen {
                self.unseen_referer += 1;
            }
        }
        if rec.class.is_embedded_object() {
            self.embedded_obj += 1;
        }
        if rec.class == ContentClass::Html && rec.referer_seen {
            self.link_following += 1;
        }
        match rec.status_class {
            2 => self.resp_2xx += 1,
            3 => self.resp_3xx += 1,
            4 => self.resp_4xx += 1,
            5 => self.resp_5xx += 1,
            _ => {}
        }
        self.bytes += rec.bytes;
    }

    /// Share of requests satisfying a numerator, in `[0, 1]`; zero when the
    /// session is empty.
    pub fn ratio(&self, numerator: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            numerator as f64 / self.total as f64
        }
    }

    /// The 4xx error ratio — one of the §3.2 blocking thresholds.
    pub fn error_ratio(&self) -> f64 {
        self.ratio(self.resp_4xx)
    }

    /// The CGI ratio — one of the §3.2 blocking thresholds.
    pub fn cgi_ratio(&self) -> f64 {
        self.ratio(self.cgi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn rec(
        method: Method,
        class: ContentClass,
        status: u8,
        has_ref: bool,
        ref_seen: bool,
    ) -> RequestRecord {
        RequestRecord {
            index: 0,
            time: SimTime::ZERO,
            method,
            class,
            status_class: status,
            has_referer: has_ref,
            referer_seen: ref_seen,
            url_hash: 0,
            bytes: 100,
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut c = SessionCounters::new();
        c.update(&rec(Method::Get, ContentClass::Html, 2, false, false));
        c.update(&rec(Method::Get, ContentClass::Image, 2, true, true));
        c.update(&rec(Method::Head, ContentClass::Html, 3, true, false));
        c.update(&rec(Method::Post, ContentClass::Cgi, 4, false, false));
        assert_eq!(c.total, 4);
        assert_eq!(c.head, 1);
        assert_eq!(c.get, 2);
        assert_eq!(c.post, 1);
        assert_eq!(c.html, 2);
        assert_eq!(c.image, 1);
        assert_eq!(c.cgi, 1);
        assert_eq!(c.with_referer, 2);
        assert_eq!(c.unseen_referer, 1);
        assert_eq!(c.embedded_obj, 1);
        assert_eq!(c.resp_2xx, 2);
        assert_eq!(c.resp_3xx, 1);
        assert_eq!(c.resp_4xx, 1);
        assert_eq!(c.bytes, 400);
    }

    #[test]
    fn link_following_requires_html_and_seen_referer() {
        let mut c = SessionCounters::new();
        c.update(&rec(Method::Get, ContentClass::Html, 2, true, true));
        c.update(&rec(Method::Get, ContentClass::Image, 2, true, true));
        c.update(&rec(Method::Get, ContentClass::Html, 2, true, false));
        assert_eq!(c.link_following, 1);
    }

    #[test]
    fn ratios() {
        let mut c = SessionCounters::new();
        assert_eq!(c.ratio(0), 0.0, "empty session has zero ratios");
        for _ in 0..3 {
            c.update(&rec(Method::Get, ContentClass::Cgi, 4, false, false));
        }
        c.update(&rec(Method::Get, ContentClass::Html, 2, false, false));
        assert!((c.cgi_ratio() - 0.75).abs() < 1e-12);
        assert!((c.error_ratio() - 0.75).abs() < 1e-12);
    }
}
