//! Incremental per-session counters.
//!
//! These counters are the raw numerators behind the paper's Table-2
//! attributes and the policy thresholds of §3.2 (total, CGI share, 4xx
//! share). They update in O(1) per request.

use crate::record::RequestRecord;
use botwall_http::{ContentClass, MethodKind};

/// O(1)-updatable counters over a session's request stream: `total` and
/// the 12 numerators that the Table-2 features
/// (`botwall_ml::features::extract_from_counters`) and the §3.2 policy
/// read. A count no reader reads is not kept; a feature that reads
/// more adds back the counter it reads.
///
/// Every count is a `u32` that saturates at `u32::MAX` rather than
/// wrapping (a session would need four billion requests inside its
/// idle timeout to get there).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Total requests observed.
    pub total: u32,
    /// `HEAD` requests.
    pub head: u32,
    /// HTML page requests.
    pub html: u32,
    /// Image requests.
    pub image: u32,
    /// CGI requests.
    pub cgi: u32,
    /// Favicon requests.
    pub favicon: u32,
    /// Requests carrying a `Referer`.
    pub with_referer: u32,
    /// Requests whose `Referer` named a URL not previously visited in this
    /// session.
    pub unseen_referer: u32,
    /// Embedded-object requests (CSS, JS, image, audio).
    pub embedded_obj: u32,
    /// Link-following requests (HTML target whose `Referer` was a page this
    /// session already visited).
    pub link_following: u32,
    /// 2xx responses.
    pub resp_2xx: u32,
    /// 3xx responses.
    pub resp_3xx: u32,
    /// 4xx responses.
    pub resp_4xx: u32,
}

impl SessionCounters {
    /// Creates zeroed counters.
    pub fn new() -> SessionCounters {
        SessionCounters::default()
    }

    /// Folds one record into the counters.
    pub fn update(&mut self, rec: &RequestRecord) {
        fn bump(count: &mut u32) {
            *count = count.saturating_add(1);
        }
        bump(&mut self.total);
        if rec.method == MethodKind::Head {
            bump(&mut self.head);
        }
        match rec.class {
            ContentClass::Html => bump(&mut self.html),
            ContentClass::Image => bump(&mut self.image),
            ContentClass::Cgi => bump(&mut self.cgi),
            ContentClass::Favicon => bump(&mut self.favicon),
            _ => {}
        }
        if rec.has_referer {
            bump(&mut self.with_referer);
            if !rec.referer_seen {
                bump(&mut self.unseen_referer);
            }
        }
        if rec.class.is_embedded_object() {
            bump(&mut self.embedded_obj);
        }
        if rec.class == ContentClass::Html && rec.referer_seen {
            bump(&mut self.link_following);
        }
        match rec.status_class {
            2 => bump(&mut self.resp_2xx),
            3 => bump(&mut self.resp_3xx),
            4 => bump(&mut self.resp_4xx),
            _ => {}
        }
    }

    /// Share of requests satisfying a numerator, in `[0, 1]`; zero when the
    /// session is empty.
    pub fn ratio(&self, numerator: u32) -> f64 {
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

    fn rec(
        method: MethodKind,
        class: ContentClass,
        status: u8,
        has_ref: bool,
        ref_seen: bool,
    ) -> RequestRecord {
        RequestRecord {
            method,
            class,
            status_class: status,
            has_referer: has_ref,
            referer_seen: ref_seen,
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut c = SessionCounters::new();
        c.update(&rec(MethodKind::Get, ContentClass::Html, 2, false, false));
        c.update(&rec(MethodKind::Get, ContentClass::Image, 2, true, true));
        c.update(&rec(MethodKind::Head, ContentClass::Html, 3, true, false));
        c.update(&rec(MethodKind::Post, ContentClass::Cgi, 4, false, false));
        assert_eq!(c.total, 4);
        assert_eq!(c.head, 1);
        assert_eq!(c.html, 2);
        assert_eq!(c.image, 1);
        assert_eq!(c.cgi, 1);
        assert_eq!(c.with_referer, 2);
        assert_eq!(c.unseen_referer, 1);
        assert_eq!(c.embedded_obj, 1);
        assert_eq!(c.resp_2xx, 2);
        assert_eq!(c.resp_3xx, 1);
        assert_eq!(c.resp_4xx, 1);
    }

    #[test]
    fn link_following_requires_html_and_seen_referer() {
        let mut c = SessionCounters::new();
        c.update(&rec(MethodKind::Get, ContentClass::Html, 2, true, true));
        c.update(&rec(MethodKind::Get, ContentClass::Image, 2, true, true));
        c.update(&rec(MethodKind::Get, ContentClass::Html, 2, true, false));
        assert_eq!(c.link_following, 1);
    }

    #[test]
    fn ratios() {
        let mut c = SessionCounters::new();
        assert_eq!(c.ratio(0), 0.0, "empty session has zero ratios");
        for _ in 0..3 {
            c.update(&rec(MethodKind::Get, ContentClass::Cgi, 4, false, false));
        }
        c.update(&rec(MethodKind::Get, ContentClass::Html, 2, false, false));
        assert!((c.cgi_ratio() - 0.75).abs() < 1e-12);
        assert!((c.error_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn counts_saturate_at_u32_max() {
        let mut c = SessionCounters {
            total: u32::MAX,
            html: u32::MAX,
            resp_2xx: u32::MAX - 1,
            ..SessionCounters::new()
        };
        for _ in 0..2 {
            c.update(&rec(MethodKind::Get, ContentClass::Html, 2, false, false));
        }
        assert_eq!((c.total, c.html), (u32::MAX, u32::MAX));
        assert_eq!(c.resp_2xx, u32::MAX);
        assert_eq!(c.ratio(c.html), 1.0);
        assert_eq!(std::mem::size_of::<SessionCounters>(), 52);
    }
}
