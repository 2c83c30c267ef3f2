//! The 12 per-session attributes of Table 2.
//!
//! | Attribute | Explanation |
//! |---|---|
//! | `HEAD %` | % of HEAD commands |
//! | `HTML %` | % of HTML requests |
//! | `IMAGE %` | % of image requests |
//! | `CGI %` | % of CGI requests |
//! | `REFERRER %` | % of requests with referrer |
//! | `UNSEEN REFERRER %` | % of requests with unvisited referrer |
//! | `EMBEDDED OBJ %` | % of embedded object requests |
//! | `LINK FOLLOWING %` | % of link requests |
//! | `RESPCODE 2XX %` | % of response code 2xx |
//! | `RESPCODE 3XX %` | % of response code 3xx |
//! | `RESPCODE 4XX %` | % of response code 4xx |
//! | `FAVICON %` | % of favicon.ico requests |
//!
//! Classifiers are built "at multiples of 20 requests" — the classifier at
//! checkpoint `n` computes these attributes over the session's first `n`
//! requests only, which [`extract_prefix`] implements.

use botwall_http::{ContentClass, MethodKind};
use botwall_sessions::{RequestRecord, SessionCounters};
use std::fmt;

/// Number of attributes.
pub const ATTRIBUTE_COUNT: usize = 12;

/// One of the 12 Table-2 attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attribute {
    /// Share of HEAD commands.
    HeadPct,
    /// Share of HTML requests.
    HtmlPct,
    /// Share of image requests.
    ImagePct,
    /// Share of CGI requests.
    CgiPct,
    /// Share of requests with a referrer.
    ReferrerPct,
    /// Share of requests with an unvisited referrer.
    UnseenReferrerPct,
    /// Share of embedded-object requests.
    EmbeddedObjPct,
    /// Share of link-following requests.
    LinkFollowingPct,
    /// Share of 2xx responses.
    Resp2xxPct,
    /// Share of 3xx responses.
    Resp3xxPct,
    /// Share of 4xx responses.
    Resp4xxPct,
    /// Share of favicon.ico requests.
    FaviconPct,
}

impl Attribute {
    /// All attributes in Table-2 order.
    pub const ALL: [Attribute; ATTRIBUTE_COUNT] = [
        Attribute::HeadPct,
        Attribute::HtmlPct,
        Attribute::ImagePct,
        Attribute::CgiPct,
        Attribute::ReferrerPct,
        Attribute::UnseenReferrerPct,
        Attribute::EmbeddedObjPct,
        Attribute::LinkFollowingPct,
        Attribute::Resp2xxPct,
        Attribute::Resp3xxPct,
        Attribute::Resp4xxPct,
        Attribute::FaviconPct,
    ];

    /// The attribute's index in a [`FeatureVector`].
    pub fn index(self) -> usize {
        Attribute::ALL
            .iter()
            .position(|a| *a == self)
            .expect("in ALL")
    }

    /// The paper's name for the attribute.
    pub fn name(self) -> &'static str {
        match self {
            Attribute::HeadPct => "HEAD %",
            Attribute::HtmlPct => "HTML %",
            Attribute::ImagePct => "IMAGE %",
            Attribute::CgiPct => "CGI %",
            Attribute::ReferrerPct => "REFERRER %",
            Attribute::UnseenReferrerPct => "UNSEEN REFERRER %",
            Attribute::EmbeddedObjPct => "EMBEDDED OBJ %",
            Attribute::LinkFollowingPct => "LINK FOLLOWING %",
            Attribute::Resp2xxPct => "RESPCODE 2XX %",
            Attribute::Resp3xxPct => "RESPCODE 3XX %",
            Attribute::Resp4xxPct => "RESPCODE 4XX %",
            Attribute::FaviconPct => "FAVICON %",
        }
    }
}

/// A 12-dimensional feature vector; each component is a share in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector(pub [f64; ATTRIBUTE_COUNT]);

impl FeatureVector {
    /// The zero vector.
    pub fn zero() -> FeatureVector {
        FeatureVector([0.0; ATTRIBUTE_COUNT])
    }

    /// The value of one attribute.
    pub fn get(&self, a: Attribute) -> f64 {
        self.0[a.index()]
    }

    /// All values in Table-2 order.
    pub fn values(&self) -> &[f64; ATTRIBUTE_COUNT] {
        &self.0
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (a, v) in Attribute::ALL.iter().zip(self.0.iter()) {
            writeln!(f, "{:<20} {:6.3}", a.name(), v)?;
        }
        Ok(())
    }
}

/// Extracts features from the first `upto` records of a session (all of
/// them when `upto >= records.len()`).
///
/// # Examples
///
/// ```
/// use botwall_ml::features::{extract_prefix, Attribute};
/// use botwall_sessions::RequestRecord;
/// let records: Vec<RequestRecord> = vec![];
/// let fv = extract_prefix(&records, 20);
/// assert_eq!(fv.get(Attribute::HtmlPct), 0.0);
/// ```
pub fn extract_prefix(records: &[RequestRecord], upto: usize) -> FeatureVector {
    let n = upto.min(records.len());
    if n == 0 {
        return FeatureVector::zero();
    }
    let mut counters = SessionCounters::new();
    for rec in &records[..n] {
        counters.update(rec);
    }
    extract_from_counters(&counters)
}

/// Extracts features from pre-accumulated counters (the full session).
pub fn extract_from_counters(c: &SessionCounters) -> FeatureVector {
    let mut v = [0.0; ATTRIBUTE_COUNT];
    v[Attribute::HeadPct.index()] = c.ratio(c.head);
    v[Attribute::HtmlPct.index()] = c.ratio(c.html);
    v[Attribute::ImagePct.index()] = c.ratio(c.image);
    v[Attribute::CgiPct.index()] = c.ratio(c.cgi);
    v[Attribute::ReferrerPct.index()] = c.ratio(c.with_referer);
    v[Attribute::UnseenReferrerPct.index()] = c.ratio(c.unseen_referer);
    v[Attribute::EmbeddedObjPct.index()] = c.ratio(c.embedded_obj);
    v[Attribute::LinkFollowingPct.index()] = c.ratio(c.link_following);
    v[Attribute::Resp2xxPct.index()] = c.ratio(c.resp_2xx);
    v[Attribute::Resp3xxPct.index()] = c.ratio(c.resp_3xx);
    v[Attribute::Resp4xxPct.index()] = c.ratio(c.resp_4xx);
    v[Attribute::FaviconPct.index()] = c.ratio(c.favicon);
    FeatureVector(v)
}

/// Builds a synthetic record for tests and generators.
pub fn make_record(
    index: u32,
    method: MethodKind,
    class: ContentClass,
    status_class: u8,
    has_referer: bool,
    referer_seen: bool,
) -> RequestRecord {
    RequestRecord {
        index,
        time: botwall_sessions::SimTime::from_secs(index as u64),
        method,
        class,
        status_class,
        has_referer,
        referer_seen: referer_seen && has_referer,
        url_hash: index as u64,
        bytes: 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn html(i: u32) -> RequestRecord {
        make_record(i, MethodKind::Get, ContentClass::Html, 2, false, false)
    }

    fn image(i: u32) -> RequestRecord {
        make_record(i, MethodKind::Get, ContentClass::Image, 2, true, true)
    }

    #[test]
    fn attribute_indices_are_bijective() {
        for (i, a) in Attribute::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Attribute::Resp3xxPct.name(), "RESPCODE 3XX %");
        assert_eq!(Attribute::UnseenReferrerPct.name(), "UNSEEN REFERRER %");
    }

    #[test]
    fn extract_prefix_respects_cutoff() {
        let recs: Vec<RequestRecord> = (1..=10)
            .map(|i| if i <= 5 { html(i) } else { image(i) })
            .collect();
        let at5 = extract_prefix(&recs, 5);
        assert_eq!(at5.get(Attribute::HtmlPct), 1.0);
        assert_eq!(at5.get(Attribute::ImagePct), 0.0);
        let at10 = extract_prefix(&recs, 10);
        assert_eq!(at10.get(Attribute::HtmlPct), 0.5);
        assert_eq!(at10.get(Attribute::ImagePct), 0.5);
        // Beyond the end behaves like the full session.
        assert_eq!(extract_prefix(&recs, 99), at10);
    }

    #[test]
    fn shares_are_in_unit_interval_and_consistent() {
        let recs: Vec<RequestRecord> = (1..=20)
            .map(|i| match i % 4 {
                0 => make_record(i, MethodKind::Head, ContentClass::Html, 3, false, false),
                1 => html(i),
                2 => image(i),
                _ => make_record(i, MethodKind::Get, ContentClass::Cgi, 4, true, false),
            })
            .collect();
        let fv = extract_prefix(&recs, 20);
        for (a, v) in Attribute::ALL.iter().zip(fv.values()) {
            assert!((0.0..=1.0).contains(v), "{} out of range: {v}", a.name());
        }
        assert!((fv.get(Attribute::HeadPct) - 0.25).abs() < 1e-12);
        assert!((fv.get(Attribute::CgiPct) - 0.25).abs() < 1e-12);
        assert!((fv.get(Attribute::Resp4xxPct) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_zero_vector() {
        assert_eq!(extract_prefix(&[], 10), FeatureVector::zero());
    }

    #[test]
    fn display_renders_all_rows() {
        let s = FeatureVector::zero().to_string();
        for a in Attribute::ALL {
            assert!(s.contains(a.name()));
        }
    }
}
