//! Ad-hoc User-Agent signature matching.
//!
//! "Previous work to identify malicious robots has relied on ad-hoc
//! signature matching and has been performed on a per-site basis. As Web
//! robots evolve and diversify, these techniques have not been scaling."
//! This baseline exists so the experiments can demonstrate exactly that:
//! it catches self-identifying robots and nothing else, and any forged
//! browser string sails through.

use botwall_core::Label;

/// A User-Agent substring blacklist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UaSignatureMatcher {
    patterns: Vec<String>,
}

impl Default for UaSignatureMatcher {
    fn default() -> Self {
        UaSignatureMatcher::with_standard_patterns()
    }
}

impl UaSignatureMatcher {
    /// An empty matcher.
    pub fn new() -> UaSignatureMatcher {
        UaSignatureMatcher {
            patterns: Vec::new(),
        }
    }

    /// The kind of blacklist a 2006 site operator maintained by hand.
    pub fn with_standard_patterns() -> UaSignatureMatcher {
        UaSignatureMatcher {
            patterns: [
                "bot",
                "crawler",
                "spider",
                "wget",
                "curl",
                "libwww",
                "slurp",
                "harvest",
                "scan",
                "fetch",
                "archiver",
                "java/",
                "python-urllib",
                "lwp::",
                "emailsiphon",
                "emailcollector",
                "webzip",
                "offline explorer",
                "teleport",
                "httrack",
                "webcopier",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }

    /// Adds a pattern (matched case-insensitively as a substring).
    pub fn add(&mut self, pattern: impl Into<String>) {
        self.patterns.push(pattern.into().to_ascii_lowercase());
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether no patterns are loaded.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Classifies a session by its User-Agent string alone.
    ///
    /// Missing or empty strings are treated as robots (no browser omits
    /// the header); anything else not on the blacklist is presumed human —
    /// which is precisely the weakness.
    pub fn classify(&self, user_agent: Option<&str>) -> Label {
        let Some(ua) = user_agent else {
            return Label::Robot;
        };
        let ua = ua.trim();
        if ua.is_empty() {
            return Label::Robot;
        }
        let lower = ua.to_ascii_lowercase();
        if self.patterns.iter().any(|p| lower.contains(p.as_str())) {
            Label::Robot
        } else {
            Label::Human
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_self_identifying_robots() {
        let m = UaSignatureMatcher::default();
        for ua in [
            "Googlebot/2.1 (+http://www.google.com/bot.html)",
            "Wget/1.10.2",
            "WebZIP/5.0",
            "HTTrack/3.40",
        ] {
            assert_eq!(m.classify(Some(ua)), Label::Robot, "{ua}");
        }
    }

    #[test]
    fn missing_or_empty_ua_is_robot() {
        let m = UaSignatureMatcher::default();
        assert_eq!(m.classify(None), Label::Robot);
        assert_eq!(m.classify(Some("")), Label::Robot);
        assert_eq!(m.classify(Some("   ")), Label::Robot);
    }

    #[test]
    fn forged_browser_strings_pass_undetected() {
        // The structural weakness the paper calls out.
        let m = UaSignatureMatcher::default();
        assert_eq!(
            m.classify(Some("Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)")),
            Label::Human,
            "a forging robot evades signatures entirely"
        );
    }

    #[test]
    fn custom_patterns() {
        let mut m = UaSignatureMatcher::new();
        assert!(m.is_empty());
        m.add("EvilClient");
        assert_eq!(m.len(), 1);
        assert_eq!(m.classify(Some("evilclient/9")), Label::Robot);
        assert_eq!(m.classify(Some("NiceClient/1")), Label::Human);
    }
}
