//! User-Agent string parsing.
//!
//! The paper is explicit that the `User-Agent` header is "easily forged,
//! and we find that it is commonly forged in practice. As a result, we
//! ignore this field" — as *direct* evidence. It is still useful in two
//! ways the detector exploits:
//!
//! 1. **Browser-type mismatch** (Table 1's 0.7% row): the claim made in the
//!    header can be contradicted by observed behaviour (e.g. claims IE but
//!    never fetches CSS, or the JavaScript-reported agent string differs
//!    from the header).
//! 2. **Session keying**: sessions are `<IP, User-Agent>` pairs, so the raw
//!    string participates in identity even when untrusted.

/// Browser families the paper names as "typical browsers".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrowserFamily {
    /// Microsoft Internet Explorer.
    InternetExplorer,
    /// Mozilla Firefox.
    Firefox,
    /// Mozilla Suite / Seamonkey.
    Mozilla,
    /// Apple Safari.
    Safari,
    /// Netscape Navigator.
    Netscape,
    /// Opera.
    Opera,
}

impl BrowserFamily {
    /// All families, in the order the paper lists them.
    pub const ALL: [BrowserFamily; 6] = [
        BrowserFamily::InternetExplorer,
        BrowserFamily::Firefox,
        BrowserFamily::Mozilla,
        BrowserFamily::Safari,
        BrowserFamily::Netscape,
        BrowserFamily::Opera,
    ];

    /// A human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BrowserFamily::InternetExplorer => "Internet Explorer",
            BrowserFamily::Firefox => "Firefox",
            BrowserFamily::Mozilla => "Mozilla",
            BrowserFamily::Safari => "Safari",
            BrowserFamily::Netscape => "Netscape",
            BrowserFamily::Opera => "Opera",
        }
    }

    /// A period-accurate example User-Agent string for this family.
    pub fn example_string(self) -> &'static str {
        match self {
            BrowserFamily::InternetExplorer => {
                "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)"
            }
            BrowserFamily::Firefox => {
                "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1"
            }
            BrowserFamily::Mozilla => {
                "Mozilla/5.0 (X11; U; Linux i686; en-US; rv:1.7.12) Gecko/20050922"
            }
            BrowserFamily::Safari => {
                "Mozilla/5.0 (Macintosh; U; PPC Mac OS X; en) AppleWebKit/418 (KHTML, like Gecko) Safari/417.9.2"
            }
            BrowserFamily::Netscape => {
                "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.7.5) Gecko/20050512 Netscape/8.0"
            }
            BrowserFamily::Opera => "Opera/8.51 (Windows NT 5.1; U; en)",
        }
    }
}

/// What a `User-Agent` string *claims* to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserAgent {
    /// Claims to be a standard browser.
    Browser(BrowserFamily),
    /// Self-identifies as a robot (contains `bot`, `crawler`, `spider`,
    /// `wget`, `curl`, … or a contact URL/email per the Robot Exclusion
    /// Protocol convention).
    DeclaredRobot(String),
    /// Some other non-empty string.
    Unknown(String),
    /// No `User-Agent` header at all — itself a robot tell.
    Missing,
}

impl UserAgent {
    /// Parses a `User-Agent` header value into a claim.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_http::{BrowserFamily, UserAgent};
    /// assert_eq!(
    ///     UserAgent::parse(Some("Opera/8.51 (Windows NT 5.1; U; en)")),
    ///     UserAgent::Browser(BrowserFamily::Opera)
    /// );
    /// assert!(matches!(
    ///     UserAgent::parse(Some("Googlebot/2.1 (+http://www.google.com/bot.html)")),
    ///     UserAgent::DeclaredRobot(_)
    /// ));
    /// assert_eq!(UserAgent::parse(None), UserAgent::Missing);
    /// ```
    pub fn parse(value: Option<&str>) -> UserAgent {
        let Some(raw) = value else {
            return UserAgent::Missing;
        };
        let raw = raw.trim();
        if raw.is_empty() {
            return UserAgent::Missing;
        }
        let lower = raw.to_ascii_lowercase();
        for marker in [
            "bot", "crawler", "spider", "wget", "curl", "libwww", "harvest", "fetch", "scan",
            "slurp", "archiver", "java/", "python",
        ] {
            if lower.contains(marker) {
                return UserAgent::DeclaredRobot(raw.to_string());
            }
        }
        // Order matters: many strings contain "Mozilla/"; check the most
        // specific markers first (the historical UA sniffing dance).
        if lower.contains("opera") {
            UserAgent::Browser(BrowserFamily::Opera)
        } else if lower.contains("netscape") {
            UserAgent::Browser(BrowserFamily::Netscape)
        } else if lower.contains("firefox") {
            UserAgent::Browser(BrowserFamily::Firefox)
        } else if lower.contains("safari") {
            UserAgent::Browser(BrowserFamily::Safari)
        } else if lower.contains("msie") {
            UserAgent::Browser(BrowserFamily::InternetExplorer)
        } else if lower.contains("gecko") || lower.starts_with("mozilla/") {
            UserAgent::Browser(BrowserFamily::Mozilla)
        } else {
            UserAgent::Unknown(raw.to_string())
        }
    }

    /// Canonicalizes an agent string the way the paper's injected
    /// JavaScript does (`navigator.userAgent.toLowerCase()` with spaces
    /// removed) so header and script-reported strings can be compared.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_http::UserAgent;
    /// assert_eq!(
    ///     UserAgent::canonicalize("Mozilla/4.0 (compatible; MSIE 6.0)"),
    ///     "mozilla/4.0(compatible;msie6.0)"
    /// );
    /// ```
    pub fn canonicalize(raw: &str) -> String {
        raw.to_ascii_lowercase().replace(' ', "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_example_strings_to_their_family() {
        for f in BrowserFamily::ALL {
            assert_eq!(
                UserAgent::parse(Some(f.example_string())),
                UserAgent::Browser(f),
                "family {}",
                f.name()
            );
        }
    }

    #[test]
    fn missing_and_empty_are_missing() {
        assert_eq!(UserAgent::parse(None), UserAgent::Missing);
        assert_eq!(UserAgent::parse(Some("")), UserAgent::Missing);
        assert_eq!(UserAgent::parse(Some("   ")), UserAgent::Missing);
    }

    #[test]
    fn declared_robots() {
        for s in [
            "Googlebot/2.1 (+http://www.google.com/bot.html)",
            "Wget/1.10.2",
            "curl/7.15.1",
            "EmailSiphon", // contains no marker… see below
            "Python-urllib/2.4",
            "Java/1.5.0_06",
            "Yahoo! Slurp",
        ] {
            let ua = UserAgent::parse(Some(s));
            if s == "EmailSiphon" {
                // No standard marker — falls through to Unknown, which the
                // detector treats as suspicious anyway.
                assert!(matches!(ua, UserAgent::Unknown(_)), "{s}");
            } else {
                assert!(matches!(ua, UserAgent::DeclaredRobot(_)), "{s}");
            }
        }
    }

    #[test]
    fn robot_marker_beats_browser_marker() {
        // Many robots embed "Mozilla/" to sneak past naive filters while
        // still declaring themselves.
        let ua = UserAgent::parse(Some("Mozilla/5.0 (compatible; SuperCrawler/1.0)"));
        assert!(matches!(ua, UserAgent::DeclaredRobot(_)));
    }

    #[test]
    fn bare_mozilla_is_mozilla_family() {
        assert_eq!(
            UserAgent::parse(Some("Mozilla/4.76 [en] (X11; U; Linux 2.4.2)")),
            UserAgent::Browser(BrowserFamily::Mozilla)
        );
    }

    #[test]
    fn unknown_strings() {
        assert!(matches!(
            UserAgent::parse(Some("TotallyLegitClient/9.9")),
            UserAgent::Unknown(_)
        ));
    }

    #[test]
    fn canonicalization_matches_js_behaviour() {
        // The injected script lowercases and strips spaces; both sides must
        // agree for the mismatch test to be sound.
        let raw = "Opera/8.51 (Windows NT 5.1; U; en)";
        let canon = UserAgent::canonicalize(raw);
        assert!(!canon.contains(' '));
        assert_eq!(canon, canon.to_ascii_lowercase());
        assert_eq!(canon, "opera/8.51(windowsnt5.1;u;en)");
    }
}
