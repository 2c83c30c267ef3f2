//! Browser behaviour profiles.
//!
//! The server never sees the browser itself, only its request pattern;
//! these profiles capture the per-family pattern circa 2006: every stock
//! browser fetches style sheets and images, JS-capable configurations
//! fetch and execute scripts, and most fetch `/favicon.ico` once.

use botwall_http::BrowserFamily;

/// The asset-fetching behaviour of one browser configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrowserProfile {
    /// Which family the browser belongs to (drives the User-Agent).
    pub family: BrowserFamily,
    /// Whether JavaScript is enabled (4–6% of users disable it, §2.2).
    pub js_enabled: bool,
    /// Whether the browser fetches style sheets (all standard ones do).
    pub fetches_css: bool,
    /// Whether embedded images are loaded (text-mode/dial-up users may
    /// disable them).
    pub fetches_images: bool,
    /// Whether the browser requests `/favicon.ico` on first visit.
    pub fetches_favicon: bool,
}

impl BrowserProfile {
    /// The stock configuration for a family.
    pub fn standard(family: BrowserFamily) -> BrowserProfile {
        BrowserProfile {
            family,
            js_enabled: true,
            fetches_css: true,
            fetches_images: true,
            // Period-accurate: IE and Firefox fetched favicons eagerly;
            // Opera did on bookmarking only.
            fetches_favicon: family != BrowserFamily::Opera,
        }
    }

    /// The same configuration with JavaScript disabled.
    pub fn js_disabled(family: BrowserFamily) -> BrowserProfile {
        BrowserProfile {
            js_enabled: false,
            ..BrowserProfile::standard(family)
        }
    }

    /// The header User-Agent string this browser sends.
    pub fn user_agent(&self) -> &'static str {
        self.family.example_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::UserAgent;

    #[test]
    fn standard_profiles_fetch_presentation_content() {
        for f in BrowserFamily::ALL {
            let p = BrowserProfile::standard(f);
            assert!(p.fetches_css, "{} must fetch CSS", f.name());
            assert!(p.fetches_images);
            assert!(p.js_enabled);
        }
    }

    #[test]
    fn js_disabled_only_changes_js() {
        let p = BrowserProfile::js_disabled(BrowserFamily::Firefox);
        assert!(!p.js_enabled);
        assert!(p.fetches_css);
    }

    #[test]
    fn user_agent_parses_back_to_family() {
        for f in BrowserFamily::ALL {
            let p = BrowserProfile::standard(f);
            assert_eq!(
                UserAgent::parse(Some(p.user_agent())),
                UserAgent::Browser(f)
            );
        }
    }

    #[test]
    fn opera_skips_favicon() {
        assert!(!BrowserProfile::standard(BrowserFamily::Opera).fetches_favicon);
        assert!(BrowserProfile::standard(BrowserFamily::Firefox).fetches_favicon);
    }
}
