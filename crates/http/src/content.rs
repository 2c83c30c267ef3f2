//! Request content classification.
//!
//! The detector and the Table-2 feature extractor both need to know *what
//! kind of thing* a request asked for: HTML pages, embedded images, CSS,
//! JavaScript, CGI programs, or the favicon. Robots reveal themselves by
//! the mix they fetch — crawlers and email harvesters request only HTML,
//! referrer spammers fetch nothing presentation-related, off-line browsers
//! fetch everything.

use crate::request::{Request, RequestView};
use crate::response::Response;
use crate::uri::UriRef;

/// The content class of a requested resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentClass {
    /// An HTML page (including directory indexes).
    Html,
    /// A cascading style sheet.
    Css,
    /// A JavaScript file.
    Script,
    /// An image (`image/*`, or an image extension).
    Image,
    /// The special `/favicon.ico` request browsers issue spontaneously.
    Favicon,
    /// A CGI/dynamic endpoint (path contains `cgi-bin`, `.cgi`, `.php`,
    /// `.asp`, `.jsp`, or carries a query string on an executable path).
    Cgi,
    /// Audio content (the paper suggests silent audio probes).
    Audio,
    /// Anything else (downloads, archives, unknown types).
    Other,
}

impl ContentClass {
    /// Classifies a request, preferring the response `Content-Type` when a
    /// response is available and falling back to URI heuristics.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_http::{ContentClass, Method, Request};
    /// let r = Request::builder(Method::Get, "http://h/style/main.css")
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(ContentClass::of(&r, None), ContentClass::Css);
    /// ```
    pub fn of(request: &Request, response: Option<&Response>) -> ContentClass {
        let typed = response
            .and_then(Response::content_type)
            .and_then(Self::from_content_type);
        Self::of_uri(request.uri().view(), typed)
    }

    /// [`ContentClass::of`] for a request read in place, `typed` being
    /// what the response's `Content-Type` names (see
    /// [`crate::response::ResponseSummary::class`]).
    pub fn of_view(request: &RequestView<'_>, typed: Option<ContentClass>) -> ContentClass {
        Self::of_uri(*request.uri(), typed)
    }

    fn of_uri(uri: UriRef<'_>, typed: Option<ContentClass>) -> ContentClass {
        // Favicon is special-cased by path: browsers fetch it unprompted
        // and Table 2 counts it separately (`FAVICON %`).
        if uri.file_name().eq_ignore_ascii_case("favicon.ico") {
            return ContentClass::Favicon;
        }
        if Self::is_cgi_path(uri) {
            return ContentClass::Cgi;
        }
        if let Some(class) = typed {
            return class;
        }
        let Some(ext) = uri.extension() else {
            // Extensionless paths ending in `/` (or bare) are pages.
            return ContentClass::Html;
        };
        let is = |names: &[&str]| names.iter().any(|name| ext.eq_ignore_ascii_case(name));
        if is(&["html", "htm", "xhtml"]) {
            ContentClass::Html
        } else if is(&["css"]) {
            ContentClass::Css
        } else if is(&["js"]) {
            ContentClass::Script
        } else if is(&["jpg", "jpeg", "gif", "png", "bmp", "ico", "svg"]) {
            ContentClass::Image
        } else if is(&["wav", "mp3", "ogg", "au"]) {
            ContentClass::Audio
        } else {
            ContentClass::Other
        }
    }

    /// Classifies by MIME type alone. Returns `None` for types that need
    /// URI context.
    pub fn from_content_type(ct: &str) -> Option<ContentClass> {
        let ct = ct.split(';').next().unwrap_or("").trim();
        let is = |names: &[&str]| names.iter().any(|name| ct.eq_ignore_ascii_case(name));
        let under = |top: &str| {
            ct.get(..top.len())
                .is_some_and(|prefix| prefix.eq_ignore_ascii_case(top))
        };
        Some(if is(&["text/html", "application/xhtml+xml"]) {
            ContentClass::Html
        } else if is(&["text/css"]) {
            ContentClass::Css
        } else if is(&[
            "text/javascript",
            "application/javascript",
            "application/x-javascript",
        ]) {
            ContentClass::Script
        } else if under("image/") {
            ContentClass::Image
        } else if under("audio/") {
            ContentClass::Audio
        } else if ct.is_empty() {
            return None;
        } else {
            ContentClass::Other
        })
    }

    fn is_cgi_path(uri: UriRef<'_>) -> bool {
        // `/cgi-bin/` anywhere: a segment named so with another after it.
        let mut directories = uri.path().split('/');
        directories.next_back();
        directories.any(|segment| segment.eq_ignore_ascii_case("cgi-bin"))
            || uri.extension().is_some_and(|ext| {
                ["cgi", "php", "asp", "jsp", "pl"]
                    .iter()
                    .any(|cgi| ext.eq_ignore_ascii_case(cgi))
            })
    }

    /// Returns `true` for embedded-object classes (anything a page pulls in
    /// automatically rather than via a followed link).
    pub fn is_embedded_object(self) -> bool {
        matches!(
            self,
            ContentClass::Css | ContentClass::Image | ContentClass::Script | ContentClass::Audio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;

    fn req(uri: &str) -> Request {
        Request::builder(Method::Get, uri).build().unwrap()
    }

    #[test]
    fn classifies_by_extension() {
        assert_eq!(
            ContentClass::of(&req("http://h/a.html"), None),
            ContentClass::Html
        );
        assert_eq!(
            ContentClass::of(&req("http://h/a.css"), None),
            ContentClass::Css
        );
        assert_eq!(
            ContentClass::of(&req("http://h/a.js"), None),
            ContentClass::Script
        );
        assert_eq!(
            ContentClass::of(&req("http://h/a.png"), None),
            ContentClass::Image
        );
        assert_eq!(
            ContentClass::of(&req("http://h/a.wav"), None),
            ContentClass::Audio
        );
        assert_eq!(
            ContentClass::of(&req("http://h/a.zip"), None),
            ContentClass::Other
        );
    }

    #[test]
    fn favicon_wins_over_image_extension() {
        assert_eq!(
            ContentClass::of(&req("http://h/favicon.ico"), None),
            ContentClass::Favicon
        );
        assert_eq!(
            ContentClass::of(&req("http://h/sub/FAVICON.ICO"), None),
            ContentClass::Favicon
        );
        // Some other .ico is just an image.
        assert_eq!(
            ContentClass::of(&req("http://h/logo.ico"), None),
            ContentClass::Image
        );
    }

    #[test]
    fn cgi_detection() {
        assert_eq!(
            ContentClass::of(&req("http://h/cgi-bin/search"), None),
            ContentClass::Cgi
        );
        assert_eq!(
            ContentClass::of(&req("http://h/login.php"), None),
            ContentClass::Cgi
        );
        assert_eq!(
            ContentClass::of(&req("http://h/x.asp?q=1"), None),
            ContentClass::Cgi
        );
        assert_eq!(
            ContentClass::of(&req("http://h/x.jsp"), None),
            ContentClass::Cgi
        );
    }

    #[test]
    fn cgi_bin_is_a_directory_in_any_case() {
        for (path, cgi) in [
            ("/cgi-bin/x", true),
            ("/a/CGI-Bin/x", true),
            ("/a/cgi-bin/", true),
            ("/cgi-bin", false),
            ("/xcgi-bin/y", false),
            ("/cgi-binx/y", false),
        ] {
            let class = ContentClass::of(&req(&format!("http://h{path}")), None);
            assert_eq!(class == ContentClass::Cgi, cgi, "{path}");
        }
    }

    #[test]
    fn extensionless_paths_are_pages() {
        assert_eq!(
            ContentClass::of(&req("http://h/"), None),
            ContentClass::Html
        );
        assert_eq!(
            ContentClass::of(&req("http://h/articles/today"), None),
            ContentClass::Html
        );
    }

    #[test]
    fn content_type_overrides_uri() {
        use crate::response::Response;
        use crate::status::StatusCode;
        let resp = Response::builder(StatusCode::OK)
            .header("Content-Type", "image/jpeg")
            .build();
        // Path suggests HTML; Content-Type says image.
        assert_eq!(
            ContentClass::of(&req("http://h/weird"), Some(&resp)),
            ContentClass::Image
        );
    }

    #[test]
    fn content_type_with_parameters() {
        assert_eq!(
            ContentClass::from_content_type("text/html; charset=utf-8"),
            Some(ContentClass::Html)
        );
        assert_eq!(
            ContentClass::from_content_type("application/javascript"),
            Some(ContentClass::Script)
        );
        assert_eq!(ContentClass::from_content_type(""), None);
    }

    #[test]
    fn presentation_and_embedded_predicates() {
        assert!(ContentClass::Image.is_embedded_object());
        assert!(!ContentClass::Favicon.is_embedded_object());
    }
}
