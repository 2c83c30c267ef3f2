//! A minimal URI parser for proxy-style request lines.
//!
//! Open-proxy traffic (the paper's CoDeeN substrate) uses absolute-form
//! request targets (`GET http://host/path HTTP/1.0`); origin servers see
//! origin-form (`GET /path HTTP/1.0`). This parser handles both plus the
//! query string, which the beacon/probe URL codec relies on. It reads a
//! target in place ([`UriRef`], what the gate reads off a request head);
//! [`Uri`] is the same parts owned.

use crate::error::HttpError;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// The two schemes the parser accepts — an enum, so building a URI does
/// not allocate for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Scheme {
    Http,
    Https,
}

impl Scheme {
    fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

/// A request target read in place: optional scheme/host/port plus path
/// and optional query, each borrowed from the string it was parsed out
/// of. [`Uri`] owns the same parts; [`Uri::view`] lends them back.
///
/// # Examples
///
/// ```
/// use botwall_http::uri::UriRef;
///
/// let u = UriRef::parse("http://h:8080/a/B.JPG?k=1").unwrap();
/// assert_eq!((u.host(), u.port(), u.path()), (Some("h"), Some(8080), "/a/B.JPG"));
/// assert_eq!((u.file_name(), u.extension()), ("B.JPG", Some("JPG")));
/// assert_eq!(u.to_string().len(), u.display_len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UriRef<'a> {
    scheme: Option<Scheme>,
    host: Option<&'a str>,
    port: Option<u16>,
    path: &'a str,
    query: Option<&'a str>,
}

impl<'a> UriRef<'a> {
    /// Parses an absolute-form (`http://host[:port]/path[?q]`) or
    /// origin-form (`/path[?q]`) URI, or `*`.
    ///
    /// Returns [`HttpError::InvalidUri`] for empty input, unsupported
    /// schemes, empty hosts, bad ports, or whitespace in the URI.
    pub fn parse(s: &'a str) -> Result<UriRef<'a>, HttpError> {
        let bad = |why: &str| Err(HttpError::InvalidUri(format!("{why} in {s:?}")));
        if s.is_empty() {
            return Err(HttpError::InvalidUri("empty".to_string()));
        }
        if s.bytes().any(|b| b.is_ascii_whitespace()) {
            return bad("whitespace");
        }
        let absolute = [(Scheme::Http, "http://"), (Scheme::Https, "https://")]
            .into_iter()
            .find_map(|(scheme, prefix)| Some((scheme, s.strip_prefix(prefix)?)));
        let (scheme, host, port, path_and_query) = match absolute {
            Some((scheme, rest)) => {
                let (authority, path_and_query) = match rest.find('/') {
                    Some(i) => rest.split_at(i),
                    None => (rest, "/"),
                };
                let (host, port) = match authority.rsplit_once(':') {
                    Some((host, port)) => match port.parse::<u16>() {
                        Ok(port) => (host, Some(port)),
                        Err(_) if host.is_empty() => return bad("empty host"),
                        Err(_) => return bad("bad port"),
                    },
                    None => (authority, None),
                };
                if host.is_empty() {
                    return bad("empty host");
                }
                (Some(scheme), Some(host), port, path_and_query)
            }
            None if s.starts_with('/') || s == "*" => (None, None, None, s),
            None => return Err(HttpError::InvalidUri(format!("unsupported form: {s:?}"))),
        };
        let (path, query) = match path_and_query.split_once('?') {
            Some((path, query)) => (path, Some(query)),
            None => (path_and_query, None),
        };
        Ok(UriRef {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// The same parts, owned.
    pub fn to_uri(self) -> Uri {
        Uri {
            scheme: self.scheme,
            host: self.host.map(str::to_string),
            port: self.port,
            path: self.path.to_string(),
            query: self.query.map(str::to_string),
        }
    }

    /// The scheme (`http`/`https`), if absolute-form.
    pub fn scheme(&self) -> Option<&'static str> {
        self.scheme.map(Scheme::as_str)
    }

    /// The host, if absolute-form.
    pub fn host(&self) -> Option<&'a str> {
        self.host
    }

    /// The explicit port, if one was given.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path component (always starts with `/`, or is `*`).
    pub fn path(&self) -> &'a str {
        self.path
    }

    /// The query string without the leading `?`, if present.
    pub fn query(&self) -> Option<&'a str> {
        self.query
    }

    /// `host[:port]`, if absolute-form — borrowed unless a port has to
    /// be spliced back on.
    pub fn authority(&self) -> Option<Cow<'a, str>> {
        let host = self.host?;
        Some(match self.port {
            Some(port) => Cow::Owned(format!("{host}:{port}")),
            None => Cow::Borrowed(host),
        })
    }

    /// The final path segment (after the last `/`), without the query.
    pub fn file_name(&self) -> &'a str {
        self.path.rsplit('/').next().unwrap_or("")
    }

    /// The extension of [`UriRef::file_name`] as written (compare it
    /// case-insensitively), if any: a dotfile has none.
    pub fn extension(&self) -> Option<&'a str> {
        let (stem, ext) = self.file_name().rsplit_once('.')?;
        (!stem.is_empty() && !ext.is_empty()).then_some(ext)
    }

    /// How many bytes `Display` writes: what a request line spends on
    /// the target, counted without rendering it.
    pub fn display_len(&self) -> usize {
        let origin = match (self.scheme, self.host) {
            (Some(scheme), Some(host)) => {
                let port = self
                    .port
                    .map_or(0, |p| 1 + p.checked_ilog10().unwrap_or(0) as usize + 1);
                scheme.as_str().len() + 3 + host.len() + port
            }
            _ => 0,
        };
        origin + self.path.len() + self.query.map_or(0, |q| 1 + q.len())
    }
}

impl fmt::Display for UriRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pieces, not a format string: a script spells one URL per
        // function this way.
        if let (Some(scheme), Some(host)) = (self.scheme, self.host) {
            f.write_str(scheme.as_str())?;
            f.write_str("://")?;
            f.write_str(host)?;
            if let Some(p) = self.port {
                write!(f, ":{p}")?;
            }
        }
        f.write_str(self.path)?;
        if let Some(q) = self.query {
            f.write_str("?")?;
            f.write_str(q)?;
        }
        Ok(())
    }
}

/// A parsed URI: optional scheme/host/port plus path and optional query.
///
/// # Examples
///
/// ```
/// use botwall_http::Uri;
///
/// let u: Uri = "http://www.example.com:8080/a/b.html?k=1".parse().unwrap();
/// assert_eq!(u.scheme(), Some("http"));
/// assert_eq!(u.host(), Some("www.example.com"));
/// assert_eq!(u.port(), Some(8080));
/// assert_eq!(u.path(), "/a/b.html");
/// assert_eq!(u.query(), Some("k=1"));
///
/// let rel: Uri = "/index.html".parse().unwrap();
/// assert_eq!(rel.host(), None);
/// assert_eq!(rel.path(), "/index.html");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Uri {
    scheme: Option<Scheme>,
    host: Option<String>,
    port: Option<u16>,
    path: String,
    query: Option<String>,
}

impl Uri {
    /// Parses an absolute-form (`http://host[:port]/path[?q]`) or
    /// origin-form (`/path[?q]`) URI: [`UriRef::parse`], owned.
    pub fn parse(s: &str) -> Result<Uri, HttpError> {
        UriRef::parse(s).map(UriRef::to_uri)
    }

    /// The parts, borrowed.
    pub fn view(&self) -> UriRef<'_> {
        UriRef {
            scheme: self.scheme,
            host: self.host.as_deref(),
            port: self.port,
            path: &self.path,
            query: self.query.as_deref(),
        }
    }

    /// Builds an absolute `http` URI from parts; `host` may carry a
    /// `:port`, as a `Host` header does. The URI displays `host` as
    /// given: a port that would not read back as written (`:06`) stays
    /// part of the host.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_http::Uri;
    /// let u = Uri::absolute("example.com", "/x.css");
    /// assert_eq!(u.to_string(), "http://example.com/x.css");
    /// let u = Uri::absolute("127.0.0.1:8080", "/x.css");
    /// assert_eq!((u.host(), u.port()), (Some("127.0.0.1"), Some(8080)));
    /// let u = Uri::absolute("127.0.0.1:080", "/x.css");
    /// assert_eq!(u.to_string(), "http://127.0.0.1:080/x.css");
    /// ```
    pub fn absolute(host: impl Into<String>, path: impl Into<String>) -> Uri {
        let mut host = host.into();
        let port = host.rfind(':').and_then(|colon| {
            let digits = &host[colon + 1..];
            if digits.starts_with(['+', '0']) && digits != "0" {
                return None;
            }
            let port = digits.parse::<u16>().ok()?;
            host.truncate(colon);
            Some(port)
        });
        // The path's own buffer is kept: a probe URL is built per page.
        let mut path = path.into();
        let query = path.find('?').map(|at| {
            let query = path[at + 1..].to_string();
            path.truncate(at);
            query
        });
        Uri {
            scheme: Some(Scheme::Http),
            host: Some(host),
            port,
            path,
            query,
        }
    }

    /// The scheme (`http`/`https`), if absolute-form.
    pub fn scheme(&self) -> Option<&str> {
        self.view().scheme()
    }

    /// The host, if absolute-form.
    pub fn host(&self) -> Option<&str> {
        self.view().host()
    }

    /// The explicit port, if one was given.
    pub fn port(&self) -> Option<u16> {
        self.view().port()
    }

    /// `host[:port]` as it appeared in the URI, if absolute-form —
    /// borrowed unless a port has to be spliced back on.
    pub fn authority(&self) -> Option<Cow<'_, str>> {
        self.view().authority()
    }

    /// The path component (always starts with `/`, or is `*`).
    pub fn path(&self) -> &str {
        self.view().path()
    }

    /// The query string without the leading `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.view().query()
    }

    /// The final path segment (after the last `/`), without the query.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_http::Uri;
    /// let u: Uri = "http://h/a/b/pic.jpg?x=1".parse().unwrap();
    /// assert_eq!(u.file_name(), "pic.jpg");
    /// ```
    pub fn file_name(&self) -> &str {
        self.view().file_name()
    }

    /// The lowercase extension of [`Uri::file_name`], if any.
    pub fn extension(&self) -> Option<String> {
        self.view().extension().map(str::to_ascii_lowercase)
    }

    /// Resolves a (possibly relative) reference against this URI, which
    /// must be treated as the base document URI.
    ///
    /// Handles absolute URIs, absolute paths, and sibling-relative paths.
    pub fn join(&self, reference: &str) -> Result<Uri, HttpError> {
        if reference.starts_with("http://") || reference.starts_with("https://") {
            return Uri::parse(reference);
        }
        let mut out = self.clone();
        if let Some(path) = reference.strip_prefix('/') {
            let (path, query) = split_query(&format!("/{path}"));
            out.path = path;
            out.query = query;
            return Ok(out);
        }
        // Sibling-relative: replace the last segment of the base path.
        let base = match self.path.rfind('/') {
            Some(i) => &self.path[..=i],
            None => "/",
        };
        let (path, query) = split_query(&format!("{base}{reference}"));
        out.path = path;
        out.query = query;
        Ok(out)
    }
}

fn split_query(s: &str) -> (String, Option<String>) {
    match s.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (s.to_string(), None),
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.view(), f)
    }
}

impl FromStr for Uri {
    type Err = HttpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Uri::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_absolute_form() {
        let u: Uri = "http://www.example.com/index.html".parse().unwrap();
        assert_eq!(u.scheme(), Some("http"));
        assert_eq!(u.host(), Some("www.example.com"));
        assert_eq!(u.port(), None);
        assert_eq!(u.path(), "/index.html");
        assert_eq!(u.query(), None);
    }

    #[test]
    fn parses_explicit_port_and_query() {
        let u: Uri = "http://h:8080/cgi-bin/s?q=a&b=c".parse().unwrap();
        assert_eq!(u.port(), Some(8080));
        assert_eq!(u.query(), Some("q=a&b=c"));
    }

    #[test]
    fn host_only_gets_root_path() {
        let u: Uri = "http://example.com".parse().unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn parses_origin_form() {
        let u: Uri = "/a/b?x=1".parse().unwrap();
        assert_eq!(u.host(), None);
        assert_eq!(u.path(), "/a/b");
        assert_eq!(u.query(), Some("x=1"));
    }

    #[test]
    fn authority_splices_the_port_back_on() {
        let u: Uri = "http://h:8080/x".parse().unwrap();
        assert_eq!(u.authority().as_deref(), Some("h:8080"));
        let u: Uri = "http://h/x".parse().unwrap();
        assert_eq!(u.authority().as_deref(), Some("h"));
        let u: Uri = "/x".parse().unwrap();
        assert_eq!(u.authority(), None);
        assert_eq!(
            Uri::absolute("h:8080", "/x?q=1"),
            "http://h:8080/x?q=1".parse().unwrap()
        );
    }

    #[test]
    fn asterisk_form() {
        let u: Uri = "*".parse().unwrap();
        assert_eq!(u.path(), "*");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Uri::parse("").is_err());
        assert!(Uri::parse("ftp://x/").is_err());
        assert!(Uri::parse("http:///path").is_err());
        assert!(Uri::parse("http://h:99999/").is_err());
        assert!(Uri::parse("http://h/a b").is_err());
        assert!(Uri::parse("relative.html").is_err());
    }

    #[test]
    fn display_roundtrips() {
        for s in [
            "http://example.com/",
            "http://example.com:8080/x?y=z",
            "/p/q.css",
            "https://h/",
        ] {
            let u: Uri = s.parse().unwrap();
            assert_eq!(u.to_string(), s, "roundtrip of {s}");
        }
    }

    #[test]
    fn display_len_counts_what_display_writes() {
        for s in [
            "*",
            "/",
            "/a?b",
            "http://h",
            "http://h?q=1",
            "http://h:0/x",
            "http://h:+80/x?q",
            "https://h:65535/",
        ] {
            let u = UriRef::parse(s).unwrap();
            assert_eq!(u.display_len(), u.to_string().len(), "{s}");
            assert_eq!(Uri::parse(s).unwrap().view(), u, "{s}");
        }
    }

    #[test]
    fn file_name_and_extension() {
        let u: Uri = "http://h/img/pic.JPG?v=2".parse().unwrap();
        assert_eq!(u.file_name(), "pic.JPG");
        assert_eq!(u.extension(), Some("jpg".to_string()));

        let u: Uri = "http://h/dir/".parse().unwrap();
        assert_eq!(u.file_name(), "");
        assert_eq!(u.extension(), None);

        let u: Uri = "http://h/.hidden".parse().unwrap();
        assert_eq!(u.extension(), None, "dotfile has no extension");
    }

    #[test]
    fn join_absolute_reference() {
        let base: Uri = "http://a.com/x/y.html".parse().unwrap();
        let j = base.join("http://b.com/z").unwrap();
        assert_eq!(j.host(), Some("b.com"));
    }

    #[test]
    fn join_absolute_path() {
        let base: Uri = "http://a.com/x/y.html".parse().unwrap();
        let j = base.join("/css/site.css").unwrap();
        assert_eq!(j.to_string(), "http://a.com/css/site.css");
    }

    #[test]
    fn join_sibling_relative() {
        let base: Uri = "http://a.com/x/y.html".parse().unwrap();
        let j = base.join("pic.gif").unwrap();
        assert_eq!(j.to_string(), "http://a.com/x/pic.gif");
    }

    #[test]
    fn join_preserves_query_of_reference() {
        let base: Uri = "http://a.com/x/y.html?old=1".parse().unwrap();
        let j = base.join("next.html?new=2").unwrap();
        assert_eq!(j.query(), Some("new=2"));
    }
}
