//! Typed HTTP requests, owned ([`Request`]) and read in place
//! ([`RequestView`]).

use crate::error::HttpError;
use crate::headers::Headers;
use crate::method::Method;
use crate::uri::{Uri, UriRef};
use std::borrow::Cow;

/// An IPv4-style client address used to key sessions.
///
/// The simulation does not route packets, so a compact opaque 32-bit
/// identifier suffices; `Display` renders dotted-quad for logs.
///
/// # Examples
///
/// ```
/// use botwall_http::request::ClientIp;
/// let ip = ClientIp::new(0x0A000001);
/// assert_eq!(ip.to_string(), "10.0.0.1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientIp(u32);

impl ClientIp {
    /// Creates an address from its 32-bit value.
    pub fn new(v: u32) -> ClientIp {
        ClientIp(v)
    }

    /// Returns the raw 32-bit value.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ClientIp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A typed HTTP request.
///
/// Carries the client address alongside the message because the detector
/// keys all of its state by `<client IP, User-Agent>`.
///
/// # Examples
///
/// ```
/// use botwall_http::{Method, Request};
///
/// let r = Request::builder(Method::Get, "http://example.com/a.html")
///     .header("User-Agent", "crawler/1.0")
///     .build()
///     .unwrap();
/// assert_eq!(r.user_agent(), Some("crawler/1.0"));
/// assert_eq!(r.referer(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    method: Method,
    uri: Uri,
    version: String,
    headers: Headers,
    body: Vec<u8>,
    client: ClientIp,
}

impl Request {
    /// Starts building a request; `uri` must parse or
    /// [`RequestBuilder::build`] fails.
    pub fn builder(method: Method, uri: impl Into<String>) -> RequestBuilder {
        RequestBuilder {
            method,
            uri: uri.into(),
            version: "HTTP/1.1".to_string(),
            headers: Headers::new(),
            body: Vec::new(),
            client: ClientIp(0),
        }
    }

    /// The request method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The request target.
    pub fn uri(&self) -> &Uri {
        &self.uri
    }

    /// The protocol version string (`HTTP/1.0` or `HTTP/1.1`).
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The header map.
    pub fn headers(&self) -> &Headers {
        &self.headers
    }

    /// Mutable access to the header map.
    pub fn headers_mut(&mut self) -> &mut Headers {
        &mut self.headers
    }

    /// The request body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The client address this request arrived from.
    pub fn client(&self) -> ClientIp {
        self.client
    }

    /// The authority (`host[:port]`) this request was addressed to: the
    /// target's own when it is absolute-form (a proxy-style request
    /// line), else the `Host` header (what a browser talking to a
    /// reverse proxy sends). Unvalidated client input.
    pub fn authority(&self) -> Option<Cow<'_, str>> {
        self.uri
            .authority()
            .or_else(|| self.headers.get("Host").map(Cow::Borrowed))
    }

    /// The `User-Agent` header value, if present.
    pub fn user_agent(&self) -> Option<&str> {
        self.headers.get("User-Agent")
    }

    /// The `Referer` header value, if present.
    ///
    /// Table 2's `REFERRER %` and `UNSEEN REFERRER %` features and the
    /// referrer-spam robot model both read this.
    pub fn referer(&self) -> Option<&str> {
        self.headers.get("Referer")
    }

    /// Wire size in bytes (request line + headers + body), counted
    /// without rendering anything.
    pub fn wire_len(&self) -> usize {
        let line = self.method.as_str().len()
            + 1
            + self.uri.view().display_len()
            + 1
            + self.version.len()
            + 2;
        line + self.headers.wire_len() + 2 + self.body.len()
    }

    /// What the gate reads of this request, borrowed: the same view the
    /// front door reads off a request head, so a caller holding an owned
    /// request runs the gate the server runs.
    pub fn view(&self) -> RequestView<'_> {
        RequestView {
            client: self.client,
            method: self.method.as_str(),
            uri: self.uri.view(),
            version: &self.version,
            user_agent: self.user_agent(),
            referer: self.referer(),
            host: self.headers.get("Host"),
            wire_len: self.wire_len(),
        }
    }

    /// A request from parts already parsed and checked; a body of its
    /// own gets a `Content-Length` unless one is set.
    pub(crate) fn assemble(
        method: Method,
        uri: Uri,
        version: String,
        mut headers: Headers,
        body: Vec<u8>,
        client: ClientIp,
    ) -> Request {
        if !body.is_empty() && !headers.contains("Content-Length") {
            headers.set("Content-Length", body.len().to_string());
        }
        Request {
            method,
            uri,
            version,
            headers,
            body,
            client,
        }
    }
}

/// A request as the gate reads it: the client, the request line, the
/// three headers detection looks at and the size on the wire, borrowed
/// from wherever the request is. The front door reads one straight off
/// its read buffer ([`crate::wire::read_incoming`]); [`Request::view`]
/// lends one from an owned request. Either way its `wire_len` is what
/// [`Request::wire_len`] of the owned request is.
///
/// # Examples
///
/// ```
/// use botwall_http::request::ClientIp;
/// use botwall_http::{wire, Method, Request};
///
/// let raw = b"GET /a.css HTTP/1.1\r\nUser-Agent: ua/1\r\nHost: h\r\n\r\n";
/// let read = wire::read_incoming(raw, ClientIp::new(1)).unwrap().unwrap();
/// let view = read.view();
/// assert_eq!((view.method(), view.uri().path()), (Method::Get, "/a.css"));
/// assert_eq!((view.user_agent(), view.authority().as_deref()), (Some("ua/1"), Some("h")));
/// assert_eq!(view.wire_len(), raw.len());
/// assert_eq!(read.to_request().view(), *view);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView<'a> {
    // Set by this crate's readers only, from what they have checked.
    pub(crate) client: ClientIp,
    /// The method token.
    pub(crate) method: &'a str,
    pub(crate) uri: UriRef<'a>,
    pub(crate) version: &'a str,
    pub(crate) user_agent: Option<&'a str>,
    pub(crate) referer: Option<&'a str>,
    pub(crate) host: Option<&'a str>,
    pub(crate) wire_len: usize,
}

impl<'a> RequestView<'a> {
    /// The client address the request arrived from.
    pub fn client(&self) -> ClientIp {
        self.client
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.method
            .parse()
            .expect("a view holds a checked method token")
    }

    /// The request target.
    pub fn uri(&self) -> &UriRef<'a> {
        &self.uri
    }

    /// The protocol version string.
    pub fn version(&self) -> &'a str {
        self.version
    }

    /// The first `User-Agent` value, if present.
    pub fn user_agent(&self) -> Option<&'a str> {
        self.user_agent
    }

    /// The first `Referer` value, if present.
    pub fn referer(&self) -> Option<&'a str> {
        self.referer
    }

    /// The authority the request was addressed to, as
    /// [`Request::authority`] reads it: the target's, else `Host`.
    pub fn authority(&self) -> Option<Cow<'a, str>> {
        self.uri.authority().or(self.host.map(Cow::Borrowed))
    }

    /// What [`Request::wire_len`] says of the owned request.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }
}

/// Builder for [`Request`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    method: Method,
    uri: String,
    version: String,
    headers: Headers,
    body: Vec<u8>,
    client: ClientIp,
}

impl RequestBuilder {
    /// Appends a header line.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// Sets the protocol version string.
    pub fn version(mut self, v: impl Into<String>) -> Self {
        self.version = v.into();
        self
    }

    /// Sets the body.
    pub fn body_bytes(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Sets the originating client address.
    pub fn client(mut self, ip: ClientIp) -> Self {
        self.client = ip;
        self
    }

    /// Validates the URI and produces the request.
    ///
    /// Adds a `Content-Length` header when a non-empty body is present and
    /// none was set explicitly.
    pub fn build(self) -> Result<Request, HttpError> {
        let uri = Uri::parse(&self.uri)?;
        Ok(Request::assemble(
            self.method,
            uri,
            self.version,
            self.headers,
            self.body,
            self.client,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_request() {
        let r = Request::builder(Method::Post, "http://h/cgi-bin/login")
            .header("User-Agent", "x")
            .body_bytes(b"user=a&pass=b".to_vec())
            .client(ClientIp::new(7))
            .build()
            .unwrap();
        assert_eq!(r.method(), &Method::Post);
        assert_eq!(r.uri().path(), "/cgi-bin/login");
        assert_eq!(r.client().as_u32(), 7);
        assert_eq!(r.headers().content_length(), Some(13));
    }

    #[test]
    fn authority_prefers_the_target_then_the_host_header() {
        let get = |uri: &str, host: Option<&str>| {
            let mut b = Request::builder(Method::Get, uri);
            if let Some(host) = host {
                b = b.header("host", host);
            }
            b.build().unwrap()
        };
        let r = get("http://proxied.example:81/x", Some("other.example"));
        assert_eq!(r.authority().as_deref(), Some("proxied.example:81"));
        let r = get("/x", Some("shop.example.org:8080"));
        assert_eq!(r.authority().as_deref(), Some("shop.example.org:8080"));
        assert_eq!(get("/x", None).authority(), None);
    }

    #[test]
    fn builder_rejects_bad_uri() {
        assert!(Request::builder(Method::Get, "not a uri").build().is_err());
    }

    #[test]
    fn explicit_content_length_not_overwritten() {
        let r = Request::builder(Method::Post, "/x")
            .header("Content-Length", "99")
            .body_bytes(vec![1, 2, 3])
            .build()
            .unwrap();
        assert_eq!(r.headers().content_length(), Some(99));
    }

    #[test]
    fn accessors_for_common_headers() {
        let r = Request::builder(Method::Get, "/p")
            .header("Referer", "http://h/prev.html")
            .build()
            .unwrap();
        assert_eq!(r.referer(), Some("http://h/prev.html"));
        assert_eq!(r.user_agent(), None);
    }

    #[test]
    fn client_ip_display() {
        assert_eq!(ClientIp::new(0xC0A80101).to_string(), "192.168.1.1");
        assert_eq!(ClientIp::new(0).to_string(), "0.0.0.0");
    }

    #[test]
    fn wire_len_counts_all_parts() {
        let r = Request::builder(Method::Get, "/a")
            .version("HTTP/1.0")
            .build()
            .unwrap();
        // "GET /a HTTP/1.0\r\n" (17) + "\r\n" (2).
        assert_eq!(r.wire_len(), 19);
    }
}
