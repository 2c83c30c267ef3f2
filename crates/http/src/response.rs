//! Typed HTTP responses.

use crate::content::ContentClass;
use crate::headers::Headers;
use crate::status::StatusCode;

/// What a session record keeps of a response: its status, the class its
/// `Content-Type` names, and its size as [`Response::wire_len`] counts
/// it. An answer that is never built as a [`Response`] (a refusal, a
/// probe object) says the same three things of itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseSummary {
    /// The status code.
    pub status: StatusCode,
    /// [`ContentClass::from_content_type`] of its `Content-Type`, if it
    /// has one that names a class.
    pub class: Option<ContentClass>,
    /// Status line, headers and body, in bytes.
    pub wire_len: usize,
}

impl ResponseSummary {
    /// What [`Response::empty`] of `status` summarises to, counted
    /// without building it.
    pub fn empty(status: StatusCode) -> ResponseSummary {
        ResponseSummary {
            status,
            class: None,
            wire_len: "HTTP/1.1 200 \r\n\r\n".len() + status.reason().len(),
        }
    }
}

/// A typed HTTP response.
///
/// # Examples
///
/// ```
/// use botwall_http::{Response, StatusCode};
///
/// let r = Response::builder(StatusCode::FOUND)
///     .header("Location", "http://example.com/moved.html")
///     .build();
/// assert!(r.status().is_redirect());
/// assert_eq!(r.headers().get("Location"), Some("http://example.com/moved.html"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: StatusCode,
    version: String,
    headers: Headers,
    body: Vec<u8>,
}

impl Response {
    /// Starts building a response with the given status.
    pub fn builder(status: StatusCode) -> ResponseBuilder {
        ResponseBuilder {
            status,
            version: "HTTP/1.1".to_string(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Convenience constructor for a bodyless response.
    pub fn empty(status: StatusCode) -> Response {
        Response::builder(status).build()
    }

    /// The status code.
    pub fn status(&self) -> StatusCode {
        self.status
    }

    /// The protocol version string.
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

    /// The response body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The `Content-Type` header value, if present.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("Content-Type")
    }

    /// Returns `true` if the response forbids caching.
    ///
    /// The instrumenter marks every rewritten page and generated probe
    /// `Cache-Control: no-cache, no-store` so browsers re-fetch them and
    /// the beacon keys stay fresh (§2.1 of the paper).
    pub fn is_uncacheable(&self) -> bool {
        self.headers
            .get_all("Cache-Control")
            .any(|v| v.contains("no-store") || v.contains("no-cache"))
    }

    /// Approximate wire size in bytes (status line + headers + body).
    pub fn wire_len(&self) -> usize {
        let line = self.version.len() + 1 + 3 + 1 + self.status.reason().len() + 2;
        line + self.headers.wire_len() + 2 + self.body.len()
    }

    /// What a session record keeps of this response.
    pub fn summary(&self) -> ResponseSummary {
        ResponseSummary {
            status: self.status,
            class: self
                .content_type()
                .and_then(ContentClass::from_content_type),
            wire_len: self.wire_len(),
        }
    }
}

/// Builder for [`Response`].
#[derive(Debug, Clone)]
pub struct ResponseBuilder {
    status: StatusCode,
    version: String,
    pub(crate) headers: Headers,
    body: Vec<u8>,
}

impl ResponseBuilder {
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

    /// Sets the body and a matching `Content-Length` header (unless one was
    /// already set explicitly).
    pub fn body_bytes(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Produces the response.
    pub fn build(mut self) -> Response {
        if !self.body.is_empty() && !self.headers.contains("Content-Length") {
            self.headers
                .set("Content-Length", self.body.len().to_string());
        }
        Response {
            status: self.status,
            version: self.version,
            headers: self.headers,
            body: self.body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_content_length() {
        let r = Response::builder(StatusCode::OK)
            .body_bytes(b"hello".to_vec())
            .build();
        assert_eq!(r.headers().content_length(), Some(5));
        assert_eq!(r.body(), b"hello");
    }

    #[test]
    fn empty_response_has_no_content_length() {
        let r = Response::empty(StatusCode::NO_CONTENT);
        assert_eq!(r.headers().content_length(), None);
    }

    #[test]
    fn uncacheable_detection() {
        let r = Response::builder(StatusCode::OK)
            .header("Cache-Control", "no-cache, no-store")
            .build();
        assert!(r.is_uncacheable());
        let r = Response::builder(StatusCode::OK)
            .header("Cache-Control", "max-age=3600")
            .build();
        assert!(!r.is_uncacheable());
        assert!(!Response::empty(StatusCode::OK).is_uncacheable());
    }

    #[test]
    fn an_empty_summary_is_the_empty_responses() {
        for status in [
            StatusCode::OK,
            StatusCode::FORBIDDEN,
            StatusCode::new(599).unwrap(),
        ] {
            assert_eq!(
                ResponseSummary::empty(status),
                Response::empty(status).summary()
            );
        }
    }

    #[test]
    fn wire_len_counts_all_parts() {
        let r = Response::empty(StatusCode::OK);
        // "HTTP/1.1 200 OK\r\n" (17) + "\r\n" (2).
        assert_eq!(r.wire_len(), 19);
    }
}
