//! HTTP response status codes.

use crate::error::HttpError;
use std::fmt;

/// An HTTP status code in `100..=599`.
///
/// The paper's ML features (Table 2) include the share of 2xx, 3xx and 4xx
/// responses per session — `RESPCODE 3XX %` turned out to be the single most
/// informative attribute — so status *classes* are first-class here.
///
/// # Examples
///
/// ```
/// use botwall_http::StatusCode;
/// assert!(StatusCode::OK.is_success());
/// assert_eq!(StatusCode::FOUND.class(), 3);
/// assert_eq!(StatusCode::NOT_FOUND.class(), 4);
/// assert_eq!(StatusCode::new(301).unwrap().class(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(u16);

impl StatusCode {
    /// `200 OK`.
    pub const OK: StatusCode = StatusCode(200);
    /// `302 Found` (the classic redirect).
    pub const FOUND: StatusCode = StatusCode(302);
    /// `400 Bad Request`.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// `403 Forbidden`.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// `404 Not Found`.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// `408 Request Timeout` (client took too long to send its request).
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// `429 Too Many Requests` (what the rate limiter returns).
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// `502 Bad Gateway` (proxy could not reach the origin).
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    /// `503 Service Unavailable`.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);
    /// `504 Gateway Timeout` (origin did not answer in time).
    pub const GATEWAY_TIMEOUT: StatusCode = StatusCode(504);

    /// Creates a status code, rejecting values outside `100..=599`.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_http::StatusCode;
    /// assert!(StatusCode::new(200).is_ok());
    /// assert!(StatusCode::new(99).is_err());
    /// assert!(StatusCode::new(600).is_err());
    /// ```
    pub fn new(code: u16) -> Result<StatusCode, HttpError> {
        if (100..=599).contains(&code) {
            Ok(StatusCode(code))
        } else {
            Err(HttpError::InvalidStatus(code))
        }
    }

    /// Returns the numeric code.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns the hundreds digit: 1, 2, 3, 4 or 5.
    pub fn class(self) -> u8 {
        (self.0 / 100) as u8
    }

    /// Returns `true` for 2xx codes.
    pub fn is_success(self) -> bool {
        self.class() == 2
    }

    /// Returns the canonical reason phrase for well-known codes, or
    /// `"Unknown"` otherwise.
    pub fn reason(self) -> &'static str {
        match self.0 {
            100 => "Continue",
            101 => "Switching Protocols",
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            206 => "Partial Content",
            301 => "Moved Permanently",
            302 => "Found",
            303 => "See Other",
            304 => "Not Modified",
            307 => "Temporary Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            410 => "Gone",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u16> for StatusCode {
    type Error = HttpError;

    fn try_from(code: u16) -> Result<Self, Self::Error> {
        StatusCode::new(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_ranges() {
        assert_eq!(StatusCode::new(101).unwrap().class(), 1);
        assert_eq!(StatusCode::OK.class(), 2);
        assert_eq!(StatusCode::FOUND.class(), 3);
        assert_eq!(StatusCode::NOT_FOUND.class(), 4);
        assert_eq!(StatusCode::BAD_GATEWAY.class(), 5);
    }

    #[test]
    fn boundary_validation() {
        assert!(StatusCode::new(100).is_ok());
        assert!(StatusCode::new(599).is_ok());
        assert_eq!(StatusCode::new(99), Err(HttpError::InvalidStatus(99)));
        assert_eq!(StatusCode::new(600), Err(HttpError::InvalidStatus(600)));
        assert_eq!(StatusCode::new(0), Err(HttpError::InvalidStatus(0)));
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(StatusCode::OK.reason(), "OK");
        assert_eq!(StatusCode::NOT_FOUND.reason(), "Not Found");
        assert_eq!(StatusCode::new(599).unwrap().reason(), "Unknown");
    }

    #[test]
    fn try_from_roundtrip() {
        let s = StatusCode::try_from(418u16).unwrap();
        assert_eq!(s.as_u16(), 418);
        assert_eq!(s.to_string(), "418");
    }
}
