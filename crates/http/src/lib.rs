//! HTTP/1.x substrate for the `botwall` robot-detection system.
//!
//! This crate provides the typed HTTP vocabulary that every other `botwall`
//! crate speaks: request/response messages, a header multimap, a minimal URI
//! parser suited to proxy-style (absolute-form) request lines, a wire codec
//! for HTTP/1.x framing, content classification used by the detector's
//! feature extraction, and a User-Agent parser.
//!
//! The design follows the needs of the robot detector from Park et al.,
//! *Securing Web Service by Automatic Robot Detection* (USENIX 2006):
//!
//! * The detector sessionizes traffic by `<client IP, User-Agent>` pairs, so
//!   [`Request`] carries both.
//! * Feature extraction (Table 2 of the paper) needs request *content
//!   classes* (HTML, image, CGI, favicon, …) and response *status classes*
//!   (2xx/3xx/4xx), so [`ContentClass`] and [`StatusCode`] expose them
//!   directly.
//! * The User-Agent header is routinely forged by robots; [`useragent`]
//!   parses the *claim* so the detector can test behaviour against it
//!   (browser-type mismatch), never trusting it as direct evidence.
//!
//! # Examples
//!
//! ```
//! use botwall_http::{Method, Request, StatusCode, Response, ContentClass};
//!
//! let req = Request::builder(Method::Get, "http://www.example.com/index.html")
//!     .header("User-Agent", "Mozilla/5.0 (Windows; U) Firefox/1.5")
//!     .header("Referer", "http://www.example.com/")
//!     .build()
//!     .unwrap();
//! assert_eq!(req.uri().host(), Some("www.example.com"));
//!
//! let resp = Response::builder(StatusCode::OK)
//!     .header("Content-Type", "text/html")
//!     .body_bytes(b"<html></html>".to_vec())
//!     .build();
//! assert!(resp.status().is_success());
//! assert_eq!(ContentClass::of(&req, Some(&resp)), ContentClass::Html);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod error;
pub mod frame;
pub mod head;
pub mod headers;
pub mod method;
pub mod request;
pub mod response;
pub mod status;
pub mod uri;
pub mod useragent;
pub mod wire;

pub use content::ContentClass;
pub use error::HttpError;
pub use head::Head;
pub use headers::Headers;
pub use method::Method;
pub use request::{Request, RequestBuilder, RequestView};
pub use response::{Response, ResponseBuilder, ResponseSummary};
pub use status::StatusCode;
pub use uri::{Uri, UriRef};
pub use useragent::{BrowserFamily, UserAgent};
