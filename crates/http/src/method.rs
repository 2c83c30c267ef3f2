//! HTTP request methods.

use crate::error::HttpError;
use std::fmt;
use std::str::FromStr;

/// An HTTP request method.
///
/// The paper's feature set (Table 2) tracks the share of `HEAD` commands
/// explicitly (`HEAD %`), and its abuse policies key on `GET` rates and
/// CGI `POST` hammering, so methods are first-class here.
///
/// # Examples
///
/// ```
/// use botwall_http::Method;
/// assert_eq!("GET".parse::<Method>().unwrap(), Method::Get);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET` — retrieve a resource.
    Get,
    /// `HEAD` — retrieve headers only.
    Head,
    /// `POST` — submit data (forms, password attempts, CGI).
    Post,
    /// `PUT` — replace a resource.
    Put,
    /// `DELETE` — remove a resource.
    Delete,
    /// `OPTIONS` — query capabilities.
    Options,
    /// `TRACE` — echo the request.
    Trace,
    /// `CONNECT` — open a tunnel (used through open proxies by abusers).
    Connect,
    /// Any other syntactically valid token (extension methods).
    Extension(String),
}

impl Method {
    /// Returns the canonical token for the method.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Trace => "TRACE",
            Method::Connect => "CONNECT",
            Method::Extension(s) => s,
        }
    }

    /// Returns `true` if `b` is a legal HTTP token byte (RFC 7230 tchar):
    /// one load from a table built at compile time, since every byte of
    /// every header name goes through it.
    pub(crate) fn is_token_byte(b: u8) -> bool {
        const TOKEN: [bool; 256] = {
            let mut table = [false; 256];
            let mut b = 0;
            while b < 256 {
                table[b] = matches!(
                    b as u8,
                    b'!' | b'#'
                        | b'$'
                        | b'%'
                        | b'&'
                        | b'\''
                        | b'*'
                        | b'+'
                        | b'-'
                        | b'.'
                        | b'^'
                        | b'_'
                        | b'`'
                        | b'|'
                        | b'~'
                ) || (b as u8).is_ascii_alphanumeric();
                b += 1;
            }
            table
        };
        TOKEN[b as usize]
    }
}

/// What a request record keeps of a [`Method`]: which of the eight
/// standard methods it was, or that it was some extension. One byte and
/// `Copy`, so a record never holds a client's method token, however
/// long a token the client sent.
///
/// # Examples
///
/// ```
/// use botwall_http::MethodKind;
/// assert_eq!(MethodKind::of("HEAD"), MethodKind::Head);
/// assert_eq!(MethodKind::of("PROPFIND"), MethodKind::Extension);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// `GET`.
    Get,
    /// `HEAD`.
    Head,
    /// `POST`.
    Post,
    /// `PUT`.
    Put,
    /// `DELETE`.
    Delete,
    /// `OPTIONS`.
    Options,
    /// `TRACE`.
    Trace,
    /// `CONNECT`.
    Connect,
    /// Any other token.
    Extension,
}

impl MethodKind {
    /// Classifies a method token (case-sensitive, as [`Method`] parses
    /// it) without copying it. Any token that is not one of the eight
    /// standard methods is a [`MethodKind::Extension`]; validating the
    /// token is the reader's job, not this one's.
    pub fn of(token: &str) -> MethodKind {
        match token {
            "GET" => MethodKind::Get,
            "HEAD" => MethodKind::Head,
            "POST" => MethodKind::Post,
            "PUT" => MethodKind::Put,
            "DELETE" => MethodKind::Delete,
            "OPTIONS" => MethodKind::Options,
            "TRACE" => MethodKind::Trace,
            "CONNECT" => MethodKind::Connect,
            _ => MethodKind::Extension,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = HttpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            "TRACE" => Method::Trace,
            "CONNECT" => Method::Connect,
            other if !other.is_empty() && other.bytes().all(Method::is_token_byte) => {
                Method::Extension(other.to_string())
            }
            other => return Err(HttpError::InvalidMethod(other.to_string())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_standard_methods() {
        for (s, m) in [
            ("GET", Method::Get),
            ("HEAD", Method::Head),
            ("POST", Method::Post),
            ("PUT", Method::Put),
            ("DELETE", Method::Delete),
            ("OPTIONS", Method::Options),
            ("TRACE", Method::Trace),
            ("CONNECT", Method::Connect),
        ] {
            assert_eq!(s.parse::<Method>().unwrap(), m);
            assert_eq!(m.as_str(), s);
        }
    }

    #[test]
    fn extension_methods_roundtrip() {
        let m: Method = "PROPFIND".parse().unwrap();
        assert_eq!(m, Method::Extension("PROPFIND".to_string()));
        assert_eq!(m.as_str(), "PROPFIND");
    }

    #[test]
    fn methods_are_case_sensitive() {
        // `get` is a valid token but not the canonical GET method.
        let m: Method = "get".parse().unwrap();
        assert_eq!(m, Method::Extension("get".to_string()));
    }

    #[test]
    fn rejects_non_token_bytes() {
        assert!("G ET".parse::<Method>().is_err());
        assert!("".parse::<Method>().is_err());
        assert!("GET\r".parse::<Method>().is_err());
        assert!("GET:".parse::<Method>().is_err());
    }

    #[test]
    fn a_kind_classifies_a_token_as_parsing_it_would() {
        for token in [
            "GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "TRACE", "CONNECT", "get", "PATCH",
        ] {
            let (kind, parsed) = (MethodKind::of(token), token.parse::<Method>().unwrap());
            match parsed {
                Method::Extension(_) => assert_eq!(kind, MethodKind::Extension, "{token}"),
                standard => assert_eq!(format!("{kind:?}"), format!("{standard:?}")),
            }
        }
        assert_eq!(std::mem::size_of::<MethodKind>(), 1);
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(Method::Post.to_string(), "POST");
        assert_eq!(Method::Extension("PATCH".into()).to_string(), "PATCH");
    }
}
