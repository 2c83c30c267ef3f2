//! Session identity.

use botwall_http::request::ClientIp;
use botwall_http::{Request, RequestView};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `<client IP, User-Agent>` pair that identifies a session.
///
/// The paper keys sessions on exactly this pair: a NAT'd office and a
/// robot farm on one address produce *different* sessions as long as their
/// User-Agent strings differ, while one client changing its forged UA
/// mid-stream splits into separate sessions (which is fine — each still
/// gets classified on its own behaviour).
///
/// # Examples
///
/// ```
/// use botwall_http::{Method, Request};
/// use botwall_http::request::ClientIp;
/// use botwall_sessions::SessionKey;
///
/// let r = Request::builder(Method::Get, "/")
///     .header("User-Agent", "Opera/8.51")
///     .client(ClientIp::new(9))
///     .build()
///     .unwrap();
/// let k = SessionKey::of(&r);
/// assert_eq!(k.ip(), ClientIp::new(9));
/// assert_eq!(k.user_agent(), "Opera/8.51");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionKey {
    ip: ClientIp,
    user_agent: String,
}

impl SessionKey {
    /// Builds a key from parts.
    pub fn new(ip: ClientIp, user_agent: impl Into<String>) -> SessionKey {
        SessionKey {
            ip,
            user_agent: user_agent.into(),
        }
    }

    /// Extracts the key from a request. A missing `User-Agent` header maps
    /// to the empty string (all UA-less traffic from one address is one
    /// session — exactly how the paper's proxy groups it).
    pub fn of(request: &Request) -> SessionKey {
        SessionKey::new(request.client(), request.user_agent().unwrap_or(""))
    }

    /// [`SessionKey::of`] for a request read in place: the one copy a
    /// gated request makes of its `User-Agent`.
    pub fn of_view(request: &RequestView<'_>) -> SessionKey {
        SessionKey::new(request.client(), request.user_agent().unwrap_or(""))
    }

    /// The client address.
    pub fn ip(&self) -> ClientIp {
        self.ip
    }

    /// The raw User-Agent string ("" when the header was absent).
    pub fn user_agent(&self) -> &str {
        &self.user_agent
    }

    /// A stable 64-bit hash of the key (FNV-1a over the address octets
    /// and User-Agent bytes). Used to pick a tracker shard; unlike
    /// `std::collections::HashMap`'s per-instance-seeded hasher, this is
    /// identical across processes and runs, so shard assignment — and
    /// therefore shard iteration order — is deterministic.
    pub fn shard_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self
            .ip
            .as_u32()
            .to_be_bytes()
            .iter()
            .chain(self.user_agent.as_bytes())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

impl fmt::Display for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {:?}>", self.ip, self.user_agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::Method;

    fn req(ip: u32, ua: Option<&str>) -> Request {
        let mut b = Request::builder(Method::Get, "/").client(ClientIp::new(ip));
        if let Some(ua) = ua {
            b = b.header("User-Agent", ua);
        }
        b.build().unwrap()
    }

    #[test]
    fn same_ip_different_ua_is_different_session() {
        let a = SessionKey::of(&req(1, Some("A")));
        let b = SessionKey::of(&req(1, Some("B")));
        assert_ne!(a, b);
    }

    #[test]
    fn same_ua_different_ip_is_different_session() {
        let a = SessionKey::of(&req(1, Some("A")));
        let b = SessionKey::of(&req(2, Some("A")));
        assert_ne!(a, b);
    }

    #[test]
    fn missing_ua_is_empty_string() {
        let k = SessionKey::of(&req(1, None));
        assert_eq!(k.user_agent(), "");
        assert_eq!(k, SessionKey::new(ClientIp::new(1), ""));
    }

    #[test]
    fn shard_hash_is_stable_and_key_sensitive() {
        let a = SessionKey::new(ClientIp::new(1), "A");
        // Same parts, same hash — every call, every construction.
        assert_eq!(
            a.shard_hash(),
            SessionKey::new(ClientIp::new(1), "A").shard_hash()
        );
        // Either component changing changes the hash.
        assert_ne!(
            a.shard_hash(),
            SessionKey::new(ClientIp::new(2), "A").shard_hash()
        );
        assert_ne!(
            a.shard_hash(),
            SessionKey::new(ClientIp::new(1), "B").shard_hash()
        );
    }

    #[test]
    fn display_shows_both_parts() {
        let k = SessionKey::new(ClientIp::new(0x01020304), "x");
        let s = k.to_string();
        assert!(s.contains("1.2.3.4"));
        assert!(s.contains("\"x\""));
    }
}
