//! Session identity.

use botwall_http::request::ClientIp;
use botwall_http::{Request, RequestView};
use std::fmt;

/// The most bytes of a `User-Agent` a [`SessionKey`] keeps. A longer
/// header is cut here (at a char boundary), so what a client can make
/// each live session hold is bounded however long a head it sends; no
/// browser or robot sends a `User-Agent` near this long. Evidence that
/// reads the agent (the UA-mismatch test) reads the full header, not
/// the key.
pub const MAX_KEY_AGENT_BYTES: usize = 512;

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
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    ip: ClientIp,
    user_agent: String,
}

impl SessionKey {
    /// Builds a key from parts, keeping at most [`MAX_KEY_AGENT_BYTES`]
    /// of the `User-Agent`. The value is cut before it is copied, so the
    /// key's string never holds more than that.
    pub fn new(ip: ClientIp, user_agent: impl AsRef<str>) -> SessionKey {
        let user_agent = user_agent.as_ref();
        let mut end = user_agent.len().min(MAX_KEY_AGENT_BYTES);
        while !user_agent.is_char_boundary(end) {
            end -= 1;
        }
        SessionKey {
            ip,
            user_agent: user_agent[..end].to_owned(),
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

    /// The User-Agent string ("" when the header was absent), cut to
    /// [`MAX_KEY_AGENT_BYTES`].
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
    fn agents_alike_in_their_first_512_bytes_are_one_key() {
        // A two-byte char straddles the bound, so the cut falls before it.
        let head = format!("{}é", "a".repeat(MAX_KEY_AGENT_BYTES - 1));
        let long = |tail: &str| req(1, Some(&format!("{head}{}", tail.repeat(8000))));
        let (b, c) = (long("b"), long("c"));
        let key = SessionKey::of(&b);
        assert_eq!(key, SessionKey::of(&c));
        assert_eq!(key, SessionKey::of_view(&c.view()));
        assert_eq!(key.user_agent(), "a".repeat(MAX_KEY_AGENT_BYTES - 1));
        for key in [key, SessionKey::of_view(&b.view())] {
            assert!(key.user_agent.capacity() <= MAX_KEY_AGENT_BYTES);
        }
        // Up to the bound an agent is kept whole.
        let whole = "x".repeat(MAX_KEY_AGENT_BYTES);
        assert_eq!(
            SessionKey::new(ClientIp::new(1), &whole).user_agent(),
            whole
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
