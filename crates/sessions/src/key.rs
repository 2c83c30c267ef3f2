//! Session identity.

use botwall_http::request::ClientIp;
use botwall_http::{Request, RequestView};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The most bytes of a `User-Agent` a [`SessionKey`] keeps. A longer
/// header is cut here (at a char boundary), so what a client can make
/// each live session hold is bounded however long a head it sends; no
/// browser or robot sends a `User-Agent` near this long. Evidence that
/// reads the agent (the UA-mismatch test) reads the full header, not
/// the key.
pub const MAX_KEY_AGENT_BYTES: usize = 512;

/// `agent` cut to at most [`MAX_KEY_AGENT_BYTES`], at a char boundary.
fn cut(agent: &str) -> &str {
    let mut end = agent.len().min(MAX_KEY_AGENT_BYTES);
    while !agent.is_char_boundary(end) {
        end -= 1;
    }
    &agent[..end]
}

/// The two parts a session key is made of, however they are held: an
/// owned [`SessionKey`], or a request's address and the borrowed head of
/// its `User-Agent`. A tracker's index is keyed by `SessionKey` and
/// looked up by `dyn KeyParts` (through `Borrow`), so finding a key
/// already known copies nothing.
pub trait KeyParts {
    /// The client address.
    fn ip(&self) -> ClientIp;
    /// The `User-Agent`, cut to [`MAX_KEY_AGENT_BYTES`].
    fn user_agent(&self) -> &str;
}

/// What `#[derive(Hash)]` on [`SessionKey`] feeds a hasher: the address,
/// then the agent (an `Arc<str>` hashes as its `str`).
impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ip().hash(state);
        self.user_agent().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.ip() == other.ip() && self.user_agent() == other.user_agent()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// A request's key parts, borrowed from the request it was read from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRef<'a> {
    ip: ClientIp,
    user_agent: &'a str,
}

impl<'a> KeyRef<'a> {
    /// The key parts of a request read in place.
    pub(crate) fn of_view(request: &RequestView<'a>) -> KeyRef<'a> {
        KeyRef {
            ip: request.client(),
            user_agent: cut(request.user_agent().unwrap_or("")),
        }
    }

    /// [`SessionKey::shard_hash`] of the key these parts make.
    pub(crate) fn shard_hash(&self) -> u64 {
        fnv1a(self.ip, self.user_agent)
    }

    /// The owned key: the one copy of the agent a session keeps.
    pub(crate) fn to_key(self) -> SessionKey {
        SessionKey {
            ip: self.ip,
            user_agent: Arc::from(self.user_agent),
        }
    }
}

impl KeyParts for KeyRef<'_> {
    fn ip(&self) -> ClientIp {
        self.ip
    }

    fn user_agent(&self) -> &str {
        self.user_agent
    }
}

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
///
/// The agent is an `Arc<str>`: a tracker's index and the session it
/// names share one allocation, and a clone copies no bytes. `Hash`,
/// `Eq`, `Ord` and `Debug` read it as the `str` it holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    ip: ClientIp,
    user_agent: Arc<str>,
}

impl SessionKey {
    /// Builds a key from parts, keeping at most [`MAX_KEY_AGENT_BYTES`]
    /// of the `User-Agent`. The value is cut before it is copied, so the
    /// key's string never holds more than that.
    pub fn new(ip: ClientIp, user_agent: impl AsRef<str>) -> SessionKey {
        KeyRef {
            ip,
            user_agent: cut(user_agent.as_ref()),
        }
        .to_key()
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
        fnv1a(self.ip, &self.user_agent)
    }
}

/// FNV-1a over the address octets and the agent's bytes.
fn fnv1a(ip: ClientIp, user_agent: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in ip
        .as_u32()
        .to_be_bytes()
        .iter()
        .chain(user_agent.as_bytes())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl KeyParts for SessionKey {
    fn ip(&self) -> ClientIp {
        self.ip
    }

    fn user_agent(&self) -> &str {
        &self.user_agent
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for SessionKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
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
            assert!(key.user_agent.len() <= MAX_KEY_AGENT_BYTES);
        }
        // Up to the bound an agent is kept whole.
        let whole = "x".repeat(MAX_KEY_AGENT_BYTES);
        assert_eq!(
            SessionKey::new(ClientIp::new(1), &whole).user_agent(),
            whole
        );
    }

    #[test]
    fn a_key_is_found_by_its_borrowed_parts() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        let hash = |value: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            value(&mut h);
            h.finish()
        };
        let long = format!("{}é tail", "a".repeat(MAX_KEY_AGENT_BYTES - 1));
        let mut index = HashMap::new();
        for (n, agent) in ["", "Opera/8.51", long.as_str()].into_iter().enumerate() {
            let r = req(7, Some(agent).filter(|a| !a.is_empty()));
            let (key, view) = (SessionKey::of(&r), r.view());
            let parts = KeyRef::of_view(&view);
            let parts: &dyn KeyParts = &parts;
            assert!(parts == &key as &dyn KeyParts);
            assert_eq!(hash(&|h| key.hash(h)), hash(&|h| parts.hash(h)));
            assert_eq!(KeyRef::of_view(&view).shard_hash(), key.shard_hash());
            assert_eq!(KeyRef::of_view(&view).to_key(), key);
            index.insert(key, n);
            assert_eq!(index.get(parts), Some(&n));
        }
        let stranger = req(8, Some("Opera/8.51"));
        assert_eq!(
            index.get(&KeyRef::of_view(&stranger.view()) as &dyn KeyParts),
            None
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
