//! Sessionization substrate for `botwall`.
//!
//! The paper defines a session as "a stream of HTTP requests and responses
//! associated with a unique `<IP, User-Agent>` pair, that has not been idle
//! for more than an hour", and only classifies sessions that have sent more
//! than 10 requests (§3.1). This crate implements exactly that: a streaming
//! session store keyed by [`SessionKey`], with idle-timeout finalization,
//! bounded memory, and incremental per-request statistics that feed both
//! the online detector (`botwall-core`) and the Table-2 ML features
//! (`botwall-ml`).
//!
//! # Examples
//!
//! ```
//! use botwall_http::{Method, Request, Response, StatusCode};
//! use botwall_http::request::ClientIp;
//! use botwall_sessions::{SessionTracker, TrackerConfig, SimTime};
//!
//! let tracker = SessionTracker::new(TrackerConfig::default());
//! let req = Request::builder(Method::Get, "http://h/a.html")
//!     .header("User-Agent", "test")
//!     .client(ClientIp::new(1))
//!     .build()
//!     .unwrap();
//! let resp = Response::empty(StatusCode::OK);
//! let key = tracker.observe(&req, &resp, SimTime::from_secs(0));
//! assert_eq!(tracker.get(&key).unwrap().request_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod record;
pub mod stats;
pub mod sync;
mod table;
pub mod time;
pub mod tracker;

pub use key::SessionKey;
pub use record::RequestRecord;
pub use stats::SessionCounters;
pub use time::SimTime;
pub use tracker::{
    Begun, Census, EntryGuard, ExchangeLease, Finalized, Gate, Session, SessionExt, SessionTracker,
    ShardedTracker, TrackerConfig, EXT_GAUGES,
};

/// Makes room for one more item in a per-session list. A list that has
/// never held anything gets exactly one slot, not the four `Vec` starts
/// with: most sessions are strangers that make one request, and their
/// lists stay that size. From the second item on `Vec` grows as it
/// always does (1 → 4 → 8 → …), so a long session's lists end where they
/// did.
///
/// ```
/// let mut list = Vec::new();
/// botwall_sessions::reserve_one(&mut list);
/// list.push(7u64);
/// assert_eq!(list.capacity(), 1);
/// botwall_sessions::reserve_one(&mut list);
/// list.push(8);
/// assert_eq!(list.capacity(), 4);
/// ```
pub fn reserve_one<T>(list: &mut Vec<T>) {
    if list.capacity() == 0 {
        list.reserve_exact(1);
    }
}
