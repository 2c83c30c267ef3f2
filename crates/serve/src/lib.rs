//! A real TCP front door for the botwall gateway.
//!
//! Everything below the gateway in this workspace is deterministic and
//! in-process; this crate is where it meets actual sockets. One epoll
//! event loop per configured thread (the offline [`reactor`] shim —
//! standing in for tokio/mio) accepts connections, speaks enough
//! HTTP/1.1 (incremental parsing, `Content-Length` framing, keep-alive),
//! and drives every request through the gateway's **deferred two-phase
//! protocol**: requests the gate can answer alone finish immediately,
//! and requests that need origin content park the client while the
//! origin is fetched over a second non-blocking connection on the same
//! loop — the concurrency story PR 5 built the lease/commit split for,
//! now exercised over real file descriptors. With `threads > 1` the
//! reactors share the listen address through `SO_REUSEPORT` (the kernel
//! shards accepts) and one `Arc<Gateway>`; the connection cap and the
//! served totals stay global through a handful of shared atomics, and
//! the default of 1 thread behaves exactly as the single-threaded
//! server always has.
//!
//! * [`Server`] — the event loop; [`ServeConfig`] sets the connection
//!   cap, the origin and the reactor threads. The origin pool holds
//!   [`ORIGIN_POOL_CAP`] idle connections per reactor, and the timeouts
//!   are constants ([`READ_TIMEOUT`], [`ORIGIN_TIMEOUT`],
//!   [`ORIGIN_POOL_IDLE`]) on one clock a test moves forward
//!   ([`ShutdownHandle::advance`]); keep-alive is always on.
//! * `/admin/stats` — the operator plane, for a loopback peer only: one
//!   JSON snapshot of [`botwall_gateway::GatewayStats`], rendered by
//!   [`stats::stats_json`]. From elsewhere the path is gated like any.
//! * [`MockOrigin`] — a deliberately blocking loopback origin with
//!   per-path latency, for tests/benches/the binary's `--mock-origin`.
//! * [`client`] — a minimal blocking HTTP client used by the end-to-end
//!   tests, the front-door bench, and the binary's `--smoke` mode.
//!
//! The `botwall-serve` binary wires a SIGTERM/SIGINT handler to the
//! reactor's waker, so a signal turns into a clean drain: stop
//! accepting, finish in-flight exchanges, flush every session through
//! the classifier, exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod mock;
mod origin;
mod pool;
pub mod server;
mod staged;
pub mod stats;

// Lives in `botwall-http` with the rest of the codec; found here as ever.
pub use botwall_http::frame;
pub use conn::READ_TIMEOUT;
pub use mock::{MockOrigin, MockOriginHandle};
pub use origin::ORIGIN_TIMEOUT;
pub use pool::{ORIGIN_POOL_CAP, ORIGIN_POOL_IDLE};
pub use server::{ServeConfig, ServeReport, Server, ShutdownHandle, SysCalls};
