//! The plan replayed in-process: the same requests, handed to the same
//! public functions the server calls, with no socket, no event loop and
//! no second process in between. What one operation costs here is what
//! the libraries cost; what the socket run costs beyond that (and beyond
//! its socket round trips) is what nobody has attributed yet.
//!
//! Call sequence per operation, as `crates/serve` makes it:
//! `wire::parse_request` → `Gateway::handle_deferred` → for a lease,
//! `frame::response_head` on the origin's bytes, then either
//! `begin_page_stream` / `BodyDecoder::push` / `PageStream::write` /
//! `finish_page_stream` (an HTML page) or `frame::measure` /
//! `frame::dechunk` / `wire::parse_response` / `Gateway::complete`
//! (anything else) → `wire::serialize_response_into`.

use crate::client::{Fetched, ResponseMeta, Transport};
use crate::content::Library;
use crate::drive::Driver;
use crate::plan::Plan;
use crate::sys::monotonic_ns;
use botwall_gateway::{Gateway, Origin, PendingServe};
use botwall_http::request::ClientIp;
use botwall_http::{wire, Response, StatusCode};
use botwall_serve::frame::{self, BodyDecoder};
use botwall_sessions::SimTime;
use std::collections::HashMap;
use std::io;

/// The address every loopback client has.
pub fn loopback() -> ClientIp {
    ClientIp::new(0x7f00_0001)
}

/// Simulated milliseconds per operation: the pace of the socket run
/// (about 100 µs an operation), so that token buckets refill and session
/// rates read as they do there instead of as on a CPU-speed replay.
const OPS_PER_MS: u64 = 10;

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A [`Transport`] that is the gateway itself.
pub struct InProcess {
    /// The gateway under replay.
    pub gateway: Gateway,
    library: Library,
    origin_wire: HashMap<String, Vec<u8>>,
    ops: u64,
    out: Vec<u8>,
    raw: Vec<u8>,
    decoded: Vec<u8>,
}

impl std::fmt::Debug for InProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcess")
            .field("ops", &self.ops)
            .finish_non_exhaustive()
    }
}

impl InProcess {
    /// A fresh default gateway, as `botwall-serve --seed <seed>` builds it.
    pub fn new(seed: u64) -> InProcess {
        InProcess {
            gateway: Gateway::builder().seed(seed).build(),
            library: Library::default(),
            origin_wire: HashMap::new(),
            ops: 0,
            out: Vec::with_capacity(128 * 1024),
            raw: Vec::with_capacity(128 * 1024),
            decoded: Vec::with_capacity(128 * 1024),
        }
    }

    /// The simulated time of the next operation.
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.ops / OPS_PER_MS)
    }

    /// The bytes the origin would answer `path` with.
    fn origin_bytes(&mut self, path: &str) -> &[u8] {
        if !self.origin_wire.contains_key(path) {
            let wire = self.library.wire(path);
            self.origin_wire.insert(path.to_string(), wire);
        }
        &self.origin_wire[path]
    }
}

impl Transport for InProcess {
    fn fetch(
        &mut self,
        request: &[u8],
        _reconnect: bool,
        body: &mut Vec<u8>,
    ) -> io::Result<Fetched> {
        let now = self.now();
        self.ops += 1;
        body.clear();
        self.out.clear();
        let mut untimed_ns = 0;
        let start = monotonic_ns();
        let parsed = wire::parse_request(request, loopback()).map_err(invalid)?;
        let status = match self.gateway.handle_deferred(&parsed, now) {
            PendingServe::Ready(decision) => {
                let response = decision.into_response();
                wire::serialize_response_into(&response, &mut self.out);
                body.extend_from_slice(response.body());
                response.status()
            }
            PendingServe::AwaitingOrigin(pending) => {
                // Standing in for the origin exchange: not the gateway's time.
                let pause = monotonic_ns();
                let path = pending.request().uri().path().to_string();
                let mut raw = std::mem::take(&mut self.raw);
                raw.clear();
                raw.extend_from_slice(self.origin_bytes(&path));
                untimed_ns = monotonic_ns() - pause;

                let head = frame::response_head(&raw)
                    .map_err(invalid)?
                    .ok_or_else(|| invalid("origin response without a head"))?;
                let status = if head.status == 200
                    && head.content_type.as_deref() == Some("text/html")
                {
                    let mut stream = self.gateway.begin_page_stream(&pending, now);
                    raw.drain(..head.len);
                    self.decoded.clear();
                    let done = BodyDecoder::new(head.framing)
                        .push(&mut raw, &mut self.decoded)
                        .map_err(invalid)?;
                    if !done {
                        return Err(invalid("origin page body is incomplete"));
                    }
                    stream.write(&self.decoded, body);
                    let streamed = body.len() as u64;
                    self.gateway
                        .finish_page_stream(pending, stream, body, streamed, now);
                    self.out.extend_from_slice(body);
                    StatusCode::OK
                } else {
                    if !matches!(frame::measure(&raw), Ok(frame::Framing::Complete { .. })) {
                        return Err(invalid("origin response is incomplete"));
                    }
                    let identity = frame::dechunk(&raw).map_err(invalid)?;
                    let response: Response = wire::parse_response(&identity).map_err(invalid)?;
                    let fetched = if response.status() == StatusCode::NOT_FOUND {
                        Origin::NotFound
                    } else {
                        Origin::Response(response)
                    };
                    let response = self.gateway.complete(pending, fetched, now).into_response();
                    wire::serialize_response_into(&response, &mut self.out);
                    body.extend_from_slice(response.body());
                    response.status()
                };
                self.raw = raw;
                status
            }
        };
        let done_ns = monotonic_ns();
        Ok(Fetched {
            meta: ResponseMeta {
                status: status.as_u16(),
                wire_bytes: self.out.len(),
                chunked: false,
                close: false,
            },
            sent_ns: start + untimed_ns,
            first_byte_ns: done_ns,
            done_ns,
        })
    }
}

/// What the replay found.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Mean in-process time of one measured operation, in microseconds.
    pub us_per_op: f64,
    /// Measured operations replayed.
    pub ops: usize,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations whose response was wrong.
    pub failed: u64,
    /// The first failures, described.
    pub described: Vec<String>,
}

/// Replays `plan` (warm-up, then the measured part) against a fresh
/// in-process gateway and checks every response as the socket run does.
pub fn run(plan: &Plan, seed: u64) -> Replayed {
    let mut driver = Driver::new(plan, InProcess::new(seed), None);
    driver.warm_up();
    let samples = driver.measure(false);
    let ops = samples.serve_ns.len();
    Replayed {
        us_per_op: samples.serve_ns.iter().sum::<u64>() as f64 / 1000.0 / ops.max(1) as f64,
        ops,
        attempted: driver.tally.attempted,
        failed: driver.tally.failed,
        described: std::mem::take(&mut driver.tally.described),
    }
}
