//! Executes a [`Plan`]: turns each operation into a request, sends it
//! through a [`Transport`], checks what comes back, harvests probe URLs
//! the way a browser (or a URL-replaying robot) would, and scores the
//! measured part in block pairs.
//!
//! Timing covers send → last byte only. Everything the load generator
//! does with a response — comparing bodies, parsing injected markup —
//! happens after the operation's last stamp and before the next
//! operation's first.

use crate::client::{get_request, Fetched, Socket, Transport};
use crate::content::{Library, REF_PATH};
use crate::plan::{Harvest, Op, Plan, Target};
use crate::sys::monotonic_ns;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;

/// A robot is expected to be refused for good well before this many tries.
const MAX_TRIES_UNTIL_BLOCKED: usize = 64;
/// Failures described in full; the rest are only counted.
const MAX_DESCRIBED_FAILURES: usize = 8;

/// What one simulated client has learnt from the last page it was served.
#[derive(Debug, Default, Clone)]
struct Probes {
    css: String,
    script: String,
    pixel: String,
    hidden: String,
    handler: String,
    agent_beacon: String,
    mouse_beacon: String,
}

/// The path-and-query of every `quote`-delimited absolute URL in `text`.
fn quoted_paths(text: &str, quote: char) -> impl Iterator<Item = &str> {
    text.split(quote).skip(1).step_by(2).filter_map(|chunk| {
        let rest = chunk.split_once("://")?.1;
        Some(&rest[rest.find('/')?..])
    })
}

/// Whether `path` is `/<20 digits>.<ext>`: the shape of a probe URL.
fn is_probe(path: &str, ext: &str) -> bool {
    path.strip_prefix('/')
        .and_then(|p| p.strip_suffix(ext))
        .and_then(|p| p.strip_suffix('.'))
        .is_some_and(|stem| stem.len() == 20 && stem.bytes().all(|b| b.is_ascii_digit()))
}

/// Attempted and failed operations, with the first few failures in words.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent, on either leg.
    pub attempted: u64,
    /// Those that failed: transport error, malformed framing, a status
    /// outside the operation's allowed set, or a wrong body.
    pub failed: u64,
    /// Whether any failure was a wrong body or status (as opposed to a
    /// transport error): the output-correctness gate.
    pub incorrect: bool,
    /// The first failures, described.
    pub described: Vec<String>,
}

impl Tally {
    fn fail(&mut self, incorrect: bool, what: String) {
        self.failed += 1;
        self.incorrect |= incorrect;
        if self.described.len() < MAX_DESCRIBED_FAILURES {
            self.described.push(what);
        }
    }
}

/// Direct fetches of `/ref.gif` after each warm-up block.
const PROBE_FETCHES: usize = 8;

/// What the probes of one warm-up found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Σ send → last byte over the probe fetches.
    pub fetch_ns: u64,
    /// How many there were.
    pub fetches: u64,
    /// Wall time the probing took, to be taken off the set-up's.
    pub spent_ns: u64,
}

/// One proxied block and its reference block.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Σ send → last byte over the proxied block.
    pub proxied_ns: u64,
    /// The same over the reference block.
    pub reference_ns: u64,
    /// Σ send → first byte over the proxied block.
    pub proxied_ttfb_ns: u64,
    /// The same over the reference block.
    pub reference_ttfb_ns: u64,
}

/// The four spans of one traced origin-backed operation, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Client send → origin has read the request.
    pub inbound_ns: u64,
    /// Origin read → origin has written the response.
    pub origin_ns: u64,
    /// Origin write → client's first byte.
    pub outbound_ttfb_ns: u64,
    /// Client's first byte → last byte.
    pub body_ns: u64,
}

/// Everything one measured pass produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// One entry per block pair whose operations all completed.
    pub pairs: Vec<Pair>,
    /// The reference operations of those pairs, a block's worth per
    /// pair: what was fetched (operations of one class fetch the same
    /// bytes the same way) and how long it took. The reference leg does
    /// the same thing every time, so it doubles as a probe of the host.
    pub reference_ops: Vec<(u32, u64)>,
    /// Send → last byte of every proxied operation.
    pub serve_ns: Vec<u64>,
    /// Send → first byte of every proxied operation.
    pub ttfb_ns: Vec<u64>,
    /// Send → last byte of every reference operation.
    pub direct_ns: Vec<u64>,
    /// Response bytes received on the proxied leg, framing included.
    pub wire_bytes: u64,
    /// Σ over proxied operations of the matching reference time × the
    /// number of socket round trips the proxied path makes (one for an
    /// operation the gateway answers itself, two through the origin).
    pub socket_hops_ns: u64,
    /// Proxied operations of traced blocks (`serve_ns` of the others is
    /// in `untraced_serve_ns`): the two halves of `trace.overhead_share`.
    pub traced_serve_ns: Vec<u64>,
    /// See `traced_serve_ns`.
    pub untraced_serve_ns: Vec<u64>,
    /// Spans of the traced, origin-backed operations.
    pub spans: Vec<Span>,
}

/// Runs a plan against one server.
#[derive(Debug)]
pub struct Driver<'p, T: Transport> {
    plan: &'p Plan,
    library: Library,
    proxied: T,
    /// The reference leg; the in-process replay has none.
    direct: Option<Socket>,
    agents: HashMap<u32, Probes>,
    pool: Vec<String>,
    request: Vec<u8>,
    body: Vec<u8>,
    /// What was attempted and what failed so far.
    pub tally: Tally,
}

impl<'p> Driver<'p, Socket> {
    /// A driver over real sockets: `server` is the gateway, `origin` the
    /// origin the reference leg talks to directly.
    pub fn over_sockets(plan: &'p Plan, server: SocketAddr, origin: SocketAddr) -> Self {
        Driver::new(plan, Socket::new(server), Some(Socket::new(origin)))
    }

    /// A `GET` outside the plan on the proxied connection (the admin plane).
    pub fn get_proxied(&mut self, path: &str) -> io::Result<(u16, String)> {
        get_request(&mut self.request, path, "bw-bench-control");
        let fetched = self.proxied.fetch(&self.request, false, &mut self.body)?;
        Ok((
            fetched.meta.status,
            String::from_utf8_lossy(&self.body).into_owned(),
        ))
    }
}

impl<'p, T: Transport> Driver<'p, T> {
    /// A driver sending the proxied leg through `proxied`.
    pub fn new(plan: &'p Plan, proxied: T, direct: Option<Socket>) -> Self {
        Driver {
            plan,
            library: Library::default(),
            proxied,
            direct,
            agents: HashMap::new(),
            pool: Vec::new(),
            request: Vec::with_capacity(512),
            body: Vec::with_capacity(128 * 1024),
            tally: Tally::default(),
        }
    }

    /// Gives the proxied transport back.
    pub fn into_proxied(self) -> T {
        self.proxied
    }

    /// The request `op` would send through the gateway now, given what
    /// its agent has harvested so far.
    pub fn request_for(&self, op: &Op) -> Result<Vec<u8>, String> {
        let mut request = Vec::new();
        get_request(
            &mut request,
            &self.resolve(op)?,
            &self.plan.user_agent(op.agent),
        );
        Ok(request)
    }

    /// A `GET` outside the plan on the reference connection (the origin's
    /// control plane).
    pub fn get_direct(&mut self, path: &str) -> io::Result<String> {
        let direct = self
            .direct
            .as_mut()
            .ok_or_else(|| io::Error::other("no reference leg"))?;
        get_request(&mut self.request, path, "bw-bench-control");
        direct.fetch(&self.request, false, &mut self.body)?;
        Ok(String::from_utf8_lossy(&self.body).into_owned())
    }

    /// The path `op` requests through the gateway, or why it cannot be
    /// formed (a probe the agent never harvested: a plan or gateway bug).
    fn resolve(&self, op: &Op) -> Result<String, String> {
        let probes = || {
            self.agents
                .get(&op.agent)
                .ok_or_else(|| format!("agent {} has harvested nothing yet", op.agent))
        };
        let known = |url: &String, what: &str| {
            if url.is_empty() {
                Err(format!("agent {} never saw a {what} URL", op.agent))
            } else {
                Ok(url.clone())
            }
        };
        match op.target {
            Target::Page(p, _)
            | Target::Asset(p)
            | Target::Rejected(p)
            | Target::UntilBlocked(p) => Ok(self.plan.paths[usize::from(p)].clone()),
            Target::Css => known(&probes()?.css, "CSS probe"),
            Target::Script => known(&probes()?.script, "script"),
            Target::Pixel => known(&probes()?.pixel, "pixel"),
            Target::HiddenLink => known(&probes()?.hidden, "hidden link"),
            Target::MouseBeacon => known(&probes()?.mouse_beacon, "mouse beacon"),
            Target::AgentBeacon => {
                let beacon = known(&probes()?.agent_beacon, "agent beacon")?;
                // What the generated script computes from navigator.userAgent.
                let agent = self
                    .plan
                    .user_agent(op.agent)
                    .to_lowercase()
                    .replace(' ', "");
                Ok(format!("{beacon}?agent={agent}&wd=0&pl=3"))
            }
            Target::Pooled(n) => {
                if self.pool.is_empty() {
                    return Err("the harvested pool is empty".to_string());
                }
                Ok(self.pool[n as usize % self.pool.len()].clone())
            }
        }
    }

    /// Checks the response to `op` that is now in `self.body`, and
    /// harvests from it. `Err` is a wrong status or body.
    fn check(&mut self, op: &Op, path: &str, status: u16) -> Result<(), String> {
        let expect = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what} (status {status})"))
            }
        };
        match op.target {
            Target::Rejected(_) => {
                return expect(matches!(status, 403 | 429), "expected 403 or 429")
            }
            Target::UntilBlocked(_) => {
                return expect(
                    matches!(status, 200 | 403 | 429),
                    "expected 200, 403 or 429",
                )
            }
            _ => expect(status == 200, "expected 200")?,
        }
        let body = &self.body;
        match op.target {
            Target::Page(_, harvest) => {
                let origin = self
                    .library
                    .get(path)
                    .ok_or("the plan names a page the origin does not have")?;
                let injected = origin.check_instrumented(body)?;
                if harvest == Harvest::No {
                    return Ok(());
                }
                let mut probes = Probes::default();
                for url in quoted_paths(injected.head, '"').chain(quoted_paths(injected.tail, '"'))
                {
                    let slot = [
                        ("css", &mut probes.css),
                        ("js", &mut probes.script),
                        ("gif", &mut probes.pixel),
                        ("html", &mut probes.hidden),
                    ]
                    .into_iter()
                    .find(|(ext, _)| is_probe(url, ext));
                    if let Some((_, slot)) = slot {
                        *slot = url.to_string();
                    }
                }
                probes.handler = injected
                    .body_attr
                    .split_once("onmousemove=\"return ")
                    .and_then(|(_, rest)| rest.split('(').next())
                    .ok_or("the body tag wires no mouse handler")?
                    .to_string();
                if [&probes.css, &probes.script, &probes.pixel, &probes.hidden]
                    .iter()
                    .any(|url| url.is_empty())
                {
                    return Err("the page lacks one of its four probe URLs".to_string());
                }
                if harvest == Harvest::Pool {
                    self.pool.push(probes.css.clone());
                    self.pool.push(probes.pixel.clone());
                }
                self.agents.insert(op.agent, probes);
                Ok(())
            }
            Target::Asset(_) => {
                let origin = self
                    .library
                    .get(path)
                    .ok_or("the plan names an asset the origin does not have")?;
                expect(*body == origin.bytes, "asset differs from the origin's")
            }
            Target::Script => {
                let js = std::str::from_utf8(body).map_err(|_| "script is not UTF-8")?;
                let probes = self.agents.get_mut(&op.agent).expect("resolved above");
                // The handler the page wired fetches the real beacon; the
                // other functions are decoys.
                let handler = js
                    .split_once(&format!("function {}()", probes.handler))
                    .map(|(_, rest)| rest.split("function ").next().unwrap_or(rest))
                    .ok_or("the script does not define the page's handler")?;
                probes.mouse_beacon = quoted_paths(handler, '\'')
                    .next()
                    .ok_or("the handler fetches no beacon")?
                    .to_string();
                probes.agent_beacon = js
                    .split_once("' + \"?agent=\"")
                    .and_then(|(before, _)| before.rsplit_once('\''))
                    .and_then(|(_, url)| {
                        quoted_paths(&format!("'{url}'"), '\'')
                            .next()
                            .map(str::to_string)
                    })
                    .ok_or("the script reports no agent beacon")?;
                Ok(())
            }
            Target::Css => expect(body.is_empty(), "CSS probe is not empty"),
            Target::Pixel | Target::AgentBeacon => expect(body.starts_with(b"GIF89a"), "not a GIF"),
            Target::MouseBeacon => expect(body.starts_with(&[0xff, 0xd8]), "not a JPEG"),
            Target::HiddenLink => expect(body.starts_with(b"<html>"), "not the stub page"),
            Target::Pooled(_) => expect(
                body.is_empty() || body.starts_with(b"GIF89a"),
                "not a probe object",
            ),
            Target::Rejected(_) | Target::UntilBlocked(_) => unreachable!("returned above"),
        }
    }

    /// One request through the gateway, checked. `None` if nothing came back.
    fn proxied_request(&mut self, op: &Op, path: &str, reconnect: bool) -> Option<Fetched> {
        get_request(&mut self.request, path, &self.plan.user_agent(op.agent));
        self.tally.attempted += 1;
        match self.proxied.fetch(&self.request, reconnect, &mut self.body) {
            Ok(fetched) => {
                if let Err(why) = self.check(op, path, fetched.meta.status) {
                    self.tally.fail(
                        true,
                        format!("{:?} {path} by agent {}: {why}", op.target, op.agent),
                    );
                }
                Some(fetched)
            }
            Err(e) => {
                self.tally.fail(
                    false,
                    format!("{:?} {path} by agent {}: {e}", op.target, op.agent),
                );
                None
            }
        }
    }

    /// Runs `op` through the gateway.
    fn proxied_op(&mut self, op: &Op) -> Option<Fetched> {
        let path = match self.resolve(op) {
            Ok(path) => path,
            Err(why) => {
                self.tally.attempted += 1;
                self.tally.fail(true, format!("{:?}: {why}", op.target));
                return None;
            }
        };
        if !matches!(op.target, Target::UntilBlocked(_)) {
            return self.proxied_request(op, &path, op.reconnect);
        }
        for attempt in 0..MAX_TRIES_UNTIL_BLOCKED {
            let fetched = self.proxied_request(op, &path, op.reconnect && attempt == 0)?;
            if fetched.meta.status == 403 {
                return Some(fetched);
            }
        }
        self.tally.fail(
            true,
            format!(
                "agent {} was never blocked in {MAX_TRIES_UNTIL_BLOCKED} tries",
                op.agent
            ),
        );
        None
    }

    /// The reference for `op`: the same fetch straight from the origin
    /// (`/ref.gif` when the gateway answers `op` without the origin).
    fn reference_op(&mut self, op: &Op) -> Option<Fetched> {
        let direct = self.direct.as_mut()?;
        let path = match op.target {
            Target::Page(p, _) | Target::Asset(p) => self.plan.paths[usize::from(p)].as_str(),
            _ => REF_PATH,
        };
        get_request(&mut self.request, path, &self.plan.user_agent(op.agent));
        self.tally.attempted += 1;
        match direct.fetch(&self.request, op.reconnect, &mut self.body) {
            Ok(fetched) => {
                let same = fetched.meta.status == 200
                    && self.library.get(path).is_some_and(|b| b.bytes == self.body);
                if !same {
                    self.tally.fail(
                        true,
                        format!(
                            "reference {path}: not the origin's content (status {})",
                            fetched.meta.status
                        ),
                    );
                }
                Some(fetched)
            }
            Err(e) => {
                self.tally.fail(false, format!("reference {path}: {e}"));
                None
            }
        }
    }

    /// Runs the warm-up operations (proxied leg only). After every block
    /// of them a short probe goes straight to the origin — the smallest
    /// fetch there is, [`PROBE_FETCHES`] times — so that the caller can
    /// tell how fast the host was while the set-up ran.
    pub fn warm_up(&mut self) -> Probe {
        let plan = self.plan;
        let mut probe = Probe::default();
        for block in plan.warmup.chunks(plan.workload.block_ops()) {
            for op in block {
                self.proxied_op(op);
            }
            let Some(direct) = self.direct.as_mut() else {
                continue;
            };
            get_request(&mut self.request, REF_PATH, "bw-bench-probe");
            let start = monotonic_ns();
            for _ in 0..PROBE_FETCHES {
                if let Ok(f) = direct.fetch(&self.request, false, &mut self.body) {
                    probe.fetch_ns += f.done_ns - f.sent_ns;
                    probe.fetches += 1;
                }
            }
            probe.spent_ns += monotonic_ns() - start;
        }
        probe
    }

    /// Runs the plan's measured operations in block pairs. With `trace`,
    /// the proxied leg of two blocks in every four is stamped by the
    /// origin as well: one where it runs first and one where it runs
    /// second, so that stamped and unstamped blocks differ in nothing else.
    pub fn measure(&mut self, trace: bool) -> Samples {
        let plan = self.plan;
        let k = plan.workload.block_ops();
        let mut s = Samples::default();
        let mut proxied: Vec<Option<Fetched>> = Vec::with_capacity(k);
        let mut reference: Vec<Option<Fetched>> = Vec::with_capacity(k);
        for (i, block) in plan.measured.chunks_exact(k).enumerate() {
            let traced = trace && i % 4 < 2;
            proxied.clear();
            reference.clear();
            let mut stamps = String::new();
            // Alternate which leg goes first, so whatever favours the
            // first (or second) block of a pair favours both legs alike.
            for leg in [i % 2 == 0, i % 2 != 0] {
                if leg {
                    if traced {
                        let _ = self.get_direct("/__trace/on");
                    }
                    for op in block {
                        let fetched = self.proxied_op(op);
                        proxied.push(fetched);
                    }
                    if traced {
                        stamps = self.get_direct("/__trace/off").unwrap_or_default();
                    }
                } else if self.direct.is_some() {
                    for op in block {
                        let fetched = self.reference_op(op);
                        reference.push(fetched);
                    }
                }
            }
            self.fold_block(
                block,
                &proxied,
                &reference,
                traced.then_some(&stamps),
                trace,
                &mut s,
            );
        }
        s
    }

    /// Adds one finished block pair to the samples.
    fn fold_block(
        &mut self,
        block: &[Op],
        proxied: &[Option<Fetched>],
        reference: &[Option<Fetched>],
        stamps: Option<&String>,
        tracing: bool,
        s: &mut Samples,
    ) {
        let mut pair = Pair {
            proxied_ns: 0,
            reference_ns: 0,
            proxied_ttfb_ns: 0,
            reference_ttfb_ns: 0,
        };
        let mut complete = reference.len() == proxied.len();
        let first_reference_op = s.reference_ops.len();
        for f in proxied {
            let Some(f) = f else {
                complete = false;
                continue;
            };
            let (total_ns, ttfb_ns) = (f.done_ns - f.sent_ns, f.first_byte_ns - f.sent_ns);
            pair.proxied_ns += total_ns;
            pair.proxied_ttfb_ns += ttfb_ns;
            s.serve_ns.push(total_ns);
            s.ttfb_ns.push(ttfb_ns);
            s.wire_bytes += f.meta.wire_bytes as u64;
            if tracing {
                let half = if stamps.is_some() {
                    &mut s.traced_serve_ns
                } else {
                    &mut s.untraced_serve_ns
                };
                half.push(total_ns);
            }
        }
        for (op, f) in block.iter().zip(reference) {
            let Some(f) = f else {
                complete = false;
                continue;
            };
            let total_ns = f.done_ns - f.sent_ns;
            pair.reference_ns += total_ns;
            pair.reference_ttfb_ns += f.first_byte_ns - f.sent_ns;
            s.direct_ns.push(total_ns);
            let (fetched, round_trips) = match op.target {
                Target::Page(p, _) | Target::Asset(p) => (u32::from(p), 2),
                _ => (u32::MAX >> 1, 1),
            };
            s.reference_ops
                .push((fetched << 1 | u32::from(op.reconnect), total_ns));
            s.socket_hops_ns += total_ns * round_trips;
        }
        if complete {
            s.pairs.push(pair);
        } else {
            s.reference_ops.truncate(first_reference_op);
        }
        let Some(stamps) = stamps else { return };
        // Operations are serial, so the origin's n-th stamped request is
        // the block's n-th operation that reached the origin.
        let reached: Vec<&Fetched> = block
            .iter()
            .zip(proxied)
            .filter(|(op, f)| !op.target.gate_only() && f.is_some_and(|f| f.meta.status == 200))
            .filter_map(|(_, f)| f.as_ref())
            .collect();
        let stamps: Vec<(u64, u64)> = stamps
            .lines()
            .filter_map(|l| {
                let (recv, send) = l.split_once(' ')?;
                Some((recv.parse().ok()?, send.parse().ok()?))
            })
            .collect();
        if stamps.len() != reached.len() {
            self.tally.fail(
                true,
                format!(
                    "traced block: the origin stamped {} requests, {} operations reached it",
                    stamps.len(),
                    reached.len()
                ),
            );
            return;
        }
        for (f, (recv, send)) in reached.into_iter().zip(stamps) {
            s.spans.push(Span {
                inbound_ns: recv.saturating_sub(f.sent_ns),
                origin_ns: send.saturating_sub(recv),
                outbound_ttfb_ns: f.first_byte_ns.saturating_sub(send),
                body_ns: f.done_ns - f.first_byte_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_probe_urls_in_injected_markup() {
        let head = "<link rel=\"stylesheet\" type=\"text/css\" href=\"http://site.example/00000000001234567890.css\">\n\
                    <script language=\"javascript\" src=\"http://site.example/00000000001234567891.js\"></script>\n";
        let urls: Vec<&str> = quoted_paths(head, '"').collect();
        assert_eq!(
            urls,
            ["/00000000001234567890.css", "/00000000001234567891.js"]
        );
        assert!(is_probe(urls[0], "css"));
        assert!(!is_probe(urls[0], "js"));
        assert!(!is_probe("/page/8ml/3.html", "html"));
        assert!(!is_probe("/0000000000123456789.css", "css"), "19 digits");
    }
}
