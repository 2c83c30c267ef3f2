//! The `origin` subcommand: the web server behind the gateway.
//!
//! One thread, one epoll loop (the `reactor` shim), canned responses by
//! path (see [`crate::content`]). It serves the gateway's pooled
//! connections and the load generator's direct one alike, so the
//! reference leg and the proxied leg hit the very same process.
//!
//! Control plane, outside the request count: `/__stats` (JSON counters),
//! `/__trace/on` (start stamping content requests) and `/__trace/off`
//! (stop, and return one `recv_ns send_ns` line per content request
//! stamped since, on the shared monotonic clock).
//! The process exits when its stdin closes, i.e. with its parent.

use crate::content::Library;
use crate::sys::monotonic_ns;
use reactor::{Interest, Reactor, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;

const LISTENER: Token = Token(0);
const STDIN: Token = Token(1);
const FIRST_CONN: usize = 2;

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// A response the socket has not fully taken yet.
    pending: Option<(Rc<[u8]>, usize)>,
    /// Whether the registration currently includes write interest.
    wants_write: bool,
}

#[derive(Default)]
struct Origin {
    library: Library,
    wire: HashMap<String, Rc<[u8]>>,
    requests: u64,
    connections: u64,
    trace: bool,
    stamps: Vec<(u64, u64)>,
}

impl Origin {
    /// The full response for `target`, and whether it counts as content.
    fn respond(&mut self, target: &str) -> (Rc<[u8]>, bool) {
        let path = target
            .strip_prefix("http://")
            .and_then(|rest| rest.find('/').map(|i| &rest[i..]))
            .unwrap_or(target);
        let control = |body: String| -> Rc<[u8]> {
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
            .into()
        };
        match path {
            "/__stats" => {
                let body = format!(
                    "{{\"requests\":{},\"connections\":{}}}",
                    self.requests, self.connections
                );
                (control(body), false)
            }
            "/__trace/on" => {
                self.stamps.clear();
                self.trace = true;
                (control(String::new()), false)
            }
            "/__trace/off" => {
                self.trace = false;
                let mut body = String::with_capacity(self.stamps.len() * 32);
                for (recv, send) in self.stamps.drain(..) {
                    body.push_str(&format!("{recv} {send}\n"));
                }
                (control(body), false)
            }
            _ => {
                if !self.wire.contains_key(path) {
                    let bytes = self.library.wire(path).into();
                    self.wire.insert(path.to_string(), bytes);
                }
                self.requests += 1;
                (Rc::clone(&self.wire[path]), true)
            }
        }
    }

    /// Answers every complete request in `conn.inbuf`, in order, until
    /// the socket stops taking bytes. `false` means the connection is dead.
    fn serve(&mut self, conn: &mut Conn) -> bool {
        loop {
            if let Some((bytes, pos)) = &mut conn.pending {
                match conn.stream.write(&bytes[*pos..]) {
                    Ok(0) => return false,
                    Ok(n) if *pos + n == bytes.len() => conn.pending = None,
                    Ok(n) => {
                        *pos += n;
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            let Some(end) = conn.inbuf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return true;
            };
            let recv_ns = if self.trace { monotonic_ns() } else { 0 };
            let target = std::str::from_utf8(&conn.inbuf[..end])
                .ok()
                .and_then(|head| head.strip_prefix("GET "))
                .and_then(|rest| rest.split(' ').next())
                .map(str::to_string);
            conn.inbuf.drain(..end + 4);
            let Some(target) = target else {
                return false;
            };
            let (bytes, content) = self.respond(&target);
            // Common case first: the socket takes the whole response.
            let written = match conn.stream.write(&bytes) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
                Err(_) => return false,
            };
            if written < bytes.len() {
                conn.pending = Some((bytes, written));
            }
            if self.trace && content {
                self.stamps.push((recv_ns, monotonic_ns()));
            }
        }
    }
}

/// Runs the origin until stdin closes. Prints `origin listening on ADDR`
/// first, which is how the parent learns the port.
pub fn run() -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let mut reactor = Reactor::new()?;
    reactor.register(&listener, LISTENER, Interest::READABLE)?;
    // A stdin that epoll refuses (a file, /dev/null) just never ends the loop.
    let _ = reactor.register(&io::stdin(), STDIN, Interest::READABLE);
    println!("origin listening on {}", listener.local_addr()?);
    io::stdout().flush()?;

    let mut origin = Origin::default();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        reactor.poll(&mut events, None)?;
        for ev in &events {
            match ev.token {
                LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(true)?;
                            stream.set_nodelay(true)?;
                            let slot =
                                conns.iter().position(Option::is_none).unwrap_or_else(|| {
                                    conns.push(None);
                                    conns.len() - 1
                                });
                            reactor.register(
                                &stream,
                                Token(slot + FIRST_CONN),
                                Interest::READABLE,
                            )?;
                            origin.connections += 1;
                            conns[slot] = Some(Conn {
                                stream,
                                inbuf: Vec::with_capacity(1024),
                                pending: None,
                                wants_write: false,
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(e),
                    }
                },
                STDIN => {
                    let mut sink = [0u8; 64];
                    if matches!(io::stdin().read(&mut sink), Ok(0)) {
                        return Ok(());
                    }
                }
                Token(t) => {
                    let slot = t - FIRST_CONN;
                    let Some(conn) = conns[slot].as_mut() else {
                        continue;
                    };
                    let mut alive = true;
                    if ev.readable || ev.closed {
                        // One read per event: epoll is level-triggered, so
                        // whatever is left comes back on the next poll.
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => alive = false,
                            Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                                ) => {}
                            Err(_) => alive = false,
                        }
                    }
                    alive = alive && origin.serve(conn);
                    if alive {
                        let wants_write = conn.pending.is_some();
                        if wants_write != conn.wants_write {
                            let want = if wants_write {
                                Interest::BOTH
                            } else {
                                Interest::READABLE
                            };
                            reactor.reregister(&conn.stream, ev.token, want)?;
                            conn.wants_write = wants_write;
                        }
                    } else {
                        // Closing the descriptor drops its registration.
                        conns[slot] = None;
                    }
                }
            }
        }
    }
}
