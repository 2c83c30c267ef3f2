//! `botwall-serve`: the gateway on a real port.
//!
//! ```text
//! botwall-serve --listen 127.0.0.1:8080 --origin 127.0.0.1:9090
//! botwall-serve --mock-origin          # self-contained demo origin
//! botwall-serve --smoke                # one scripted request, then exit
//! ```
//!
//! SIGTERM/SIGINT drain cleanly: the listener closes, in-flight
//! exchanges finish, every session flushes through the classifier, and
//! the final stats print to stdout.

#![forbid(unsafe_code)]

use botwall_gateway::Gateway;
use botwall_http::{Method, Request};
use botwall_serve::{client, stats, MockOrigin, ServeConfig, Server};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    origin: Option<String>,
    mock_origin: bool,
    smoke: bool,
    seed: u64,
    max_connections: usize,
    read_timeout_ms: u64,
    origin_timeout_ms: u64,
    keep_alive: bool,
    threads: usize,
    origin_pool: usize,
    origin_pool_idle_ms: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            listen: "127.0.0.1:8080".to_string(),
            origin: None,
            mock_origin: false,
            smoke: false,
            seed: 1,
            max_connections: 256,
            read_timeout_ms: 10_000,
            origin_timeout_ms: 10_000,
            keep_alive: true,
            threads: 1,
            origin_pool: 8,
            origin_pool_idle_ms: 10_000,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--listen" => args.listen = value("--listen")?,
                "--origin" => args.origin = Some(value("--origin")?),
                "--mock-origin" => args.mock_origin = true,
                "--smoke" => {
                    args.smoke = true;
                    args.mock_origin = true;
                    args.listen = "127.0.0.1:0".to_string();
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes an integer".to_string())?
                }
                "--max-conns" => {
                    args.max_connections = value("--max-conns")?
                        .parse()
                        .map_err(|_| "--max-conns takes an integer".to_string())?
                }
                "--read-timeout-ms" => {
                    args.read_timeout_ms = value("--read-timeout-ms")?
                        .parse()
                        .map_err(|_| "--read-timeout-ms takes milliseconds".to_string())?
                }
                "--origin-timeout-ms" => {
                    args.origin_timeout_ms = value("--origin-timeout-ms")?
                        .parse()
                        .map_err(|_| "--origin-timeout-ms takes milliseconds".to_string())?
                }
                "--no-keep-alive" => args.keep_alive = false,
                "--origin-pool" => {
                    args.origin_pool = value("--origin-pool")?
                        .parse()
                        .map_err(|_| "--origin-pool takes an integer".to_string())?
                }
                "--origin-pool-idle-ms" => {
                    args.origin_pool_idle_ms = value("--origin-pool-idle-ms")?
                        .parse()
                        .map_err(|_| "--origin-pool-idle-ms takes milliseconds".to_string())?
                }
                "--threads" => {
                    args.threads = value("--threads")?
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "--threads takes an integer >= 1".to_string())?
                }
                "--help" | "-h" => {
                    println!(
                        "botwall-serve: HTTP front door over the botwall gateway\n\n\
                         --listen ADDR            bind address (default 127.0.0.1:8080)\n\
                         --origin ADDR            upstream origin to proxy\n\
                         --mock-origin            start a built-in demo origin\n\
                         --smoke                  one scripted request against --mock-origin, then exit\n\
                         --seed N                 gateway seed (default 1)\n\
                         --max-conns N            concurrent connection cap (default 256)\n\
                         --read-timeout-ms N      client read/idle timeout (default 10000)\n\
                         --origin-timeout-ms N    origin fetch timeout (default 10000)\n\
                         --no-keep-alive          one request per connection\n\
                         --origin-pool N          idle origin connections kept per reactor, 0 disables (default 8)\n\
                         --origin-pool-idle-ms N  how long a parked origin connection may idle (default 10000)\n\
                         --threads N              reactor threads sharing the port via SO_REUSEPORT (default 1)"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.origin.is_some() && args.mock_origin {
            return Err("--origin and --mock-origin are mutually exclusive".to_string());
        }
        Ok(args)
    }
}

const DEMO_PAGE: &str = "<html><head><title>botwall</title></head>\
<body><p>served through the botwall front door</p>\
<a href=\"/about.html\">about</a></body></html>";

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("botwall-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The mock origin (if requested) starts first so its port is known.
    let mock = if args.mock_origin {
        match MockOrigin::new()
            .page("/index.html", DEMO_PAGE)
            .page("/about.html", DEMO_PAGE)
            .keep_alive()
            .start()
        {
            Ok(handle) => Some(handle),
            Err(e) => {
                eprintln!("botwall-serve: mock origin failed to start: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let origin = match (&mock, &args.origin) {
        (Some(handle), _) => Some(handle.addr()),
        (None, Some(addr)) => match addr.parse() {
            Ok(addr) => Some(addr),
            Err(_) => {
                eprintln!("botwall-serve: --origin {addr} is not a socket address");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => None,
    };

    let config = ServeConfig {
        max_connections: args.max_connections,
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        origin_timeout: Duration::from_millis(args.origin_timeout_ms),
        keep_alive: args.keep_alive,
        origin,
        threads: args.threads,
        origin_pool: args.origin_pool,
        origin_pool_idle: Duration::from_millis(args.origin_pool_idle_ms),
    };
    let gateway = Arc::new(Gateway::builder().seed(args.seed).build());
    let mut server = match Server::bind(&args.listen, Arc::clone(&gateway), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("botwall-serve: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let handle = server.shutdown_handle();
    reactor::signals::install_term_handler(handle.waker_fd());
    eprintln!(
        "botwall-serve: listening on {} (origin: {})",
        server.local_addr(),
        origin.map_or_else(|| "none".to_string(), |a| a.to_string()),
    );

    // Smoke mode: a scripted client exercises one full round trip while
    // the server runs, then asks it to drain.
    let smoke = args.smoke.then(|| {
        let addr = server.local_addr();
        let handle = handle.clone();
        std::thread::spawn(move || -> Result<(), String> {
            let request = Request::builder(Method::Get, "/index.html")
                .header("User-Agent", "smoke/1.0")
                .header("Host", "localhost")
                .build()
                .map_err(|e| e.to_string())?;
            let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            let response = client::roundtrip(&mut conn, &request).map_err(|e| e.to_string())?;
            let outcome = if response.status().is_success() && !response.body().is_empty() {
                Ok(())
            } else {
                Err(format!("smoke request answered {}", response.status()))
            };
            handle.shutdown();
            outcome
        })
    });

    let report = match server.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("botwall-serve: event loop failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", stats::stats_json(&gateway.stats()));
    eprintln!(
        "botwall-serve: drained — {} connections, {} requests, {} sessions classified, \
         origin {} connects / {} reuses / {} retries",
        report.connections,
        report.requests,
        report.drained_sessions,
        report.origin_connects,
        report.origin_reuses,
        report.origin_retries,
    );
    let sys = report.sys;
    eprintln!(
        "botwall-serve: system calls — {:.2} per request: {} reads ({} EAGAIN), \
         {} writes ({} blocked), {} epoll_waits ({} events), {} interest changes, \
         {} accepts; {} epoll_ctls in all, {} connects, {} timer entries left",
        report.calls_per_request(),
        sys.reads,
        sys.reads_eagain,
        sys.writes,
        sys.writes_blocked,
        sys.epoll_waits,
        sys.epoll_events,
        report.interest_changes,
        sys.accepts,
        sys.epoll_ctls,
        sys.connects,
        sys.timer_entries,
    );
    if let Some(join) = smoke {
        match join.join() {
            Ok(Ok(())) => eprintln!("botwall-serve: smoke OK"),
            Ok(Err(e)) => {
                eprintln!("botwall-serve: smoke FAILED: {e}");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                eprintln!("botwall-serve: smoke client panicked");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
