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
use botwall_serve::client::Client;
use botwall_serve::{stats, MockOrigin, ServeConfig, Server, ORIGIN_POOL_CAP};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    listen: String,
    origin: Option<String>,
    mock_origin: bool,
    smoke: bool,
    seed: u64,
    max_connections: usize,
    threads: usize,
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
            threads: 1,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--listen" => args.listen = value()?,
                "--origin" => args.origin = Some(value()?),
                "--mock-origin" => args.mock_origin = true,
                "--smoke" => {
                    args.smoke = true;
                    args.mock_origin = true;
                    args.listen = "127.0.0.1:0".to_string();
                }
                "--seed" => args.seed = integer(&flag, value()?)?,
                "--max-conns" => args.max_connections = integer(&flag, value()?)?,
                "--threads" => {
                    args.threads = integer(&flag, value()?)
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--threads takes an integer >= 1")?
                }
                "--help" | "-h" => {
                    println!(
                        "botwall-serve: HTTP front door over the botwall gateway\n\n\
                         --listen ADDR      bind address (default 127.0.0.1:8080)\n\
                         --origin ADDR      upstream origin to proxy\n\
                         --mock-origin      start a built-in demo origin\n\
                         --smoke            one scripted request against --mock-origin, then exit\n\
                         --seed N           gateway seed (default 1)\n\
                         --max-conns N      concurrent connection cap (default 256)\n\
                         --threads N        reactor threads sharing the port via SO_REUSEPORT (default 1)\n\n\
                         Each reactor parks up to {ORIGIN_POOL_CAP} idle origin connections for reuse.\n\
                         Client reads, origin fetches and parked origin connections time out after 10 s."
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

/// `value` as the integer `flag` takes.
fn integer<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes an integer"))
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
        origin,
        threads: args.threads,
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
            let mut conn = Client::connect(addr).map_err(|e| e.to_string())?;
            let response = conn.roundtrip(&request).map_err(|e| e.to_string())?;
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
