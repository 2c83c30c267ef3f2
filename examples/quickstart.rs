//! Quickstart: stand up a `Gateway`, replay a human and a robot through
//! its one entry point, and read the decisions.
//!
//! Run with `cargo run --example quickstart`.

use botwall::gateway::{Decision, Gateway, Origin, PendingServe};
use botwall::http::request::ClientIp;
use botwall::http::{Method, Request};
use botwall::sessions::SimTime;

const HTML: &str = "<html><head><title>demo</title></head><body><p>hello</p></body></html>";

/// Every exchange — page, probe, or beacon — goes through the same door.
/// The origin closure runs with no gateway lock held (a slow origin
/// stalls only its own request); `handle_deferred` below shows the same
/// two phases split apart.
fn fetch(gw: &Gateway, ip: u32, uri: &str, ua: &str, at_secs: u64) -> Decision {
    let req = Request::builder(Method::Get, uri)
        .header("User-Agent", ua)
        .client(ClientIp::new(ip))
        .build()
        .expect("valid uri");
    gw.handle_with(&req, SimTime::from_secs(at_secs), |req| {
        // The origin behind the gateway: one static page at /index.html.
        if req.uri().path() == "/index.html" {
            Origin::Page(HTML.to_string())
        } else {
            Origin::NotFound
        }
    })
}

fn main() {
    let gw = Gateway::builder().seed(2006).build();
    let ua = "Mozilla/5.0 (Windows; U) Firefox/1.5";
    let page = "http://www.example.com/index.html";

    // Client 1 (a human) fetches the page; the gateway rewrites it in
    // flight, planting the probes.
    let Decision::Serve {
        response, manifest, ..
    } = fetch(&gw, 1, page, ua, 0)
    else {
        panic!("fresh sessions are served");
    };
    let human_probes = manifest.expect("page was instrumented");
    let rewritten = String::from_utf8_lossy(response.body());
    println!(
        "instrumented page grew by {} bytes",
        human_probes.html_overhead
    );
    println!(
        "injected handler: {}",
        &rewritten[rewritten.find("onmousemove").unwrap()..]
            .chars()
            .take(40)
            .collect::<String>()
    );

    // The human's browser fetches the CSS probe, runs the script, and the
    // user moves the mouse — firing the keyed beacon.
    let css = human_probes.css_probe.as_ref().unwrap().to_string();
    fetch(&gw, 1, &css, ua, 1);
    let beacon = human_probes.mouse_beacon.as_ref().unwrap().to_string();
    let verdict = fetch(&gw, 1, &beacon, ua, 3).verdict();
    println!("\nhuman session verdict:  {verdict:?}");

    // Client 2 (a robot) fetches the page, scans the script, and blindly
    // fetches a beacon-looking URL — picking a decoy.
    let Decision::Serve { manifest, .. } = fetch(&gw, 2, page, ua, 0) else {
        panic!("undecided sessions are served");
    };
    let robot_probes = manifest.expect("page was instrumented");
    let decoy = robot_probes.decoy_beacons[0].to_string();
    let verdict = fetch(&gw, 2, &decoy, ua, 1).verdict();
    println!("robot session verdict:  {verdict:?}");

    // Flush everything and show the gateway's view of the deployment.
    let completed = gw.drain();
    println!("\ncompleted sessions:");
    for cs in &completed {
        println!(
            "  {}  label={:?} reason={:?}",
            cs.session.key(),
            cs.label,
            cs.reason
        );
    }
    let stats = gw.stats();
    println!(
        "\ngateway stats: {} requests ({} probe), {} bytes ({} instrumentation)",
        stats.requests, stats.probe_requests, stats.total_bytes, stats.instrumentation_bytes
    );

    // The same request path, split for async/executor embedders: gate
    // now, fetch the origin whenever (no lock is held while the token
    // is outstanding), commit later.
    let gw = Gateway::builder().seed(2006).build();
    let req = Request::builder(Method::Get, page)
        .header("User-Agent", ua)
        .client(ClientIp::new(3))
        .build()
        .expect("valid uri");
    match gw.handle_deferred(&req, SimTime::ZERO) {
        PendingServe::AwaitingOrigin(pending) => {
            // ...origin fetch happens here, on any thread...
            let d = gw.complete(pending, Origin::Page(HTML.to_string()), SimTime::ZERO);
            println!("\ndeferred serve: {:?}", d.status());
        }
        PendingServe::Ready(d) => println!("\ndecided without the origin: {:?}", d.status()),
    }
}
