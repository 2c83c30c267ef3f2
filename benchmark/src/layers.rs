//! Per-layer timings: public functions of each crate, called in-process
//! from here with the shapes of input the workloads produce, so that a
//! change to one layer shows under that layer's name before anyone asks
//! whether it moved an end-to-end number.
//!
//! Every timing is the median over at least 200 short batches. The
//! gateway-level ones run against a gateway brought to the right state
//! by replaying a small plan through [`crate::replay::InProcess`].

use crate::client::get_request;
use crate::content::{self, SplitMix};
use crate::drive::Driver;
use crate::plan::{Plan, Workload, TRACKER_CAP};
use crate::replay::{loopback, InProcess};
use crate::stats::{median, Metric};
use crate::sys::monotonic_ns;
use botwall_core::{PolicyConfig, PolicyEngine, PolicyState, Reason, Verdict};
use botwall_gateway::{Gateway, Origin, PendingServe};
use botwall_http::{wire, Request, Response, StatusCode, Uri};
use botwall_instrument::jsgen::{self, JsSpec};
use botwall_instrument::token::BeaconKey;
use botwall_instrument::{beacon, InstrumentConfig, Obfuscation, RewriteEngine, TokenState};
use botwall_serve::frame::{self, BodyDecoder, BodyFraming};
use botwall_sessions::{SessionCounters, SessionKey, SessionTracker, SimTime, TrackerConfig};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reactor::{Interest, Reactor, Token};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

/// Batches behind every median.
const BATCHES: usize = 256;
/// Calls per batch for nanosecond-scale functions.
const PER_BATCH: usize = 64;
/// Gateways and engines built here get the seed the server gets.
const SEED: u64 = crate::run::SERVER_SEED;

/// Median over `BATCHES` runs of `batch`, which returns the nanoseconds
/// one call took (it does its own untimed preparation).
fn median_ns(mut batch: impl FnMut() -> f64) -> f64 {
    for _ in 0..8 {
        batch();
    }
    median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

/// Nanoseconds per call of `call`, timed `PER_BATCH` calls at a time.
fn per_call_ns(mut call: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    median_ns(|| {
        let start = monotonic_ns();
        for _ in 0..PER_BATCH {
            call(i);
            i += 1;
        }
        (monotonic_ns() - start) as f64 / PER_BATCH as f64
    })
}

fn request(path: &str, agent: &str) -> Vec<u8> {
    let mut out = Vec::new();
    get_request(&mut out, path, agent);
    out
}

fn parse(bytes: &[u8]) -> Request {
    wire::parse_request(bytes, loopback()).expect("the benchmark's own request parses")
}

/// A gateway warmed by the smoke-sized warm-up of `workload`, with the
/// requests of its measured operations.
fn warmed(workload: Workload) -> (Gateway, Vec<Request>, SimTime) {
    let plan = Plan::build(workload, 1, true);
    let mut driver = Driver::new(&plan, InProcess::new(SEED), None);
    driver.warm_up();
    let requests: Vec<Request> = plan
        .measured
        .iter()
        .map(|op| {
            parse(
                &driver
                    .request_for(op)
                    .expect("the warm-up harvested every probe"),
            )
        })
        .collect();
    assert!(
        driver.tally.failed == 0,
        "layer warm-up failed: {:?}",
        driver.tally.described
    );
    let inproc = driver.into_proxied();
    let now = inproc.now();
    (inproc.gateway, requests, now)
}

/// Resident set of this process, in bytes.
fn own_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(f64::NAN, |pages| pages * 4096.0)
}

fn wire_and_parse(frame_metrics: &mut Vec<Metric>) {
    let n = BATCHES * PER_BATCH;
    let req = request("/page/8ml/3.html", "Mozilla/5.0 bw-bench/1.7");
    frame_metrics.push(Metric::new(
        "http.wire.parse_request_ns",
        per_call_ns(|_| {
            black_box(wire::parse_request(black_box(&req), loopback()).expect("parses"));
        }),
        "ns",
        n,
    ));
    let mut pixel = Response::builder(StatusCode::OK)
        .header("Content-Type", "image/gif")
        .body_bytes(
            content::generate(content::REF_PATH)
                .expect("the pixel exists")
                .bytes,
        )
        .build();
    RewriteEngine::mark_uncacheable(&mut pixel);
    let mut out = Vec::with_capacity(1024);
    frame_metrics.push(Metric::new(
        "http.wire.serialize_response_ns",
        per_call_ns(|_| {
            out.clear();
            wire::serialize_response_into(black_box(&pixel), &mut out);
            black_box(&out);
        }),
        "ns",
        n,
    ));
    frame_metrics.push(Metric::new(
        "serve.frame.measure_ns",
        per_call_ns(|_| {
            black_box(frame::measure(black_box(&req)).expect("measures"));
        }),
        "ns",
        n,
    ));
    let page = content::generate("/page/64mc/1.html").expect("a page");
    let page_wire = page.wire();
    frame_metrics.push(Metric::new(
        "serve.frame.response_head_ns",
        per_call_ns(|_| {
            black_box(frame::response_head(black_box(&page_wire[..512])).expect("a head"));
        }),
        "ns",
        n,
    ));
    let head = frame::response_head(&page_wire)
        .expect("a head")
        .expect("complete");
    assert_eq!(head.framing, BodyFraming::Chunked);
    let mut raw = Vec::with_capacity(page_wire.len());
    let mut decoded = Vec::with_capacity(page_wire.len());
    let ns = median_ns(|| {
        raw.clear();
        raw.extend_from_slice(&page_wire[head.len..]);
        decoded.clear();
        let mut decoder = BodyDecoder::new(BodyFraming::Chunked);
        let start = monotonic_ns();
        let done = decoder
            .push(&mut raw, &mut decoded)
            .expect("well-formed chunks");
        let took = monotonic_ns() - start;
        assert!(done && decoded.len() == page.bytes.len());
        took as f64
    });
    frame_metrics.push(Metric::new(
        "serve.frame.decode_mbps",
        page.bytes.len() as f64 / ns * 1000.0,
        "MB/s",
        BATCHES,
    ));
}

fn gate(metrics: &mut Vec<Metric>) {
    let n = BATCHES * PER_BATCH;
    // Blocked robots and verified humans fetching their probes: every
    // request is answered by the gate alone.
    let (gateway, requests, now) = warmed(Workload::GateOnly);
    metrics.push(Metric::new(
        "gateway.gate_ready_ns",
        per_call_ns(|i| {
            let pending = gateway.handle_deferred(&requests[i % requests.len()], now);
            assert!(matches!(pending, PendingServe::Ready(_)));
        }),
        "ns",
        n,
    ));
    metrics.push(Metric::new(
        "instrument.engine.classify_ns",
        per_call_ns(|i| {
            black_box(
                gateway
                    .engine()
                    .classify(&requests[i % requests.len()], now),
            );
        }),
        "ns",
        n,
    ));
    let keys: Vec<SessionKey> = requests.iter().map(SessionKey::of).collect();
    let tracker = gateway.detector().tracker();
    metrics.push(Metric::new(
        "sessions.tracker.lookup_ns",
        per_call_ns(|i| {
            let found =
                tracker.with_entry(&keys[i % keys.len()], |session, _| session.request_count());
            black_box(found.expect("the session is live"));
        }),
        "ns",
        n,
    ));

    let policy = PolicyEngine::new(PolicyConfig::default());
    let counters = SessionCounters::new();
    let mut blocked = PolicyState::default();
    blocked.block();
    let mut states = [blocked, PolicyState::default(), PolicyState::default()];
    let verdicts = [
        Verdict::Robot(Reason::HiddenLink),
        Verdict::Human(Reason::MouseActivity),
        Verdict::Undecided,
    ];
    metrics.push(Metric::new(
        "core.policy.decide_ns",
        per_call_ns(|i| {
            // One second apart, so the undecided bucket never runs dry.
            let now = SimTime::from_secs(i as u64);
            black_box(policy.decide(&mut states[i % 3], verdicts[i % 3], &counters, 1.0, 0, now));
        }),
        "ns",
        n,
    ));
}

fn lease_and_commit(metrics: &mut Vec<Metric>) {
    // Verified humans, never rate-limited, asking for origin content.
    let (gateway, humans, now) = warmed(Workload::PageStream);
    let agents: Vec<String> = humans
        .iter()
        .filter_map(|r| r.user_agent().map(str::to_string))
        .collect();
    let asset = content::generate("/asset/4/1.bin").expect("an asset");
    let asset_response = wire::parse_response(&asset.wire()).expect("the origin's response parses");
    let asset_requests: Vec<Request> = agents
        .iter()
        .map(|agent| parse(&request("/asset/4/1.bin", agent)))
        .collect();
    let (mut lease_ns, mut complete_ns) = (Vec::new(), Vec::new());
    for batch in 0..BATCHES + 8 {
        let (mut lease, mut complete) = (0, 0);
        for i in 0..PER_BATCH {
            let req = &asset_requests[(batch * PER_BATCH + i) % asset_requests.len()];
            let fetched = Origin::Response(asset_response.clone());
            let t0 = monotonic_ns();
            let pending = gateway.handle_deferred(req, now);
            let t1 = monotonic_ns();
            let PendingServe::AwaitingOrigin(pending) = pending else {
                panic!("a human's asset request leases the session");
            };
            let t2 = monotonic_ns();
            black_box(gateway.complete(pending, fetched, now));
            complete += monotonic_ns() - t2;
            lease += t1 - t0;
        }
        if batch >= 8 {
            lease_ns.push(lease as f64 / PER_BATCH as f64);
            complete_ns.push(complete as f64 / PER_BATCH as f64);
        }
    }
    let n = BATCHES * PER_BATCH;
    metrics.push(Metric::new(
        "gateway.gate_lease_ns",
        median(&lease_ns),
        "ns",
        n,
    ));
    metrics.push(Metric::new(
        "gateway.complete_ns",
        median(&complete_ns),
        "ns",
        n,
    ));

    // The streaming page serve, 8 KB, in its three public steps.
    let page = content::generate("/page/8ml/2.html").expect("a page");
    let page_requests: Vec<Request> = agents
        .iter()
        .map(|agent| parse(&request("/page/8ml/2.html", agent)))
        .collect();
    let mut out = Vec::with_capacity(16 * 1024);
    let (mut begin_us, mut whole_us, mut added) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..BATCHES + 8 {
        let req = &page_requests[i % page_requests.len()];
        let PendingServe::AwaitingOrigin(pending) = gateway.handle_deferred(req, now) else {
            panic!("a human's page request leases the session");
        };
        out.clear();
        let t0 = monotonic_ns();
        let mut stream = gateway.begin_page_stream(&pending, now);
        let t1 = monotonic_ns();
        stream.write(&page.bytes, &mut out);
        let streamed = out.len() as u64;
        let served = gateway.finish_page_stream(pending, stream, &mut out, streamed, now);
        let t2 = monotonic_ns();
        if i >= 8 {
            begin_us.push((t1 - t0) as f64 / 1000.0);
            whole_us.push((t2 - t0) as f64 / 1000.0);
            added.push(served.manifest.map_or(0, |m| m.html_overhead) as f64);
        }
    }
    metrics.push(Metric::new(
        "gateway.begin_page_stream_us",
        median(&begin_us),
        "us",
        BATCHES,
    ));
    metrics.push(Metric::new(
        "gateway.page_stream_us",
        median(&whole_us),
        "us",
        BATCHES,
    ));
    metrics.push(Metric::new(
        "instrument.added_bytes_per_page",
        median(&added),
        "B",
        BATCHES,
    ));
}

fn instrument(metrics: &mut Vec<Metric>) {
    let engine = RewriteEngine::new(InstrumentConfig::default(), SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let uri: Uri = "http://site.example/page/8ml/2.html"
        .parse()
        .expect("a URL");
    let now = SimTime::from_secs(1);
    metrics.push(Metric::new(
        "instrument.engine.begin_stream_us",
        median_ns(|| {
            let start = monotonic_ns();
            black_box(engine.begin_stream(&uri, now, &mut rng));
            (monotonic_ns() - start) as f64
        }) / 1000.0,
        "us",
        BATCHES,
    ));
    let key = |n: u128| beacon::encode("site.example", BeaconKey::from_raw(n));
    let spec = JsSpec {
        mouse_beacon: key(0xfeed),
        decoys: (1..=5).map(key).collect(),
        agent_beacon: Uri::absolute("site.example", "/00000000000000000042.gif"),
        obfuscation: Obfuscation::Lexical,
        target_size: 1024,
    };
    metrics.push(Metric::new(
        "instrument.jsgen.generate_us",
        median_ns(|| {
            let start = monotonic_ns();
            black_box(jsgen::generate(&spec, &mut rng));
            (monotonic_ns() - start) as f64
        }) / 1000.0,
        "us",
        BATCHES,
    ));

    // A session's token state: issue a page's key, redeem it.
    let script = jsgen::generate(&spec, &mut rng).source;
    let (mut issue_ns, mut redeem_ns) = (Vec::new(), Vec::new());
    for batch in 0..BATCHES + 8 {
        let mut states: Vec<TokenState> = (0..PER_BATCH).map(|_| TokenState::default()).collect();
        let mut inputs: Vec<_> = (0..PER_BATCH)
            .map(|i| {
                let decoys: Vec<BeaconKey> = (1..=5)
                    .map(|d| BeaconKey::from_raw(d + 10 * i as u128))
                    .collect();
                (decoys, Some((i as u64, script.clone())))
            })
            .collect();
        let start = monotonic_ns();
        for (i, (state, (decoys, js))) in states.iter_mut().zip(inputs.drain(..)).enumerate() {
            state.issue(
                "/page/8ml/2.html",
                BeaconKey::from_raw(7 + i as u128),
                decoys,
                js,
                now,
                64,
            );
        }
        let issued = monotonic_ns();
        for (i, state) in states.iter_mut().enumerate() {
            black_box(state.redeem(BeaconKey::from_raw(7 + i as u128), now));
        }
        let redeemed = monotonic_ns();
        if batch >= 8 {
            issue_ns.push((issued - start) as f64 / PER_BATCH as f64);
            redeem_ns.push((redeemed - issued) as f64 / PER_BATCH as f64);
        }
    }
    let n = BATCHES * PER_BATCH;
    metrics.push(Metric::new(
        "instrument.token.issue_ns",
        median(&issue_ns),
        "ns",
        n,
    ));
    metrics.push(Metric::new(
        "instrument.token.redeem_ns",
        median(&redeem_ns),
        "ns",
        n,
    ));

    // The rewriter over 1 MB inputs, fed 16 KB at a time: each write is a batch.
    const CHUNK: usize = 16 * 1024;
    let mut peak_held = 0;
    for (name, dense) in [
        ("instrument.stream.text_mbps", false),
        ("instrument.stream.markup_mbps", true),
    ] {
        let (page, _) = content::page(1 << 20, dense, "big.html", &mut SplitMix(SEED));
        let mut out = Vec::with_capacity(2 << 20);
        let mut chunk_ns = Vec::new();
        for _ in 0..BATCHES.div_ceil(page.len() / CHUNK) {
            let mut stream = engine.begin_stream(&uri, now, &mut rng);
            out.clear();
            for chunk in page.chunks(CHUNK) {
                let start = monotonic_ns();
                stream.write(chunk, &mut out);
                chunk_ns.push((monotonic_ns() - start) as f64);
            }
            peak_held = peak_held.max(stream.peak_buffered());
            stream.finish(&mut out);
            assert!(out.len() > page.len(), "the page came out instrumented");
        }
        metrics.push(Metric::new(
            name,
            CHUNK as f64 / median(&chunk_ns) * 1000.0,
            "MB/s",
            chunk_ns.len(),
        ));
    }
    metrics.push(Metric::new(
        "instrument.stream.peak_held_bytes",
        peak_held as f64,
        "B",
        2,
    ));
}

fn tracker(metrics: &mut Vec<Metric>, sessions: usize) {
    let ok = Response::empty(StatusCode::OK);
    // A probe URL the gateway below will recognise as its own: harvested
    // from a gateway with the same seed, replayed by keys it never saw.
    let harvested = warmed(Workload::FirstContact).1[0].uri().path().to_string();
    let stranger = |n: usize| parse(&request(&harvested, &format!("Mozilla/5.0 stranger/{n}")));
    let now = |n: usize| SimTime::from_millis(n as u64 / 10);

    // Inserts below the cap, then inserts at it (each evicts the idlest).
    let tracker = SessionTracker::new(TrackerConfig {
        max_sessions: sessions,
        ..TrackerConfig::default()
    });
    let mut next = 0;
    let mut observe_batch = |tracker: &SessionTracker| {
        let requests: Vec<Request> = (next..next + PER_BATCH).map(stranger).collect();
        let start = monotonic_ns();
        for (i, req) in requests.iter().enumerate() {
            tracker.observe(req, &ok, now(next + i));
        }
        let took = monotonic_ns() - start;
        next += PER_BATCH;
        took as f64 / PER_BATCH as f64
    };
    let insert_ns: Vec<f64> = (0..sessions / PER_BATCH)
        .map(|_| observe_batch(&tracker))
        .collect();
    metrics.push(Metric::new(
        "sessions.tracker.insert_ns",
        median(&insert_ns),
        "ns",
        insert_ns.len() * PER_BATCH,
    ));
    let evict_ns: Vec<f64> = (0..BATCHES).map(|_| observe_batch(&tracker)).collect();
    assert!(tracker.live_count() <= sessions + 1);
    metrics.push(Metric::new(
        "sessions.tracker.evict_insert_ns",
        median(&evict_ns),
        "ns",
        BATCHES * PER_BATCH,
    ));
    drop(tracker);

    // The same through the whole gateway, with what a session weighs.
    let gateway = Gateway::builder()
        .detector(botwall_core::DetectorConfig {
            tracker: TrackerConfig {
                max_sessions: sessions,
                ..TrackerConfig::default()
            },
        })
        .seed(SEED)
        .build();
    let rss_before = own_rss_bytes();
    for n in 0..sessions {
        let pending = gateway.handle_deferred(&stranger(n), now(n));
        assert!(
            matches!(pending, PendingServe::Ready(_)),
            "the gate serves a probe object itself"
        );
    }
    let rss_after = own_rss_bytes();
    let mut next = sessions;
    let first_contact_ns = median_ns(|| {
        let requests: Vec<Request> = (next..next + PER_BATCH).map(stranger).collect();
        let start = monotonic_ns();
        for (i, req) in requests.iter().enumerate() {
            let _ = black_box(gateway.handle_deferred(req, now(next + i)));
        }
        let took = monotonic_ns() - start;
        next += PER_BATCH;
        took as f64 / PER_BATCH as f64
    });
    metrics.push(Metric::new(
        "gateway.first_contact_ns",
        first_contact_ns,
        "ns",
        BATCHES * PER_BATCH,
    ));
    metrics.push(Metric::new(
        "sessions.tracker.bytes_per_session",
        (rss_after - rss_before) / sessions as f64,
        "B",
        sessions,
    ));
    // A sweep that finds nothing idle still visits every session.
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            let start = monotonic_ns();
            black_box(gateway.sweep(now(next)));
            (monotonic_ns() - start) as f64 / 1e6 * (100_000.0 / sessions as f64)
        })
        .collect();
    metrics.push(Metric::new(
        "core.detector.sweep_ms_per_100k",
        median(&sweeps),
        "ms",
        sweeps.len(),
    ));
}

fn event_loop(metrics: &mut Vec<Metric>) -> std::io::Result<()> {
    // One poll that finds one descriptor ready.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    client.set_nodelay(true)?;
    let (mut server, _) = listener.accept()?;
    server.set_nodelay(true)?;
    server.set_nonblocking(true)?;
    let mut poller = Reactor::new()?;
    poller.register(&server, Token(1), Interest::READABLE)?;
    client.write_all(b"x")?;
    let mut events = Vec::new();
    let mut failed = false;
    let poll_ns = per_call_ns(|_| {
        failed |= poller.poll(&mut events, None).is_err() || events.len() != 1;
    });
    if failed {
        return Err(std::io::Error::other(
            "a poll did not report the one ready descriptor",
        ));
    }
    metrics.push(Metric::new(
        "reactor.poll_ns",
        poll_ns,
        "ns",
        BATCHES * PER_BATCH,
    ));
    let mut byte = [0u8; 1];
    server.read_exact(&mut byte)?;

    // A round trip through a one-connection echo loop on this same core.
    let stop = AtomicBool::new(false);
    let rtt = std::thread::scope(|scope| -> std::io::Result<f64> {
        let echo = scope.spawn(|| -> std::io::Result<()> {
            let mut events = Vec::new();
            let mut buf = [0u8; 256];
            while !stop.load(Ordering::SeqCst) {
                poller.poll(&mut events, None)?;
                for _ in &events {
                    match server.read(&mut buf) {
                        Ok(0) => return Ok(()),
                        Ok(n) => server.write_all(&buf[..n])?,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            Ok(())
        });
        let message = [7u8; 64];
        let mut reply = [0u8; 64];
        let mut error = None;
        let rtt = per_call_ns(|_| {
            if error.is_none() {
                error = client
                    .write_all(&message)
                    .and_then(|()| client.read_exact(&mut reply))
                    .err();
            }
        });
        stop.store(true, Ordering::SeqCst);
        // One more byte wakes the loop so that it sees the flag.
        client.write_all(b"x")?;
        echo.join().expect("the echo loop does not panic")?;
        error.map_or(Ok(rtt), Err)
    })?;
    metrics.push(Metric::new(
        "reactor.echo_rtt_us",
        rtt / 1000.0,
        "us",
        BATCHES * PER_BATCH,
    ));
    Ok(())
}

/// Measures every in-process per-layer metric. `smoke` fills the
/// session tables to a few thousand entries instead of the 100k cap.
pub fn measure(smoke: bool) -> std::io::Result<Vec<Metric>> {
    let mut metrics = Vec::new();
    // First, while the heap is small: what a session weighs is read off
    // this process's own resident set.
    tracker(&mut metrics, if smoke { 4096 } else { TRACKER_CAP });
    wire_and_parse(&mut metrics);
    gate(&mut metrics);
    lease_and_commit(&mut metrics);
    instrument(&mut metrics);
    event_loop(&mut metrics)?;
    Ok(metrics)
}
