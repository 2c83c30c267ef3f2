//! The gate reads a request in place off the front door's read buffer;
//! a library caller lends it from an owned request. These are one gate
//! path only if the two views agree, so for every request the front
//! door accepts, the view it read and the owned request built from it
//! must give the same session key and shard, the same size on the wire
//! and URL hashes (the target's, and the URL a `Referer` to it spells),
//! the same content class and instrumentation sighting, and the same
//! method, target and body. The messages are the codec
//! fuzzer's (`crates/http/tests/support/messages.rs`), a tenth of them
//! with a probe URL a page actually minted spliced in as the target.
//! CI reruns this in release at 100 000 cases.

#[allow(dead_code)]
mod messages {
    include!("../crates/http/tests/support/messages.rs");
}

use botwall::http::frame::{BodyDecoder, BodyFraming, MAX_HEAD_BYTES};
use botwall::http::request::ClientIp;
use botwall::http::{wire, ContentClass, Head, Uri};
use botwall::instrument::{InstrumentConfig, RewriteEngine};
use botwall::sessions::{RequestRecord, SessionKey, SimTime};
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// What the front door is talking to, and the probe URLs one of its
/// pages carries: whole, path-only, and the agent beacon with a report.
fn engine_and_probes() -> &'static (RewriteEngine, Vec<String>) {
    static MINTED: OnceLock<(RewriteEngine, Vec<String>)> = OnceLock::new();
    MINTED.get_or_init(mint)
}

fn mint() -> (RewriteEngine, Vec<String>) {
    let engine = RewriteEngine::new(InstrumentConfig::default(), 42);
    let page: Uri = "http://site.example/index.html".parse().unwrap();
    let mut stream = engine.begin_stream(&page, SimTime::ZERO, &mut ChaCha8Rng::seed_from_u64(7));
    let mut html = Vec::new();
    stream.write(b"<html><head></head><body></body></html>", &mut html);
    let manifest = stream
        .finish(&mut html)
        .manifest(&page, page.authority().as_deref());
    let mut urls: Vec<Uri> = manifest.decoy_beacons.clone();
    urls.extend(
        [
            manifest.css_probe,
            manifest.js_file,
            manifest.mouse_beacon,
            manifest.hidden_link,
            manifest.transparent_pixel,
        ]
        .into_iter()
        .flatten(),
    );
    let mut targets: Vec<String> = urls
        .iter()
        .flat_map(|url| [url.to_string(), url.path().to_string()])
        .collect();
    let agent = manifest.agent_beacon.expect("the beacon is on");
    targets.push(format!("{}?agent=mozilla/5.0&wd=0&pl=3", agent.path()));
    targets.push(format!("{agent}?agent=x"));
    (engine, targets)
}

/// `raw` with the second field of its start line, if it has one,
/// replaced by `target`.
fn with_target(raw: &[u8], target: &str) -> Vec<u8> {
    let line = raw.split(|&b| b == b'\r').next().unwrap_or_default();
    let Some(first) = line.iter().position(|&b| b == b' ') else {
        return raw.to_vec();
    };
    let Some(second) = line[first + 1..].iter().position(|&b| b == b' ') else {
        return raw.to_vec();
    };
    let rest = &raw[first + 1 + second..];
    [&raw[..first + 1], target.as_bytes(), rest].concat()
}

/// The body of the one message at the front of `raw`, decoded by the
/// framing layer alone.
fn decoded_body(raw: &[u8]) -> Vec<u8> {
    let head = Head::parse(raw, MAX_HEAD_BYTES).unwrap().unwrap();
    let framing = head.lines().framing(BodyFraming::Length(0)).unwrap();
    let (mut buf, mut body) = (raw[head.len..].to_vec(), Vec::new());
    assert!(BodyDecoder::new(framing).push(&mut buf, &mut body).unwrap());
    body
}

proptest! {
    #[test]
    fn the_view_the_gate_reads_is_the_owned_requests(
        raw in messages::message(),
        probe in 0usize..200,
    ) {
        let (engine, targets) = engine_and_probes();
        let raw = match targets.get(probe) {
            Some(target) => with_target(&raw, target),
            None => raw,
        };
        let peer = ClientIp::new(0x7f00_0001);
        if let Ok(Some(read)) = wire::read_incoming(&raw, peer) {
            let view = read.view();
            let owned = read.to_request();
            // The key, and the shard it hashes to.
            let key = SessionKey::of_view(view);
            prop_assert_eq!(&key, &SessionKey::of(&owned));
            prop_assert_eq!(key.shard_hash(), SessionKey::of(&owned).shard_hash());
            // The size on the wire, and the URL hash.
            prop_assert_eq!(view.wire_len(), owned.wire_len());
            prop_assert_eq!(view.wire_len(), wire::serialize_request(&owned).len());
            let rendered = RequestRecord::hash_url(&owned.uri().to_string());
            prop_assert_eq!(RequestRecord::hash_uri(view.uri()), rendered);
            let uri = owned.uri();
            let named = match owned.authority() {
                Some(host) if uri.host().is_none() && uri.path().starts_with('/') => {
                    RequestRecord::hash_url(&format!("http://{host}{uri}"))
                }
                _ => rendered,
            };
            prop_assert_eq!(RequestRecord::hash_target(view), named);
            // What was asked for, and what the instrumentation sees in it.
            prop_assert_eq!(ContentClass::of_view(view, None), ContentClass::of(&owned, None));
            for now in [SimTime::ZERO, SimTime::from_hours(3)] {
                prop_assert_eq!(engine.classify_view(view, now), engine.classify(&owned, now));
            }
            // The request itself, leased.
            prop_assert_eq!(view.method(), owned.method().clone());
            prop_assert_eq!(view.uri().to_string(), owned.uri().to_string());
            prop_assert_eq!(owned.body(), decoded_body(&raw[..read.len()]).as_slice());
            // And the view an owned request lends is the one read.
            prop_assert_eq!(*view, owned.view());
        }
    }
}
