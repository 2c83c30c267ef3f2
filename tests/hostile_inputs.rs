//! Client input the gate turns into markup or session state, fuzzed.
//!
//! A page's probe URLs are written from the `Host` a request names: a
//! value that is a plain `host[:port]` lands in front of every probe
//! path, anything else leaves the page exactly as if no `Host` had been
//! sent. And the probe, script and beacon URLs a page hands out are
//! worth something only as minted: one digit changed, or a name made up
//! in the same shape, is ordinary traffic that adds no evidence.
//!
//! Every request is read off the wire by `wire::read_incoming`, as the
//! front door reads it, and answered by `Gateway::handle`.

use botwall::detect::EvidenceKind;
use botwall::gateway::{Decision, Gateway, Origin};
use botwall::http::request::ClientIp;
use botwall::http::{wire, Request, StatusCode};
use botwall::instrument::{ProbeKind, Sighting};
use botwall::sessions::SimTime;
use proptest::prelude::*;

const HTML: &str = "<html><head><title>h</title></head><body><p>hostile</p></body></html>";

/// Every probe kind.
const KINDS: [ProbeKind; 6] = [
    ProbeKind::CssProbe,
    ProbeKind::JsFile,
    ProbeKind::AgentBeacon,
    ProbeKind::MouseBeacon,
    ProbeKind::HiddenLink,
    ProbeKind::TransparentPixel,
];

/// `GET {target}` from one client, with `Host: {host}` when given, read
/// as the front door reads it.
fn read(target: &str, host: Option<&str>) -> Request {
    let mut raw = format!("GET {target} HTTP/1.1\r\n");
    if let Some(host) = host {
        raw.push_str(&format!("Host: {host}\r\n"));
    }
    raw.push_str("User-Agent: Mozilla/5.0 (hostile inputs)\r\n\r\n");
    let incoming = wire::read_incoming(raw.as_bytes(), ClientIp::new(7))
        .unwrap_or_else(|e| panic!("{raw:?} is refused: {e:?}"))
        .expect("the whole request");
    incoming.to_request()
}

/// Whether `Site::of` writes `host` into probe URLs: 1–255 bytes of
/// `[A-Za-z0-9._:[]-]`.
fn plain_authority(host: &str) -> bool {
    (1..=255).contains(&host.len())
        && host
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"._:[]-".contains(&b))
}

/// A fresh gateway seeded `seed` and its decision on `/index.html`,
/// asked for at `now`.
fn served_page(seed: u64, now: SimTime, host: Option<&str>) -> (Gateway, Decision) {
    let gw = Gateway::builder().seed(seed).build();
    let d = gw.handle_with(&read("/index.html", host), now, |_| {
        Origin::Page(HTML.into())
    });
    (gw, d)
}

/// The page served for `/index.html` and the script its `<script src>`
/// names, fetched by the same client under the same `Host`.
fn page_and_script(seed: u64, now: SimTime, host: Option<&str>) -> (String, String) {
    let (gw, d) = served_page(seed, now, host);
    let Decision::Serve {
        response, manifest, ..
    } = d
    else {
        panic!("a fresh session's page is served: {d:?}");
    };
    let page = String::from_utf8(response.body().to_vec()).expect("a UTF-8 page");
    let js = manifest.and_then(|m| m.js_file).expect("a script URL");
    let probes = gw.stats().probe_requests;
    let d = gw.handle(&read(js.path(), host), now + 1);
    let Decision::Serve { response, .. } = d else {
        panic!("the script is served: {d:?}");
    };
    assert_eq!(
        gw.stats().probe_requests,
        probes + 1,
        "the script is a probe"
    );
    let script = String::from_utf8(response.body().to_vec()).expect("an ASCII script");
    (page, script)
}

/// Every URL between single quotes in a script, sorted: what it
/// fetches (the default obfuscation keeps literals whole).
fn fetched_by(script: &str) -> Vec<&str> {
    let mut urls: Vec<&str> = script.split('\'').skip(1).step_by(2).collect();
    urls.sort_unstable();
    urls
}

/// Answers `target` in the session `d` was served in and checks it was
/// ordinary traffic: the origin's 404, no probe object or script, and
/// the session's evidence as it was.
fn assert_ordinary(gw: &Gateway, d: &Decision, target: &str, now: SimTime) {
    let Decision::Serve { key, .. } = d else {
        panic!("the page was served: {d:?}");
    };
    let before = gw.detector().evidence(key);
    let probes = gw.stats().probe_requests;
    let d = gw.handle(&read(target, None), now);
    let Decision::Serve { response, .. } = &d else {
        panic!("{target}: ordinary traffic is served: {d:?}");
    };
    assert_eq!(
        gw.stats().probe_requests,
        probes,
        "{target} was answered as a probe"
    );
    assert_eq!(response.status(), StatusCode::NOT_FOUND, "{target}");
    assert_eq!(gw.detector().evidence(key), before, "{target}");
}

/// A `Host` that passes `Site::of`'s rule is in front of every probe
/// URL of the page and of its script, as sent; any other serves the page
/// (and script) byte for byte as no `Host` at all does, at the same seed
/// and time.
fn assert_host_written_as_sent_or_not_at_all(host: &str, seed: u64, now: SimTime) {
    let (bare_page, bare_script) = page_and_script(seed, now, None);
    let (page, script) = page_and_script(seed, now, Some(host));
    if plain_authority(host) {
        let site = format!("http://{host}/");
        assert_eq!(bare_page.matches("=\"/").count(), 4);
        assert_eq!(page, bare_page.replace("=\"/", &format!("=\"{site}")));
        let urls = fetched_by(&script);
        assert!(urls.iter().all(|u| u.starts_with(&site)), "{urls:?}");
        let paths: Vec<&str> = urls.iter().map(|u| &u[site.len() - 1..]).collect();
        assert_eq!(paths, fetched_by(&bare_script));
    } else {
        assert_eq!(page, bare_page);
        assert_eq!(script, bare_script);
    }
}

/// The property's first finding: the script wrote the port of
/// `Host: shop.example:06` as `:6`, where the page wrote `:06`.
#[test]
fn a_port_led_by_a_zero_is_written_as_sent() {
    assert_host_written_as_sent_or_not_at_all("shop.example:06", 35, SimTime::from_hours(5));
}

proptest! {
    /// Any `Host` the front door accepts, as
    /// `assert_host_written_as_sent_or_not_at_all` has it.
    #[test]
    fn a_host_reaches_probe_urls_only_as_a_plain_authority(
        host in prop_oneof![
            "[A-Za-z0-9._:\\[\\]-]{1,40}",
            "[a-z0-9.-]{240,270}",
            "[ -~]{0,40}",
            "[a-z0-9.]{0,12}[ \"'<>@/]{1,3}[a-z0-9.:]{0,12}",
        ],
        seed in any::<u64>(),
        hour in 0u64..48,
    ) {
        let now = SimTime::from_hours(hour) + 11;
        // The space around a header value is not part of it.
        assert_host_written_as_sent_or_not_at_all(host.trim(), seed, now);
    }

    /// One of the 20 digits of any probe URL a page was minted with,
    /// changed, is ordinary traffic.
    #[test]
    fn a_probe_url_with_one_digit_changed_is_ordinary_traffic(
        seed in any::<u64>(),
        hour in 0u64..48,
        which in 0usize..5,
        digit in 0usize..20,
        bump in 1u8..10,
    ) {
        let now = SimTime::from_hours(hour) + 11;
        let (gw, d) = served_page(seed, now, None);
        let Decision::Serve { manifest: Some(m), .. } = &d else {
            panic!("an instrumented page: {d:?}");
        };
        let url = [&m.css_probe, &m.js_file, &m.agent_beacon, &m.hidden_link, &m.transparent_pixel]
            [which]
            .as_ref()
            .expect("every probe is on by default")
            .to_string();
        let mut target = url.into_bytes();
        let d_at = &mut target[1 + digit];
        prop_assert!(d_at.is_ascii_digit());
        *d_at = b'0' + (*d_at - b'0' + bump) % 10;
        let target = String::from_utf8(target).expect("ASCII");
        assert_ordinary(&gw, &d, &target, now + 1);
    }

    /// The page's mouse beacon with one hex digit of its key changed
    /// never records a mouse event.
    #[test]
    fn a_mouse_beacon_with_one_hex_digit_changed_records_no_mouse_event(
        seed in any::<u64>(),
        hour in 0u64..48,
        digit in 0usize..32,
        bump in 1usize..16,
    ) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let now = SimTime::from_hours(hour) + 11;
        let (gw, d) = served_page(seed, now, None);
        let Decision::Serve { manifest: Some(m), key, .. } = &d else {
            panic!("an instrumented page: {d:?}");
        };
        let mut target = m.mouse_beacon.as_ref().expect("a mouse beacon").to_string().into_bytes();
        let at = HEX.iter().position(|&h| h == target[1 + digit]).expect("a hex digit");
        target[1 + digit] = HEX[(at + bump) % 16];
        let target = String::from_utf8(target).expect("ASCII");
        gw.handle(&read(&target, None), now + 1);
        let evidence = gw.detector().evidence(key).expect("a live session");
        prop_assert!(!evidence.has(EvidenceKind::MouseEvent), "{}", target);
    }

    /// Made-up 20-digit stems under every probe extension, with any
    /// `agent=`, `wd=` and `pl=` query, never panic the gate and never
    /// classify as a probe.
    #[test]
    fn made_up_probe_names_never_classify_as_probes(
        stem in "[0-9]{20}",
        kind in 0usize..KINDS.len(),
        agent in "[A-Za-z0-9%._~()/;:+-]{0,32}",
        wd in prop_oneof!["[0-9]{1,4}", "[a-z0-9-]{0,3}"],
        pl in prop_oneof!["[0-9]{1,11}", "[a-z0-9-]{0,3}"],
        seed in any::<u64>(),
        hour in 0u64..48,
    ) {
        let now = SimTime::from_hours(hour) + 11;
        let (gw, d) = served_page(seed, now, None);
        let ext = KINDS[kind].extension();
        let target = format!("/{stem}.{ext}?agent={agent}&wd={wd}&pl={pl}");
        let sighting = gw.engine().classify(&read(&target, None), now + 1);
        prop_assert!(matches!(sighting, Sighting::Ordinary), "{}: {:?}", target, sighting);
        assert_ordinary(&gw, &d, &target, now + 1);
    }
}
