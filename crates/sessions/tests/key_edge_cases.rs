//! Weird `User-Agent` strings feeding `sessions::key`: the `<IP, UA>` pair
//! is the paper's session identity, so odd UA values must split or merge
//! sessions predictably.

use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, UserAgent};
use botwall_sessions::key::MAX_KEY_AGENT_BYTES;
use botwall_sessions::SessionKey;

fn req(ip: u32, ua: Option<&str>) -> Request {
    let mut b = Request::builder(Method::Get, "/").client(ClientIp::new(ip));
    if let Some(ua) = ua {
        b = b.header("User-Agent", ua);
    }
    b.build().unwrap()
}

#[test]
fn missing_user_agent_maps_to_empty_string() {
    let k = SessionKey::of(&req(7, None));
    assert_eq!(k.user_agent(), "");
    // All UA-less traffic from one address is ONE session.
    assert_eq!(k, SessionKey::of(&req(7, None)));
}

#[test]
fn same_ip_different_ua_split_sessions() {
    // A NAT'd office and a robot farm behind one address: distinct UAs
    // must yield distinct sessions.
    let a = SessionKey::of(&req(9, Some("Mozilla/4.0 (compatible; MSIE 6.0)")));
    let b = SessionKey::of(&req(9, Some("Wget/1.9.1")));
    assert_ne!(a, b);
}

#[test]
fn ua_comparison_is_case_sensitive_and_raw() {
    // The key stores the raw string — canonicalization belongs to the
    // UA-mismatch detector, not to session identity.
    let a = SessionKey::of(&req(3, Some("Opera/8.51")));
    let b = SessionKey::of(&req(3, Some("opera/8.51")));
    assert_ne!(a, b);
    assert_eq!(a.user_agent(), "Opera/8.51");
}

#[test]
fn very_long_ua_is_preserved() {
    // Builder-path headers are stored verbatim (only the wire parser
    // trims), so a pathologically long UA survives byte for byte in the
    // request, where evidence reads it; the session key keeps its first
    // `MAX_KEY_AGENT_BYTES`, byte for byte.
    let long = "Mozilla/4.0 ".to_string() + &"(padding) ".repeat(500);
    let r = req(5, Some(long.as_str()));
    assert_eq!(r.user_agent(), Some(long.as_str()));
    let k = SessionKey::of(&r);
    assert_eq!(k.user_agent(), &long[..MAX_KEY_AGENT_BYTES]);
}

#[test]
fn forged_mozilla_prefix_with_robot_marker_is_declared_robot() {
    // Robot markers dominate the browser sniff: a crawler hiding behind
    // "Mozilla/…" but naming itself is still a declared robot.
    let ua = "Mozilla/5.0 (compatible; Googlebot/2.1)";
    assert!(matches!(
        UserAgent::parse(Some(ua)),
        UserAgent::DeclaredRobot(_)
    ));
    // …but for session identity it is just another distinct string.
    let k = SessionKey::of(&req(2, Some(ua)));
    assert_eq!(k.user_agent(), ua);
}

#[test]
fn whitespace_only_ua_parses_as_missing() {
    assert_eq!(UserAgent::parse(Some("   ")), UserAgent::Missing);
    // Via the builder the raw value is kept: session identity does not
    // second-guess what the client sent.
    let k = SessionKey::of(&req(4, Some("   ")));
    assert_eq!(k.user_agent(), "   ");
    assert_ne!(k, SessionKey::of(&req(4, None)));
}

#[test]
fn wire_parsing_trims_ua_so_blank_equals_missing() {
    use botwall_http::wire::parse_request;
    // On the wire, header values are trimmed — a whitespace-only UA
    // collapses to "" and merges with the UA-less session for its IP.
    let raw = b"GET / HTTP/1.1\r\nUser-Agent:    \r\n\r\n";
    let parsed = parse_request(raw, ClientIp::new(4)).unwrap();
    let k = SessionKey::of(&parsed);
    assert_eq!(k.user_agent(), "");
    assert_eq!(k, SessionKey::of(&req(4, None)));
}

#[test]
fn robot_markers_are_case_insensitive() {
    for ua in ["WGET/1.8", "MyBOT/0.1", "Python-urllib/2.4", "ScanDaddy/9"] {
        assert!(
            matches!(UserAgent::parse(Some(ua)), UserAgent::DeclaredRobot(_)),
            "{ua} should be a declared robot"
        );
    }
}

#[test]
fn display_quotes_the_ua() {
    let k = SessionKey::new(ClientIp::new(1), "a b");
    let shown = k.to_string();
    assert!(shown.contains("\"a b\""), "{shown}");
}
