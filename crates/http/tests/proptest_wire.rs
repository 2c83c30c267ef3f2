//! Property tests for the HTTP substrate: wire roundtrips, URI invariants,
//! and status classification.

use botwall_http::request::ClientIp;
use botwall_http::{wire, Method, Request, Response, StatusCode, Uri};
use proptest::prelude::*;

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Get),
        Just(Method::Head),
        Just(Method::Post),
        Just(Method::Put),
        Just(Method::Delete),
        Just(Method::Options),
        "[A-Z]{3,10}".prop_map(|s| s.parse::<Method>().unwrap()),
    ]
}

fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9_.-]{1,8}", 1..5)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

fn arb_uri() -> impl Strategy<Value = String> {
    (
        "[a-z][a-z0-9]{0,10}(\\.[a-z]{2,4}){1,2}",
        arb_path(),
        proptest::option::of("[a-z]=[a-z0-9]{1,6}(&[a-z]=[a-z0-9]{1,6}){0,3}"),
    )
        .prop_map(|(host, path, query)| match query {
            Some(q) => format!("http://{host}{path}?{q}"),
            None => format!("http://{host}{path}"),
        })
}

fn arb_header() -> impl Strategy<Value = (String, String)> {
    ("[A-Za-z][A-Za-z0-9-]{0,15}", "[a-zA-Z0-9 /;=.,+()-]{0,40}")
        .prop_map(|(n, v)| (n, v.trim().to_string()))
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..200)
}

proptest! {
    /// parse(serialize(request)) is the identity.
    #[test]
    fn request_wire_roundtrip(
        method in arb_method(),
        uri in arb_uri(),
        headers in proptest::collection::vec(arb_header(), 0..8),
        body in arb_body(),
        ip in any::<u32>(),
    ) {
        let mut b = Request::builder(method, uri).client(ClientIp::new(ip));
        for (n, v) in &headers {
            // Content-Length is derived from the body; skip colliding names.
            if n.eq_ignore_ascii_case("content-length") { continue; }
            b = b.header(n.clone(), v.clone());
        }
        let req = b.body_bytes(body).build().unwrap();
        let bytes = wire::serialize_request(&req);
        let back = wire::parse_request(&bytes, ClientIp::new(ip)).unwrap();
        prop_assert_eq!(back, req);
    }

    /// parse(serialize(response)) is the identity.
    #[test]
    fn response_wire_roundtrip(
        code in 100u16..=599,
        headers in proptest::collection::vec(arb_header(), 0..8),
        body in arb_body(),
    ) {
        let mut b = Response::builder(StatusCode::new(code).unwrap());
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length") { continue; }
            b = b.header(n.clone(), v.clone());
        }
        let resp = b.body_bytes(body).build();
        let bytes = wire::serialize_response(&resp);
        let back = wire::parse_response(&bytes).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// URI display/parse is the identity on generated URIs.
    #[test]
    fn uri_display_roundtrip(uri in arb_uri()) {
        let parsed: Uri = uri.parse().unwrap();
        let redisplayed = parsed.to_string();
        let reparsed: Uri = redisplayed.parse().unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    /// `wire_len` is an upper bound within slack of the real serialization
    /// (exact for requests built without auto Content-Length).
    #[test]
    fn request_wire_len_is_exact(
        method in arb_method(),
        uri in arb_uri(),
    ) {
        let req = Request::builder(method, uri).build().unwrap();
        let bytes = wire::serialize_request(&req);
        prop_assert_eq!(bytes.len(), req.wire_len());
    }

    /// Joining a parsed sibling reference keeps the host and scheme.
    #[test]
    fn uri_join_preserves_authority(base in arb_uri(), name in "[a-z]{1,8}\\.html") {
        let base: Uri = base.parse().unwrap();
        let joined = base.join(&name).unwrap();
        prop_assert_eq!(joined.host(), base.host());
        prop_assert_eq!(joined.scheme(), base.scheme());
        prop_assert!(joined.path().ends_with(&name));
    }

    /// Truncating a serialized request below the header terminator always
    /// produces an error, never a bogus parse.
    #[test]
    fn truncated_header_block_never_parses(
        uri in arb_uri(),
        cut in 0usize..16,
    ) {
        let req = Request::builder(Method::Get, uri).build().unwrap();
        let bytes = wire::serialize_request(&req);
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let cut_at = cut.min(head_end);
        prop_assert!(wire::parse_request(&bytes[..cut_at], ClientIp::new(0)).is_err());
    }
}
