// A crawler paced into the throttle's challenge: how a test gets a
// challenge the gateway served, from a gateway built with
// `challenge_on_throttle(true)`. This crate's unit tests and the
// workspace's integration tests `include!` this file (hence no `//!`
// here), each with `Gateway`, `Decision` and `Origin` in scope.

/// The `User-Agent` of [`challenge_a_robot`]'s crawler.
const ROBOT_UA: &str = "wget/1.0";

/// Sends `ip`'s crawler for a new URL once a second from `from`, each
/// answered by a plain `200`, until the gateway answers one with a
/// challenge. With no browser signal the session turns robot after ten
/// requests and spends the robot bucket's burst two later, so the
/// challenge comes within about 12; at one a second the crawler stays
/// under every blocking threshold. Returns the challenge, the request
/// that drew it (re-send it to reach the same session) and when it was
/// sent.
fn challenge_a_robot(
    gw: &Gateway,
    ip: u32,
    from: botwall_sessions::SimTime,
) -> (
    botwall_captcha::Challenge,
    botwall_http::Request,
    botwall_sessions::SimTime,
) {
    for i in 0..60u64 {
        let uri = format!("http://site.example/crawl/{i}.html");
        let request = botwall_http::Request::builder(botwall_http::Method::Get, uri)
            .header("User-Agent", ROBOT_UA)
            .client(botwall_http::request::ClientIp::new(ip))
            .build()
            .unwrap();
        let at = from + i * 1_000;
        match gw.handle_with(&request, at, |_| {
            Origin::Response(botwall_http::Response::empty(botwall_http::StatusCode::OK))
        }) {
            Decision::Challenge(challenge) => return (challenge, request, at),
            Decision::Serve { .. } => {}
            other => panic!("a paced crawler is served or challenged, not {other:?}"),
        }
    }
    panic!("no challenge in 60 paced requests: is challenge_on_throttle set?");
}
