//! The gateway's typed request decision, and the answers the gate
//! gives on its own.

use botwall_captcha::Challenge;
use botwall_core::classifier::Verdict;
use botwall_http::{wire, Response, ResponseSummary, StatusCode};
use botwall_instrument::{ProbeManifest, ProbeObject};
use botwall_sessions::SessionKey;

/// What the origin behind the gateway produced for a request.
///
/// [`Gateway::handle_with`] consults its origin callback only when the
/// request was allowed through policy and is not instrumentation traffic
/// (probes and beacons are answered by the gateway itself).
///
/// [`Gateway::handle_with`]: crate::Gateway::handle_with
#[derive(Debug, Clone)]
pub enum Origin {
    /// An HTML page; the gateway instruments it before serving.
    Page(String),
    /// A complete non-HTML response, served as-is (assets, redirects,
    /// CGI output, upstream errors).
    Response(Response),
    /// The origin has nothing at this URL; the gateway serves a 404.
    NotFound,
}

/// The gateway's verdict-bearing answer for one request: the typed form
/// of the paper's serve / throttle / block / challenge deployment
/// decision.
#[derive(Debug, Clone, PartialEq)]
// `Serve` dwarfs the rejection variants, but a `Decision` lives for one
// request and is moved straight to the caller — never parked in
// collections — so boxing the payload would only add an allocation to
// the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Decision {
    /// Serve the response.
    Serve {
        /// The response to put on the wire (probe object, instrumented
        /// page, origin pass-through, or 404).
        response: Response,
        /// The probe manifest when a page was instrumented.
        manifest: Option<ProbeManifest>,
        /// The session's fast-path verdict after folding this exchange.
        verdict: Verdict,
        /// The session the exchange belongs to.
        key: SessionKey,
    },
    /// Reject with 429: the session is over its rate allowance.
    Throttle,
    /// Reject with 403: the session is blocked.
    Block,
    /// Demand a CAPTCHA before serving: a throttled session when
    /// [`crate::GatewayConfig::challenge_on_throttle`] is set (in place
    /// of the 429).
    Challenge(Challenge),
}

impl Decision {
    /// The HTTP status this decision puts on the wire.
    pub fn status(&self) -> StatusCode {
        match self {
            Decision::Serve { response, .. } => response.status(),
            Decision::Throttle => StatusCode::TOO_MANY_REQUESTS,
            Decision::Block => StatusCode::FORBIDDEN,
            Decision::Challenge(_) => StatusCode::FORBIDDEN,
        }
    }

    /// The session verdict, when this decision carries one.
    pub fn verdict(&self) -> Option<Verdict> {
        match self {
            Decision::Serve { verdict, .. } => Some(*verdict),
            _ => None,
        }
    }

    /// Whether the request was actually served.
    pub fn is_serve(&self) -> bool {
        matches!(self, Decision::Serve { .. })
    }

    /// Converts the decision into the response to transmit. `Throttle`,
    /// `Block`, and `Challenge` produce exactly the responses the
    /// gateway accounted for internally.
    pub fn into_response(self) -> Response {
        match self {
            Decision::Serve { response, .. } => response,
            Decision::Throttle => Response::empty(StatusCode::TOO_MANY_REQUESTS),
            Decision::Block => Response::empty(StatusCode::FORBIDDEN),
            Decision::Challenge(ch) => challenge_response(&ch),
        }
    }
}

/// An answer the gate gives without the origin, as the front door writes
/// it: a refusal or a probe object is fixed bytes and a `Connection`
/// line, nothing built — a probe object written as the gate answers it
/// ([`ProbeObject::write`]), the rest by [`Answer::write`].
/// [`Answer::summary`] is what the session's record keeps of it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `403`: the session is blocked.
    Block,
    /// `429`: the session is over its rate allowance.
    Throttle,
    /// The CAPTCHA interstitial (a `403` with a page).
    Challenge(Challenge),
    /// Instrumentation traffic: a probe object, or a beacon's image.
    Probe(ProbeObject),
}

impl Answer {
    /// The answer's status.
    pub fn status(&self) -> StatusCode {
        match self {
            Answer::Block | Answer::Challenge(_) => StatusCode::FORBIDDEN,
            Answer::Throttle => StatusCode::TOO_MANY_REQUESTS,
            Answer::Probe(_) => StatusCode::OK,
        }
    }

    /// What the session's record keeps of the answer.
    pub fn summary(&self) -> ResponseSummary {
        match self {
            Answer::Block | Answer::Throttle => ResponseSummary::empty(self.status()),
            Answer::Challenge(challenge) => challenge_response(challenge).summary(),
            Answer::Probe(object) => object.summary(),
        }
    }

    /// Appends a refusal or the interstitial as the front door sends
    /// it, `close` deciding its `Connection` line: what
    /// [`wire::write_response`] makes of its [`Decision`]'s response. A probe
    /// object was written when it was answered, so nothing more goes out
    /// for one.
    pub fn write(&self, close: bool, out: &mut Vec<u8>) {
        match self {
            Answer::Block | Answer::Throttle => wire::write_empty(self.status(), close, out),
            Answer::Challenge(challenge) => {
                wire::write_response(&challenge_response(challenge), close, out)
            }
            Answer::Probe(_) => {}
        }
    }

    /// The [`Decision`] this answer is, for the session `key` whose
    /// verdict it left at `verdict`; `written` ends with what the gate
    /// wrote of it (a script's body is read from there).
    pub(crate) fn into_decision(
        self,
        key: SessionKey,
        verdict: Verdict,
        written: &[u8],
    ) -> Decision {
        match self {
            Answer::Block => Decision::Block,
            Answer::Throttle => Decision::Throttle,
            Answer::Challenge(challenge) => Decision::Challenge(challenge),
            Answer::Probe(object) => Decision::Serve {
                response: object.to_response(written),
                manifest: None,
                verdict,
                key,
            },
        }
    }
}

/// The interstitial served with a [`Decision::Challenge`]: a 403 carrying
/// the distorted challenge text, so robots that keep hammering keep
/// feeding the error-ratio blocking threshold.
pub(crate) fn challenge_response(challenge: &Challenge) -> Response {
    Response::builder(StatusCode::FORBIDDEN)
        .header("Content-Type", "text/html")
        .body_bytes(
            format!(
                "<html><body><p>solve to continue (id {})</p><pre>{}</pre></body></html>",
                challenge.id, challenge.distorted
            )
            .into_bytes(),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping() {
        assert_eq!(Decision::Throttle.status(), StatusCode::TOO_MANY_REQUESTS);
        assert_eq!(Decision::Block.status(), StatusCode::FORBIDDEN);
        let ch = Challenge::derive(1, 1, 0.5);
        assert_eq!(Decision::Challenge(ch).status(), StatusCode::FORBIDDEN);
    }

    #[test]
    fn into_response_matches_status() {
        assert_eq!(
            Decision::Throttle.into_response().status(),
            StatusCode::TOO_MANY_REQUESTS
        );
        assert_eq!(
            Decision::Block.into_response().status(),
            StatusCode::FORBIDDEN
        );
        let ch = Challenge::derive(2, 1, 0.5);
        let resp = Decision::Challenge(ch.clone()).into_response();
        assert_eq!(resp.status(), StatusCode::FORBIDDEN);
        let body = String::from_utf8_lossy(resp.body()).into_owned();
        assert!(body.contains(&ch.distorted));
    }

    /// Refusals and the interstitial written as they are sent are the
    /// responses of the decisions they stand for, with this hop's
    /// framing; the record's summary is the response's. (Probe objects:
    /// `botwall-instrument`.)
    #[test]
    fn an_answer_written_is_its_response_written() {
        let challenge = Challenge::derive(4, 1, 0.5);
        for (answer, decision) in [
            (Answer::Block, Decision::Block),
            (Answer::Throttle, Decision::Throttle),
            (
                Answer::Challenge(challenge.clone()),
                Decision::Challenge(challenge),
            ),
        ] {
            let response = decision.into_response();
            assert_eq!(answer.status(), response.status());
            assert_eq!(answer.summary(), response.summary());
            for close in [false, true] {
                let (mut fixed, mut whole) = (Vec::new(), Vec::new());
                answer.write(close, &mut fixed);
                wire::write_response(&response, close, &mut whole);
                assert_eq!(fixed, whole, "{answer:?}");
            }
        }
        let mut refused = Vec::new();
        Answer::Throttle.write(false, &mut refused);
        assert_eq!(
            refused,
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n"
        );
    }

    #[test]
    fn challenge_decisions_carry_no_verdict() {
        let ch = Challenge::derive(3, 1, 0.5);
        assert_eq!(Decision::Challenge(ch).verdict(), None);
        assert!(!Decision::Block.is_serve());
    }
}
