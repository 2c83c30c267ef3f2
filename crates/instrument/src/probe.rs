//! Probe kinds and classified probe hits.
//!
//! Probes must blend into ordinary site traffic — the paper's CSS probe is
//! `http://www.example.com/2031464296.css`, its hidden link an ordinary
//! page URL behind a transparent image. So probe URLs carry no
//! distinguishing prefix; since PR 4 the server recognizes them *without
//! remembering anything*: each URL's 20-digit name is a
//! self-authenticating nonce carrying a keyed-hash tag that only the
//! issuing [`crate::RewriteEngine`] can mint or verify. (The old
//! stateful `ProbeRegistry` — a global table of issued nonces on the
//! request path — is gone.)

use crate::rewrite::Classified;
use botwall_http::{wire, ContentClass, Response, ResponseSummary, StatusCode};

/// The kinds of probe objects the instrumenter plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// The dynamically injected empty style sheet (§2.2). Standard
    /// browsers fetch it; goal-oriented robots do not.
    CssProbe,
    /// The external JavaScript file itself (fetching it shows the client
    /// downloads scripts, like the CSS case; Figure 2 tracks it).
    JsFile,
    /// The beacon fetched when the injected script *executes* (it reports
    /// the canonicalized `navigator.userAgent`).
    AgentBeacon,
    /// The beacon fetched by the mouse/keyboard event handler; carries the
    /// 128-bit key checked against the session's token state.
    MouseBeacon,
    /// The hidden link behind a transparent 1×1 image. Humans cannot see
    /// it; blind crawlers follow it.
    HiddenLink,
    /// The transparent 1×1 image that hides the link (fetching it is
    /// neutral — browsers render it).
    TransparentPixel,
}

impl ProbeKind {
    /// The file extension probes of this kind are served under.
    pub fn extension(self) -> &'static str {
        match self {
            ProbeKind::CssProbe => "css",
            ProbeKind::JsFile => "js",
            ProbeKind::AgentBeacon => "gif",
            ProbeKind::MouseBeacon => "jpg",
            ProbeKind::HiddenLink => "html",
            ProbeKind::TransparentPixel => "gif",
        }
    }
}

/// Automation-environment facts the agent-beacon script reports alongside
/// the canonicalized agent string: whether `navigator.webdriver` was
/// truthy and how many entries `navigator.plugins` held. Automation
/// frameworks leak exactly these signals; real desktop browsers report
/// `webdriver = false` and a non-empty plugin list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutomationReport {
    /// `navigator.webdriver` as reported by the executing script.
    pub webdriver: bool,
    /// `navigator.plugins.length` as reported by the executing script.
    pub plugins: u32,
}

/// A classified probe hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeHit {
    /// Which probe the request touched.
    pub kind: ProbeKind,
    /// The nonce that identified it.
    pub nonce: u64,
    /// For [`ProbeKind::AgentBeacon`] hits: the agent string the script
    /// reported (already canonicalized by the client-side code).
    pub reported_agent: Option<String>,
    /// For [`ProbeKind::AgentBeacon`] hits: the automation-environment
    /// report, when the executing script included one. Clients running
    /// instrumentation minted before this field existed simply omit it.
    pub automation: Option<AutomationReport>,
}

/// A 1×1 transparent GIF (the classic 43-byte pixel).
const TRANSPARENT_GIF: &[u8] = &[
    0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x01, 0x00, 0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
];

/// A minimal JPEG payload ("any JPEG image [works] because the picture is
/// not used" — §2.1).
const FAKE_JPEG: &[u8] = &[
    0xff, 0xd8, 0xff, 0xe0, 0x00, 0x10, 0x4a, 0x46, 0x49, 0x46, 0x00, 0x01, 0x01, 0x00, 0x00, 0x01,
    0x00, 0x01, 0x00, 0x00, 0xff, 0xd9,
];

/// The one header line every probe object carries besides its type: a
/// probe fetched from a cache proves nothing (§2.1).
const UNCACHEABLE: (&str, &str) = ("Cache-Control", "no-cache, no-store");

/// What instrumentation traffic was answered with: a `200`,
/// uncacheable, of one content type, whose body is fixed bytes or, for
/// the script, what was written from the session's token into the
/// answer. [`ProbeObject::write`] appends the answer as the front door
/// sends it and hands back this record of it:
/// [`ProbeObject::summary`] is what the session's record keeps, and
/// [`ProbeObject::to_response`] the same answer as a [`Response`], for a
/// caller that wants one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeObject {
    content_type: &'static str,
    body: ProbeBody,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ProbeBody {
    Fixed(&'static [u8]),
    /// A script of this many bytes, written into the answer.
    Script(usize),
}

impl ProbeObject {
    /// Appends to `out` the answer `classified` gets, as the front door
    /// sends it: fixed head bytes, `close` deciding its `Connection`
    /// line, and the body — fixed bytes, or for a JS-file hit whatever
    /// `script` appends (the session's script; nothing is an empty one),
    /// written first and then turned behind the head, whose length line
    /// needs it. `None`, with nothing written, for ordinary traffic.
    /// What [`wire::write_response`] makes of [`ProbeObject::to_response`],
    /// whose body-less form has its length written last.
    pub fn write(
        classified: &Classified,
        close: bool,
        out: &mut Vec<u8>,
        script: impl FnOnce(&mut Vec<u8>),
    ) -> Option<ProbeObject> {
        let (content_type, fixed) = match classified {
            Classified::MouseBeacon { .. } => ("image/jpeg", Some(FAKE_JPEG)),
            Classified::Probe(hit) => match hit.kind {
                ProbeKind::CssProbe => ("text/css", Some(&b""[..])),
                ProbeKind::JsFile => ("application/x-javascript", None),
                ProbeKind::AgentBeacon | ProbeKind::TransparentPixel => {
                    ("image/gif", Some(TRANSPARENT_GIF))
                }
                ProbeKind::MouseBeacon => ("image/jpeg", Some(FAKE_JPEG)),
                ProbeKind::HiddenLink => (
                    "text/html",
                    Some(&b"<html><body>nothing to see</body></html>"[..]),
                ),
            },
            Classified::Ordinary => return None,
        };
        let start = out.len();
        let body = match fixed {
            Some(bytes) => ProbeBody::Fixed(bytes),
            None => {
                script(out);
                ProbeBody::Script(out.len() - start)
            }
        };
        let object = ProbeObject { content_type, body };
        let head = out.len();
        let len = object.body_len();
        // One reservation for what is left: a head is under 160 bytes.
        out.reserve(160 + fixed.map_or(0, <[u8]>::len));
        out.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Type: ");
        out.extend_from_slice(content_type.as_bytes());
        out.extend_from_slice(b"\r\n");
        if len > 0 {
            wire::content_length(len, out);
        }
        out.extend_from_slice(b"Cache-Control: no-cache, no-store\r\n");
        if len == 0 {
            wire::content_length(0, out);
        }
        wire::end_head(close, out);
        match object.body {
            ProbeBody::Fixed(bytes) => out.extend_from_slice(bytes),
            ProbeBody::Script(_) => {
                let head_len = out.len() - head;
                out[start..].rotate_right(head_len);
            }
        }
        Some(object)
    }

    fn body_len(&self) -> usize {
        match self.body {
            ProbeBody::Fixed(bytes) => bytes.len(),
            ProbeBody::Script(len) => len,
        }
    }

    /// The object as a [`Response`]: type, the length of a body that has
    /// one, `Cache-Control`. `written` ends with the answer
    /// [`ProbeObject::write`] appended, whose tail a script's body is.
    pub fn to_response(&self, written: &[u8]) -> Response {
        let body = match self.body {
            ProbeBody::Fixed(bytes) => bytes,
            ProbeBody::Script(len) => &written[written.len() - len..],
        };
        let mut response = Response::builder(StatusCode::OK)
            .header("Content-Type", self.content_type)
            .body_bytes(body.to_vec())
            .build();
        response.headers_mut().set(UNCACHEABLE.0, UNCACHEABLE.1);
        response
    }

    /// What a session record keeps of [`ProbeObject::to_response`],
    /// counted without building it: the body's length is what was
    /// written of it.
    pub fn summary(&self) -> ResponseSummary {
        let line = |name: &str, value: &str| name.len() + 2 + value.len() + 2;
        let body = self.body_len();
        let length = match body {
            0 => 0,
            n => line("Content-Length", "") + n.ilog10() as usize + 1,
        };
        let head = "HTTP/1.1 200 OK\r\n".len()
            + line("Content-Type", self.content_type)
            + length
            + line(UNCACHEABLE.0, UNCACHEABLE.1);
        ResponseSummary {
            status: StatusCode::OK,
            class: ContentClass::from_content_type(self.content_type),
            wire_len: head + 2 + body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{BeaconKey, KeyOutcome};

    /// Every object, each written once keep-alive and once closing.
    fn every_object() -> Vec<(ProbeObject, [Vec<u8>; 2])> {
        let hit = |kind| {
            Classified::Probe(ProbeHit {
                kind,
                nonce: 7,
                reported_agent: None,
                automation: None,
            })
        };
        let beacon = Classified::MouseBeacon {
            key: BeaconKey::from_raw(1),
            outcome: KeyOutcome::Valid,
        };
        let script = |source: &'static str| {
            move |out: &mut Vec<u8>| out.extend_from_slice(source.as_bytes())
        };
        let written = |classified: &Classified, source: &'static str| {
            let mut both = [Vec::new(), Vec::new()];
            let mut object = None;
            for (close, out) in [false, true].into_iter().zip(&mut both) {
                // Whatever the buffer held before stays in front.
                out.extend_from_slice(b"earlier");
                object = ProbeObject::write(classified, close, out, script(source));
                out.drain(..b"earlier".len());
            }
            (object.unwrap(), both)
        };
        let mut objects = vec![
            written(&beacon, ""),
            written(&hit(ProbeKind::JsFile), "function h(){}"),
            written(&hit(ProbeKind::JsFile), ""),
        ];
        for kind in [
            ProbeKind::CssProbe,
            ProbeKind::AgentBeacon,
            ProbeKind::MouseBeacon,
            ProbeKind::HiddenLink,
            ProbeKind::TransparentPixel,
        ] {
            // Only a script's body comes from the callback.
            objects.push(written(&hit(kind), "function h(){}"));
        }
        let mut out = Vec::new();
        assert_eq!(
            ProbeObject::write(&Classified::Ordinary, false, &mut out, script("x")),
            None
        );
        assert!(out.is_empty());
        objects
    }

    /// The bytes written are what the server made of the response
    /// before it wrote them fixed, and the summary what a record reads
    /// of it.
    #[test]
    fn an_object_written_fixed_is_its_response_written_whole() {
        for (object, written) in every_object() {
            for (close, fixed) in [false, true].into_iter().zip(written) {
                let response = object.to_response(&fixed);
                assert!(response.is_uncacheable());
                assert_eq!(object.summary(), response.summary(), "{object:?}");
                let mut whole = Vec::new();
                wire::write_response(&response, close, &mut whole);
                assert_eq!(
                    String::from_utf8_lossy(&fixed),
                    String::from_utf8_lossy(&whole)
                );
            }
        }
    }
}
