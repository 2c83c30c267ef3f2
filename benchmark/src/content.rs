//! The origin's canned content: every body is a pure function of its
//! path, so the origin child serves it and the load generator checks it
//! without the two ever exchanging anything but HTTP.
//!
//! Paths:
//! * `/page/{kb}{m|t}{l|c}/{id}.html` — an HTML page of exactly `kb` KB,
//!   markup-dense (`m`: a tag every ~20 bytes) or text-dense (`t`: long
//!   paragraphs), framed with `Content-Length` (`l`) or chunked (`c`);
//! * `/asset/{kb}/{id}.bin` — `kb` KB of incompressible bytes;
//! * `/ref.gif` — the 43-byte pixel gate-only operations are scored against.

use crate::client::find;
use std::collections::HashMap;

/// What the reference leg fetches for an operation the gateway answers
/// without the origin: the smallest object the origin has.
pub const REF_PATH: &str = "/ref.gif";

/// Bytes of origin body per chunk when a page is framed chunked.
pub const ORIGIN_CHUNK: usize = 8 * 1024;

const PAGE_MID: &[u8] = b"</head><body>";
const PAGE_TAIL: &[u8] = b"</body></html>";

const GIF: &[u8] = &[
    0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x01, 0x00, 0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
];

const WORDS: &[&str] = &[
    "proxy", "robot", "human", "mouse", "beacon", "session", "browser", "request", "network",
    "content", "detect", "traffic", "server", "client", "measure", "latency", "origin", "stream",
];

/// One canned body.
#[derive(Debug)]
pub struct Body {
    /// The entity bytes.
    pub bytes: Vec<u8>,
    /// Its `Content-Type`.
    pub content_type: &'static str,
    /// Whether the origin frames it chunked.
    pub chunked: bool,
    /// For a page, how many bytes precede `</head>`; 0 otherwise.
    pub head_len: usize,
}

impl Body {
    /// The complete HTTP response the origin sends for this body.
    pub fn wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + 256);
        out.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        if self.chunked {
            out.extend_from_slice(b"\r\nTransfer-Encoding: chunked\r\n\r\n");
            for chunk in self.bytes.chunks(ORIGIN_CHUNK) {
                out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                out.extend_from_slice(chunk);
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"0\r\n\r\n");
        } else {
            out.extend_from_slice(
                format!("\r\nContent-Length: {}\r\n\r\n", self.bytes.len()).as_bytes(),
            );
            out.extend_from_slice(&self.bytes);
        }
        out
    }

    /// Checks a page as the gateway served it: all of the origin's bytes,
    /// in order, with markup added at exactly the three places the
    /// instrumenter writes to (end of head, the body tag, end of body).
    /// Returns what was added.
    pub fn check_instrumented<'a>(&self, got: &'a [u8]) -> Result<Injected<'a>, &'static str> {
        let head = &self.bytes[..self.head_len];
        let inner = &self.bytes[self.head_len + PAGE_MID.len()..self.bytes.len() - PAGE_TAIL.len()];
        let after_head = got
            .strip_prefix(head)
            .ok_or("page head differs from the origin's")?;
        let body_tag = find(after_head, 0, b"</head><body")
            .ok_or("no </head><body after the injected head markup")?;
        let after_tag = &after_head[body_tag + b"</head><body".len()..];
        let close = after_tag
            .iter()
            .position(|&b| b == b'>')
            .ok_or("unterminated body tag")?;
        let tail = after_tag[close + 1..]
            .strip_prefix(inner)
            .ok_or("page body differs from the origin's")?
            .strip_suffix(PAGE_TAIL)
            .ok_or("page does not end like the origin's")?;
        let text = |bytes: &'a [u8]| {
            std::str::from_utf8(bytes).map_err(|_| "injected markup is not UTF-8")
        };
        let injected = Injected {
            head: text(&after_head[..body_tag])?,
            body_attr: text(&after_tag[..close])?,
            tail: text(tail)?,
        };
        if injected.head.is_empty()
            || injected.tail.is_empty()
            || !injected.body_attr.contains("onmousemove")
        {
            return Err("page is missing injected probes");
        }
        Ok(injected)
    }
}

/// The markup the gateway added to a page, as found by
/// [`Body::check_instrumented`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injected<'a> {
    /// Added before `</head>`: the CSS probe link and the script tag.
    pub head: &'a str,
    /// Added inside the `<body>` tag: the mouse handler attribute.
    pub body_attr: &'a str,
    /// Added before `</body>`: the hidden link behind its pixel.
    pub tail: &'a str,
}

/// SplitMix64: the benchmark's only random source, so plans and content
/// depend on nothing but their seed.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a, for seeding content from its path and for plan hashes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from the state `h` over more bytes.
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Generates the body for `path`, or `None` for a path the origin does not have.
pub fn generate(path: &str) -> Option<Body> {
    if path == REF_PATH {
        return Some(Body {
            bytes: GIF.to_vec(),
            content_type: "image/gif",
            chunked: false,
            head_len: 0,
        });
    }
    let mut rng = SplitMix(fnv1a(path.as_bytes()));
    let mut parts = path.strip_prefix('/')?.split('/');
    match (parts.next()?, parts.next()?, parts.next()?, parts.next()) {
        ("asset", kb, file, None) if file.ends_with(".bin") => {
            let kb: usize = kb.parse().ok().filter(|kb| (1..=64).contains(kb))?;
            let mut bytes = Vec::with_capacity(kb * 1024);
            while bytes.len() < kb * 1024 {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            Some(Body {
                bytes,
                content_type: "application/octet-stream",
                chunked: false,
                head_len: 0,
            })
        }
        ("page", class, file, None) if file.ends_with(".html") && class.len() >= 3 => {
            let (kb, flags) = class.split_at(class.len() - 2);
            let kb: usize = kb.parse().ok().filter(|kb| (1..=64).contains(kb))?;
            let dense = match &flags[..1] {
                "m" => true,
                "t" => false,
                _ => return None,
            };
            let chunked = match &flags[1..] {
                "c" => true,
                "l" => false,
                _ => return None,
            };
            let (bytes, head_len) = page(kb * 1024, dense, file, &mut rng);
            Some(Body {
                bytes,
                content_type: "text/html",
                chunked,
                head_len,
            })
        }
        _ => None,
    }
}

/// An HTML page of exactly `size` bytes, markup-dense or text-dense, and
/// the length of its head (what precedes `</head>`).
pub fn page(size: usize, dense: bool, name: &str, rng: &mut SplitMix) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(
        format!("<html><head><title>{name}</title><meta charset=\"utf-8\">").as_bytes(),
    );
    let head_len = out.len();
    out.extend_from_slice(PAGE_MID);
    let end = size - PAGE_TAIL.len();
    let mut item = String::new();
    loop {
        item.clear();
        let word = |rng: &mut SplitMix| WORDS[rng.below(WORDS.len() as u64) as usize];
        if dense {
            let (a, b) = (rng.below(32), rng.below(16));
            item.push_str(&format!(
                "<div class=\"c{a}\"><a href=\"/page/8ml/{a}.html\">{}</a><img src=\"/asset/4/{b}.bin\" alt=\"{}\"></div>\n",
                word(rng),
                word(rng),
            ));
        } else {
            item.push_str("<p>");
            for _ in 0..96 {
                item.push_str(word(rng));
                item.push(' ');
            }
            item.push_str("</p>\n");
        }
        if out.len() + item.len() > end {
            break;
        }
        out.extend_from_slice(item.as_bytes());
    }
    out.resize(end, b'.');
    out.extend_from_slice(PAGE_TAIL);
    (out, head_len)
}

/// Lazily generated bodies by path, shared by the origin (which serves
/// them) and the load generator (which checks them).
#[derive(Debug, Default)]
pub struct Library {
    bodies: HashMap<String, Option<Body>>,
}

impl Library {
    /// The body for `path`, generated on first use.
    pub fn get(&mut self, path: &str) -> Option<&Body> {
        if !self.bodies.contains_key(path) {
            self.bodies.insert(path.to_string(), generate(path));
        }
        self.bodies[path].as_ref()
    }

    /// The complete HTTP response the origin sends for `path`: the body's
    /// [`Body::wire`], or an empty 404 for a path it does not have.
    pub fn wire(&mut self, path: &str) -> Vec<u8> {
        match self.get(path) {
            Some(body) => body.wire(),
            None => b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_have_their_exact_size_and_are_stable() {
        for path in ["/page/8ml/3.html", "/page/64tc/0.html", "/page/64mc/9.html"] {
            let a = generate(path).unwrap();
            let b = generate(path).unwrap();
            assert_eq!(a.bytes, b.bytes);
            let kb: usize = path[6..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(a.bytes.len(), kb * 1024);
            assert!(a.head_len > 0, "a page");
        }
        assert_eq!(generate("/asset/16/2.bin").unwrap().bytes.len(), 16 * 1024);
        assert_eq!(generate(REF_PATH).unwrap().bytes.len(), 43);
        assert!(generate("/nope").is_none());
        assert!(generate("/page/8xx/1.html").is_none());
    }

    #[test]
    fn instrumented_check_accepts_additions_and_rejects_loss() {
        let body = generate("/page/8tl/1.html").unwrap();
        let text = String::from_utf8(body.bytes.clone()).unwrap();
        let served = text
            .replace(
                "</head><body>",
                "<link rel=x></head><body onmousemove=\"return f();\">",
            )
            .replace("</body></html>", "<a href=y><img></a></body></html>");
        let injected = body.check_instrumented(served.as_bytes()).unwrap();
        assert_eq!(injected.head, "<link rel=x>");
        assert_eq!(injected.tail, "<a href=y><img></a>");
        assert!(
            body.check_instrumented(&body.bytes).is_err(),
            "uninstrumented"
        );
        let lossy = served.replacen("proxy", "", 1);
        assert!(body.check_instrumented(lossy.as_bytes()).is_err());
    }
}
