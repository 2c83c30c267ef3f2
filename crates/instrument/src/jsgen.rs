//! Generation of the event-handler JavaScript.
//!
//! The served script (Figure 1 of the paper) contains:
//!
//! 1. A mouse/keyboard handler `f()` that fetches the *real* beacon URL
//!    (carrying the key) exactly once.
//! 2. `m` decoy functions, lexically similar, each fetching a decoy URL —
//!    a robot that scans the script and fetches what it finds is caught
//!    with probability `m/(m+1)`.
//! 3. An agent-string reporter that fetches a beacon carrying
//!    `navigator.userAgent.toLowerCase()` with spaces stripped, proving
//!    JavaScript execution and exposing header/UA mismatches.
//!
//! Lexical obfuscation (identifier renaming, junk statements, string
//! noise) raises the cost of distinguishing the real function statically.
//! The paper measures generation cost at 144 µs per ~1 KB script on a
//! 2 GHz Pentium 4 and pays it on every page. Here a page serve only
//! draws a 64-bit script seed and writes the handler name of it
//! ([`handler_name`]) into `<body onmousemove>`; the page's token entry
//! keeps that seed, never the source. Every fetch of the `<script src>`
//! URL — which, by the paper's own premise, most robots never make —
//! writes the source again from the seed, straight into the response
//! ([`crate::RewriteEngine::object_in_session`]). One writer does it:
//! names are small stack values, each URL is pushed where it goes (and
//! cut up there when it is split), and the functions are shuffled in a
//! fixed array, so a script costs no allocation and ~2 µs, about half
//! of it the ~100 draws from its ChaCha stream (the Criterion bench
//! `benches/jsgen.rs` keeps it in that class). [`generate`] is the
//! same writer over a [`JsSpec`]'s URLs, into a `String`.

use botwall_http::Uri;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

#[cfg(test)]
pub(crate) mod oracle;

/// How aggressively to obfuscate the generated script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obfuscation {
    /// Readable output, as printed in the paper's Figure 1.
    None,
    /// Random identifiers and junk statements; URL literals stay intact
    /// (the decoy scheme *wants* blind scanners to see all m+1 URLs).
    Lexical,
    /// Additionally splits URL literals into concatenated fragments so
    /// naive scanners cannot extract any URL at all — an extension the
    /// paper hints at ("lexical obfuscation can further increase the
    /// difficulty in deciphering the script").
    SplitStrings,
}

/// Inputs to script generation.
#[derive(Debug, Clone)]
pub struct JsSpec {
    /// The real beacon URL (fetched by the event handler).
    pub mouse_beacon: Uri,
    /// Decoy beacon URLs.
    pub decoys: Vec<Uri>,
    /// Agent-reporter beacon URL; the script appends the canonicalized
    /// agent string as a query parameter.
    pub agent_beacon: Uri,
    /// Obfuscation level.
    pub obfuscation: Obfuscation,
    /// Pad the script with comments to roughly this many bytes (0 = no
    /// padding). The paper's fake scripts are ~1 KB.
    pub target_size: usize,
}

/// A generated script plus the name of its entry-point handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedJs {
    /// The JavaScript source.
    pub source: String,
    /// The function name to wire into `onmousemove`/`onkeypress`.
    pub handler_name: String,
}

/// Generates the event-handler script.
///
/// The decoy functions are interleaved with the real handler in an order
/// drawn from `rng`, so position never reveals which is real.
///
/// # Examples
///
/// ```
/// use botwall_http::Uri;
/// use botwall_instrument::jsgen::{generate, JsSpec, Obfuscation};
/// use botwall_instrument::token::BeaconKey;
/// use botwall_instrument::beacon;
/// use rand_chacha::rand_core::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let spec = JsSpec {
///     mouse_beacon: beacon::encode("h", BeaconKey::from_raw(1)),
///     decoys: vec![beacon::encode("h", BeaconKey::from_raw(2))],
///     agent_beacon: Uri::absolute("h", "/agent.gif"),
///     obfuscation: Obfuscation::None,
///     target_size: 0,
/// };
/// let js = generate(&spec, &mut rng);
/// assert!(js.source.contains("new Image()"));
/// assert!(js.source.contains(&spec.mouse_beacon.to_string()));
/// ```
pub fn generate<R: Rng>(spec: &JsSpec, rng: &mut R) -> GeneratedJs {
    let mut source = Vec::with_capacity(spec.target_size.max(2048));
    let handler = write(spec, spec.obfuscation, spec.target_size, rng, &mut source);
    GeneratedJs {
        source: String::from_utf8(source).expect("literals are cut on char boundaries"),
        handler_name: handler.as_str().to_string(),
    }
}

/// Appends to `out` the entry-point name of the script [`generate`]
/// builds over a `ChaCha8Rng` seeded with `seed` — the first identifier
/// it draws — without building the script. A page stores the seed;
/// whoever serves the script writes it from that seed, and it defines
/// the handler this named.
///
/// # Examples
///
/// ```
/// use botwall_http::Uri;
/// use botwall_instrument::jsgen::{generate, handler_name, JsSpec, Obfuscation};
/// use rand_chacha::rand_core::SeedableRng;
///
/// let spec = JsSpec {
///     mouse_beacon: Uri::absolute("h", "/real.jpg"),
///     decoys: vec![Uri::absolute("h", "/decoy.jpg")],
///     agent_beacon: Uri::absolute("h", "/agent.gif"),
///     obfuscation: Obfuscation::Lexical,
///     target_size: 1024,
/// };
/// let mut name = String::new();
/// handler_name(7, spec.obfuscation, &mut name);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// assert_eq!(generate(&spec, &mut rng).handler_name, name);
/// ```
pub fn handler_name(seed: u64, obfuscation: Obfuscation, out: &mut String) {
    let name = Namer::new(obfuscation).next(&mut ChaCha8Rng::seed_from_u64(seed), "f");
    out.push_str(name.as_str());
}

/// Where text is appended: a page's markup, a script, a name.
pub(crate) trait Push {
    /// Appends `ascii`, which is ASCII.
    fn push_ascii(&mut self, ascii: &[u8]);

    /// Appends `s`.
    fn push_str(&mut self, s: &str) {
        self.push_ascii(s.as_bytes());
    }
}

impl Push for String {
    fn push_ascii(&mut self, ascii: &[u8]) {
        String::push_str(self, std::str::from_utf8(ascii).expect("ASCII"));
    }

    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

impl Push for Vec<u8> {
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

/// What the writer appends: a fixed piece of the script, of a length
/// known when it is compiled, or a name, copied whole and cut to its
/// length — so neither needs a copy of a length only known at run time.
trait Piece {
    fn put(self, out: &mut Vec<u8>);
}

impl<const N: usize> Piece for &[u8; N] {
    #[inline(always)]
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Piece for &Name {
    #[inline(always)]
    fn put(self, out: &mut Vec<u8>) {
        let end = out.len() + usize::from(self.len);
        out.extend_from_slice(&self.bytes);
        out.truncate(end);
    }
}

/// Appends each piece in turn.
macro_rules! put {
    ($out:expr, $($piece:expr),+ $(,)?) => {
        $(Piece::put($piece, $out);)+
    };
}

/// One identifier, spelled on the stack. The longest are a seven-byte
/// hint, `_` and a ten-digit number, or `v`, three syllables and that
/// number; a junk statement's number is spelled in one too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Name {
    bytes: [u8; 18],
    len: u8,
}

impl Name {
    const EMPTY: Name = Name {
        bytes: [0; 18],
        len: 0,
    };

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("ASCII")
    }

    /// Appends `n` in decimal, digit by digit in place.
    fn push_decimal(&mut self, n: u32) {
        let start = usize::from(self.len);
        let end = start + n.checked_ilog10().map_or(1, |log| log as usize + 1);
        let mut rest = n;
        for digit in self.bytes[start..end].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        self.len = end as u8;
    }
}

impl Push for Name {
    fn push_ascii(&mut self, ascii: &[u8]) {
        let (start, end) = (usize::from(self.len), usize::from(self.len) + ascii.len());
        self.bytes[start..end].copy_from_slice(ascii);
        self.len = end as u8;
    }
}

/// One of the URLs a script fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScriptUrl {
    /// The real beacon, fetched by the event handler.
    Mouse,
    /// The decoy beacon of that index.
    Decoy(usize),
    /// The agent-reporter beacon.
    Agent,
}

/// The URLs a script is written over.
pub(crate) trait ScriptUrls {
    /// How many decoys the script carries.
    fn decoys(&self) -> usize;

    /// Appends `url` to `out`.
    fn push(&self, url: ScriptUrl, out: &mut impl Push);
}

impl ScriptUrls for JsSpec {
    fn decoys(&self) -> usize {
        self.decoys.len()
    }

    fn push(&self, url: ScriptUrl, out: &mut impl Push) {
        let uri = match url {
            ScriptUrl::Mouse => &self.mouse_beacon,
            ScriptUrl::Decoy(i) => &self.decoys[i],
            ScriptUrl::Agent => &self.agent_beacon,
        };
        let _ = write!(Pushed(out), "{uri}");
    }
}

/// A [`Push`] sink as a formatter's output.
struct Pushed<'a, P>(&'a mut P);

impl<P: Push> std::fmt::Write for Pushed<'_, P> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.push_str(s);
        Ok(())
    }
}

/// The functions a script's table keeps on the stack: the handler and
/// 15 decoys. A longer table goes on the heap.
const INLINE_FUNCTIONS: usize = 16;

/// Appends to `out` the script over `urls`, drawing from `rng` in the
/// order [`generate`] always has, so a seed stands for the same bytes
/// whoever writes them. Returns the handler's name.
pub(crate) fn write<R: Rng, U: ScriptUrls>(
    urls: &U,
    obfuscation: Obfuscation,
    target_size: usize,
    rng: &mut R,
    out: &mut Vec<u8>,
) -> Name {
    let start = out.len();
    let mut namer = Namer::new(obfuscation);
    // One function per URL, named before they are shuffled; the real
    // one is guarded by a do-once flag exactly as in Figure 1.
    let count = urls.decoys() + 1;
    let mut inline = [(Name::EMPTY, ScriptUrl::Mouse); INLINE_FUNCTIONS];
    let mut spilled = Vec::new();
    let functions = if count <= INLINE_FUNCTIONS {
        &mut inline[..count]
    } else {
        spilled.resize(count, (Name::EMPTY, ScriptUrl::Mouse));
        &mut spilled[..]
    };
    let handler = namer.next(rng, "f");
    functions[0] = (handler, ScriptUrl::Mouse);
    for (i, function) in functions[1..].iter_mut().enumerate() {
        *function = (namer.next(rng, "g"), ScriptUrl::Decoy(i));
    }
    functions.shuffle(rng);

    let flag = namer.next(rng, "do_once");
    put!(out, b"var ", &flag, b" = false;\n");
    for (name, url) in functions.iter() {
        let img = namer.next(rng, "f_image");
        put!(out, b"function ", name, b"()\n{\n");
        // The URL is drawn before a decoy's own flag but written after
        // the lines that use it: it goes in first, and they are turned
        // in front of it.
        let fetch = out.len();
        put!(out, b"    ", &img, b".src = ");
        url_literal(urls, *url, obfuscation, rng, out);
        put!(out, b";\n");
        let lines = out.len();
        let done = if *url == ScriptUrl::Mouse {
            flag
        } else {
            // Decoys are lexically similar but use a local flag, so
            // running one never suppresses the real fetch.
            let local = namer.next(rng, "done");
            put!(out, b"  var ", &local, b" = false;\n");
            local
        };
        put!(out, b"  if (", &done, b" == false) {\n    var ", &img);
        put!(out, b" = new Image();\n    ", &done, b" = true;\n");
        let moved = out.len() - lines;
        out[fetch..].rotate_right(moved);
        put!(out, b"    return true;\n  }\n  return false;\n}\n");
        if obfuscation != Obfuscation::None && rng.gen_bool(0.5) {
            let junk = namer.next(rng, "tmp");
            let mut v = Name::EMPTY;
            v.push_decimal(rng.gen_range(0..100000));
            put!(out, b"var ", &junk, b" = ", &v, b";\n");
        }
    }
    // Agent-string reporter (Figure 1's second script block).
    let agent_fn = namer.next(rng, "getuseragnt");
    let agt = namer.next(rng, "agt");
    put!(out, b"function ", &agent_fn, b"()\n{\n  var ", &agt);
    put!(
        out,
        b" = navigator.userAgent.toLowerCase();\n  ",
        &agt,
        b" = ",
        &agt
    );
    put!(out, b".replace(/ /g, \"\");\n  return ", &agt, b";\n}\n");
    let rep = namer.next(rng, "r_image");
    put!(out, b"var ", &rep, b" = new Image();\n", &rep, b".src = ");
    url_literal(urls, ScriptUrl::Agent, obfuscation, rng, out);
    put!(out, b" + \"?agent=\" + ", &agent_fn, b"() + \"&wd=\" + ");
    put!(
        out,
        b"(navigator.webdriver ? 1 : 0) + \"&pl=\" + navigator.plugins.length;\n"
    );

    // Pad with comment noise to the target size.
    while target_size > 0 && out.len() - start + 40 < target_size {
        let v = hex(rng.gen());
        put!(out, b"// 0000000000000000", &v, &v, b"\n");
    }
    handler
}

/// Appends `url` as a JS expression: one literal, or under
/// [`Obfuscation::SplitStrings`] (and eight bytes or more) concatenated
/// fragments of three to six bytes, each stretched to end on a
/// character boundary.
fn url_literal<R: Rng>(
    urls: &impl ScriptUrls,
    url: ScriptUrl,
    obf: Obfuscation,
    rng: &mut R,
    out: &mut Vec<u8>,
) {
    out.push(b'\'');
    let mut at = out.len();
    urls.push(url, out);
    if obf == Obfuscation::SplitStrings && out.len() - at >= 8 {
        // Cut where it was spelled, at the end of `out`.
        loop {
            let rest = out.len() - at;
            let mut take = rng.gen_range(3..=6).min(rest);
            // UTF-8 continuation bytes are 0b10xx_xxxx.
            while take < rest && out[at + take] & 0xc0 == 0x80 {
                take += 1;
            }
            at += take;
            if at == out.len() {
                break;
            }
            out.splice(at..at, *b"' + '");
            at += 5;
        }
    }
    out.push(b'\'');
}

/// `v` as 16 lowercase hex digits.
pub(crate) fn hex(v: u64) -> [u8; 16] {
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(v >> (4 * (15 - i))) as usize & 0xf];
    }
    digits
}

const SYLLABLES: [&[u8; 2]; 12] = [
    b"ba", b"ko", b"ri", b"ta", b"zu", b"me", b"lo", b"vi", b"sa", b"du", b"pe", b"ny",
];

/// Identifier generator: stable descriptive names when unobfuscated,
/// random plausible names otherwise.
struct Namer {
    obfuscate: bool,
    counter: u32,
}

impl Namer {
    fn new(obf: Obfuscation) -> Namer {
        Namer {
            obfuscate: obf != Obfuscation::None,
            counter: 0,
        }
    }

    fn next<R: Rng>(&mut self, rng: &mut R, hint: &str) -> Name {
        self.counter += 1;
        let mut name = Name::EMPTY;
        if !self.obfuscate {
            name.push_str(hint);
            if !(self.counter == 1 || hint == "do_once" || hint == "getuseragnt") {
                name.push_str("_");
                name.push_decimal(self.counter);
            }
            return name;
        }
        let n = rng.gen_range(2..4);
        name.bytes[0] = b'v';
        for at in (1..2 * n).step_by(2) {
            let syllable = SYLLABLES[rng.gen_range(0..SYLLABLES.len())];
            name.bytes[at..at + 2].copy_from_slice(syllable);
        }
        name.len = 1 + 2 * n as u8;
        name.push_decimal(self.counter);
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon;
    use crate::token::BeaconKey;
    use botwall_webgraph::scan;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn spec(m: usize, obf: Obfuscation) -> JsSpec {
        JsSpec {
            mouse_beacon: beacon::encode("h.example", BeaconKey::from_raw(0xAAAA)),
            decoys: (0..m)
                .map(|i| beacon::encode("h.example", BeaconKey::from_raw(i as u128)))
                .collect(),
            agent_beacon: Uri::absolute("h.example", "/agentbeacon.gif"),
            obfuscation: obf,
            target_size: 0,
        }
    }

    #[test]
    fn plain_output_contains_all_urls() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = spec(3, Obfuscation::None);
        let js = generate(&s, &mut rng);
        assert!(js.source.contains(&s.mouse_beacon.to_string()));
        for d in &s.decoys {
            assert!(js.source.contains(&d.to_string()));
        }
        assert!(js.source.contains("navigator.userAgent"));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = spec(5, Obfuscation::Lexical);
        let a = generate(&s, &mut ChaCha8Rng::seed_from_u64(9));
        let b = generate(&s, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = generate(&s, &mut ChaCha8Rng::seed_from_u64(10));
        assert_ne!(a.source, c.source);
    }

    #[test]
    fn scanner_sees_exactly_m_plus_one_beacons_when_lexical() {
        // The decoy trap depends on a blind scanner finding all m+1
        // beacon-shaped URLs and being unable to tell them apart.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let s = spec(4, Obfuscation::Lexical);
        let js = generate(&s, &mut rng);
        let html = format!("<script>{}</script>", js.source);
        let beacons: Vec<_> = scan::scan_html(&html)
            .into_iter()
            .filter_map(|f| f.url().parse().ok())
            .filter_map(|u: Uri| beacon::decode(&u))
            .collect();
        assert_eq!(beacons.len(), 5, "4 decoys + 1 real");
    }

    #[test]
    fn split_strings_hides_urls_from_scanner() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = spec(4, Obfuscation::SplitStrings);
        let js = generate(&s, &mut rng);
        assert!(
            !js.source.contains(&s.mouse_beacon.to_string()),
            "URL literal must not appear whole"
        );
        let html = format!("<script>{}</script>", js.source);
        let found = scan::scan_html(&html);
        assert!(
            found
                .iter()
                .all(|f| beacon::decode(&match f.url().parse::<Uri>() {
                    Ok(u) => u,
                    Err(_) => return true,
                })
                .is_none()),
            "no scannable beacon URLs under SplitStrings"
        );
    }

    /// Under `SplitStrings` a URL literal is cut on character
    /// boundaries: a non-ASCII URL, which `generate` takes though the
    /// engine never builds one, no longer panics the cut, and its
    /// fragments spell it whole.
    #[test]
    fn split_strings_cuts_a_non_ascii_url_on_char_boundaries() {
        let mut s = spec(2, Obfuscation::SplitStrings);
        s.agent_beacon = Uri::absolute("h.example", "/ünïcødé/日本語/ä.gif");
        let url = s.agent_beacon.to_string();
        for seed in 0..64 {
            let js = generate(&s, &mut ChaCha8Rng::seed_from_u64(seed));
            let line = js.source.lines().find(|l| l.contains("?agent=")).unwrap();
            let (_, expr) = line.split_once(".src = ").unwrap();
            let (expr, _) = expr.split_once(" + \"?agent=\"").unwrap();
            let fragments: Vec<&str> = expr.split(" + ").collect();
            assert!(fragments.len() > 1, "{expr}");
            let joined: String = fragments.iter().map(|f| f.trim_matches('\'')).collect();
            assert_eq!(joined, url);
        }
    }

    /// `generate` over a spec's own URLs — a query string included — is
    /// the generator it replaced, at every obfuscation level.
    #[test]
    fn generate_is_the_generator_it_replaced() {
        for obfuscation in [
            Obfuscation::None,
            Obfuscation::Lexical,
            Obfuscation::SplitStrings,
        ] {
            for m in [0, 1, 5, 40] {
                let mut s = spec(m, obfuscation);
                s.agent_beacon = Uri::absolute("h.example:8080", "/a.gif?x=1");
                s.target_size = 1024 * (m % 3);
                for seed in 0..8 {
                    let ours = generate(&s, &mut ChaCha8Rng::seed_from_u64(seed));
                    let theirs = oracle::generate(&s, &mut ChaCha8Rng::seed_from_u64(seed));
                    assert_eq!(ours, theirs, "{obfuscation:?}, m = {m}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn target_size_padding() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut s = spec(5, Obfuscation::Lexical);
        s.target_size = 2048;
        let js = generate(&s, &mut rng);
        assert!(js.source.len() >= 2048 - 64);
        assert!(js.source.len() <= 2048 + 64);
    }

    #[test]
    fn handler_name_is_a_defined_function() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let s = spec(2, Obfuscation::Lexical);
        let js = generate(&s, &mut rng);
        assert!(js
            .source
            .contains(&format!("function {}()", js.handler_name)));
    }

    #[test]
    fn real_handler_carries_real_url() {
        // Under no obfuscation the handler is named "f"; its body must
        // fetch the real beacon, not a decoy.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let s = spec(3, Obfuscation::None);
        let js = generate(&s, &mut rng);
        let body_start = js
            .source
            .find(&format!("function {}()", js.handler_name))
            .unwrap();
        let body_end = js.source[body_start..].find("}\n").unwrap() + body_start;
        let body = &js.source[body_start..body_end + 1];
        assert!(body.contains(&s.mouse_beacon.to_string()));
    }
}
