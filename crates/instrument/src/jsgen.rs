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
//! 2 GHz Pentium 4 and pays it on every page; here it is ~6 µs (the
//! Criterion bench `benches/jsgen.rs` keeps us in that class) and is
//! paid per *fetched* script. A page serve only draws a 64-bit script
//! seed and writes the handler name of it ([`handler_name`]) into
//! `<body onmousemove>`; the
//! source is [`generate_seeded`] from that seed the first time the
//! `<script src>` URL is actually requested — which, by the paper's own
//! premise, most robots never do.

use botwall_http::Uri;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

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
    #[cfg(test)]
    GENERATED.with(|n| n.set(n.get() + 1));
    let mut namer = Namer::new(spec.obfuscation);
    // One function per URL; the real one is guarded by a do-once flag
    // exactly as in Figure 1.
    let mut functions: Vec<(String, &Uri, bool)> = Vec::with_capacity(spec.decoys.len() + 1);
    let handler_name = namer.next(rng, "f");
    functions.push((handler_name.clone(), &spec.mouse_beacon, true));
    for d in &spec.decoys {
        let name = namer.next(rng, "g");
        functions.push((name, d, false));
    }
    functions.shuffle(rng);

    let mut out = String::with_capacity(spec.target_size.max(512));
    let flag = namer.next(rng, "do_once");
    let _ = writeln!(out, "var {flag} = false;");
    for (name, url, is_real) in &functions {
        let img = namer.next(rng, "f_image");
        let url_expr = url_literal(url, spec.obfuscation, rng);
        let _ = writeln!(out, "function {name}()");
        out.push_str("{\n");
        if *is_real {
            let _ = writeln!(out, "  if ({flag} == false) {{");
            let _ = writeln!(out, "    var {img} = new Image();");
            let _ = writeln!(out, "    {flag} = true;");
            let _ = writeln!(out, "    {img}.src = {url_expr};");
            out.push_str("    return true;\n  }\n  return false;\n");
        } else {
            // Decoys are lexically similar but fetch their own URL and use
            // a local flag so running one never suppresses the real fetch.
            let local = namer.next(rng, "done");
            let _ = writeln!(out, "  var {local} = false;");
            let _ = writeln!(out, "  if ({local} == false) {{");
            let _ = writeln!(out, "    var {img} = new Image();");
            let _ = writeln!(out, "    {local} = true;");
            let _ = writeln!(out, "    {img}.src = {url_expr};");
            out.push_str("    return true;\n  }\n  return false;\n");
        }
        out.push_str("}\n");
        if spec.obfuscation != Obfuscation::None && rng.gen_bool(0.5) {
            let junk = namer.next(rng, "tmp");
            let v: u32 = rng.gen_range(0..100000);
            let _ = writeln!(out, "var {junk} = {v};");
        }
    }
    // Agent-string reporter (Figure 1's second script block).
    let agent_fn = namer.next(rng, "getuseragnt");
    let agt = namer.next(rng, "agt");
    let _ = writeln!(out, "function {agent_fn}()");
    out.push_str("{\n");
    let _ = writeln!(out, "  var {agt} = navigator.userAgent.toLowerCase();");
    let _ = writeln!(out, "  {agt} = {agt}.replace(/ /g, \"\");");
    let _ = writeln!(out, "  return {agt};");
    out.push_str("}\n");
    let rep = namer.next(rng, "r_image");
    let agent_expr = url_literal(&spec.agent_beacon, spec.obfuscation, rng);
    let _ = writeln!(out, "var {rep} = new Image();");
    let _ = writeln!(
        out,
        "{rep}.src = {agent_expr} + \"?agent=\" + {agent_fn}() + \
         \"&wd=\" + (navigator.webdriver ? 1 : 0) + \
         \"&pl=\" + navigator.plugins.length;"
    );

    // Pad with comment noise to the target size.
    while spec.target_size > 0 && out.len() + 40 < spec.target_size {
        let v: u64 = rng.gen();
        let _ = writeln!(out, "// {v:032x}{v:016x}");
    }
    GeneratedJs {
        source: out,
        handler_name,
    }
}

/// [`generate`] over the stream a script seed stands for. A page stores
/// the seed; whoever serves the script calls this, and gets the handler
/// [`handler_name`] promised the page.
pub fn generate_seeded(spec: &JsSpec, seed: u64) -> GeneratedJs {
    generate(spec, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Appends to `out` the entry-point name of the script
/// [`generate_seeded`] builds from `seed` — the first identifier
/// [`generate`] draws — without building the script.
///
/// # Examples
///
/// ```
/// use botwall_http::Uri;
/// use botwall_instrument::jsgen::{generate_seeded, handler_name, JsSpec, Obfuscation};
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
/// assert_eq!(generate_seeded(&spec, 7).handler_name, name);
/// ```
pub fn handler_name(seed: u64, obfuscation: Obfuscation, out: &mut String) {
    Namer::new(obfuscation).push_next(&mut ChaCha8Rng::seed_from_u64(seed), "f", out);
}

#[cfg(test)]
thread_local! {
    /// How many scripts [`generate`] built on this thread — the lazy
    /// script tests' witness that a refetch is served from the memo.
    pub(crate) static GENERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Renders a URL as a JS expression, split into concatenated fragments
/// when [`Obfuscation::SplitStrings`] is on.
fn url_literal<R: Rng>(url: &Uri, obf: Obfuscation, rng: &mut R) -> String {
    let s = url.to_string();
    if obf != Obfuscation::SplitStrings || s.len() < 8 {
        return format!("'{s}'");
    }
    let mut parts = Vec::new();
    let mut rest = s.as_str();
    while !rest.is_empty() {
        let take = rng.gen_range(3..=6).min(rest.len());
        parts.push(format!("'{}'", &rest[..take]));
        rest = &rest[take..];
    }
    parts.join(" + ")
}

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

    fn next<R: Rng>(&mut self, rng: &mut R, hint: &str) -> String {
        let mut name = String::with_capacity(12);
        self.push_next(rng, hint, &mut name);
        name
    }

    /// Appends the next identifier to `out`.
    fn push_next<R: Rng>(&mut self, rng: &mut R, hint: &str, out: &mut String) {
        self.counter += 1;
        if !self.obfuscate {
            out.push_str(hint);
            if !(self.counter == 1 || hint == "do_once" || hint == "getuseragnt") {
                let _ = write!(out, "_{}", self.counter);
            }
            return;
        }
        const SYLLABLES: [&str; 12] = [
            "ba", "ko", "ri", "ta", "zu", "me", "lo", "vi", "sa", "du", "pe", "ny",
        ];
        let n = rng.gen_range(2..4);
        out.push('v');
        for _ in 0..n {
            out.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
        }
        let _ = write!(out, "{}", self.counter);
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
