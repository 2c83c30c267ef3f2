//! The script generator as it was before [`super::write`]: a `String`
//! per name, a `Uri` per URL and `format!` for every literal. Kept as
//! the oracle the writer is checked against byte for byte
//! (`engine::tests::the_script_writer_is_the_generator_it_replaced`).

use super::{GeneratedJs, JsSpec, Obfuscation};
use botwall_http::Uri;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt::Write as _;

/// The generator [`super::generate`] replaced.
pub(crate) fn generate<R: Rng>(spec: &JsSpec, rng: &mut R) -> GeneratedJs {
    let mut namer = Namer::new(spec.obfuscation);
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

    while spec.target_size > 0 && out.len() + 40 < spec.target_size {
        let v: u64 = rng.gen();
        let _ = writeln!(out, "// {v:032x}{v:016x}");
    }
    GeneratedJs {
        source: out,
        handler_name,
    }
}

/// Cuts at byte offsets, so a non-ASCII URL can panic here: the
/// oracle is only asked for the ASCII URLs the engine builds.
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
        self.counter += 1;
        let mut out = String::with_capacity(12);
        if !self.obfuscate {
            out.push_str(hint);
            if !(self.counter == 1 || hint == "do_once" || hint == "getuseragnt") {
                let _ = write!(out, "_{}", self.counter);
            }
            return out;
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
        out
    }
}
