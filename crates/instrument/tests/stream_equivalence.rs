//! The streaming contract: for any document and ANY chunking of it, the
//! streaming rewriter produces byte-identical output to the same page
//! handed over whole, as one chunk, under the same RNG seed — chunk
//! boundaries in anchors, tag names, attribute values, and multi-byte
//! UTF-8 sequences included. Plus the O(chunk) memory claim: a 4MB page fed one byte at
//! a time never buffers more than `MAX_HELD_BYTES`. And the sink
//! contract: a sink that keeps runs of the caller's chunk as offsets
//! and copies only the rest sees the same bytes a `Vec<u8>` is sent.
//! And the step contract: the page laid out as the front door hands it
//! over, steps of runs inside one buffer with framing between them,
//! comes out as the page handed over whole does, for any split into
//! steps and runs, and past the hold cap a step of many runs behaves as
//! one chunk, at the head as at the tail.

use botwall_http::Uri;
use botwall_instrument::{
    BeaconKey, FinishedStream, InstrumentConfig, ProbeManifest, RewriteEngine, StreamSink,
    StreamingRewrite, MAX_HELD_BYTES,
};
use botwall_sessions::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

fn page_uri() -> Uri {
    "http://prop.example/page.html".parse().unwrap()
}

fn engine() -> RewriteEngine {
    RewriteEngine::new(InstrumentConfig::default(), 77)
}

/// What one streamed page came to: the rewritten HTML, its manifest,
/// and the key and script nonce of the token the stream held before any
/// body byte went in.
type Streamed = (String, ProbeManifest, Option<(BeaconKey, u64)>);

/// `html` streamed on [`page_uri`] in `size`-byte chunks, randomness
/// from `seed`.
fn chunked(eng: &RewriteEngine, html: &str, seed: u64, size: usize) -> Streamed {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stream = eng.begin_stream(&page_uri(), SimTime::ZERO, &mut rng);
    let token = stream.token().map(|t| (t.key, t.js_nonce));
    let mut out = Vec::new();
    for piece in html.as_bytes().chunks(size) {
        stream.write(piece, &mut out);
    }
    let finished = stream.finish(&mut out);
    assert_eq!(finished.html_overhead, out.len() - html.len());
    let html = String::from_utf8(out).expect("the rewriter injects ASCII at ASCII anchors");
    (html, manifest_of(&finished), token)
}

/// `html` handed over whole, as one chunk.
fn whole(eng: &RewriteEngine, html: &str, seed: u64) -> Streamed {
    chunked(eng, html, seed, html.len().max(1))
}

/// The manifest of a stream begun on [`page_uri`].
fn manifest_of(finished: &FinishedStream) -> ProbeManifest {
    let page = page_uri();
    finished.manifest(&page, page.authority().as_deref())
}

/// Document fragments chosen to put chunk boundaries somewhere
/// interesting: injection anchors (bare, inside comments and scripts),
/// quoted attribute values, raw-text elements, and multi-byte UTF-8.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("<head><title>t</title>".to_string()),
        Just("</head>".to_string()),
        Just("<body class=\"main\" data-x=\"1\">".to_string()),
        Just("</body>".to_string()),
        Just("<img src=\"http://cdn.example/a.png\" srcset=\"http://cdn.example/a.png 1x, b.png 2x\">".to_string()),
        Just("<img srcset=\"data:image/png;base64,AAb=, http://cdn.example/c.png 640w\">".to_string()),
        Just("<style>p{background:url('http://cdn.example/bg.png')}</style>".to_string()),
        Just("<div style=\"background:url(http://cdn.example/d.png)\">x</div>".to_string()),
        Just("<script>var s = '<img src=\"http://cdn.example/js.png\">';</script>".to_string()),
        Just("<!-- <body> commented out </body> -->".to_string()),
        Just("<svg><use xlink:href=\"http://cdn.example/i.svg#x\"/></svg>".to_string()),
        Just("<source srcset=\"//cdn.example/v.webp 2x\"><object data=\"http://cdn.example/o.bin\">".to_string()),
        Just("héllo wörld ☃ — 話しませんか ✓".to_string()),
        "[ -~]{0,40}",
    ]
}

proptest! {
    /// Streaming == the page whole for every chunking; manifest, the
    /// token held up front, and overhead accounting agree.
    #[test]
    fn streaming_matches_buffered_for_any_chunking(
        parts in vec(fragment(), 0..12),
        chunk in 2usize..33,
        seed in 0u64..1000,
    ) {
        let html: String = parts.concat();
        let eng = engine();
        let whole = whole(&eng, &html, seed);
        // The generated chunk size, plus 1-byte chunks always.
        for size in [chunk, 1] {
            let streamed = chunked(&eng, &html, seed, size);
            prop_assert_eq!(&streamed, &whole, "chunk size {} diverged", size);
        }
    }
}

/// What the front door's sink keeps: where each piece of output lies,
/// in the chunk being written (`true`) or in a side buffer of its own.
#[derive(Default)]
struct Ranges {
    parts: Vec<(bool, Range<usize>)>,
    side: Vec<u8>,
}

impl StreamSink for Ranges {
    fn run(&mut self, chunk: &[u8], range: Range<usize>) {
        assert!(range.start <= range.end && range.end <= chunk.len());
        self.parts.push((true, range));
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let start = self.side.len();
        self.side.extend_from_slice(bytes);
        self.parts.push((false, start..self.side.len()));
    }
}

impl Ranges {
    /// Appends what one `write(chunk, ..)` produced to `out`, reading
    /// the runs out of `chunk` itself, and forgets it.
    fn flatten(&mut self, chunk: &[u8], out: &mut Vec<u8>) {
        for (in_chunk, range) in self.parts.drain(..) {
            out.extend_from_slice(if in_chunk {
                &chunk[range]
            } else {
                &self.side[range]
            });
        }
        self.side.clear();
    }
}

proptest! {
    /// Ranges of the chunk plus a side buffer, flattened after every
    /// write, are the bytes a `Vec<u8>` collects, for any chunking; the
    /// hold gauge does not depend on the sink; and a run never names
    /// bytes outside the chunk just handed in.
    #[test]
    fn a_sink_of_ranges_sees_what_a_vec_sees(
        parts in vec(fragment(), 0..12),
        chunk in 2usize..33,
        seed in 0u64..1000,
    ) {
        let html: String = parts.concat();
        let eng = engine();
        for size in [chunk, 1, html.len().max(1)] {
            let mut plain = eng.begin_stream(
                &page_uri(),
                SimTime::ZERO,
                &mut ChaCha8Rng::seed_from_u64(seed),
            );
            let mut ranged = eng.begin_stream(
                &page_uri(),
                SimTime::ZERO,
                &mut ChaCha8Rng::seed_from_u64(seed),
            );
            let (mut vec_out, mut flat, mut sink) = (Vec::new(), Vec::new(), Ranges::default());
            for piece in html.as_bytes().chunks(size) {
                plain.write(piece, &mut vec_out);
                ranged.write(piece, &mut sink);
                sink.flatten(piece, &mut flat);
                prop_assert_eq!(&flat, &vec_out, "after a {}-byte write", piece.len());
                prop_assert_eq!(ranged.buffered(), plain.buffered());
            }
            prop_assert_eq!(ranged.peak_buffered(), plain.peak_buffered());
            // The tail is a released hold and markup: never a run.
            plain.finish(&mut vec_out);
            ranged.finish(&mut flat);
            prop_assert_eq!(&flat, &vec_out, "chunk size {}", size);
        }
    }
}

/// Bytes a step's buffer holds between its runs: chunk framing, and
/// anchors and their halves, which the rewriter must never see.
const FRAMING: [&[u8]; 7] = [
    b"",
    b"\r\n1a\r\n",
    b"</body>",
    b"<body",
    b"</head>",
    b"</bo",
    b"dy>",
];

/// Writes `html` as the front door hands a body over: cut into runs of
/// `run_sizes` (cycled), `runs_per_step` of them (cycled) laid into one
/// buffer per step with `framing` (cycled) before each, and the step
/// written as one [`StreamingRewrite::write_runs`]. The output is
/// flattened from each step's buffer; a run of output is checked to lie
/// inside a run of the page, never in the framing.
fn write_steps(
    stream: &mut StreamingRewrite,
    html: &[u8],
    run_sizes: &[usize],
    runs_per_step: &[usize],
    framing: &[usize],
) -> Vec<u8> {
    let (mut out, mut sink) = (Vec::new(), Ranges::default());
    let mut sizes = run_sizes.iter().cycle();
    let mut gaps = framing.iter().cycle();
    let mut rest = html;
    for &count in runs_per_step.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (mut buf, mut runs) = (Vec::new(), Vec::new());
        for _ in 0..count {
            if rest.is_empty() {
                break;
            }
            let (run, tail) = rest.split_at((*sizes.next().unwrap()).min(rest.len()));
            buf.extend_from_slice(FRAMING[gaps.next().unwrap() % FRAMING.len()]);
            runs.push(buf.len()..buf.len() + run.len());
            buf.extend_from_slice(run);
            rest = tail;
        }
        stream.write_runs(&buf, &runs, &mut sink);
        for (in_buf, range) in &sink.parts {
            assert!(
                !in_buf
                    || runs
                        .iter()
                        .any(|run| run.start <= range.start && range.end <= run.end),
                "{range:?} is not inside one of {runs:?}"
            );
        }
        sink.flatten(&buf, &mut out);
    }
    out
}

proptest! {
    /// Steps of runs in one buffer, framing between them and anchors
    /// straddling both kinds of boundary, rewrite as the page handed
    /// over whole does.
    #[test]
    fn steps_of_runs_match_buffered_for_any_split(
        parts in vec(fragment(), 0..12),
        run_sizes in vec(1usize..24, 1..8),
        runs_per_step in vec(1usize..6, 1..6),
        framing in vec(0usize..FRAMING.len(), 1..6),
        seed in 0u64..1000,
    ) {
        let html: String = parts.concat();
        let eng = engine();
        let (whole, manifest, _) = whole(&eng, &html, seed);
        let mut stream = eng.begin_stream(&page_uri(), SimTime::ZERO, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut out = write_steps(&mut stream, html.as_bytes(), &run_sizes, &runs_per_step, &framing);
        let finished = stream.finish(&mut out);
        prop_assert_eq!(String::from_utf8(out).unwrap(), whole);
        prop_assert_eq!(&manifest_of(&finished), &manifest);
    }
}

#[test]
fn past_the_hold_cap_a_step_of_runs_is_one_chunk() {
    // Two `</body>` candidates further apart than the hold cap. Handed
    // over at once, the later one wins, whether as one chunk or as one
    // step of 8 KB runs; in 8 KB steps the cap forces the markup before
    // the first. Past the cap, output depends on how the page was cut.
    let mut html = String::from("<html><head></head><body>a</body>");
    html.push_str(&"y".repeat(MAX_HELD_BYTES + 10_000));
    html.push_str("b</body></html>");
    let eng = engine();
    let stream = || {
        eng.begin_stream(
            &page_uri(),
            SimTime::ZERO,
            &mut ChaCha8Rng::seed_from_u64(3),
        )
    };
    let (whole, ..) = whole(&eng, &html, 3);
    assert!(whole.contains("a</body>yyy") && !whole.contains("b</body>"));
    let mut one_step = stream();
    let mut out = write_steps(
        &mut one_step,
        html.as_bytes(),
        &[8 * 1024],
        &[usize::MAX],
        &[1],
    );
    one_step.finish(&mut out);
    assert!(String::from_utf8(out).unwrap() == whole);
    let mut steps = stream();
    let mut out = write_steps(&mut steps, html.as_bytes(), &[8 * 1024], &[1], &[1]);
    steps.finish(&mut out);
    let out = String::from_utf8(out).unwrap();
    assert!(!out.contains("a</body>") && out.contains("b</body>"));
}

#[test]
fn past_the_hold_cap_a_head_in_one_step_of_runs_is_one_chunk() {
    // A `</head>` further from the page's start than the hold cap,
    // handed over as one step of 8 KB runs: the whole step is searched
    // before the cap is checked, so the head markup goes before
    // `</head>` as it does for one chunk, not at the page's start.
    let mut html = String::from("<html><head>");
    html.push_str(&"y".repeat(MAX_HELD_BYTES + 10_000));
    html.push_str("</head><body>a</body></html>");
    let eng = engine();
    let stream = || {
        eng.begin_stream(
            &page_uri(),
            SimTime::ZERO,
            &mut ChaCha8Rng::seed_from_u64(3),
        )
    };
    let (whole, ..) = whole(&eng, &html, 3);
    assert!(whole.starts_with("<html><head>yyy"));
    let mut one_step = stream();
    let mut out = write_steps(
        &mut one_step,
        html.as_bytes(),
        &[8 * 1024],
        &[usize::MAX],
        &[1],
    );
    one_step.finish(&mut out);
    assert!(String::from_utf8(out).unwrap() == whole);
}

#[test]
fn four_megabyte_page_in_one_byte_chunks_stays_under_the_hold_cap() {
    let mut html = String::with_capacity(4 * 1024 * 1024 + 128);
    html.push_str("<html><head><title>big</title></head><body>");
    let para = "<p>lorem ipsum dolor sit amet consectetur</p>\
                <img src=\"http://cdn.example/p.png\" srcset=\"q.png 1x\">";
    while html.len() < 4 * 1024 * 1024 {
        html.push_str(para);
    }
    html.push_str("</body></html>");

    let eng = engine();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut stream = eng.begin_stream(&page_uri(), SimTime::ZERO, &mut rng);
    let mut out = Vec::new();
    for piece in html.as_bytes().chunks(1) {
        stream.write(piece, &mut out);
    }
    let peak = stream.peak_buffered();
    let finished = stream.finish(&mut out);

    assert!(
        peak <= MAX_HELD_BYTES,
        "streaming a 4MB page buffered {peak} bytes (cap {MAX_HELD_BYTES})"
    );
    assert!(out.len() > html.len());
    assert_eq!(finished.html_overhead, out.len() - html.len());
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("<img src=\"http://cdn.example/p.png\" srcset=\"q.png 1x\">"));
    assert!(text.ends_with("</body></html>"));
}
