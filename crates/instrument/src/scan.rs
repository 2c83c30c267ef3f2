//! Word-at-a-time byte search: the one primitive under the streaming
//! rewriter's anchor hunts.
//!
//! Every anchor the rewriter looks for (`</head>`, `<body`, `</body>`)
//! starts with a byte that is rare in page text, so the search is three
//! filters of rising cost:
//!
//! 1. [`each_match`] skips 32 bytes at a time through four `u64` words
//!    (SWAR: a zero-byte test on `word ^ pattern`, plain integer
//!    arithmetic, no `unsafe`) and touches only the lanes that hold the
//!    first byte;
//! 2. [`find_ci`] rejects a candidate on its second byte (`<d`, `<a`,
//!    `<p` never reach a compare while hunting `</body>`);
//! 3. only survivors pay the case-insensitive compare of the rest.
//!
//! Letters match in either case by folding the ASCII case bit into the
//! word before the test, so the filters never miss and never admit a
//! byte the compare would not also accept in that position.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// `0x20` when `byte` is a letter (OR-ing it in folds both cases onto
/// the lowercase one), `0` otherwise (the byte must match exactly).
fn case_bit(byte: u8) -> u8 {
    if byte.is_ascii_alphabetic() {
        0x20
    } else {
        0
    }
}

/// The high bit of every byte lane of `word` that equals the searched
/// byte (`pat` is that byte in all eight lanes, `fold` its case bit
/// likewise). `x` is zero exactly in matching lanes; adding `0x7f` to
/// its low seven bits carries into the lane's high bit unless they are
/// all zero, and never out of the lane — so the test is exact per lane.
fn lanes(word: u64, fold: u64, pat: u64) -> u64 {
    let x = (word | fold) ^ pat;
    !(((x & !HI) + !HI) | x) & HI
}

/// Calls `visit(i)` for each `i >= from` with `hay[i] == first` (either
/// case when `first` is a letter, given lowercase), in order, until
/// `visit` yields. Forced inline so each caller's `visit` fuses into the
/// lane loop (a fifth faster on markup-dense pages than a call per `<`).
#[inline(always)]
fn each_match<T>(
    hay: &[u8],
    from: usize,
    first: u8,
    mut visit: impl FnMut(usize) -> Option<T>,
) -> Option<T> {
    let fold = case_bit(first);
    let (pat_w, fold_w) = (LO * u64::from(first), LO * u64::from(fold));
    let mut pos = from.min(hay.len());
    let blocks = hay[pos..].chunks_exact(32);
    let tail = blocks.remainder();
    for block in blocks {
        let mut hits = [0u64; 4];
        let mut any = 0;
        for (hit, word) in hits.iter_mut().zip(block.chunks_exact(8)) {
            let word = word.try_into().expect("chunks_exact(8) yields 8 bytes");
            *hit = lanes(u64::from_le_bytes(word), fold_w, pat_w);
            any |= *hit;
        }
        if any != 0 {
            for (w, mut hit) in hits.into_iter().enumerate() {
                while hit != 0 {
                    let lane = (hit.trailing_zeros() / 8) as usize;
                    if let Some(found) = visit(pos + w * 8 + lane) {
                        return Some(found);
                    }
                    hit &= hit - 1;
                }
            }
        }
        pos += 32;
    }
    for (k, &byte) in tail.iter().enumerate() {
        if byte | fold == first {
            if let Some(found) = visit(pos + k) {
                return Some(found);
            }
        }
    }
    None
}

/// ASCII-case-insensitive substring search from `from` (`needle` must
/// be lowercase ASCII and at least two bytes, which every anchor is).
pub(crate) fn find_ci(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    debug_assert!(needle.len() >= 2 && !needle.iter().any(u8::is_ascii_uppercase));
    let last = hay.len().checked_sub(needle.len())?;
    let second_fold = case_bit(needle[1]);
    each_match(&hay[..=last], from, needle[0], |i| {
        if hay[i + 1] | second_fold != needle[1] {
            return None;
        }
        #[cfg(test)]
        FULL_COMPARES.with(|n| n.set(n.get() + 1));
        hay[i + 2..i + needle.len()]
            .eq_ignore_ascii_case(&needle[2..])
            .then_some(i)
    })
}

/// Length of the longest *proper* prefix of `needle` that ends `hay` —
/// the bytes that must be held back because the next chunk might
/// complete the token.
pub(crate) fn partial_suffix(hay: &[u8], needle: &[u8]) -> usize {
    let max = (needle.len() - 1).min(hay.len());
    // The earliest start in the window is the longest prefix.
    each_match(hay, hay.len() - max, needle[0], |i| {
        let k = hay.len() - i;
        hay[i..].eq_ignore_ascii_case(&needle[..k]).then_some(k)
    })
    .unwrap_or(0)
}

#[cfg(test)]
thread_local! {
    /// How many candidates reached [`find_ci`]'s full compare on this
    /// thread — the linearity tests' witness that a failed candidate is
    /// never rescanned.
    pub(crate) static FULL_COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The rewriter's three anchors, and needles that start with other
    /// bytes (a letter folds its case into the first-byte filter).
    const NEEDLES: [&[u8]; 7] = [
        b"</head>",
        b"<body",
        b"</body>",
        b"</style",
        b"</script",
        b"-->",
        b"url(",
    ];

    /// The byte-at-a-time search this module replaced, kept as the
    /// oracle.
    fn naive_find_ci(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
        if hay.len() < needle.len() {
            return None;
        }
        (from..=hay.len() - needle.len())
            .find(|&i| hay[i..i + needle.len()].eq_ignore_ascii_case(needle))
    }

    fn naive_partial_suffix(hay: &[u8], needle: &[u8]) -> usize {
        let max = (needle.len() - 1).min(hay.len());
        (1..=max)
            .rev()
            .find(|&k| hay[hay.len() - k..].eq_ignore_ascii_case(&needle[..k]))
            .unwrap_or(0)
    }

    /// Bytes weighted toward what trips a tag search: runs of `<`, the
    /// needles' own letters in both cases, bytes one case-bit away from
    /// `<`, `/` and `-` (which must *not* match), and non-ASCII.
    fn tricky_byte() -> impl Strategy<Value = u8> {
        prop_oneof![
            Just(b'<'),
            Just(b'<'),
            Just(b'/'),
            Just(b'-'),
            Just(b'>'),
            Just(b'('),
            Just(0x1c),  // '<' without its 0x20 bit
            Just(0x0f),  // '/' without its 0x20 bit
            Just(0x0d),  // '-' without its 0x20 bit
            Just(b'\\'), // '<' | 0x40
            (0usize..16).prop_map(|i| b"bodyheadBODYHEADscriptSTYLEurlURL"[i * 2]),
            any::<u8>(),
        ]
    }

    proptest! {
        #[test]
        fn find_ci_and_partial_suffix_match_the_naive_search(
            hay in vec(tricky_byte(), 0..200),
            plant in vec((0usize..7, 0usize..200, any::<bool>()), 0..4),
            from in 0usize..210,
        ) {
            // Plant whole and cut-short needles (some uppercased) so
            // matches actually occur, including flush against the end.
            let mut hay = hay;
            for (which, at, upper) in plant {
                let needle = NEEDLES[which];
                let at = at.min(hay.len());
                let end = (at + needle.len()).min(hay.len());
                for (slot, &b) in hay[at..end].iter_mut().zip(needle) {
                    *slot = if upper { b.to_ascii_uppercase() } else { b };
                }
            }
            for needle in NEEDLES {
                prop_assert_eq!(
                    find_ci(&hay, from, needle),
                    naive_find_ci(&hay, from, needle),
                    "needle {:?} from {}", std::str::from_utf8(needle), from
                );
                prop_assert_eq!(partial_suffix(&hay, needle), naive_partial_suffix(&hay, needle));
            }
        }
    }

    #[test]
    fn matches_straddling_every_word_and_block_boundary_are_found() {
        for needle in NEEDLES {
            let shouted = needle.to_ascii_uppercase();
            for offset in 0..=72 {
                for pad in 0..=9 {
                    for planted in [needle, shouted.as_slice()] {
                        let mut hay = vec![b'.'; offset];
                        hay.extend_from_slice(planted);
                        hay.resize(hay.len() + pad, b'<');
                        for from in 0..=offset + 1 {
                            assert_eq!(
                                find_ci(&hay, from, needle),
                                naive_find_ci(&hay, from, needle),
                                "{planted:?} at {offset}, pad {pad}, from {from}"
                            );
                        }
                        // Every cut through the needle leaves the right
                        // partial suffix at the end of the haystack.
                        for cut in 0..=planted.len() {
                            let hay = &hay[..offset + cut];
                            assert_eq!(
                                partial_suffix(hay, needle),
                                naive_partial_suffix(hay, needle),
                                "{planted:?} cut at {cut} after {offset}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn second_byte_filter_spares_the_compare() {
        // 64 tags, none of which can be `</body>`: only the two closing
        // tags (second byte `/`) are compared at all.
        let hay = "<div><a><p><img>".repeat(15) + "</div></a> and text";
        FULL_COMPARES.with(|n| n.set(0));
        assert_eq!(find_ci(hay.as_bytes(), 0, b"</body>"), None);
        assert_eq!(FULL_COMPARES.with(|n| n.get()), 2);
    }
}
