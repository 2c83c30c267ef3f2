//! Block-at-a-time byte search: the one primitive under the streaming
//! rewriter's anchor hunts, run in either direction.
//!
//! Every anchor the rewriter looks for (`</head>`, `<body`, `</body>`)
//! opens with three bytes that almost never occur together in a page
//! (`</h`, `<bo`, `</b`), so the search is three filters of rising cost:
//!
//! 1. the needle's first three bytes are tested at all [`BLOCK`] starts
//!    of a block at once, OR-ing the outcomes into one byte. The loop is
//!    fixed-size, branch-free integer code that the compiler turns into
//!    vector compares (no `unsafe`, no intrinsics), so a block without a
//!    hit costs a handful of instructions however many `<` it holds: a
//!    tag every twenty bytes scans like plain text;
//! 2. a block with a hit is walked start by start through the same
//!    three-byte test;
//! 3. only survivors pay the case-insensitive compare of the rest.
//!
//! [`find_ci`] takes the blocks from the front and returns the first
//! match, [`rfind_ci`] takes them from the back and returns the last:
//! the rewriter hunts `</head>` and `<body` forward and the last
//! `</body>` backward from the end of what it has been handed. Both run
//! the same block test ([`Prefix::block_hits`]).
//!
//! Letters match in either case by folding the ASCII case bit into the
//! haystack byte before the test, so the filters never miss and never
//! admit a byte the compare would not also accept in that position.

/// Starts tested per step of the block filter.
pub(crate) const BLOCK: usize = 64;

/// `0x20` when `byte` is a letter (OR-ing it in folds both cases onto
/// the lowercase one), `0` otherwise (the byte must match exactly).
fn case_bit(byte: u8) -> u8 {
    if byte.is_ascii_alphabetic() {
        0x20
    } else {
        0
    }
}

/// A needle's first three bytes and the case bits that fold a haystack
/// byte onto them. Scalars, not arrays: the block loop keeps them in
/// registers.
#[derive(Clone, Copy)]
struct Prefix {
    n0: u8,
    n1: u8,
    n2: u8,
    f0: u8,
    f1: u8,
    f2: u8,
}

impl Prefix {
    fn of(needle: &[u8]) -> Prefix {
        debug_assert!(needle.len() >= 3 && !needle.iter().any(u8::is_ascii_uppercase));
        let (n0, n1, n2) = (needle[0], needle[1], needle[2]);
        Prefix {
            n0,
            n1,
            n2,
            f0: case_bit(n0),
            f1: case_bit(n1),
            f2: case_bit(n2),
        }
    }

    /// Whether any of the [`BLOCK`] starts from `pos` passes the
    /// three-byte filter (`hay[pos + BLOCK + 1]` must exist).
    #[inline(always)]
    fn block_hits(self, hay: &[u8], pos: usize) -> bool {
        #[cfg(test)]
        VISITED.with(|n| n.set(n.get() + BLOCK));
        let lane = |k: usize| -> &[u8; BLOCK] {
            hay[pos + k..pos + k + BLOCK]
                .try_into()
                .expect("a slice of BLOCK bytes")
        };
        let (first, second, third) = (lane(0), lane(1), lane(2));
        let mut any = 0u8;
        for i in 0..BLOCK {
            any |= u8::from(first[i] | self.f0 == self.n0)
                & u8::from(second[i] | self.f1 == self.n1)
                & u8::from(third[i] | self.f2 == self.n2);
        }
        any != 0
    }

    /// Whether `needle` (whose prefix this is) starts at `hay[i]`.
    #[inline(always)]
    fn matches_at(self, hay: &[u8], i: usize, needle: &[u8]) -> bool {
        if hay[i] | self.f0 != self.n0
            || hay[i + 1] | self.f1 != self.n1
            || hay[i + 2] | self.f2 != self.n2
        {
            return false;
        }
        #[cfg(test)]
        FULL_COMPARES.with(|n| n.set(n.get() + 1));
        hay[i + 3..i + needle.len()].eq_ignore_ascii_case(&needle[3..])
    }

    /// The starts in `starts` walked one at a time, none past the last
    /// start a match could have.
    fn walk<'a>(
        self,
        hay: &'a [u8],
        starts: std::ops::Range<usize>,
        needle: &'a [u8],
    ) -> impl DoubleEndedIterator<Item = usize> + 'a {
        #[cfg(test)]
        VISITED.with(|n| n.set(n.get() + starts.len()));
        starts.filter(move |&i| self.matches_at(hay, i, needle))
    }
}

/// ASCII-case-insensitive substring search: the first match starting at
/// or after `from` (`needle` must be lowercase ASCII and at least three
/// bytes, which every anchor is).
pub(crate) fn find_ci(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    // The last start a match could have.
    let last = hay.len().checked_sub(needle.len())?;
    let prefix = Prefix::of(needle);
    let mut pos = from;
    // Whole blocks of starts, none past `last` (so `hay[i + 2]` exists
    // for every start `i` in the block).
    while pos + BLOCK <= last + 1 {
        if prefix.block_hits(hay, pos) {
            if let Some(found) = (pos..pos + BLOCK).find(|&i| prefix.matches_at(hay, i, needle)) {
                return Some(found);
            }
        }
        pos += BLOCK;
    }
    prefix.walk(hay, pos..last + 1, needle).next()
}

/// [`find_ci`] from the other end: the last match starting at or after
/// `from`.
pub(crate) fn rfind_ci(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let last = hay.len().checked_sub(needle.len())?;
    let prefix = Prefix::of(needle);
    // Starts `from..end` are still to be tested, a block at a time from
    // the end.
    let mut end = last + 1;
    while end >= from + BLOCK {
        let pos = end - BLOCK;
        if prefix.block_hits(hay, pos) {
            if let Some(found) = (pos..end)
                .rev()
                .find(|&i| prefix.matches_at(hay, i, needle))
            {
                return Some(found);
            }
        }
        end = pos;
    }
    prefix.walk(hay, from..end, needle).next_back()
}

/// Length of the longest *proper* prefix of `needle` that ends `hay` —
/// the bytes that must be held back because the next chunk might
/// complete the token.
pub(crate) fn partial_suffix(hay: &[u8], needle: &[u8]) -> usize {
    let max = (needle.len() - 1).min(hay.len());
    // The earliest start in the window is the longest prefix.
    (hay.len() - max..hay.len())
        .find(|&i| hay[i..].eq_ignore_ascii_case(&needle[..hay.len() - i]))
        .map_or(0, |i| hay.len() - i)
}

#[cfg(test)]
thread_local! {
    /// How many candidates reached the full compare on this thread —
    /// the linearity tests' witness that a failed candidate is never
    /// rescanned.
    pub(crate) static FULL_COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// How many starts the searches on this thread put through the
    /// filter, a whole block at a time — what the rewriter's tests count
    /// to show which bytes of a page were looked at.
    pub(crate) static VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The rewriter's three anchors, and needles that start with other
    /// bytes (a letter folds its case into the prefix filter).
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

    fn naive_rfind_ci(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
        if hay.len() < needle.len() {
            return None;
        }
        (from..=hay.len() - needle.len())
            .rev()
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
            hay in vec(tricky_byte(), 0..4 * BLOCK + 40),
            plant in vec((0usize..7, 0usize..4 * BLOCK + 40, any::<bool>()), 0..4),
            from in 0usize..4 * BLOCK + 50,
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
                prop_assert_eq!(
                    rfind_ci(&hay, from, needle),
                    naive_rfind_ci(&hay, from, needle),
                    "needle {:?} back to {}", std::str::from_utf8(needle), from
                );
                prop_assert_eq!(partial_suffix(&hay, needle), naive_partial_suffix(&hay, needle));
            }
        }
    }

    #[test]
    fn matches_straddling_every_word_and_block_boundary_are_found() {
        for needle in NEEDLES {
            let shouted = needle.to_ascii_uppercase();
            for offset in 0..=2 * BLOCK + 8 {
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
                            assert_eq!(
                                rfind_ci(&hay, from, needle),
                                naive_rfind_ci(&hay, from, needle),
                                "{planted:?} at {offset}, pad {pad}, back to {from}"
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
        // 63 tags, none of which can be `</body>`: the opening tags fail
        // the prefix filter on their second byte, `</div>` and `</a>` on
        // their third, and only `</b>` is compared at all.
        let hay = "<div><a><p><img>".repeat(15) + "</div></a></b> and text";
        FULL_COMPARES.with(|n| n.set(0));
        assert_eq!(find_ci(hay.as_bytes(), 0, b"</body>"), None);
        assert_eq!(FULL_COMPARES.with(|n| n.get()), 1);
    }

    #[test]
    fn a_prefix_stuffed_haystack_is_compared_once_per_candidate() {
        // Every block holds `</b` several times over, so every block
        // falls to the per-start walk: still one compare per candidate,
        // in one call and when the search resumes from a cursor.
        let hay = "</b</B<".repeat(10_000);
        // Two a unit, less the last one: too near the end to match.
        let candidates = hay.len() / 7 * 2 - 1;
        FULL_COMPARES.with(|n| n.set(0));
        assert_eq!(find_ci(hay.as_bytes(), 0, b"</body>"), None);
        assert_eq!(FULL_COMPARES.with(|n| n.get()), candidates);
        FULL_COMPARES.with(|n| n.set(0));
        for (from, upto) in [(0, 30_000), (30_000 - 6, 70_000)] {
            assert_eq!(find_ci(&hay.as_bytes()[..upto], from, b"</body>"), None);
        }
        assert!(FULL_COMPARES.with(|n| n.get()) <= hay.len());
    }
}
