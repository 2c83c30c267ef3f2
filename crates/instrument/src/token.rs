//! 128-bit beacon keys and the per-session token state.
//!
//! §2.1 of the paper: "the server generates a random key
//! `k ∈ [0, 2^128 − 1]` and records the tuple `<foo.html, k>` in a table
//! indexed by the client's IP address. The table holds multiple entries per
//! IP address." A matching key in a later beacon fetch proves a mouse or
//! keyboard event; the random key prevents replay across clients and pages.
//!
//! Here the record is [`TokenState`]: the outstanding keys of *one*
//! session (the paper's IP, narrowed by the User-Agent), designed to be
//! colocated with the session's other per-key state inside its tracker
//! shard entry, so issuing and redeeming share the session's shard lock
//! (no global token table, no global lock).
//!
//! Each entry also answers for its page's decoys and its `<script src>`,
//! and keeps neither: the decoys and the [`ScriptSeed`] were drawn from
//! the session's own stream, so the entry keeps the word position the
//! page's [`TokenDraw`] began at and draws them again when asked. Every
//! fetch of the script URL writes the script from the [`ScriptRecipe`]
//! [`TokenState::script_for`] recomputes, straight into the response,
//! under the session's lock; a beacon whose key is no entry's is checked
//! against each entry's five 12-bit decoy tags first, and only a tag hit
//! (5 in 4 096 keys an entry) draws the decoys again. So an entry weighs
//! what it did the moment its page was served, fetched or not: 48 bytes
//! (key, position, script nonce, issue time, decoy tags), no heap block of
//! its own, and a session's list holds one slot per entry, no spare.
//! What one session can pin, 64 entries, is 3 KB; across 100k sessions
//! ~0.3 GB, however many scripts those sessions fetch (~0.8 GB while an
//! entry kept its [`DECOYS`] decoys and script seed, 128 bytes; ~1.1 GB
//! while it was 96 bytes with its decoys in a block of their own; ~13 GB
//! when a fetched script's ~1.85 KB source stayed in its entry).

use crate::engine::IssuedPageToken;
use crate::jsgen::{hex, Push};
use botwall_sessions::SimTime;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::fmt;

/// Outstanding entries one session's [`TokenState`] holds; a page
/// issued past it drops the oldest (the paper's table "holds multiple
/// entries per IP").
pub const MAX_TOKENS_PER_SESSION: usize = 64;

/// Decoy functions `m` a page's script carries beside the real mouse
/// handler (§2.1): a robot that fetches one of the `m + 1` beacon URLs
/// it finds in the script blindly is caught with probability
/// `m/(m+1)`. Every page is minted with this many.
pub const DECOYS: usize = 5;

/// How long an entry answers after its page was issued: past it, its
/// key, its decoys, a replay of it and its script read as never issued
/// (the paper's session idle timeout, an hour). An expired entry is not
/// removed; it leaves when the entry bound rotates it out or its
/// session ends.
pub const TOKEN_LIFETIME_MS: u64 = 3_600_000;

/// A 128-bit beacon key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BeaconKey(u128);

impl BeaconKey {
    /// Draws a fresh random key.
    pub fn random<R: Rng>(rng: &mut R) -> BeaconKey {
        BeaconKey(rng.gen())
    }

    /// Builds a key from its raw value (tests, decoding).
    pub fn from_raw(v: u128) -> BeaconKey {
        BeaconKey(v)
    }

    /// Renders the key as 32 lowercase hex digits (the URL form).
    pub fn to_hex(self) -> String {
        let mut hex = String::with_capacity(32);
        self.push_hex(&mut hex);
        hex
    }

    /// Appends [`BeaconKey::to_hex`] to `out`, formatted on the stack.
    pub fn push_hex(self, out: &mut String) {
        self.push_digits(out);
    }

    /// [`BeaconKey::push_hex`] into any ASCII sink.
    pub(crate) fn push_digits(self, out: &mut impl Push) {
        out.push_ascii(&hex((self.0 >> 64) as u64));
        out.push_ascii(&hex(self.0 as u64));
    }

    /// Parses the 32-hex-digit URL form.
    pub fn from_hex(s: &str) -> Option<BeaconKey> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(BeaconKey)
    }
}

impl fmt::Display for BeaconKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Outcome of checking a presented key against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOutcome {
    /// The key matches an unused entry for this client: human evidence.
    Valid,
    /// The key matched an entry that was already redeemed: a replay.
    Replay,
    /// The key matches one of the decoys issued to this client: a blind
    /// robot fetched a URL it found by scanning the script.
    Decoy,
    /// The key matches nothing issued to this client.
    Unknown,
}

/// What a page's script is generated from, besides its key and decoys:
/// the stream seed `jsgen` runs over and the nonce of the agent-beacon
/// URL the script reports to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptSeed {
    /// Seeds the generator's stream (see [`crate::jsgen::handler_name`]):
    /// a fetch writes the same script from it every time.
    pub seed: u64,
    /// The nonce of the agent-beacon probe URL.
    pub agent_nonce: u64,
}

/// What one page's token draws from its session's stream, in the order
/// it draws it: the key, the decoys, the bits of the agent beacon's
/// nonce, the bits of the script's nonce, and the script's seed. The
/// mint draws it once and an entry keeps only [`TokenDraw::at`]; a
/// lookup draws it again from there. The two nonces are the engine's to
/// finish: it MACs their bits with the hour the page was issued in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDraw {
    /// The stream's word position before the draw's first word.
    pub at: u64,
    /// The real beacon key.
    pub key: BeaconKey,
    /// The decoy keys, in the order they were drawn.
    pub decoys: [BeaconKey; DECOYS],
    /// The random bits of the agent beacon's probe nonce.
    pub agent_bits: u64,
    /// The random bits of the script's probe nonce.
    pub js_bits: u64,
    /// The seed the script is written from.
    pub seed: u64,
}

impl TokenDraw {
    /// Draws a page's token from `rng`, wherever it stands. The mint
    /// and every recompute of an entry call this, so the draw order is
    /// written once.
    pub(crate) fn from_stream(rng: &mut ChaCha8Rng) -> TokenDraw {
        let at = u64::try_from(rng.get_word_pos()).expect("under 2^64 words drawn");
        let key = BeaconKey::random(rng);
        // Drawn in index order, after the key.
        let decoys = std::array::from_fn(|_| BeaconKey::random(rng));
        let agent_bits = rng.gen();
        let js_bits = rng.gen();
        let seed = rng.gen();
        TokenDraw {
            at,
            key,
            decoys,
            agent_bits,
            js_bits,
            seed,
        }
    }
}

/// What one entry's script is written from, drawn again from its
/// session's stream by [`TokenState::script_for`]: the page's
/// [`TokenDraw`] and the time it was issued, whose hour
/// [`crate::RewriteEngine::object_in_session`] MACs the nonces with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptRecipe {
    /// The page's token, as the mint drew it.
    pub draw: TokenDraw,
    /// When the page was issued.
    pub issued: SimTime,
}

/// One issued page's token, held inline in its session's list: the
/// key, where the page's [`TokenDraw`] began in the session's stream,
/// the nonce of its `<script src>` URL (stored with the session, so
/// script serving needs no global store), the [`Stamp`], and the tags
/// of its decoys.
#[derive(Debug)]
struct Entry {
    key: BeaconKey,
    /// Read only when [`Stamp::drawn`] says the entry was drawn.
    at: u64,
    /// Read only when [`Stamp::drawn`] says the entry was drawn.
    js_nonce: u64,
    stamp: Stamp,
    /// Read only when [`Stamp::drawn`] says the entry was drawn.
    decoys: DecoyTags,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 48);

impl Entry {
    /// Whether the entry still answers as of `now`.
    fn live(&self, now: SimTime) -> bool {
        now.since(self.stamp.issued()) <= TOKEN_LIFETIME_MS
    }
}

/// An entry's issue time and its two flags in one word: the time in
/// milliseconds above the low [`Stamp::FLAG_BITS`] bits, which say
/// whether the key was redeemed and whether the entry was drawn from
/// the session's stream (so it answers for decoys and a script). An
/// issue time past 2^62 ms (some 146 million years of server clock) is
/// kept as that bound, and a script drawn again then would MAC its
/// nonces with the wrong hour.
#[derive(Debug, Clone, Copy)]
struct Stamp(u64);

impl Stamp {
    const FLAG_BITS: u32 = 2;
    const REDEEMED: u64 = 1;
    const DRAWN: u64 = 1 << 1;

    fn new(issued: SimTime, drawn: bool) -> Stamp {
        let ms = issued.as_millis().min(u64::MAX >> Self::FLAG_BITS);
        let drawn = if drawn { Self::DRAWN } else { 0 };
        Stamp((ms << Self::FLAG_BITS) | drawn)
    }

    fn issued(self) -> SimTime {
        SimTime::from_millis(self.0 >> Self::FLAG_BITS)
    }

    fn redeemed(self) -> bool {
        self.0 & Self::REDEEMED != 0
    }

    fn redeem(&mut self) {
        self.0 |= Self::REDEEMED;
    }

    fn drawn(self) -> bool {
        self.0 & Self::DRAWN != 0
    }
}

/// The low [`DecoyTags::BITS`] bits of each of an entry's decoys, five
/// to a word. A key whose low bits match none of them is none of the
/// entry's decoys; one that matches has the decoys drawn again to be
/// sure.
#[derive(Debug, Clone, Copy)]
struct DecoyTags(u64);

impl DecoyTags {
    const BITS: u32 = 12;
    const MASK: u64 = (1 << Self::BITS) - 1;

    fn of(decoys: &[BeaconKey; DECOYS]) -> DecoyTags {
        const _: () = assert!(DECOYS as u32 * DecoyTags::BITS <= u64::BITS);
        let tags = (0..).zip(decoys).fold(0, |tags, (i, decoy)| {
            tags | Self::tag(*decoy) << (i * Self::BITS)
        });
        DecoyTags(tags)
    }

    fn tag(key: BeaconKey) -> u64 {
        key.0 as u64 & Self::MASK
    }

    /// Whether `key` may be one of the decoys: its tag is among theirs.
    fn may_hold(self, key: BeaconKey) -> bool {
        let tag = Self::tag(key);
        (0..DECOYS as u32).any(|i| (self.0 >> (i * Self::BITS)) & Self::MASK == tag)
    }
}

/// The outstanding beacon keys (and where their decoys and scripts
/// were drawn) of one session.
///
/// This is the per-session half of the PR-4 instrumenter split: it lives
/// inside the session's tracker shard entry, so every operation on it —
/// issuing keys at page-rewrite time, redeeming them when a beacon
/// fires, writing a fetched script — happens under the shard lock the
/// request already holds. It also keeps the session's place in its
/// deterministic RNG stream (seeded by the engine's secret and the
/// session identity), so instrumentation randomness needs no shared
/// generator: the seed and the words drawn so far, not the generator.
///
/// A session that was never issued a key nor drew from its RNG — most
/// sessions are never served a page — holds one null pointer (8 bytes
/// inline, nothing on the heap); the entries list and the stream
/// position live together behind it from the first issue or draw on.
///
/// # Examples
///
/// ```
/// use botwall_instrument::token::{BeaconKey, KeyOutcome, TokenState, MAX_TOKENS_PER_SESSION};
/// use botwall_sessions::SimTime;
///
/// let mut state = TokenState::default();
/// let key = BeaconKey::from_raw(42);
/// state.issue("/index.html", key, vec![], None, SimTime::ZERO, MAX_TOKENS_PER_SESSION);
/// assert_eq!(state.redeem(BeaconKey::from_raw(42), SimTime::ZERO), KeyOutcome::Valid);
/// assert_eq!(state.redeem(BeaconKey::from_raw(42), SimTime::ZERO), KeyOutcome::Replay);
/// assert_eq!(state.redeem(BeaconKey::from_raw(9), SimTime::ZERO), KeyOutcome::Unknown);
/// ```
#[derive(Debug, Default)]
pub struct TokenState(Option<Box<Tokens>>);

/// What a [`TokenState`] holds once it holds anything.
#[derive(Debug, Default)]
struct Tokens {
    /// Oldest first, one slot per entry.
    entries: VecDeque<Entry>,
    /// Words drawn from the session's RNG stream.
    drawn: u64,
    /// The session's stream seed, read at its first draw. It cannot
    /// change while the [`TokenState`] lives: a session's next
    /// incarnation starts a fresh one.
    seed: u64,
}

impl Tokens {
    /// The token `entry`'s page drew, drawn again from the session's
    /// stream at the entry's position: a reseed, a seek and two or three
    /// ChaCha blocks.
    fn redraw(&self, entry: &Entry) -> TokenDraw {
        #[cfg(test)]
        REDRAWS.with(|n| n.set(n.get() + 1));
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.set_word_pos(u128::from(entry.at));
        TokenDraw::from_stream(&mut rng)
    }
}

impl TokenState {
    /// Records a key freshly issued for `_page`, dropping the oldest
    /// entry beyond `max_entries`. Only the key is kept: the page, the
    /// decoys `_decoys` and a script source `_js` are not, so the key
    /// redeems, and an entry issued here answers for no decoy and no
    /// script (a page's decoys and script are drawn from the session's
    /// stream, which [`crate::RewriteEngine::begin_session_page`] does).
    pub fn issue(
        &mut self,
        _page: impl Into<String>,
        key: BeaconKey,
        _decoys: Vec<BeaconKey>,
        _js: Option<(u64, String)>,
        now: SimTime,
        max_entries: usize,
    ) {
        let entry = Entry {
            key,
            at: 0,
            js_nonce: 0,
            stamp: Stamp::new(now, false),
            decoys: DecoyTags(0),
        };
        self.push(entry, max_entries);
    }

    /// Records the token a page rewrite drew from this state's stream,
    /// dropping the oldest entry beyond [`MAX_TOKENS_PER_SESSION`]; its
    /// decoys and its script are drawn again where the token was.
    pub(crate) fn issue_page(&mut self, token: IssuedPageToken, now: SimTime) {
        let entry = Entry {
            key: token.key,
            at: token.at,
            js_nonce: token.js_nonce,
            stamp: Stamp::new(now, true),
            decoys: DecoyTags::of(&token.decoys),
        };
        self.push(entry, MAX_TOKENS_PER_SESSION);
        if cfg!(debug_assertions) {
            let tokens = self.0.as_deref().expect("just pushed");
            let draw = tokens.redraw(tokens.entries.back().expect("just pushed"));
            debug_assert_eq!(
                (draw.key, draw.decoys, draw.seed),
                (token.key, token.decoys, token.script.seed),
                "a page's token is drawn from its session's stream"
            );
        }
    }

    fn push(&mut self, entry: Entry, max_entries: usize) {
        let entries = &mut self.0.get_or_insert_with(Box::default).entries;
        if entries.len() >= max_entries.max(1) {
            entries.pop_front();
        } else {
            // Most sessions are served a page or two: the list grows a
            // slot at a time, not as `VecDeque` doubles.
            entries.reserve_exact(1);
        }
        entries.push_back(entry);
    }

    /// Checks a presented key against this session's entries still
    /// inside [`TOKEN_LIFETIME_MS`] as of `now`, marking it redeemed
    /// when valid. A key is compared with the entries' keys first, which
    /// draws nothing; only an entry one of whose decoy tags the key
    /// matches has its decoys drawn again.
    pub fn redeem(&mut self, key: BeaconKey, now: SimTime) -> KeyOutcome {
        let Some(tokens) = self.0.as_deref_mut() else {
            return KeyOutcome::Unknown;
        };
        let entries = &mut tokens.entries;
        if let Some(e) = entries.iter_mut().find(|e| e.key == key && e.live(now)) {
            if e.stamp.redeemed() {
                return KeyOutcome::Replay;
            }
            e.stamp.redeem();
            return KeyOutcome::Valid;
        }
        let tokens = &*tokens;
        let decoy = tokens.entries.iter().any(|e| {
            e.stamp.drawn()
                && e.decoys.may_hold(key)
                && e.live(now)
                && tokens.redraw(e).decoys.contains(&key)
        });
        if decoy {
            KeyOutcome::Decoy
        } else {
            KeyOutcome::Unknown
        }
    }

    /// What the script behind a JS-file probe nonce is written from,
    /// drawn again from the session's stream, if this session was served
    /// the page that references it no longer ago than
    /// [`TOKEN_LIFETIME_MS`] before `now`.
    pub fn script_for(&self, nonce: u64, now: SimTime) -> Option<ScriptRecipe> {
        let tokens = self.0.as_deref()?;
        let entry = tokens
            .entries
            .iter()
            .rev()
            .find(|e| e.stamp.drawn() && e.js_nonce == nonce)
            .filter(|e| e.live(now))?;
        Some(ScriptRecipe {
            draw: tokens.redraw(entry),
            issued: entry.stamp.issued(),
        })
    }

    /// Heap bytes the outstanding entries hold — what a session's tokens
    /// cost beyond the `TokenState` value itself.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.as_deref().map_or(0, |tokens| {
            std::mem::size_of::<Tokens>() + tokens.entries.capacity() * std::mem::size_of::<Entry>()
        })
    }

    /// Entries held, expired ones included.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |tokens| tokens.entries.len())
    }

    /// Whether no entries are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on the session's instrumentation RNG: the stream
    /// `stream_seed()` seeds (derived by the engine from its secret and
    /// the session identity, so streams never collide across sessions and
    /// identical runs draw identical streams), moved past the words
    /// earlier draws took. Only the seed and the new position are kept,
    /// so every call reseeds, and a session's draws are the one stream's
    /// words in order, as if one generator had made them all.
    /// `stream_seed` is asked only while nothing has been drawn: the
    /// entries drawn from the stream are drawn again from the seed it
    /// gave first.
    pub fn draw<T>(
        &mut self,
        stream_seed: impl FnOnce() -> u64,
        f: impl FnOnce(&mut ChaCha8Rng) -> T,
    ) -> T {
        let tokens = self.0.get_or_insert_with(Box::default);
        if tokens.drawn == 0 {
            tokens.seed = stream_seed();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(tokens.seed);
        rng.set_word_pos(u128::from(tokens.drawn));
        let out = f(&mut rng);
        tokens.drawn = u64::try_from(rng.get_word_pos()).expect("under 2^64 words drawn");
        out
    }
}

#[cfg(test)]
thread_local! {
    /// How many entries' tokens were drawn again on this thread — the
    /// forged-beacon test's witness that a key no entry holds is
    /// refused without drawing, but for a tag hit.
    pub(crate) static REDRAWS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand_chacha::rand_core::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use KeyOutcome::{Decoy, Replay, Unknown, Valid};

    /// The stream seed the tests' sessions draw from.
    const SEED: u64 = 0x5eed;

    /// Issues `<page, key>` with `decoys` at `at`, under a bound of
    /// `max` entries.
    fn issue(t: &mut TokenState, page: &str, key: u128, decoys: &[u128], at: SimTime, max: usize) {
        let decoys = decoys.iter().map(|&d| BeaconKey::from_raw(d)).collect();
        t.issue(page, BeaconKey::from_raw(key), decoys, None, at, max);
    }

    fn redeem(t: &mut TokenState, key: u128) -> KeyOutcome {
        t.redeem(BeaconKey::from_raw(key), SimTime::ZERO)
    }

    /// A page's token drawn from `t`'s stream (on `seed`) as the mint
    /// draws it, and issued at `at` under the script nonce `js_nonce`.
    /// The agent beacon's nonce stands in as its drawn bits: the engine
    /// MACs them, and its tests check that.
    fn draw_page(t: &mut TokenState, seed: u64, js_nonce: u64, at: SimTime) -> TokenDraw {
        let draw = t.draw(|| seed, TokenDraw::from_stream);
        let script = ScriptSeed {
            seed: draw.seed,
            agent_nonce: draw.agent_bits,
        };
        let token = IssuedPageToken {
            key: draw.key,
            decoys: draw.decoys,
            js_nonce,
            script,
            at: draw.at,
        };
        t.issue_page(token, at);
        draw
    }

    /// Every entry `t` holds drawn again, oldest first, with its issue
    /// time; `None` for an entry [`TokenState::issue`] made.
    pub(crate) fn redrawn(t: &TokenState) -> Vec<Option<(TokenDraw, SimTime)>> {
        t.0.as_deref().map_or_else(Vec::new, |tokens| {
            let redrawn = |e: &Entry| (tokens.redraw(e), e.stamp.issued());
            tokens
                .entries
                .iter()
                .map(|e| e.stamp.drawn().then(|| redrawn(e)))
                .collect()
        })
    }

    /// A key with `key`'s decoy tag that is not `key`.
    fn look_alike(key: BeaconKey) -> BeaconKey {
        BeaconKey(key.0 ^ 1 << 100)
    }

    /// A session served `n` pages holds `n` entries' slots, up to the
    /// bound, and no more after it: no spare slot, no block an entry
    /// owns.
    #[test]
    fn n_pages_hold_n_slots() {
        let mut t = TokenState::default();
        let capacity = |t: &TokenState| t.0.as_ref().map_or(0, |t| t.entries.capacity());
        let entry = std::mem::size_of::<Entry>();
        assert_eq!(entry, 48, "key, position, script nonce, stamp, decoy tags");
        for n in 1..=MAX_TOKENS_PER_SESSION + 3 {
            draw_page(&mut t, SEED, n as u64, SimTime::ZERO);
            let held = n.min(MAX_TOKENS_PER_SESSION);
            assert_eq!((t.len(), capacity(&t)), (held, held), "page {n}");
            let tokens = std::mem::size_of::<Tokens>();
            assert_eq!(t.heap_bytes(), tokens + held * entry, "page {n}");
        }
    }

    /// Draws spread over calls, each call a fresh generator moved to the
    /// kept position, are the words one generator seeded once draws in a
    /// row, 32- and 64-bit draws mixed across block boundaries.
    #[test]
    fn draws_over_calls_are_one_stream() {
        let mut t = TokenState::default();
        let mut one = ChaCha8Rng::seed_from_u64(77);
        let take = |rng: &mut ChaCha8Rng, n: u64| -> Vec<u64> {
            (0..n)
                .map(|i| match i % 3 {
                    0 => u64::from(rng.next_u32()),
                    _ => rng.next_u64(),
                })
                .collect()
        };
        for n in 0..40 {
            let drawn = t.draw(|| 77, |rng| take(rng, n % 9));
            assert_eq!(drawn, take(&mut one, n % 9), "call {n}");
        }
        assert_eq!(t.len(), 0, "drawing issues nothing");
    }

    #[test]
    fn hex_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let k = BeaconKey::random(&mut rng);
            assert_eq!(BeaconKey::from_hex(&k.to_hex()), Some(k));
            assert_eq!(k.to_hex().len(), 32);
        }
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(BeaconKey::from_hex(""), None);
        assert_eq!(BeaconKey::from_hex("xyz"), None);
        assert_eq!(BeaconKey::from_hex(&"f".repeat(31)), None);
        assert_eq!(BeaconKey::from_hex(&"g".repeat(32)), None);
        assert!(BeaconKey::from_hex(&"0".repeat(32)).is_some());
    }

    #[test]
    fn valid_then_replay() {
        let mut t = TokenState::default();
        issue(&mut t, "/p", 7, &[], SimTime::ZERO, 64);
        assert_eq!(redeem(&mut t, 7), Valid);
        assert_eq!(redeem(&mut t, 7), Replay);
    }

    #[test]
    fn key_is_per_client() {
        let (mut owner, mut thief) = (TokenState::default(), TokenState::default());
        issue(&mut owner, "/p", 7, &[], SimTime::ZERO, 64);
        issue(&mut thief, "/p", 8, &[], SimTime::ZERO, 64);
        // Another session presenting the stolen key gets Unknown, and
        // the theft does not spend it.
        assert_eq!(redeem(&mut thief, 7), Unknown);
        assert_eq!(redeem(&mut owner, 7), Valid);
    }

    /// A decoy drawn with a page reads as a decoy; a key with its tag
    /// that is not it, a key no page drew, and a decoy handed to
    /// [`TokenState::issue`] (which keeps only the key) do not.
    #[test]
    fn decoy_detection() {
        let mut t = TokenState::default();
        let page = draw_page(&mut t, SEED, 1, SimTime::ZERO);
        issue(&mut t, "/q", 1, &[2, 3], SimTime::ZERO, 64);
        assert_eq!(t.redeem(page.decoys[2], SimTime::ZERO), Decoy);
        assert_eq!(t.redeem(look_alike(page.decoys[2]), SimTime::ZERO), Unknown);
        assert_eq!(redeem(&mut t, 99), Unknown);
        assert_eq!(redeem(&mut t, 3), Unknown);
    }

    /// Sixty-four pages' worth of entries against 10 000 made-up keys:
    /// each is refused, and all of them together draw an entry again
    /// fewer than one time in eight (a key draws only where it matches
    /// one of an entry's five 12-bit decoy tags, 64 × 5 / 4 096 ≈ 0.08
    /// a key). Every decoy still reads as one, and every real key
    /// redeems, then replays, drawing nothing.
    #[test]
    fn a_forged_beacon_stays_cheap() {
        const FORGED: usize = 10_000;
        let mut t = TokenState::default();
        let pages: Vec<TokenDraw> = (0..MAX_TOKENS_PER_SESSION as u64)
            .map(|n| draw_page(&mut t, SEED, n, SimTime::ZERO))
            .collect();
        let redraws = || REDRAWS.with(std::cell::Cell::get);
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let before = redraws();
        for _ in 0..FORGED {
            let hex = format!("{:032x}", rng.gen::<u128>());
            let key = BeaconKey::from_hex(&hex).expect("32 hex digits");
            assert_eq!(t.redeem(key, SimTime::ZERO), Unknown, "{hex}");
        }
        let drawn = redraws() - before;
        assert!(drawn * 8 <= FORGED, "{drawn} redraws for {FORGED} keys");
        for page in &pages {
            for decoy in page.decoys {
                assert_eq!(t.redeem(decoy, SimTime::ZERO), Decoy);
            }
        }
        let before = redraws();
        for page in &pages {
            assert_eq!(t.redeem(page.key, SimTime::ZERO), Valid);
            assert_eq!(t.redeem(page.key, SimTime::ZERO), Replay);
        }
        assert_eq!(redraws(), before, "a real key is compared, not drawn");
    }

    #[test]
    fn multiple_entries_per_ip() {
        let mut t = TokenState::default();
        issue(&mut t, "/a", 1, &[], SimTime::ZERO, 64);
        issue(&mut t, "/b", 2, &[], SimTime::ZERO, 64);
        assert_eq!(t.len(), 2);
        assert_eq!(redeem(&mut t, 1), Valid);
        assert_eq!(redeem(&mut t, 2), Valid);
    }

    #[test]
    fn per_ip_bound_drops_oldest() {
        let mut t = TokenState::default();
        for i in 0..3 {
            issue(&mut t, &format!("/{i}"), i, &[], SimTime::ZERO, 2);
        }
        assert_eq!(t.len(), 2);
        // Key 0 was dropped.
        assert_eq!(redeem(&mut t, 0), Unknown);
        assert_eq!(redeem(&mut t, 2), Valid);
    }

    /// An entry answers through its lifetime and not a millisecond
    /// after, with no sweep in between: its key, a decoy, a replay of
    /// a redeemed key and its script all read as never issued.
    #[test]
    fn an_entry_expires_where_it_is_read() {
        const NONCE: u64 = 99;
        let issued = SimTime::from_secs(7);
        for (late, [key, decoy, replay], script) in [
            (TOKEN_LIFETIME_MS - 1, [Valid, Decoy, Replay], true),
            (TOKEN_LIFETIME_MS + 1, [Unknown; 3], false),
        ] {
            // A page drawn from the stream, and a second page whose
            // key 11 is redeemed as soon as it is issued.
            let mut t = TokenState::default();
            let page = draw_page(&mut t, SEED, NONCE, issued);
            issue(&mut t, "/b", 11, &[], issued, 64);
            assert_eq!(t.redeem(BeaconKey::from_raw(11), issued), Valid);
            let now = issued + late;
            let recipe = t.script_for(NONCE, now);
            let expected = ScriptRecipe { draw: page, issued };
            assert_eq!(recipe, script.then_some(expected), "{now}");
            let mut at = |k: BeaconKey| t.redeem(k, now);
            let outcomes = [
                at(page.key),
                at(page.decoys[0]),
                at(BeaconKey::from_raw(11)),
            ];
            assert_eq!(outcomes, [key, decoy, replay], "{now}");
            assert_eq!(
                t.len(),
                2,
                "an expired entry is read as absent, not removed"
            );
        }
    }

    /// A plain model of the table: entries in issue order, each with its
    /// decoys in a list of their own, the oldest dropped at the bound.
    #[derive(Default)]
    struct Model {
        entries: Vec<ModelEntry>,
    }

    struct ModelEntry {
        key: BeaconKey,
        decoys: Vec<BeaconKey>,
        issued: SimTime,
        redeemed: bool,
        /// A page drawn from the stream: its script's nonce and its draw.
        js: Option<(u64, TokenDraw)>,
    }

    impl Model {
        fn issue(&mut self, entry: ModelEntry, max: usize) {
            if self.entries.len() >= max.max(1) {
                self.entries.remove(0);
            }
            self.entries.push(entry);
        }

        fn redeem(&mut self, key: BeaconKey, now: SimTime) -> KeyOutcome {
            let live = |e: &ModelEntry| now.since(e.issued) <= TOKEN_LIFETIME_MS;
            let entries = &mut self.entries;
            if let Some(e) = entries.iter_mut().find(|e| e.key == key && live(e)) {
                let outcome = if e.redeemed { Replay } else { Valid };
                e.redeemed = true;
                return outcome;
            }
            if entries.iter().any(|e| e.decoys.contains(&key) && live(e)) {
                return Decoy;
            }
            Unknown
        }

        fn script_for(&self, nonce: u64, now: SimTime) -> Option<ScriptRecipe> {
            let e = self
                .entries
                .iter()
                .rev()
                .find(|e| matches!(e.js, Some((n, _)) if n == nonce))?;
            let (_, draw) = e.js?;
            (now.since(e.issued) <= TOKEN_LIFETIME_MS).then_some(ScriptRecipe {
                draw,
                issued: e.issued,
            })
        }
    }

    proptest! {
        /// Random issues (of any bound, their decoys unread), pages
        /// drawn from the session's stream, redeems, script lookups,
        /// draws of a few words between pages and clock advances that
        /// land on either side of an entry's lifetime, against the plain
        /// model. A redeemed key is a small number (which issues use
        /// too) or one a drawn page holds: its key, a decoy, or a key
        /// with a decoy's tag that is not the decoy. Script nonces come
        /// from a set of four, so a nonce often names two pages. Each
        /// step compares the outcome, the length and the recomputed
        /// recipe, and the list holds no spare slot.
        #[test]
        fn the_table_answers_as_a_list_of_what_was_issued(
            seed in any::<u64>(),
            ops in vec((0u8..7, 0u8..40, 0u8..8), 1..120),
        ) {
            const STEPS: [u64; 6] = [0, 1, 1_000, TOKEN_LIFETIME_MS - 1, TOKEN_LIFETIME_MS, TOKEN_LIFETIME_MS + 1];
            let mut pool: Vec<BeaconKey> = Vec::new();
            let pick = |pool: &[BeaconKey], n: u8| match pool.len() {
                len if n >= 12 && len > 0 => pool[usize::from(n) % len],
                _ => BeaconKey::from_raw(u128::from(n % 12)),
            };
            let mut t = TokenState::default();
            let mut model = Model::default();
            let mut now = SimTime::ZERO;
            for (op, a, b) in ops {
                match op {
                    0 | 1 => {
                        let max = usize::from(b);
                        let unread = vec![pick(&pool, b), pick(&pool, a ^ 1)];
                        t.issue("/p", pick(&pool, a), unread, None, now, max);
                        let entry = ModelEntry { key: pick(&pool, a), decoys: Vec::new(), issued: now, redeemed: false, js: None };
                        model.issue(entry, max);
                    }
                    2 => {
                        let js_nonce = u64::from(b % 4);
                        let draw = draw_page(&mut t, seed, js_nonce, now);
                        pool.push(draw.key);
                        pool.extend(draw.decoys);
                        pool.extend(draw.decoys.map(look_alike));
                        let js = Some((js_nonce, draw));
                        let entry = ModelEntry { key: draw.key, decoys: draw.decoys.to_vec(), issued: now, redeemed: false, js };
                        model.issue(entry, MAX_TOKENS_PER_SESSION);
                    }
                    3 => {
                        let key = pick(&pool, a);
                        prop_assert_eq!(t.redeem(key, now), model.redeem(key, now));
                    }
                    4 => {
                        let nonce = u64::from(b % 4);
                        prop_assert_eq!(t.script_for(nonce, now), model.script_for(nonce, now));
                    }
                    5 => now += STEPS[usize::from(b) % STEPS.len()],
                    _ => {
                        t.draw(|| seed, |rng| (0..a % 5).for_each(|_| { rng.next_u32(); }));
                    }
                }
                prop_assert_eq!(t.len(), model.entries.len());
                let capacity = t.0.as_ref().map_or(0, |t| t.entries.capacity());
                prop_assert_eq!(capacity, t.len(), "no spare slot");
            }
        }
    }
}
