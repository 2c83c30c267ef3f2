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
//! Each entry also answers for its page's `<script src>`, and keeps only
//! what that script is generated from: the entry's own key and decoys,
//! and a [`ScriptSeed`] (16 bytes). The source is never kept. Every
//! fetch of the script URL writes it again from the
//! [`ScriptRecipe`] [`TokenState::script_for`] lends, straight into the
//! response, under the session's lock. So an entry weighs what it did
//! the moment its page was served, fetched or not: 96 bytes and its
//! decoys, ~176 bytes with the default five. What one session can pin,
//! 64 entries, is ~11 KB; across 100k sessions ~1.1 GB, however many
//! scripts those sessions fetch (~13 GB when a fetched script's ~1.85 KB
//! source stayed in its entry).

use crate::engine::IssuedPageToken;
use crate::jsgen::{hex, Push};
use botwall_sessions::SimTime;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Outstanding entries one session's [`TokenState`] holds; a page
/// issued past it drops the oldest (the paper's table "holds multiple
/// entries per IP").
pub const MAX_TOKENS_PER_SESSION: usize = 64;

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

/// What a page's script is generated from, besides the key and decoys
/// its token entry already holds: the stream seed `jsgen` runs over and
/// the nonce of the agent-beacon URL the script reports to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptSeed {
    /// Seeds the generator's stream (see [`crate::jsgen::handler_name`]):
    /// a fetch writes the same script from it every time.
    pub seed: u64,
    /// The nonce of the agent-beacon probe URL.
    pub agent_nonce: u64,
}

/// What one entry's script is written from: its key and decoys, and
/// its [`ScriptSeed`] — lent by [`TokenState::script_for`], spelled out
/// by [`crate::RewriteEngine::object_in_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptRecipe<'a> {
    /// The real beacon key the handler fetches.
    pub key: BeaconKey,
    /// The decoy keys, in the order the page issued them.
    pub decoys: &'a [BeaconKey],
    /// The generator's seed and the agent beacon's nonce.
    pub seed: ScriptSeed,
}

#[derive(Debug, Clone)]
struct Entry {
    key: BeaconKey,
    decoys: Vec<BeaconKey>,
    issued: SimTime,
    redeemed: bool,
    /// What this page's script is generated from, under the nonce of
    /// its `<script src>` URL — stored with the session so script
    /// serving needs no global store.
    js: Option<(u64, ScriptSeed)>,
}

impl Entry {
    /// Whether the entry still answers as of `now`.
    fn live(&self, now: SimTime) -> bool {
        now.since(self.issued) <= TOKEN_LIFETIME_MS
    }
}

/// The outstanding beacon keys (and the seeds of their scripts) of one
/// session.
///
/// This is the per-session half of the PR-4 instrumenter split: it lives
/// inside the session's tracker shard entry, so every operation on it —
/// issuing keys at page-rewrite time, redeeming them when a beacon
/// fires, writing a fetched script from its seed — happens under the shard
/// lock the request already holds. It also keeps the session's place in
/// its deterministic RNG stream (seeded by the engine's secret and the
/// session identity), so instrumentation randomness needs no shared
/// generator: the words drawn so far, not the generator.
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
    entries: Vec<Entry>,
    /// Words drawn from the session's RNG stream.
    drawn: u64,
}

impl TokenState {
    /// Records a key freshly issued for `_page` plus the decoys served
    /// alongside it, dropping the oldest entry beyond `max_entries`.
    /// Neither the page nor a script source `_js` is kept: a key redeems
    /// on its own, and an entry issued here answers for no script.
    pub fn issue(
        &mut self,
        _page: impl Into<String>,
        key: BeaconKey,
        decoys: Vec<BeaconKey>,
        _js: Option<(u64, String)>,
        now: SimTime,
        max_entries: usize,
    ) {
        self.push(key, decoys, None, now, max_entries);
    }

    /// Records the token a page rewrite issued, dropping the oldest
    /// entry beyond [`MAX_TOKENS_PER_SESSION`]; its script is the seed
    /// [`TokenState::script_for`] lends to every fetch.
    pub fn issue_page(&mut self, token: IssuedPageToken, now: SimTime) {
        let js = Some((token.js_nonce, token.script));
        self.push(token.key, token.decoys, js, now, MAX_TOKENS_PER_SESSION);
    }

    fn push(
        &mut self,
        key: BeaconKey,
        decoys: Vec<BeaconKey>,
        js: Option<(u64, ScriptSeed)>,
        issued: SimTime,
        max_entries: usize,
    ) {
        let entries = &mut self.0.get_or_insert_with(Box::default).entries;
        if entries.len() >= max_entries.max(1) {
            entries.remove(0);
        }
        // Most sessions are served one page: its list holds one entry
        // until a second arrives, and grows as `Vec` does from there.
        if entries.capacity() == 0 {
            entries.reserve_exact(1);
        }
        entries.push(Entry {
            key,
            decoys,
            issued,
            redeemed: false,
            js,
        });
    }

    /// Checks a presented key against this session's entries still
    /// inside [`TOKEN_LIFETIME_MS`] as of `now`, marking it redeemed
    /// when valid.
    pub fn redeem(&mut self, key: BeaconKey, now: SimTime) -> KeyOutcome {
        let Some(tokens) = self.0.as_deref_mut() else {
            return KeyOutcome::Unknown;
        };
        let entries = &mut tokens.entries;
        if let Some(e) = entries.iter_mut().find(|e| e.key == key && e.live(now)) {
            if e.redeemed {
                return KeyOutcome::Replay;
            }
            e.redeemed = true;
            return KeyOutcome::Valid;
        }
        if entries
            .iter()
            .any(|e| e.decoys.contains(&key) && e.live(now))
        {
            return KeyOutcome::Decoy;
        }
        KeyOutcome::Unknown
    }

    /// What the script behind a JS-file probe nonce is written from, if
    /// this session was served the page that references it no longer
    /// ago than [`TOKEN_LIFETIME_MS`] before `now`.
    pub fn script_for(&self, nonce: u64, now: SimTime) -> Option<ScriptRecipe<'_>> {
        let entry = self
            .0
            .as_deref()?
            .entries
            .iter()
            .rev()
            .find(|e| matches!(e.js, Some((n, _)) if n == nonce))
            .filter(|e| e.live(now))?;
        let (_, seed) = entry.js?;
        Some(ScriptRecipe {
            key: entry.key,
            decoys: &entry.decoys,
            seed,
        })
    }

    /// Heap bytes the outstanding entries hold — what a session's tokens
    /// cost beyond the `TokenState` value itself.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let Some(tokens) = self.0.as_deref() else {
            return 0;
        };
        std::mem::size_of::<Tokens>()
            + tokens.entries.capacity() * std::mem::size_of::<Entry>()
            + tokens
                .entries
                .iter()
                .map(|e| e.decoys.capacity() * std::mem::size_of::<BeaconKey>())
                .sum::<usize>()
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
    /// earlier draws took. Only the new position is kept, so every call
    /// reseeds, and a session's draws are the one stream's words in
    /// order, as if one generator had made them all.
    pub fn draw<T>(
        &mut self,
        stream_seed: impl FnOnce() -> u64,
        f: impl FnOnce(&mut ChaCha8Rng) -> T,
    ) -> T {
        let tokens = self.0.get_or_insert_with(Box::default);
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed());
        rng.set_word_pos(u128::from(tokens.drawn));
        let out = f(&mut rng);
        tokens.drawn = u64::try_from(rng.get_word_pos()).expect("under 2^64 words drawn");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Issues `<page, key>` with `decoys` at `at`, under a bound of
    /// `max` entries.
    fn issue(t: &mut TokenState, page: &str, key: u128, decoys: &[u128], at: SimTime, max: usize) {
        let decoys = decoys.iter().map(|&d| BeaconKey::from_raw(d)).collect();
        t.issue(page, BeaconKey::from_raw(key), decoys, None, at, max);
    }

    fn redeem(t: &mut TokenState, key: u128) -> KeyOutcome {
        t.redeem(BeaconKey::from_raw(key), SimTime::ZERO)
    }

    /// A session served one page holds one entry's slot; a second page
    /// grows the list as `Vec` does, to four.
    #[test]
    fn the_first_entry_takes_one_slot() {
        let mut t = TokenState::default();
        let capacity = |t: &TokenState| t.0.as_ref().map_or(0, |t| t.entries.capacity());
        issue(&mut t, "/a", 1, &[], SimTime::ZERO, 64);
        assert_eq!(capacity(&t), 1);
        issue(&mut t, "/b", 2, &[], SimTime::ZERO, 64);
        assert_eq!(capacity(&t), 4);
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
        assert_eq!(redeem(&mut t, 7), KeyOutcome::Valid);
        assert_eq!(redeem(&mut t, 7), KeyOutcome::Replay);
    }

    #[test]
    fn key_is_per_client() {
        let (mut owner, mut thief) = (TokenState::default(), TokenState::default());
        issue(&mut owner, "/p", 7, &[], SimTime::ZERO, 64);
        issue(&mut thief, "/p", 8, &[], SimTime::ZERO, 64);
        // Another session presenting the stolen key gets Unknown, and
        // the theft does not spend it.
        assert_eq!(redeem(&mut thief, 7), KeyOutcome::Unknown);
        assert_eq!(redeem(&mut owner, 7), KeyOutcome::Valid);
    }

    #[test]
    fn decoy_detection() {
        let mut t = TokenState::default();
        issue(&mut t, "/p", 1, &[2, 3], SimTime::ZERO, 64);
        assert_eq!(redeem(&mut t, 3), KeyOutcome::Decoy);
        assert_eq!(redeem(&mut t, 99), KeyOutcome::Unknown);
    }

    #[test]
    fn multiple_entries_per_ip() {
        let mut t = TokenState::default();
        issue(&mut t, "/a", 1, &[], SimTime::ZERO, 64);
        issue(&mut t, "/b", 2, &[], SimTime::ZERO, 64);
        assert_eq!(t.len(), 2);
        assert_eq!(redeem(&mut t, 1), KeyOutcome::Valid);
        assert_eq!(redeem(&mut t, 2), KeyOutcome::Valid);
    }

    #[test]
    fn per_ip_bound_drops_oldest() {
        let mut t = TokenState::default();
        for i in 0..3 {
            issue(&mut t, &format!("/{i}"), i, &[], SimTime::ZERO, 2);
        }
        assert_eq!(t.len(), 2);
        // Key 0 was dropped.
        assert_eq!(redeem(&mut t, 0), KeyOutcome::Unknown);
        assert_eq!(redeem(&mut t, 2), KeyOutcome::Valid);
    }

    /// An entry answers through its lifetime and not a millisecond
    /// after, with no sweep in between: its key, a decoy, a replay of
    /// a redeemed key and its script all read as never issued.
    #[test]
    fn an_entry_expires_where_it_is_read() {
        use KeyOutcome::{Decoy, Replay, Unknown, Valid};
        const NONCE: u64 = 99;
        let issued = SimTime::from_secs(7);
        let seed = ScriptSeed {
            seed: 5,
            agent_nonce: 6,
        };
        for (late, [key, decoy, replay], script) in [
            (TOKEN_LIFETIME_MS - 1, [Valid, Decoy, Replay], Some(seed)),
            (TOKEN_LIFETIME_MS + 1, [Unknown; 3], None),
        ] {
            // A page (key 1, decoy 2, its script), and a second page
            // whose key 11 is redeemed as soon as it is issued.
            let mut t = TokenState::default();
            let token = IssuedPageToken {
                key: BeaconKey::from_raw(1),
                decoys: vec![BeaconKey::from_raw(2)],
                js_nonce: NONCE,
                script: seed,
            };
            t.issue_page(token, issued);
            issue(&mut t, "/b", 11, &[], issued, 64);
            assert_eq!(t.redeem(BeaconKey::from_raw(11), issued), Valid);
            let now = issued + late;
            let recipe = t.script_for(NONCE, now).map(|r| (r.key, r.seed));
            assert_eq!(recipe, script.map(|s| (BeaconKey::from_raw(1), s)), "{now}");
            let mut at = |k: u128| t.redeem(BeaconKey::from_raw(k), now);
            assert_eq!([at(1), at(2), at(11)], [key, decoy, replay], "{now}");
            assert_eq!(
                t.len(),
                2,
                "an expired entry is read as absent, not removed"
            );
        }
    }
}
