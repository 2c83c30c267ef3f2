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
//! Each entry also answers for its page's `<script src>`, and that
//! script is one value in one of two states. A page serve leaves it
//! **seeded**: the [`ScriptSeed`] (16 bytes) from which the source can
//! be rebuilt, given the entry's own key and decoys. The first fetch of
//! the script URL makes it **generated**: the ~1 KB source, built once
//! by the caller of [`TokenState::script_for`] and kept in the entry,
//! shared (`Arc<str>`), so a refetch is a reference count, even one that
//! carries the source out of the session's lock to the socket. An entry that is never asked for its script —
//! every page-only scraper's — weighs ~176 bytes (96 for the entry,
//! then five 16-byte decoys) instead of ~1.25 KB; what clients can pin
//! by fetching pages alone, 64 entries in each of 100k sessions, is
//! ~1.1 GB, was ~8 GB.

use crate::engine::IssuedPageToken;
use botwall_sessions::SimTime;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

/// Outstanding entries one session's [`TokenState`] holds; a page
/// issued past it drops the oldest (the paper's table "holds multiple
/// entries per IP").
pub const MAX_TOKENS_PER_SESSION: usize = 64;

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
        let mut digits = [0u8; 32];
        for (i, digit) in digits.iter_mut().enumerate() {
            let nibble = (self.0 >> (4 * (31 - i))) as usize & 0xf;
            *digit = b"0123456789abcdef"[nibble];
        }
        out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
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
    /// Seeds the generator's stream (see
    /// [`crate::jsgen::generate_seeded`]).
    pub seed: u64,
    /// The nonce of the agent-beacon probe URL.
    pub agent_nonce: u64,
}

/// The script behind one entry's `<script src>` URL.
#[derive(Debug, Clone)]
enum Script {
    /// Not asked for yet.
    Seeded(ScriptSeed),
    /// Built on the first fetch (or supplied by the issuer) and kept.
    Generated(Arc<str>),
}

#[derive(Debug, Clone)]
struct Entry {
    key: BeaconKey,
    decoys: Vec<BeaconKey>,
    issued: SimTime,
    redeemed: bool,
    /// This page's script, under the nonce of its `<script src>` URL —
    /// stored with the session so script serving needs no global store.
    js: Option<(u64, Script)>,
}

/// The outstanding beacon keys (and their scripts, seeded or generated)
/// of one session.
///
/// This is the per-session half of the PR-4 instrumenter split: it lives
/// inside the session's tracker shard entry, so every operation on it —
/// issuing keys at page-rewrite time, redeeming them when a beacon
/// fires, generating and serving the script — happens under the shard
/// lock the request already holds. It also owns the session's
/// deterministic RNG stream (seeded by the engine's secret and the session identity), so
/// instrumentation randomness needs no shared generator.
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
pub struct TokenState {
    entries: Vec<Entry>,
    /// Boxed: most sessions are never served a page, and an unseeded
    /// RNG then costs one pointer, not the generator's whole state.
    rng: Option<Box<ChaCha8Rng>>,
}

impl TokenState {
    /// Records a key freshly issued for `_page` plus the decoys (and
    /// optionally an already generated script, under its URL nonce)
    /// served alongside it, dropping the oldest entry beyond
    /// `max_entries`. The page itself is not kept: a key redeems on
    /// its own.
    pub fn issue(
        &mut self,
        _page: impl Into<String>,
        key: BeaconKey,
        decoys: Vec<BeaconKey>,
        js: Option<(u64, String)>,
        now: SimTime,
        max_entries: usize,
    ) {
        let js = js.map(|(nonce, source)| (nonce, Script::Generated(source.into())));
        self.push(key, decoys, js, now, max_entries);
    }

    /// Records the token a page rewrite issued, dropping the oldest
    /// entry beyond [`MAX_TOKENS_PER_SESSION`]; its script stays a seed
    /// until [`TokenState::script_for`] is asked for it.
    pub fn issue_page(&mut self, token: IssuedPageToken, now: SimTime) {
        let js = Some((token.js_nonce, Script::Seeded(token.script)));
        self.push(token.key, token.decoys, js, now, MAX_TOKENS_PER_SESSION);
    }

    fn push(
        &mut self,
        key: BeaconKey,
        decoys: Vec<BeaconKey>,
        js: Option<(u64, Script)>,
        issued: SimTime,
        max_entries: usize,
    ) {
        if self.entries.len() >= max_entries.max(1) {
            self.entries.remove(0);
        }
        self.entries.push(Entry {
            key,
            decoys,
            issued,
            redeemed: false,
            js,
        });
    }

    /// Checks a presented key against this session's outstanding
    /// entries, marking it redeemed when valid.
    pub fn redeem(&mut self, key: BeaconKey, _now: SimTime) -> KeyOutcome {
        for e in self.entries.iter_mut() {
            if e.key == key {
                if e.redeemed {
                    return KeyOutcome::Replay;
                }
                e.redeemed = true;
                return KeyOutcome::Valid;
            }
        }
        if self.entries.iter().any(|e| e.decoys.contains(&key)) {
            return KeyOutcome::Decoy;
        }
        KeyOutcome::Unknown
    }

    /// The script for a JS-file probe nonce, if this session was served
    /// the page that references it. The first call for a seeded entry
    /// runs `generate` over the entry's key, decoys and seed and keeps
    /// the source; later calls share it.
    pub fn script_for(
        &mut self,
        nonce: u64,
        generate: impl FnOnce(BeaconKey, &[BeaconKey], ScriptSeed) -> String,
    ) -> Option<&Arc<str>> {
        let entry = self
            .entries
            .iter_mut()
            .rev()
            .find(|e| matches!(&e.js, Some((n, _)) if *n == nonce))?;
        let (_, script) = entry.js.as_mut().expect("matched on its nonce");
        if let Script::Seeded(seed) = *script {
            *script = Script::Generated(generate(entry.key, &entry.decoys, seed).into());
        }
        let Script::Generated(source) = script else {
            unreachable!("generated just above");
        };
        Some(source)
    }

    /// Heap bytes the outstanding entries hold — what a session's tokens
    /// cost beyond the `TokenState` value itself.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
            + self
                .entries
                .iter()
                .map(|e| {
                    let script = match &e.js {
                        Some((_, Script::Generated(source))) => source.len(),
                        _ => 0,
                    };
                    e.decoys.capacity() * 16 + script
                })
                .sum::<usize>()
    }

    /// Purges entries older than `ttl_ms`; returns how many were removed.
    pub fn sweep(&mut self, now: SimTime, ttl_ms: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| now.since(e.issued) <= ttl_ms);
        before - self.entries.len()
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The session's instrumentation RNG, seeded on first use from
    /// `stream_seed()` (derived by the engine from its secret and the
    /// session identity, so streams never collide across sessions and
    /// identical runs draw identical streams), which is not called again.
    pub fn rng_seeded(&mut self, stream_seed: impl FnOnce() -> u64) -> &mut ChaCha8Rng {
        self.rng
            .get_or_insert_with(|| Box::new(ChaCha8Rng::seed_from_u64(stream_seed())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
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

    #[test]
    fn sweep_purges_expired_entries() {
        let mut t = TokenState::default();
        issue(&mut t, "/a", 1, &[], SimTime::ZERO, 64);
        issue(&mut t, "/b", 2, &[], SimTime::from_secs(5), 64);
        assert_eq!(t.sweep(SimTime::from_secs(5) + 500, 1000), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(
            redeem(&mut t, 1),
            KeyOutcome::Unknown,
            "the older entry went"
        );
        assert_eq!(t.sweep(SimTime::from_secs(10), 1000), 1);
        assert!(t.is_empty());
    }
}
