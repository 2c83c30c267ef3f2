//! Beacon URL codec.
//!
//! Beacon URLs must be indistinguishable from ordinary site content — the
//! paper's fake object is `http://www.example.com/0729395160.jpg`, a plain
//! image URL whose *name* is the key. This module encodes keys into such
//! URLs and decodes candidate keys back out, and computes the decoy-scheme
//! catch probability.

use crate::token::BeaconKey;
use botwall_http::Uri;

/// File extension used for mouse-event beacon objects.
pub const BEACON_EXT: &str = "jpg";

/// Encodes a beacon key as a plain image URL on `host`.
///
/// # Examples
///
/// ```
/// use botwall_instrument::beacon;
/// use botwall_instrument::token::BeaconKey;
///
/// let url = beacon::encode("www.example.com", BeaconKey::from_raw(0xabc));
/// assert_eq!(
///     url.to_string(),
///     "http://www.example.com/00000000000000000000000000000abc.jpg"
/// );
/// assert_eq!(beacon::decode(&url), Some(BeaconKey::from_raw(0xabc)));
/// ```
pub fn encode(host: &str, key: BeaconKey) -> Uri {
    Uri::absolute(host, path(key))
}

/// The path of `key`'s beacon URL: `/<32 hex digits>.jpg`.
pub fn path(key: BeaconKey) -> String {
    let mut path = String::with_capacity(34 + BEACON_EXT.len());
    path.push('/');
    key.push_hex(&mut path);
    path.push('.');
    path.push_str(BEACON_EXT);
    path
}

/// Extracts a candidate beacon key from a URL, if its shape matches.
///
/// Only the *shape* is checked here (32 hex digits + the beacon
/// extension); whether the key is genuine is the token table's call.
pub fn decode(uri: &Uri) -> Option<BeaconKey> {
    decode_name(uri.file_name())
}

/// [`decode`] over the file name alone.
pub(crate) fn decode_name(name: &str) -> Option<BeaconKey> {
    let stem = name.strip_suffix(BEACON_EXT)?.strip_suffix('.')?;
    BeaconKey::from_hex(stem)
}

/// Probability that a robot which blindly fetches one uniformly chosen
/// beacon candidate out of the real URL plus `m` decoys is caught (fetches
/// a decoy): `m / (m + 1)` (§2.1).
pub fn blind_catch_probability(m: usize) -> f64 {
    m as f64 / (m as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let k = BeaconKey::random(&mut rng);
            let url = encode("h.example.com", k);
            assert_eq!(decode(&url), Some(k));
        }
    }

    #[test]
    fn decode_rejects_non_beacons() {
        for s in [
            "http://h/index.html",
            "http://h/picture.jpg",
            "http://h/0123.jpg",
            &format!("http://h/{}.gif", "0".repeat(32)),
        ] {
            let u: Uri = s.parse().unwrap();
            assert_eq!(decode(&u), None, "{s}");
        }
    }

    #[test]
    fn beacon_url_looks_like_ordinary_image() {
        let url = encode("h", BeaconKey::from_raw(1));
        assert_eq!(url.extension().as_deref(), Some("jpg"));
        assert!(url.query().is_none(), "no query string to stand out");
    }

    #[test]
    fn catch_probability_formula() {
        assert_eq!(blind_catch_probability(0), 0.0);
        assert!((blind_catch_probability(1) - 0.5).abs() < 1e-12);
        assert!((blind_catch_probability(4) - 0.8).abs() < 1e-12);
        assert!((blind_catch_probability(9) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_formula() {
        // Simulate a blind robot picking uniformly among m+1 candidates.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let m = 5usize;
        let trials = 20_000;
        let mut caught = 0;
        for _ in 0..trials {
            let pick = rng.gen_range(0..=m);
            if pick != 0 {
                caught += 1;
            }
        }
        let rate = caught as f64 / trials as f64;
        assert!(
            (rate - blind_catch_probability(m)).abs() < 0.02,
            "empirical {rate} vs formula {}",
            blind_catch_probability(m)
        );
    }
}
