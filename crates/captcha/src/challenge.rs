//! Abstract distorted-text challenges.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A single challenge: a distorted rendering of a secret answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Challenge {
    /// Unique id for correlating answers.
    pub id: u64,
    /// The "distorted image", abstracted as an obfuscated string. Humans
    /// read through the noise; naive OCR trips over it. Solvability is
    /// modelled by [`crate::oracle::SolverProfile`], not by parsing this.
    pub distorted: String,
    /// Difficulty in `[0, 1]`; raises the bar for OCR-capable robots.
    pub difficulty: f64,
    // Never serialized: a challenge travels to the client (e.g. inside a
    // gateway `Decision::Challenge`), and shipping the expected answer
    // alongside the puzzle would let any bot solve every challenge.
    answer: String,
}

impl Challenge {
    /// Checks an answer (case-insensitive, as captchas.net did).
    pub fn check(&self, answer: &str) -> bool {
        answer.trim().eq_ignore_ascii_case(&self.answer)
    }

    /// The answer — exposed for the solver oracle (which *models* reading
    /// the image) and for tests. Real deployments keep this server-side;
    /// so does the simulation: agents never see it, only the oracle does.
    pub fn answer(&self) -> &str {
        &self.answer
    }

    /// Derives the challenge with identity `id` under `seed`, at the
    /// given difficulty — a pure function, so any holder of the seed can
    /// *re-derive* (and thereby verify) a challenge from its id alone,
    /// with no issue table anywhere. The per-challenge RNG stream is
    /// keyed by both seed and id, so ids never share content.
    pub fn derive(seed: u64, id: u64, difficulty: f64) -> Challenge {
        const ALPHABET: &[u8] = b"abcdefghjkmnpqrstuvwxyz23456789";
        let difficulty = difficulty.clamp(0.0, 1.0);
        // splitmix64-style stream separation: adjacent ids must not
        // produce correlated ChaCha streams.
        let mut stream = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        stream ^= stream >> 30;
        stream = stream.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        stream ^= stream >> 27;
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        let len = rng.gen_range(5..=7);
        let answer: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect();
        // "Distortion": interleave noise characters proportional to
        // difficulty.
        let mut distorted = String::new();
        for c in answer.chars() {
            distorted.push(c);
            if rng.gen_bool(difficulty) {
                distorted.push(match rng.gen_range(0..3) {
                    0 => '~',
                    1 => '/',
                    _ => '\\',
                });
            }
        }
        Challenge {
            id,
            distorted,
            difficulty,
            answer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaptchaService, ServingPolicy};

    fn service(seed: u64) -> CaptchaService {
        CaptchaService::new(ServingPolicy::OptionalWithIncentive, seed)
    }

    #[test]
    fn answers_verify_case_insensitively() {
        let ch = Challenge::derive(1, 1, 0.5);
        assert!(ch.check(ch.answer()));
        assert!(ch.check(&ch.answer().to_uppercase()));
        assert!(ch.check(&format!("  {}  ", ch.answer())));
        assert!(!ch.check("wrong"));
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let s = service(2);
        let a = s.issue();
        let b = s.issue();
        assert!(b.id > a.id);
    }

    #[test]
    fn generation_is_deterministic() {
        let (s1, s2) = (service(3), service(3));
        for _ in 0..10 {
            assert_eq!(s1.issue(), s2.issue());
        }
    }

    #[test]
    fn derive_reconstructs_an_issued_challenge_from_its_id() {
        // The stateless-verification property: seed + id fully determine
        // the challenge, so a verifier needs no record of issuance.
        let s = service(9);
        for _ in 0..10 {
            let ch = s.issue();
            let again = Challenge::derive(9, ch.id, ch.difficulty);
            assert_eq!(ch, again);
            assert!(again.check(ch.answer()));
        }
        // Different seeds or ids derive different answers (w.h.p.).
        let a = Challenge::derive(1, 5, 0.5);
        assert_ne!(a.answer(), Challenge::derive(2, 5, 0.5).answer());
        assert_ne!(a.answer(), Challenge::derive(1, 6, 0.5).answer());
    }

    #[test]
    fn difficulty_adds_noise() {
        let ch = Challenge::derive(4, 1, 1.0);
        assert!(ch.distorted.len() >= ch.answer().len() * 2 - 1);
        let ch = Challenge::derive(4, 2, 0.0);
        assert_eq!(ch.distorted, ch.answer());
    }

    #[test]
    fn difficulty_is_clamped() {
        assert_eq!(Challenge::derive(5, 1, 7.5).difficulty, 1.0);
        assert_eq!(Challenge::derive(5, 2, -1.0).difficulty, 0.0);
    }
}
