//! Offline shim for `rand_chacha`.
//!
//! A real ChaCha stream cipher core (8 double-rounds) driving an RNG with
//! the `rand_core` shim traits. Deterministic per seed, stable across
//! platforms. Not bit-compatible with the upstream crate's output stream
//! (upstream seeds the block counter differently), which is fine: the
//! workspace only relies on self-consistency.

#![forbid(unsafe_code)]

pub use rand_core;

use rand_core::{RngCore, SeedableRng};

const CHACHA_BLOCK_WORDS: usize = 16;

/// A ChaCha RNG with 8 rounds, seeded with 32 bytes.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Cipher input state: constants, 8 key words, 2 counter words, 2 nonce words.
    state: [u32; CHACHA_BLOCK_WORDS],
    /// Current output block.
    buf: [u32; CHACHA_BLOCK_WORDS],
    /// Next unread word index in `buf`; 16 means exhausted.
    idx: usize,
}

impl ChaCha8Rng {
    const ROUNDS: usize = 8;

    fn refill(&mut self) {
        let mut x = self.state;
        for _ in 0..(Self::ROUNDS / 2) {
            // Column round.
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for (o, s) in x.iter_mut().zip(self.state.iter()) {
            *o = o.wrapping_add(*s);
        }
        self.buf = x;
        self.idx = 0;
        // 64-bit block counter in words 12..14.
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
    }

    fn next_word(&mut self) -> u32 {
        if self.idx >= CHACHA_BLOCK_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// Words consumed since seeding; [`ChaCha8Rng::set_word_pos`] moves
    /// a generator back to it.
    pub fn get_word_pos(&self) -> u128 {
        // The counter is incremented when a block is *generated*; subtract
        // the words of the current block not yet handed out (a fresh RNG
        // has counter 0 and idx == CHACHA_BLOCK_WORDS → position 0).
        let blocks = ((self.state[13] as u128) << 32) | self.state[12] as u128;
        (blocks * CHACHA_BLOCK_WORDS as u128 + self.idx as u128)
            .saturating_sub(CHACHA_BLOCK_WORDS as u128)
    }

    /// Moves to `pos` words from the start of the stream, the inverse of
    /// [`ChaCha8Rng::get_word_pos`]: the next word is the one a freshly
    /// seeded generator draws after `pos` words. Seeking into the middle
    /// of a block generates that block.
    pub fn set_word_pos(&mut self, pos: u128) {
        let block = pos / CHACHA_BLOCK_WORDS as u128;
        self.state[12] = block as u32;
        self.state[13] = (block >> 32) as u32;
        self.idx = CHACHA_BLOCK_WORDS;
        let within = (pos % CHACHA_BLOCK_WORDS as u128) as usize;
        if within != 0 {
            self.refill();
            self.idx = within;
        }
    }
}

#[inline(always)]
fn quarter(x: &mut [u32; CHACHA_BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u32; CHACHA_BLOCK_WORDS];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes([
                seed[4 * i],
                seed[4 * i + 1],
                seed[4 * i + 2],
                seed[4 * i + 3],
            ]);
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            state,
            buf: [0; CHACHA_BLOCK_WORDS],
            idx: CHACHA_BLOCK_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    // Inlined across crates: most draws are two loads from the
    // current block.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Both words out of the current block when it holds them.
        if let Some(&[lo, hi]) = self.buf.get(self.idx..self.idx + 2) {
            self.idx += 2;
            return (u64::from(hi) << 32) | u64::from(lo);
        }
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let b = self.next_word().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&b[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fill_bytes_matches_words() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut bytes = [0u8; 8];
        a.fill_bytes(&mut bytes);
        let w0 = b.next_u32().to_le_bytes();
        let w1 = b.next_u32().to_le_bytes();
        assert_eq!(&bytes[..4], &w0);
        assert_eq!(&bytes[4..], &w1);
    }

    /// A 64-bit draw is the next two words, low first, wherever the
    /// block boundary falls.
    #[test]
    fn a_64_bit_draw_is_two_words_across_blocks() {
        let (mut a, mut b) = (ChaCha8Rng::seed_from_u64(9), ChaCha8Rng::seed_from_u64(9));
        a.next_u32();
        b.next_u32();
        for _ in 0..100 {
            let lo = b.next_u32() as u64;
            let hi = b.next_u32() as u64;
            assert_eq!(a.next_u64(), (hi << 32) | lo);
        }
    }

    #[test]
    fn word_pos_counts_consumed_words() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(a.get_word_pos(), 0);
        a.next_u32();
        assert_eq!(a.get_word_pos(), 1);
        a.next_u64();
        assert_eq!(a.get_word_pos(), 3);
        for _ in 0..16 {
            a.next_u32();
        }
        assert_eq!(a.get_word_pos(), 19);
    }

    /// A generator moved to any position draws what one that drew its
    /// way there draws next, and reports that position.
    #[test]
    fn set_word_pos_is_the_inverse_of_get_word_pos() {
        let mut walked = ChaCha8Rng::seed_from_u64(8);
        for pos in 0..70u128 {
            assert_eq!(walked.get_word_pos(), pos);
            let mut moved = ChaCha8Rng::seed_from_u64(8);
            moved.next_u64();
            moved.set_word_pos(pos);
            assert_eq!(moved.get_word_pos(), pos);
            let mut ahead = walked.clone();
            assert_eq!(moved.next_u64(), ahead.next_u64(), "at {pos}");
            walked.next_u32();
        }
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(3);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.get_word_pos(), b.get_word_pos());
    }
}
