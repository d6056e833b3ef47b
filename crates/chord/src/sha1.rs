//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The paper hashes peer addresses into the identifier space with SHA-1
//! [FIPS180-1]. SHA-1 is of course no longer collision-resistant for
//! adversarial inputs; here it is used exactly as Chord uses it — as a
//! well-distributed deterministic map from peer addresses to ring
//! positions — for which it remains perfectly serviceable.

/// Initial hash value per FIPS 180-1.
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Longest message whose padding fits in the same 64-byte block: the
/// 0x80 marker and the 8-byte length need 9 bytes.
const ONE_BLOCK_MAX: usize = 55;

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// Initial state per FIPS 180-1.
    pub fn new() -> Sha1 {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feed message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self
            .len
            .checked_add(data.len() as u64)
            .expect("SHA-1 message too long");
        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                process_block(&mut self.state, &block);
                self.buf_len = 0;
            } else {
                // Buffer still partial ⇒ the input is exhausted; falling
                // through would clobber buf_len with the (empty) remainder.
                debug_assert!(data.is_empty());
                return;
            }
        }
        // Whole blocks straight from the input.
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            process_block(&mut self.state, block.try_into().unwrap());
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.checked_mul(8).expect("SHA-1 message too long");
        finish(&mut self.state, &self.buf[..self.buf_len], bit_len)
    }
}

/// Pad the message's last partial block `tail` (< 64 bytes) with 0x80,
/// zeros and the 64-bit big-endian bit length, compress it — spilling into
/// a second block when the length no longer fits — and return the digest.
fn finish(state: &mut [u32; 5], tail: &[u8], bit_len: u64) -> [u8; 20] {
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    if tail.len() > ONE_BLOCK_MAX {
        process_block(state, &block);
        block = [0u8; 64];
    }
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    process_block(state, &block);
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One SHA-1 round: `e`'s slot takes the new word, the others rotate.
#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, wt: u32) {
    let [a, b, c, d, e] = *s;
    let temp = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(wt);
    *s = [temp, a, b.rotate_left(30), c, d];
}

/// Compress one 64-byte block into `state`: the 80 rounds as four
/// 20-round phases, each with its own round function and constant.
fn process_block(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for t in 16..80 {
        w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
    }
    let mut s = *state;
    for &wt in &w[0..20] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (!b & d), 0x5A82_7999, wt);
    }
    for &wt in &w[20..40] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0x6ED9_EBA1, wt);
    }
    for &wt in &w[40..60] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (b & d) | (c & d), 0x8F1B_BCDC, wt);
    }
    for &wt in &w[60..80] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0xCA62_C1D6, wt);
    }
    for (h, v) in state.iter_mut().zip(s) {
        *h = h.wrapping_add(v);
    }
}

/// One-shot SHA-1 of a byte slice, compressing straight from the input.
/// Messages of at most 55 bytes — every placement key and peer address —
/// pad into a single block on the stack and cost one compression.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut state = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        process_block(&mut state, block.try_into().unwrap());
    }
    // A slice holds at most isize::MAX bytes, so the bit length fits.
    finish(&mut state, blocks.remainder(), data.len() as u64 * 8)
}

/// Truncate a SHA-1 digest to a 32-bit identifier (big-endian first word),
/// as the paper's 32-bit identifier space requires.
pub fn sha1_u32(data: &[u8]) -> u32 {
    let d = sha1(data);
    u32::from_be_bytes([d[0], d[1], d[2], d[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha1(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 200] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn oneshot_equals_streaming_at_every_length() {
        // Crosses the 55/56-byte (padding spills) and 64-byte boundaries.
        let data: Vec<u8> = (0..=120u8).map(|i| i.wrapping_mul(37) ^ 0x5c).collect();
        for len in 0..=120 {
            let mut h = Sha1::new();
            for c in data[..len].chunks(7) {
                h.update(c);
            }
            assert_eq!(sha1(&data[..len]), h.finalize(), "length {len}");
        }
    }

    #[test]
    fn exact_block_boundary_message() {
        // 64-byte message exercises the "padding adds a whole new block" path.
        let data = [0x41u8; 64];
        let d1 = sha1(&data);
        let mut h = Sha1::new();
        h.update(&data[..32]);
        h.update(&data[32..]);
        assert_eq!(h.finalize(), d1);
        // 55 and 56 bytes straddle the length-fits/doesn't-fit boundary.
        let _ = sha1(&[0u8; 55]);
        let _ = sha1(&[0u8; 56]);
    }

    #[test]
    fn sha1_u32_is_first_word() {
        let d = sha1(b"abc");
        assert_eq!(
            sha1_u32(b"abc"),
            u32::from_be_bytes([d[0], d[1], d[2], d[3]])
        );
        assert_eq!(sha1_u32(b"abc"), 0xa9993e36);
    }

    #[test]
    fn distinct_inputs_distinct_ids() {
        use std::collections::HashSet;
        let ids: HashSet<u32> = (0..10_000)
            .map(|i| sha1_u32(format!("peer-{i}").as_bytes()))
            .collect();
        // Collisions in a 32-bit space over 10k draws: expected ~0.01;
        // allow a couple.
        assert!(ids.len() >= 9_998, "too many collisions: {}", ids.len());
    }
}
