//! FIPS 180-4 SHA-256, implemented from the specification.
//!
//! Used for the HMAC authenticated channels the paper's system model
//! assumes, for the hash-based common-coin simulation in the baselines, and
//! for DORA attestations. Validated against the NIST short/long message
//! test vectors in this module's tests.

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use delphi_crypto::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block awaiting compression.
    block: [u8; 64],
    block_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, block: [0; 64], block_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partial block first.
        if self.block_len > 0 {
            let free = self.block.get_mut(self.block_len..).unwrap_or_default();
            let (head, rest) = input.split_at(input.len().min(free.len()));
            if let Some(dst) = free.get_mut(..head.len()) {
                dst.copy_from_slice(head);
            }
            self.block_len += head.len();
            input = rest;
            if self.block_len == 64 {
                let block = self.block;
                self.compress(&block);
                self.block_len = 0;
            }
        }
        // Whole blocks straight from the input.
        let mut blocks = input.chunks_exact(64);
        for block in blocks.by_ref() {
            if let Ok(block) = block.try_into() {
                self.compress(block);
            }
        }
        // Stash the tail (empty unless the partial block above was filled).
        let tail = blocks.remainder();
        if let Some(dst) = self.block.get_mut(..tail.len()).filter(|_| !tail.is_empty()) {
            dst.copy_from_slice(tail);
            self.block_len = tail.len();
        }
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length — written
        // straight into the block buffer (a byte-at-a-time update() loop
        // here is measurable on the HMAC/key-derivation hot paths).
        let mut block = self.block;
        for (i, byte) in block.iter_mut().enumerate().skip(self.block_len) {
            *byte = if i == self.block_len { 0x80 } else { 0 };
        }
        if self.block_len >= 56 {
            // No room for the length: the padding spills into an extra
            // all-zero block.
            self.compress(&block);
            block = [0; 64];
        }
        if let Some((_, len)) = block.split_last_chunk_mut::<8>() {
            *len = bit_len.to_be_bytes();
        }
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().unwrap_or_default());
        }
        // The schedule: every lookup is a constant offset behind `i` in a
        // fixed array, so the optimiser drops the checks `get` spells out.
        for i in 16..64 {
            let at = |back: usize| w.get(i - back).copied().unwrap_or_default();
            let (w15, w2) = (at(15), at(2));
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            let next = at(16).wrapping_add(s0).wrapping_add(at(7)).wrapping_add(s1);
            if let Some(slot) = w.get_mut(i) {
                *slot = next;
            }
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for (k, wi) in K.iter().zip(&w) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(*k).wrapping_add(*wi);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// use delphi_crypto::sha256;
/// // NIST vector: SHA-256("") starts with e3b0c442.
/// assert_eq!(sha256(b"")[..4], [0xe3, 0xb0, 0xc4, 0x42]);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_448_bit_boundary_padding() {
        // 56 bytes: padding spills into a second block.
        let msg = [b'a'; 56];
        let mut h = Sha256::new();
        h.update(&msg);
        let one_shot = sha256(&msg);
        assert_eq!(h.finalize(), one_shot);
        assert_eq!(
            hex(&one_shot),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot_at_all_split_points() {
        let msg: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&msg);
        for split in 0..=msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn multi_chunk_updates_cross_block_boundaries() {
        let msg = vec![0xabu8; 300];
        let expect = sha256(&msg);
        let mut h = Sha256::new();
        for chunk in msg.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), expect);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"delphi"), sha256(b"delphj"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"abc");
        let h2 = h.clone();
        assert_eq!(h.finalize(), h2.finalize());
    }
}
