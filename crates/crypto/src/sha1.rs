//! SHA-1 (FIPS 180-4).
//!
//! SHA-1 is the hash underlying the paper's HMAC measurements (Table 1) and
//! the attestation MAC computed over the prover's writable memory. The
//! implementation is a straightforward streaming Merkle–Damgård construction
//! over the 512-bit (64-byte) compression function — the same 64-byte block
//! granularity the paper uses when it computes
//! `(512 KB / 64 B) · t_block + t_fix` for a whole-memory MAC.
//!
//! # Kernels
//!
//! [`Sha1::update`] hands every whole block of its input, in place, to one
//! compression entry point. On x86-64 CPUs that report the SHA extensions
//! it runs a `sha1rnds4`/`sha1msg1`/`sha1msg2`/`sha1nexte` kernel
//! (the `x86` submodule, the crate's only `unsafe` code); everywhere else
//! it runs the portable FIPS 180-4 loop, which also serves as the
//! reference the tests compare the accelerated kernel against. The CPU
//! alone picks the kernel — digests, block counts and therefore the
//! device cycle model are identical either way.
//!
//! # Example
//!
//! ```
//! use proverguard_crypto::sha1::Sha1;
//!
//! let digest = Sha1::digest(b"abc");
//! assert_eq!(
//!     proverguard_crypto::sha1::to_hex(&digest),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d"
//! );
//! ```

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Digest size in bytes.
pub const DIGEST_SIZE: usize = 20;

/// Compression-function block size in bytes.
pub const BLOCK_SIZE: usize = 64;

const H0: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// Streaming SHA-1 hasher.
///
/// # Example
///
/// ```
/// use proverguard_crypto::sha1::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha1::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; BLOCK_SIZE],
    buffered: usize,
    total_len: u64,
    /// Number of 64-byte compression-function invocations so far. Exposed so
    /// the MCU cycle model can charge a per-block cost exactly as the paper's
    /// Table 1 does.
    blocks_processed: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            buffer: [0; BLOCK_SIZE],
            buffered: 0,
            total_len: 0,
            blocks_processed: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let _span = proverguard_telemetry::trace::span("crypto.sha1");
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Pads, compresses the final block(s) and returns the digest.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        self.finish(compress_blocks)
    }

    /// Number of 64-byte blocks compressed so far (before finalization padding).
    #[must_use]
    pub fn blocks_processed(&self) -> u64 {
        self.blocks_processed
    }

    /// Buffers a partial block and hands every whole block to `compress`
    /// in place, straight from `data`.
    fn absorb(&mut self, mut data: &[u8], compress: Kernel) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK_SIZE - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_SIZE {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.blocks_processed += 1;
            self.buffered = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK_SIZE);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
            self.blocks_processed += (blocks.len() / BLOCK_SIZE) as u64;
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finish(mut self, compress: Kernel) -> [u8; DIGEST_SIZE] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, then zeros until 8 bytes remain in the block, then the
        // bit length; absorbing it completes the last block exactly.
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            BLOCK_SIZE + 56 - self.buffered
        };
        let mut tail = [0u8; BLOCK_SIZE + 8];
        tail[0] = 0x80;
        tail[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&tail[..pad_len + 8], compress);
        debug_assert_eq!(self.buffered, 0);

        let mut out = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// A compression kernel: folds every 64-byte block of its input into the
/// state.
type Kernel = fn(&mut [u32; 5], &[u8]);

/// Compresses whole blocks with the fastest kernel this CPU runs: the
/// SHA extensions where the CPU reports them, the portable loop
/// otherwise. Both give bit-identical states.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_SIZE, 0);
    #[cfg(target_arch = "x86_64")]
    if x86::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable FIPS 180-4 compression loop: the fallback on CPUs without
/// SHA instructions and the reference the accelerated kernel is tested
/// against.
fn compress_portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_SIZE) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
                20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Renders a digest (or any byte slice) as lowercase hex.
///
/// # Example
///
/// ```
/// assert_eq!(proverguard_crypto::sha1::to_hex(&[0xde, 0xad]), "dead");
/// ```
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        to_hex(&Sha1::digest(data))
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex_digest(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let expected = Sha1::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn block_counter_counts_compressions() {
        let mut h = Sha1::new();
        h.update(&[0u8; 64 * 3]);
        assert_eq!(h.blocks_processed(), 3);
        h.update(&[0u8; 10]);
        assert_eq!(h.blocks_processed(), 3);
    }

    #[test]
    fn exact_block_boundary_padding() {
        // 55, 56, 63, 64, 65 bytes exercise every padding branch.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xa5u8; len];
            let d1 = Sha1::digest(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}

/// The dispatching kernel against the portable reference. Both drive the
/// same streaming hasher, so the state and block count must agree after
/// every update, not only the final digest.
#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::hmac::HmacSha1;
    use proptest::prelude::*;

    /// What the comparison covers on this CPU: without the SHA
    /// extensions the dispatching kernel *is* the portable one.
    fn pair_under_test() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            return "SHA extensions kernel vs portable kernel";
        }
        "portable kernel vs itself (this CPU lacks the SHA extensions)"
    }

    /// Hashes `chunks` as consecutive updates with both kernels, checking
    /// they agree at every step, and returns the digest.
    fn hash_both(chunks: &[&[u8]]) -> [u8; DIGEST_SIZE] {
        let mut fast = Sha1::new();
        let mut reference = Sha1::new();
        for chunk in chunks {
            fast.absorb(chunk, compress_blocks);
            reference.absorb(chunk, compress_portable);
            assert_eq!(fast.state, reference.state, "{}", pair_under_test());
            assert_eq!(fast.blocks_processed, reference.blocks_processed);
        }
        let digest = fast.finish(compress_blocks);
        assert_eq!(digest, reference.finish(compress_portable));
        digest
    }

    /// HMAC-SHA1 through [`HmacSha1`] (dispatching kernel), checked
    /// against an HMAC built on the portable kernel.
    fn hmac_both(key: &[u8], data: &[u8]) -> String {
        let mut block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let mut h = Sha1::new();
            h.absorb(key, compress_portable);
            block[..DIGEST_SIZE].copy_from_slice(&h.finish(compress_portable));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| block.map(|k| k ^ byte);
        let mut inner = Sha1::new();
        inner.absorb(&pad(0x36), compress_portable);
        inner.absorb(data, compress_portable);
        let mut outer = Sha1::new();
        outer.absorb(&pad(0x5c), compress_portable);
        outer.absorb(&inner.finish(compress_portable), compress_portable);
        let reference = outer.finish(compress_portable);
        assert_eq!(HmacSha1::mac(key, data), reference, "{}", pair_under_test());
        to_hex(&reference)
    }

    #[test]
    fn fips_vectors_agree() {
        eprintln!("sha1 kernels compared: {}", pair_under_test());
        let million = vec![b'a'; 1_000_000];
        let cases: [(&[u8], &str); 4] = [
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (&million, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
        ];
        for (data, expected) in cases {
            assert_eq!(to_hex(&hash_both(&[data])), expected);
        }
    }

    #[test]
    fn rfc2202_hmac_vectors_agree() {
        let long_key = [0xaa; 80];
        let case4_key: Vec<u8> = (1..=25).collect();
        let cases: [(&[u8], &[u8], &str); 7] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
            ),
            (
                &[0x0c; 20],
                b"Test With Truncation",
                "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
                "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
            ),
        ];
        for (key, data, expected) in cases {
            assert_eq!(hmac_both(key, data), expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernels_agree_at_every_split(
            data in proptest::collection::vec(any::<u8>(), 0..400),
            second in 0usize..131,
        ) {
            for split in 0..=130.min(data.len()) {
                let cut = (split + second).min(data.len());
                hash_both(&[&data[..split], &data[split..]]);
                hash_both(&[&data[..split], &data[split..cut], &data[cut..]]);
            }
        }
    }
}
