//! A unifying MAC abstraction over the paper's symmetric primitives.
//!
//! §4.1 compares four ways to authenticate an attestation request:
//! SHA1-HMAC, AES-128 CBC-MAC, Speck 64/128 CBC-MAC, and ECDSA. The
//! attestation layer selects among the symmetric three via
//! [`MacAlgorithm`]; ECDSA is kept separate because it is asymmetric (and
//! because the paper rules it out).
//!
//! # Example
//!
//! ```
//! use proverguard_crypto::mac::{MacAlgorithm, MacKey};
//!
//! # fn main() -> Result<(), proverguard_crypto::CryptoError> {
//! let key = MacKey::new(MacAlgorithm::Speck64Cbc, &[9u8; 16])?;
//! let tag = key.compute(b"attreq");
//! assert!(key.verify(b"attreq", &tag));
//! assert!(!key.verify(b"forged", &tag));
//! # Ok(())
//! # }
//! ```

use crate::aes::Aes128;
use crate::cbc::cbc_mac_parts;
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::hmac::HmacSha1;
use crate::speck::Speck64_128;

/// Selects the symmetric MAC primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MacAlgorithm {
    /// HMAC-SHA1 (20-byte tags).
    HmacSha1,
    /// AES-128 in CBC-MAC mode (16-byte tags).
    Aes128Cbc,
    /// Speck 64/128 in CBC-MAC mode (8-byte tags).
    Speck64Cbc,
}

impl MacAlgorithm {
    /// All supported algorithms, in the order of the paper's Table 1.
    pub const ALL: [MacAlgorithm; 3] = [
        MacAlgorithm::HmacSha1,
        MacAlgorithm::Aes128Cbc,
        MacAlgorithm::Speck64Cbc,
    ];

    /// Tag length in bytes.
    #[must_use]
    pub fn tag_len(self) -> usize {
        match self {
            MacAlgorithm::HmacSha1 => 20,
            MacAlgorithm::Aes128Cbc => 16,
            MacAlgorithm::Speck64Cbc => 8,
        }
    }

    /// Key length in bytes (HMAC accepts any length; 16 is the suite default).
    #[must_use]
    pub fn key_len(self) -> usize {
        16
    }

    /// Cipher block size in bytes processed per "block" of input, used by
    /// the cycle model. HMAC consumes 64-byte hash blocks.
    #[must_use]
    pub fn input_block_len(self) -> usize {
        match self {
            MacAlgorithm::HmacSha1 => 64,
            MacAlgorithm::Aes128Cbc => 16,
            MacAlgorithm::Speck64Cbc => 8,
        }
    }
}

impl std::fmt::Display for MacAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MacAlgorithm::HmacSha1 => write!(f, "SHA1-HMAC"),
            MacAlgorithm::Aes128Cbc => write!(f, "AES-128 (CBC)"),
            MacAlgorithm::Speck64Cbc => write!(f, "Speck 64/128 (CBC)"),
        }
    }
}

/// A MAC key with its primitive state expanded (the paper's "key expansion
/// done in advance" assumption).
#[derive(Clone)]
pub struct MacKey {
    algorithm: MacAlgorithm,
    inner: MacKeyInner,
}

#[derive(Clone)]
enum MacKeyInner {
    Hmac(Vec<u8>),
    Aes(Aes128),
    Speck(Speck64_128),
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacKey")
            .field("algorithm", &self.algorithm)
            .field("key", &"<redacted>")
            .finish()
    }
}

impl MacKey {
    /// Expands `key` for `algorithm`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyLength`] if the block ciphers receive a
    /// key that is not 16 bytes.
    pub fn new(algorithm: MacAlgorithm, key: &[u8]) -> Result<Self, CryptoError> {
        let inner = match algorithm {
            MacAlgorithm::HmacSha1 => MacKeyInner::Hmac(key.to_vec()),
            MacAlgorithm::Aes128Cbc => MacKeyInner::Aes(Aes128::new(key)?),
            MacAlgorithm::Speck64Cbc => MacKeyInner::Speck(Speck64_128::new(key)?),
        };
        Ok(MacKey { algorithm, inner })
    }

    /// The algorithm this key is expanded for.
    #[must_use]
    pub fn algorithm(&self) -> MacAlgorithm {
        self.algorithm
    }

    /// Computes the tag over `message`.
    #[must_use]
    pub fn compute(&self, message: &[u8]) -> Vec<u8> {
        self.compute_parts(&[message])
    }

    /// Verifies `tag` over `message` in constant time.
    #[must_use]
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        self.verify_parts(&[message], tag)
    }

    /// Computes the tag over `parts[0] ‖ parts[1] ‖ …` — a gather MAC, so
    /// callers holding a header and a large body in separate buffers need
    /// not concatenate them. Equal to [`MacKey::compute`] over the
    /// concatenation, for every algorithm.
    #[must_use]
    pub fn compute_parts(&self, parts: &[&[u8]]) -> Vec<u8> {
        match &self.inner {
            MacKeyInner::Hmac(key) => HmacSha1::mac_parts(key, parts).to_vec(),
            MacKeyInner::Aes(cipher) => cbc_mac_parts(cipher, parts),
            MacKeyInner::Speck(cipher) => cbc_mac_parts(cipher, parts),
        }
    }

    /// Verifies `tag` over `parts[0] ‖ parts[1] ‖ …` in constant time.
    #[must_use]
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &[u8]) -> bool {
        match &self.inner {
            MacKeyInner::Hmac(key) => ct_eq(&HmacSha1::mac_parts(key, parts), tag),
            MacKeyInner::Aes(cipher) => ct_eq(&cbc_mac_parts(cipher, parts), tag),
            MacKeyInner::Speck(cipher) => ct_eq(&cbc_mac_parts(cipher, parts), tag),
        }
    }
}

/// Generic MAC trait for callers that want static dispatch.
pub trait Mac {
    /// Computes the tag over `message`.
    fn tag(&self, message: &[u8]) -> Vec<u8>;
    /// Verifies `tag` over `message` in constant time.
    fn check(&self, message: &[u8], tag: &[u8]) -> bool;
}

impl Mac for MacKey {
    fn tag(&self, message: &[u8]) -> Vec<u8> {
        self.compute(message)
    }

    fn check(&self, message: &[u8], tag: &[u8]) -> bool {
        self.verify(message, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_roundtrip() {
        for alg in MacAlgorithm::ALL {
            let key = MacKey::new(alg, &[0x42; 16]).unwrap();
            let tag = key.compute(b"attestation request");
            assert_eq!(tag.len(), alg.tag_len(), "{alg}");
            assert!(key.verify(b"attestation request", &tag), "{alg}");
            assert!(!key.verify(b"something else", &tag), "{alg}");
        }
    }

    #[test]
    fn different_keys_different_tags() {
        for alg in MacAlgorithm::ALL {
            let k1 = MacKey::new(alg, &[1; 16]).unwrap();
            let k2 = MacKey::new(alg, &[2; 16]).unwrap();
            assert_ne!(k1.compute(b"m"), k2.compute(b"m"), "{alg}");
        }
    }

    #[test]
    fn block_cipher_macs_reject_bad_key_length() {
        assert!(MacKey::new(MacAlgorithm::Aes128Cbc, &[0; 5]).is_err());
        assert!(MacKey::new(MacAlgorithm::Speck64Cbc, &[0; 5]).is_err());
        // HMAC accepts any key length.
        assert!(MacKey::new(MacAlgorithm::HmacSha1, &[0; 5]).is_ok());
    }

    #[test]
    fn truncated_tag_rejected() {
        for alg in MacAlgorithm::ALL {
            let key = MacKey::new(alg, &[7; 16]).unwrap();
            let tag = key.compute(b"m");
            assert!(!key.verify(b"m", &tag[..tag.len() - 1]), "{alg}");
        }
    }

    #[test]
    fn display_matches_table1_labels() {
        assert_eq!(MacAlgorithm::HmacSha1.to_string(), "SHA1-HMAC");
        assert_eq!(MacAlgorithm::Aes128Cbc.to_string(), "AES-128 (CBC)");
        assert_eq!(MacAlgorithm::Speck64Cbc.to_string(), "Speck 64/128 (CBC)");
    }

    /// One-shot tags built independently of the gather path: streaming
    /// HMAC, and CBC-MAC as the last block of a CBC encryption of the
    /// length block followed by the zero-padded message.
    fn one_shot(alg: MacAlgorithm, key: &[u8; 16], message: &[u8]) -> Vec<u8> {
        fn cbc_tag<C: crate::BlockCipher>(cipher: &C, message: &[u8]) -> Vec<u8> {
            let bs = C::BLOCK_SIZE;
            let mut data = vec![0u8; bs - 8];
            data.extend_from_slice(&(message.len() as u64).to_be_bytes());
            data.extend_from_slice(message);
            data.resize(data.len().div_ceil(bs) * bs, 0);
            crate::cbc::encrypt(cipher, &vec![0u8; bs], &mut data).unwrap();
            data[data.len() - bs..].to_vec()
        }
        match alg {
            MacAlgorithm::HmacSha1 => {
                let mut h = HmacSha1::new(key);
                h.update(message);
                h.finalize().to_vec()
            }
            MacAlgorithm::Aes128Cbc => cbc_tag(&Aes128::from_key(key), message),
            MacAlgorithm::Speck64Cbc => cbc_tag(&Speck64_128::from_key(key), message),
        }
    }

    #[test]
    fn parts_equal_one_shot_at_every_split() {
        let message: Vec<u8> = (0..70u8).map(|i| i.wrapping_mul(37)).collect();
        for alg in MacAlgorithm::ALL {
            let key = MacKey::new(alg, &[0x5a; 16]).unwrap();
            let tag = one_shot(alg, &[0x5a; 16], &message);
            assert_eq!(key.compute(&message), tag, "{alg}");
            assert!(key.verify(&message, &tag), "{alg}");
            for a in 0..=message.len() {
                for b in a..=message.len() {
                    let parts = [&message[..a], &message[a..b], &message[b..]];
                    assert_eq!(key.compute_parts(&parts), tag, "{alg} split {a}/{b}");
                    assert!(key.verify_parts(&parts, &tag), "{alg} split {a}/{b}");
                }
                assert!(!key.verify_parts(&[&message[..a], &message[a..]], &tag[1..]));
            }
            assert_eq!(
                key.compute_parts(&[]),
                one_shot(alg, &[0x5a; 16], b""),
                "{alg}"
            );
            let mut forged = tag.clone();
            forged[0] ^= 1;
            assert!(!key.verify_parts(&[&message], &forged), "{alg}");
        }
    }

    #[test]
    fn trait_object_dispatch() {
        let key = MacKey::new(MacAlgorithm::Speck64Cbc, &[3; 16]).unwrap();
        let mac: &dyn Mac = &key;
        let tag = mac.tag(b"m");
        assert!(mac.check(b"m", &tag));
    }
}
