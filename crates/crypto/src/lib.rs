//! From-scratch cryptographic primitives for the ProverGuard suite.
//!
//! This crate implements every primitive the paper's Table 1 measures on the
//! Intel Siskiyou Peak platform, so that the reproduction can instrument and
//! benchmark its own code instead of an opaque library:
//!
//! - [`sha1`] — the SHA-1 compression function and streaming hasher.
//! - [`hmac`] — HMAC-SHA1 ([RFC 2104]).
//! - [`hkdf`] — HKDF extract/expand over HMAC-SHA1 (RFC 5869), the
//!   session-key schedule for the attested-channel layer.
//! - [`aes`] — the AES-128 block cipher (FIPS 197).
//! - [`speck`] — the Speck 64/128 lightweight block cipher.
//! - [`cbc`] — CBC mode and CBC-MAC over any [`BlockCipher`].
//! - [`bignum`] / [`ecc`] / [`ecdsa`] — fixed-width big integers, the
//!   secp160r1 curve and ECDSA, i.e. the public-key option the paper rules
//!   out as too expensive for request authentication.
//! - [`drbg`] — a deterministic random bit generator (HMAC-SHA1-DRBG) for
//!   nonces and deterministic ECDSA.
//! - [`mac`] — a unifying [`mac::Mac`] trait plus the
//!   [`mac::MacAlgorithm`] selector used by the attestation layer.
//!
//! # Security note
//!
//! These implementations exist to reproduce a 2016 paper about *cost*, not
//! to protect data in 2026. SHA-1 and 160-bit ECC are historical primitives;
//! do not reuse this crate outside the simulation.
//!
//! # Example
//!
//! ```
//! use proverguard_crypto::hmac::HmacSha1;
//!
//! let tag = HmacSha1::mac(b"attestation key!", b"attreq|counter=7");
//! assert_eq!(tag.len(), 20);
//! ```
//!
//! [RFC 2104]: https://www.rfc-editor.org/rfc/rfc2104

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod cbc;
pub mod ct;
pub mod drbg;
pub mod ecc;
pub mod ecdsa;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod mac;
pub mod sha1;
pub mod speck;

pub use error::CryptoError;

/// A block cipher with a fixed block size, the abstraction [`cbc`] builds on.
///
/// Implemented by [`aes::Aes128`] (16-byte blocks) and
/// [`speck::Speck64_128`] (8-byte blocks). Key expansion happens in the
/// implementing type's constructor, mirroring the paper's separate
/// "key expansion" column in Table 1.
pub trait BlockCipher {
    /// Block size in bytes.
    const BLOCK_SIZE: usize;

    /// Short lowercase identifier used in telemetry span names
    /// (e.g. `"aes128"` → the `crypto.aes128_cbc` span).
    const NAME: &'static str = "cipher";

    /// Encrypts one block in place.
    ///
    /// # Panics
    ///
    /// Implementations panic if `block.len() != Self::BLOCK_SIZE`.
    fn encrypt_block(&self, block: &mut [u8]);

    /// Decrypts one block in place.
    ///
    /// # Panics
    ///
    /// Implementations panic if `block.len() != Self::BLOCK_SIZE`.
    fn decrypt_block(&self, block: &mut [u8]);
}
