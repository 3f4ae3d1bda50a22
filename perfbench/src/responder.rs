//! The wire-honest responder that answers for the 1,024 devices of
//! `oneshot_segmented`.
//!
//! A real prover's RAM is 512 KiB; the fleet shape of this workload is
//! 128 KiB images. The responder computes exactly what an honest device
//! on such an image sends for a Segmented request: it commits the
//! request's freshness word into its image, re-digests the one segment
//! that word lives in, builds the combine-MAC input over the segment
//! digest vector and MACs it under the device key. It shares nothing with
//! the verifier: a wrong image, key or freshness word gives a response
//! the gateway rejects.

use std::sync::Arc;

use proverguard_attest::error::RejectReason;
use proverguard_attest::freshness::{counter_r_offset, patch_expected_image};
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::segcache::{combined_input, segment_digest, segment_digests};
use proverguard_crypto::mac::{MacAlgorithm, MacKey};

/// One firmware image with its precomputed segment digests, shared by
/// every responder on that image.
#[derive(Debug)]
pub struct Firmware {
    bytes: Vec<u8>,
    segment_len: u32,
    digests: Vec<[u8; 20]>,
}

impl Firmware {
    /// Digests `bytes` at `segment_len` granularity.
    #[must_use]
    pub fn new(bytes: Vec<u8>, segment_len: u32) -> Firmware {
        let digests = segment_digests(&bytes, segment_len as usize);
        Firmware {
            bytes,
            segment_len,
            digests,
        }
    }

    /// The image as provisioned.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Answers attestation requests for one device.
#[derive(Debug, Clone)]
pub struct Responder {
    firmware: Arc<Firmware>,
    key: MacKey,
}

impl Responder {
    /// A responder for a device on `firmware` holding `key`.
    ///
    /// # Panics
    ///
    /// If `key` does not fit `algorithm` (a 16-byte key fits every
    /// response MAC the deployments use).
    #[must_use]
    pub fn new(firmware: Arc<Firmware>, key: &[u8; 16], algorithm: MacAlgorithm) -> Responder {
        Responder {
            firmware,
            key: MacKey::new(algorithm, key).expect("16-byte key fits the response MAC"),
        }
    }

    /// Answers a serialized request with the serialized response an
    /// honest device on this image sends.
    ///
    /// # Errors
    ///
    /// [`RejectReason::Malformed`] for bytes that do not parse,
    /// [`RejectReason::ScopeUnsupported`] for any scope but Segmented.
    pub fn respond(&self, raw: &[u8]) -> Result<Vec<u8>, RejectReason> {
        let request = AttestRequest::from_bytes(raw).map_err(|_| RejectReason::Malformed)?;
        if request.scope != AttestScope::Segmented {
            return Err(RejectReason::ScopeUnsupported);
        }
        let fw = &self.firmware;
        let seg_len = fw.segment_len as usize;
        let index = counter_r_offset() / seg_len;
        let range = index * seg_len..((index + 1) * seg_len).min(fw.bytes.len());
        // The freshness word sits inside one segment: patch a copy of the
        // image up to the end of that segment, re-digest the segment and
        // reuse every other digest.
        let mut prefix = fw.bytes[..range.end].to_vec();
        patch_expected_image(&mut prefix, &request.freshness);
        let mut digests = fw.digests.clone();
        digests[index] = segment_digest(index as u32, &prefix[range]);
        let input = combined_input(&request.signed_bytes(), fw.segment_len, &digests);
        let response = AttestResponse {
            report: self.key.compute(&input),
        };
        Ok(response.to_bytes())
    }
}
