//! Per-segment digest cache for incremental attestation.
//!
//! The paper's whole-memory MAC chains the request header *first* and the
//! 512 KiB of RAM after it, so no intermediate HMAC state can be reused
//! across requests — every request pays the full ~754 ms sweep (§3.1).
//! The segmented construction restructures the response so that the
//! per-request binding happens *last*:
//!
//! ```text
//! d_i       = SHA1(SEGMENT_DOMAIN ‖ i ‖ len_i ‖ segment_i)      (cacheable)
//! response  = MAC(K, header ‖ COMBINE_MAGIC ‖ seg_len ‖ n ‖ d_0 ‖ … ‖ d_{n-1})
//! ```
//!
//! The `d_i` depend only on memory contents, so the prover may keep them
//! in a [`SegmentCache`] and recompute only the segments whose hardware
//! dirty bit is set — a repeat attestation with k dirty segments costs
//! ≈ k segment digests plus one short combine MAC instead of a full
//! sweep. The keyed combine still binds every response to the fresh,
//! authenticated header, so replaying a stale digest list under a new
//! request is exactly as hard as forging the MAC.
//!
//! **Why caching is sound** (the `Adv_roam` argument, DESIGN.md §12): a
//! cached `d_i` is trusted only while the segment's dirty bit is clear,
//! and the bit is set synchronously by the memory controller on *every*
//! RAM write while the clear path is PC-gated to `Code_Attest`
//! ([`proverguard_mcu::device::Mcu::acknowledge_segment`]). Compromised
//! application code can dirty segments at will (costing itself cycles),
//! but can never clear a bit to freeze a stale digest into the next
//! report. The cache itself is volatile host-side state of `Code_Attest`
//! — it is *not* sealed into the freshness record, and a reboot or an
//! observed EA-MPU violation drops it wholesale.

use proverguard_crypto::sha1::{Sha1, DIGEST_SIZE};

use crate::error::AttestError;

/// Domain-separation prefix for per-segment digests. A segment digest can
/// never be confused with a whole-memory MAC input or any other SHA-1 use
/// in the protocol.
pub const SEGMENT_DOMAIN: &[u8; 18] = b"proverguard-seg-v1";

/// Magic introducing the segment header inside the combine-MAC input,
/// separating the segmented construction from the whole-memory one (whose
/// MAC input continues with raw RAM bytes at this position).
pub const COMBINE_MAGIC: &[u8; 6] = b"PGSEG1";

/// Bytes digested per segment in addition to its contents: the domain
/// prefix, the 4-byte segment index and the 4-byte segment length.
pub const SEGMENT_PREFIX_LEN: usize = SEGMENT_DOMAIN.len() + 8;

/// Configuration of the segmented mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentedParams {
    /// Dirty-tracking/digest granularity in bytes (power of two, ≥ 64,
    /// ≤ the RAM size).
    pub segment_len: u32,
}

impl Default for SegmentedParams {
    fn default() -> Self {
        SegmentedParams {
            segment_len: proverguard_mcu::DEFAULT_SEGMENT_LEN,
        }
    }
}

impl SegmentedParams {
    /// Validates the parameters against the device constraints.
    ///
    /// # Errors
    ///
    /// [`AttestError::BadConfig`] for a segment length the dirty-tracking
    /// hardware cannot be strapped to.
    pub fn validate(&self) -> Result<(), AttestError> {
        if !self.segment_len.is_power_of_two()
            || self.segment_len < proverguard_mcu::MIN_SEGMENT_LEN
            || self.segment_len > proverguard_mcu::map::RAM.len()
        {
            return Err(AttestError::BadConfig {
                reason: format!(
                    "segment length {} is not a power of two in [{}, {}]",
                    self.segment_len,
                    proverguard_mcu::MIN_SEGMENT_LEN,
                    proverguard_mcu::map::RAM.len()
                ),
            });
        }
        Ok(())
    }
}

/// The unkeyed digest of one memory segment. Binding the index and length
/// into the digest means segments cannot be swapped, and a digest of a
/// short trailing segment cannot stand in for a full one.
#[must_use]
pub fn segment_digest(index: u32, bytes: &[u8]) -> [u8; DIGEST_SIZE] {
    segment_digest_parts(index, &[bytes])
}

/// [`segment_digest`] of the segment whose bytes are
/// `parts[0] ‖ parts[1] ‖ …` — how the verifier digests a shared baseline
/// segment with a patched word laid over it, without copying it.
#[must_use]
pub fn segment_digest_parts(index: u32, parts: &[&[u8]]) -> [u8; DIGEST_SIZE] {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut h = Sha1::new();
    h.update(SEGMENT_DOMAIN);
    h.update(&index.to_le_bytes());
    h.update(&(len as u32).to_le_bytes());
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// Digests every segment of `memory` from scratch — the verifier's
/// expected-side computation, and the coherence oracle the property tests
/// compare the cache against. A trailing partial segment is digested at
/// its real length.
#[must_use]
pub fn segment_digests(memory: &[u8], segment_len: usize) -> Vec<[u8; DIGEST_SIZE]> {
    memory
        .chunks(segment_len.max(1))
        .enumerate()
        .map(|(i, chunk)| segment_digest(i as u32, chunk))
        .collect()
}

/// Builds the combine-MAC input:
/// `message ‖ COMBINE_MAGIC ‖ segment_len ‖ digest count ‖ d_0 ‖ … ‖ d_{n-1}`.
#[must_use]
pub fn combined_input(message: &[u8], segment_len: u32, digests: &[[u8; DIGEST_SIZE]]) -> Vec<u8> {
    let header = combine_header(segment_len, digests.len());
    [message, &header, digests.as_flattened()].concat()
}

/// The fixed part of the combine-MAC input between the request header and
/// the digests: `COMBINE_MAGIC ‖ segment_len ‖ digest count`.
#[must_use]
pub fn combine_header(segment_len: u32, digest_count: usize) -> [u8; COMBINE_MAGIC.len() + 8] {
    let mut out = [0u8; COMBINE_MAGIC.len() + 8];
    out[..6].copy_from_slice(COMBINE_MAGIC);
    out[6..10].copy_from_slice(&segment_len.to_le_bytes());
    out[10..].copy_from_slice(&(digest_count as u32).to_le_bytes());
    out
}

/// Magic introducing the history header inside the response-MAC input,
/// separating the history construction from both the whole-memory and
/// segmented ones.
pub const HISTORY_MAGIC: &[u8; 7] = b"PGHIST1";

/// The plaintext body of a `History`-scope response: which round the
/// prover just executed and which segments its hardware epoch log says
/// were written since the request's `since_round`.
///
/// Only this set travels on the wire — the fresh digests of the modified
/// segments enter the response MAC ([`history_input`]) but are recomputed
/// by the verifier from its expected image, keeping the response size
/// near-constant (8 + 4 bytes + one bit per segment + one tag). The MAC
/// binds the set, so malware cannot shrink it to hide a write; growing it
/// only volunteers more digests to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryReport {
    /// The prover's round number for this attestation (its epoch register
    /// at response time; the verifier quotes it back as `since_round`).
    pub round: u64,
    /// One flag per segment: `true` iff the segment's last-write epoch is
    /// newer than the request's `since_round`.
    pub modified: Vec<bool>,
}

impl HistoryReport {
    /// Indices of the modified segments, in order.
    #[must_use]
    pub fn modified_indices(&self) -> Vec<usize> {
        (0..self.modified.len())
            .filter(|&i| self.modified[i])
            .collect()
    }

    /// Length of [`HistoryReport::encode`]'s output in bytes (the
    /// response MAC starts at this offset in the wire report).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        12 + self.modified.len().div_ceil(8)
    }

    /// Serializes the plaintext body: round (u64 BE) ‖ segment count
    /// (u32 BE) ‖ bitmap (LSB-first within each byte, padding bits zero).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.modified.len().div_ceil(8));
        out.extend_from_slice(&self.round.to_be_bytes());
        out.extend_from_slice(&(self.modified.len() as u32).to_be_bytes());
        let mut bits = vec![0u8; self.modified.len().div_ceil(8)];
        for (i, &m) in self.modified.iter().enumerate() {
            if m {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bits);
        out
    }

    /// Parses a body serialized by [`HistoryReport::encode`] from the
    /// front of `bytes`; returns the report and the remaining suffix (the
    /// response MAC). `None` on truncation, a segment count above
    /// `max_segments`, or a nonzero padding bit — strict parsing keeps
    /// the encoding canonical so the MAC covers exactly one byte string
    /// per report.
    #[must_use]
    pub fn decode(bytes: &[u8], max_segments: usize) -> Option<(Self, &[u8])> {
        if bytes.len() < 12 {
            return None;
        }
        let round = u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"));
        let count = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        if count > max_segments {
            return None;
        }
        let bitmap_len = count.div_ceil(8);
        let rest = bytes.get(12..)?;
        if rest.len() < bitmap_len {
            return None;
        }
        let (bits, tag) = rest.split_at(bitmap_len);
        let modified: Vec<bool> = (0..count)
            .map(|i| bits[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        // Padding bits beyond `count` must be zero.
        if !count.is_multiple_of(8) && bits[bitmap_len - 1] >> (count % 8) != 0 {
            return None;
        }
        Some((HistoryReport { round, modified }, tag))
    }
}

/// Builds the history response-MAC input:
/// `message ‖ HISTORY_MAGIC ‖ round ‖ segment_len ‖ report bitmap ‖
/// fresh digests of the modified segments (in index order)`.
///
/// `message` is the authenticated request header, which already contains
/// the scope byte and `since_round` — so the tag binds the window being
/// answered, the round answering it, the modified set, and the current
/// contents of every segment in that set.
#[must_use]
pub fn history_input(
    message: &[u8],
    segment_len: u32,
    report: &HistoryReport,
    modified_digests: &[[u8; DIGEST_SIZE]],
) -> Vec<u8> {
    let body = report.encode();
    let mut out = Vec::with_capacity(
        message.len() + HISTORY_MAGIC.len() + 4 + body.len() + modified_digests.len() * DIGEST_SIZE,
    );
    out.extend_from_slice(message);
    out.extend_from_slice(HISTORY_MAGIC);
    out.extend_from_slice(&segment_len.to_le_bytes());
    out.extend_from_slice(&body);
    for d in modified_digests {
        out.extend_from_slice(d);
    }
    out
}

/// Volatile per-segment digest store kept by `Code_Attest`.
#[derive(Debug, Clone)]
pub struct SegmentCache {
    segment_len: usize,
    digests: Vec<Option<[u8; DIGEST_SIZE]>>,
}

impl SegmentCache {
    /// An empty cache for a `memory_len`-byte region at `segment_len`
    /// granularity.
    #[must_use]
    pub fn new(segment_len: usize, memory_len: usize) -> Self {
        let count = memory_len.div_ceil(segment_len.max(1));
        SegmentCache {
            segment_len: segment_len.max(1),
            digests: vec![None; count],
        }
    }

    /// Granularity in bytes.
    #[must_use]
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Number of segments tracked.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.digests.len()
    }

    /// `true` when segment `index` has a live digest.
    #[must_use]
    pub fn has(&self, index: usize) -> bool {
        matches!(self.digests.get(index), Some(Some(_)))
    }

    /// Number of live digests.
    #[must_use]
    pub fn cached_count(&self) -> usize {
        self.digests.iter().filter(|d| d.is_some()).count()
    }

    /// Stores the digest of segment `index` (out of range is ignored).
    pub fn store(&mut self, index: usize, digest: [u8; DIGEST_SIZE]) {
        if let Some(slot) = self.digests.get_mut(index) {
            *slot = Some(digest);
        }
    }

    /// Drops every cached digest — the `ClearCache` path taken on reboot,
    /// on an observed EA-MPU violation, or on explicit request.
    pub fn invalidate_all(&mut self) {
        self.digests.fill(None);
    }

    /// All digests in segment order, or `None` if any segment is missing
    /// (the combine step requires full coverage).
    #[must_use]
    pub fn all(&self) -> Option<Vec<[u8; DIGEST_SIZE]>> {
        self.digests.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_digest_binds_index_and_length() {
        let bytes = [0u8; 64];
        assert_ne!(segment_digest(0, &bytes), segment_digest(1, &bytes));
        assert_ne!(segment_digest(0, &bytes), segment_digest(0, &bytes[..32]));
        assert_ne!(
            segment_digest(0, &bytes).as_slice(),
            Sha1::digest(&bytes).as_slice()
        );
    }

    #[test]
    fn segment_digests_cover_trailing_partial_segment() {
        let memory = vec![7u8; 100];
        let ds = segment_digests(&memory, 64);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0], segment_digest(0, &memory[..64]));
        assert_eq!(ds[1], segment_digest(1, &memory[64..]));
    }

    #[test]
    fn combined_input_layout() {
        let ds = segment_digests(&[1u8; 128], 64);
        let input = combined_input(b"hdr", 64, &ds);
        assert_eq!(&input[..3], b"hdr");
        assert_eq!(&input[3..9], COMBINE_MAGIC);
        assert_eq!(input[9..13], 64u32.to_le_bytes());
        assert_eq!(input[13..17], 2u32.to_le_bytes());
        assert_eq!(input.len(), 17 + 2 * DIGEST_SIZE);
        assert_eq!(&input[17..37], &ds[0]);
    }

    #[test]
    fn history_report_roundtrip_and_strictness() {
        for count in [0usize, 1, 7, 8, 9, 64] {
            let report = HistoryReport {
                round: 0xDEAD_BEEF,
                modified: (0..count).map(|i| i % 3 == 0).collect(),
            };
            let mut bytes = report.encode();
            bytes.extend_from_slice(&[0xAA; 20]); // the tag suffix
            let (parsed, tag) = HistoryReport::decode(&bytes, 64).unwrap();
            assert_eq!(parsed, report);
            assert_eq!(tag, &[0xAA; 20]);
        }
        // Truncation, count overflow and dirty padding bits all refuse.
        let report = HistoryReport {
            round: 1,
            modified: vec![true; 9],
        };
        let bytes = report.encode();
        assert!(HistoryReport::decode(&bytes[..11], 64).is_none());
        assert!(HistoryReport::decode(&bytes, 8).is_none());
        let mut dirty_pad = bytes.clone();
        *dirty_pad.last_mut().unwrap() |= 0x80;
        assert!(HistoryReport::decode(&dirty_pad, 64).is_none());
    }

    #[test]
    fn history_input_binds_round_set_and_digests() {
        let report = HistoryReport {
            round: 5,
            modified: vec![true, false, true, false],
        };
        let ds = [[1u8; DIGEST_SIZE], [2u8; DIGEST_SIZE]];
        let base = history_input(b"hdr", 64, &report, &ds);
        let mut other_round = report.clone();
        other_round.round = 6;
        assert_ne!(base, history_input(b"hdr", 64, &other_round, &ds));
        let mut other_set = report.clone();
        other_set.modified[1] = true;
        assert_ne!(base, history_input(b"hdr", 64, &other_set, &ds));
        assert_ne!(base, history_input(b"hdr", 64, &report, &ds[..1]));
        assert_ne!(base, history_input(b"hdr", 128, &report, &ds));
    }

    #[test]
    fn cache_roundtrip_and_invalidate() {
        let mut cache = SegmentCache::new(64, 256);
        assert_eq!(cache.segment_count(), 4);
        assert_eq!(cache.all(), None);
        for i in 0..4 {
            assert!(!cache.has(i));
            cache.store(i, [i as u8; DIGEST_SIZE]);
        }
        assert_eq!(cache.cached_count(), 4);
        let all = cache.all().unwrap();
        assert_eq!(all[2], [2u8; DIGEST_SIZE]);
        cache.invalidate_all();
        assert_eq!(cache.cached_count(), 0);
        assert_eq!(cache.all(), None);
        // Out-of-range store is a no-op, not a panic.
        cache.store(99, [0; DIGEST_SIZE]);
        assert_eq!(cache.cached_count(), 0);
    }

    #[test]
    fn cache_covers_partial_trailing_segment() {
        let cache = SegmentCache::new(64, 100);
        assert_eq!(cache.segment_count(), 2);
    }

    #[test]
    fn params_validation() {
        assert!(SegmentedParams::default().validate().is_ok());
        assert!(SegmentedParams { segment_len: 64 }.validate().is_ok());
        for bad in [0u32, 63, 4000, 1 << 20] {
            assert!(SegmentedParams { segment_len: bad }.validate().is_err());
        }
    }
}
