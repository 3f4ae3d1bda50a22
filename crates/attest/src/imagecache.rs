//! Fleet-wide verifier-side expected-image cache.
//!
//! At fleet scale most devices run one of a handful of firmware versions,
//! and with segmented attestation (DESIGN §12) the per-segment digests
//! `d_i` depend only on memory *contents* — they are identical across
//! every device on the same image. Only the outer keyed, counter-bound
//! MAC differs per device. This module interns each distinct expected
//! image once, precomputes its digest vector once, and lets every
//! verification of a same-image device reuse both: verifying N devices on
//! one firmware costs N outer MACs + 1 digest sweep instead of N full
//! recomputes.
//!
//! Structure:
//!
//! - [`ImageKey`] — content-addressed cache key: a domain-separated SHA-1
//!   over `(segment_len, image_len, image_bytes)`. Binding `segment_len`
//!   into the key is the "scope" dimension: the same bytes deployed at a
//!   different digest granularity (or whole-memory-only, `segment_len =
//!   0`) are a *different* cache entry, so a digest vector can never be
//!   consulted at the wrong granularity. The derivation is frozen by
//!   golden vectors (`tests/golden_vectors.rs`).
//! - [`CachedImage`] — one interned baseline: the image bytes plus its
//!   precomputed digest vector, immutable behind an [`Arc`] so gateway
//!   shards and worker threads share it without copying.
//! - [`ImageCache`] — the LRU-bounded shared map from key to
//!   [`CachedImage`], with atomic hit/miss/eviction/invalidation stats
//!   that satisfy a CI-checked conservation law
//!   ([`ImageCacheSnapshot::conservation_holds`]).
//! - [`ExpectedView`] — what the verifier actually checks against: the
//!   shared baseline bytes with the request's 8-byte freshness word laid
//!   over them (no per-device copy), plus, when available, the baseline
//!   digest vector and the segments the word lands in. Segmented and
//!   History verification re-digest only those segments; everything else
//!   comes straight from the baseline.
//!
//! **Why outer MACs stay per-device:** the combine MAC
//! (`MAC(K, header ‖ … ‖ d_0 … d_{n-1})`, DESIGN §12) is keyed with the
//! per-device `K_Attest` and bound to the per-request counter and
//! challenge. Caching it would be both useless (it never repeats) and
//! unsound (it is the only thing tying a response to *this* device and
//! *this* request). Only the unkeyed, content-only `d_i` are shared.
//!
//! **Invalidation rules:** an entry is dropped when a campaign wave or
//! `UpdateFirmware` re-targets devices away from it
//! ([`ImageCache::invalidate`], driven by
//! `CampaignController::drain_retargets`), and the per-device baseline
//! handle + patched-segment list is rebound whenever the device's expected
//! image changes (`DeviceDirectory::set_expected_memory`) — History-scope
//! rounds therefore never consult digests cached before the claimed
//! epoch: the view they see is always derived from the *current*
//! baseline.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proverguard_crypto::sha1::{Sha1, DIGEST_SIZE};
use proverguard_telemetry::metrics;

use crate::segcache;

/// Domain-separation prefix for [`ImageKey::derive`]. Versioned so a
/// future change to the key layout cannot collide with today's keys.
pub const IMAGE_KEY_DOMAIN: &[u8; 21] = b"proverguard-imgkey-v1";

/// Default number of distinct images the cache retains before LRU
/// eviction. Fleets run a handful of firmware versions; 32 is generous.
pub const DEFAULT_IMAGE_CAPACITY: usize = 32;

/// Content-addressed identity of one expected image at one digest
/// granularity: `SHA1(domain ‖ segment_len ‖ image_len ‖ image)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageKey([u8; DIGEST_SIZE]);

impl ImageKey {
    /// Derives the key for `image` deployed at `segment_len` digest
    /// granularity (`0` = whole-memory-only deployment, no digest
    /// vector).
    #[must_use]
    pub fn derive(image: &[u8], segment_len: u32) -> Self {
        let mut h = Sha1::new();
        h.update(IMAGE_KEY_DOMAIN);
        h.update(&segment_len.to_le_bytes());
        h.update(&(image.len() as u64).to_le_bytes());
        h.update(image);
        ImageKey(h.finalize())
    }

    /// The raw 20-byte key.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; DIGEST_SIZE] {
        &self.0
    }

    /// Lower-case hex rendering (golden vectors, logs).
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// One interned expected image: the baseline bytes plus the digest vector
/// precomputed at interning time. Immutable — shared across every device
/// on this firmware via `Arc`.
#[derive(Debug)]
pub struct CachedImage {
    key: ImageKey,
    bytes: Vec<u8>,
    segment_len: u32,
    digests: Vec<[u8; DIGEST_SIZE]>,
}

impl CachedImage {
    /// Digests `image` at `segment_len` granularity (one full sweep) and
    /// wraps it. `segment_len = 0` interns the bytes without a digest
    /// vector (whole-memory deployments still skip the per-attempt image
    /// clone).
    #[must_use]
    pub fn compute(image: Vec<u8>, segment_len: u32) -> Self {
        let key = ImageKey::derive(&image, segment_len);
        let digests = if segment_len == 0 {
            Vec::new()
        } else {
            segcache::segment_digests(&image, segment_len as usize)
        };
        CachedImage {
            key,
            bytes: image,
            segment_len,
            digests,
        }
    }

    /// The content-addressed key.
    #[must_use]
    pub fn key(&self) -> &ImageKey {
        &self.key
    }

    /// The baseline image bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The digest granularity this entry was interned at (0 = none).
    #[must_use]
    pub fn segment_len(&self) -> u32 {
        self.segment_len
    }

    /// The precomputed per-segment digest vector (empty when
    /// `segment_len = 0`).
    #[must_use]
    pub fn digests(&self) -> &[[u8; DIGEST_SIZE]] {
        &self.digests
    }
}

/// Point-in-time copy of the cache counters. All counters are cumulative
/// since cache construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageCacheSnapshot {
    /// Key lookups: one per [`ImageCache::intern`] + one per
    /// [`ImageCache::touch`] (i.e. one per verification attempt).
    pub lookups: u64,
    /// Lookups satisfied by a resident entry.
    pub hits: u64,
    /// Lookups that found no resident entry.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Entries dropped explicitly (campaign retarget / firmware update).
    pub invalidations: u64,
    /// Misses repaired for free from a caller-held `Arc` (no digest
    /// recompute) — an evicted entry re-inserted by `touch`.
    pub refills: u64,
    /// Distinct keys ever interned.
    pub distinct_keys: u64,
    /// Full digest sweeps performed at interning time.
    pub digest_sweeps: u64,
    /// Per-device expected images (re)bound to a baseline — once per
    /// registration or expected-image change, **never** per verification
    /// attempt. The steady-state regression asserts exactly this.
    pub scratch_rebuilds: u64,
}

impl ImageCacheSnapshot {
    /// The CI-checked conservation law: every lookup is a hit or a miss,
    /// and every distinct key missed at least once except where an
    /// eviction was repaired by a refill.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.lookups == self.hits + self.misses
            && self.misses >= self.distinct_keys
            && self.misses >= self.refills + self.distinct_keys.saturating_sub(self.evictions)
    }

    /// Hit fraction over all lookups (0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Difference of two snapshots (for measuring one phase of a run).
impl std::ops::Sub for ImageCacheSnapshot {
    type Output = ImageCacheSnapshot;

    fn sub(self, rhs: ImageCacheSnapshot) -> ImageCacheSnapshot {
        ImageCacheSnapshot {
            lookups: self.lookups.saturating_sub(rhs.lookups),
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            evictions: self.evictions.saturating_sub(rhs.evictions),
            invalidations: self.invalidations.saturating_sub(rhs.invalidations),
            refills: self.refills.saturating_sub(rhs.refills),
            distinct_keys: self.distinct_keys.saturating_sub(rhs.distinct_keys),
            digest_sweeps: self.digest_sweeps.saturating_sub(rhs.digest_sweeps),
            scratch_rebuilds: self.scratch_rebuilds.saturating_sub(rhs.scratch_rebuilds),
        }
    }
}

#[derive(Debug)]
struct Slot {
    image: Arc<CachedImage>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Slot>,
    seen: HashSet<[u8; DIGEST_SIZE]>,
    tick: u64,
}

/// The shared, LRU-bounded map from [`ImageKey`] to [`CachedImage`].
///
/// One instance is shared by every gateway driver (thread-pool workers
/// and reactor shards alike) behind an `Arc`: the critical section under
/// the mutex is a short vector scan + counter bumps — the expensive work
/// (the digest sweep) happens at most once per distinct image, and the
/// returned `Arc<CachedImage>` is read lock-free afterwards.
#[derive(Debug)]
pub struct ImageCache {
    capacity: usize,
    inner: Mutex<Inner>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    refills: AtomicU64,
    distinct_keys: AtomicU64,
    digest_sweeps: AtomicU64,
    scratch_rebuilds: AtomicU64,
}

impl Default for ImageCache {
    fn default() -> Self {
        ImageCache::new(DEFAULT_IMAGE_CAPACITY)
    }
}

impl ImageCache {
    /// Creates a cache retaining at most `capacity` distinct images
    /// (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ImageCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            distinct_keys: AtomicU64::new(0),
            digest_sweeps: AtomicU64::new(0),
            scratch_rebuilds: AtomicU64::new(0),
        }
    }

    /// Maximum resident entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("image cache poisoned").slots.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns `image` at `segment_len` granularity: returns the resident
    /// entry if the identical image is already cached (hit), otherwise
    /// performs the one digest sweep, inserts, and LRU-evicts past
    /// capacity.
    pub fn intern(&self, image: &[u8], segment_len: u32) -> Arc<CachedImage> {
        let key = ImageKey::derive(image, segment_len);
        self.lookups.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.lookup", 1);
        {
            let mut inner = self.inner.lock().expect("image cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.iter_mut().find(|s| *s.image.key() == key) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::counter_add("imagecache.hit", 1);
                return Arc::clone(&slot.image);
            }
        }
        // Miss: digest outside the lock (the sweep is the expensive part
        // and the image is function-local).
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.miss", 1);
        if segment_len != 0 {
            self.digest_sweeps.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.digest_sweep", 1);
        }
        let entry = Arc::new(CachedImage::compute(image.to_vec(), segment_len));
        self.insert(Arc::clone(&entry));
        entry
    }

    /// Per-verification accounting for a caller that already holds the
    /// entry's `Arc`: counts a hit while the entry is resident; if LRU
    /// pressure evicted it, re-inserts the held copy for free (a *refill*
    /// — no digest recompute) and counts a miss.
    pub fn touch(&self, handle: &Arc<CachedImage>) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.lookup", 1);
        let key = *handle.key();
        {
            let mut inner = self.inner.lock().expect("image cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.iter_mut().find(|s| *s.image.key() == key) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::counter_add("imagecache.hit", 1);
                return;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.refills.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.miss", 1);
        metrics::counter_add("imagecache.refill", 1);
        self.insert(Arc::clone(handle));
    }

    fn insert(&self, entry: Arc<CachedImage>) {
        let mut inner = self.inner.lock().expect("image cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let key = *entry.key();
        // A racing thread may have inserted the same key while we were
        // digesting; keep the resident one.
        if let Some(slot) = inner.slots.iter_mut().find(|s| *s.image.key() == key) {
            slot.last_used = tick;
            return;
        }
        if inner.seen.insert(*key.as_bytes()) {
            self.distinct_keys.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.distinct_key", 1);
        }
        while inner.slots.len() >= self.capacity {
            let (lru, _) = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, s)| (i, s.last_used))
                .expect("capacity >= 1, so a resident slot exists");
            inner.slots.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.eviction", 1);
        }
        inner.slots.push(Slot {
            image: entry,
            last_used: tick,
        });
    }

    /// Drops the entry for `key` (campaign retarget / firmware update).
    /// Returns whether an entry was resident.
    pub fn invalidate(&self, key: &ImageKey) -> bool {
        let mut inner = self.inner.lock().expect("image cache poisoned");
        let before = inner.slots.len();
        inner.slots.retain(|s| s.image.key() != key);
        let removed = inner.slots.len() < before;
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.invalidation", 1);
        }
        removed
    }

    /// Drops every resident entry. Returns how many were dropped.
    pub fn invalidate_all(&self) -> usize {
        let mut inner = self.inner.lock().expect("image cache poisoned");
        let dropped = inner.slots.len();
        inner.slots.clear();
        if dropped > 0 {
            self.invalidations
                .fetch_add(dropped as u64, Ordering::Relaxed);
            metrics::counter_add("imagecache.invalidation", dropped as u64);
        }
        dropped
    }

    /// Records one per-device image (re)binding — called by the device
    /// directory at registration and expected-image changes so tests can
    /// assert the steady state performs none.
    pub fn note_scratch_rebuild(&self) {
        self.scratch_rebuilds.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.scratch_rebuild", 1);
    }

    /// Snapshots the counters.
    #[must_use]
    pub fn stats(&self) -> ImageCacheSnapshot {
        ImageCacheSnapshot {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            refills: self.refills.load(Ordering::Relaxed),
            distinct_keys: self.distinct_keys.load(Ordering::Relaxed),
            digest_sweeps: self.digest_sweeps.load(Ordering::Relaxed),
            scratch_rebuilds: self.scratch_rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// What the verifier checks a response against, without a per-device
/// copy of the image: the expected bytes are the interned baseline with,
/// for a counter or timestamp request, the 8-byte freshness word the
/// prover commits laid over it. With a baseline attached, digests come
/// from its precomputed vector and only the segments the word lands in
/// (`patched`) are re-digested.
#[derive(Debug, Clone, Copy)]
pub struct ExpectedView<'a> {
    memory: &'a [u8],
    word: Option<(usize, [u8; 8])>,
    baseline: Option<&'a CachedImage>,
    patched: &'a [usize],
}

impl<'a> ExpectedView<'a> {
    /// A view with no baseline: every digest is computed from `memory`
    /// from scratch. The legacy byte-slice verifier APIs wrap themselves
    /// in this.
    #[must_use]
    pub fn uncached(memory: &'a [u8]) -> Self {
        ExpectedView {
            memory,
            word: None,
            baseline: None,
            patched: &[],
        }
    }

    /// The image `baseline` with `word` — `(offset, bytes)`, e.g. from
    /// [`crate::freshness::expected_word`] — laid over it. `patched`
    /// lists, in increasing order, the segments at the baseline's
    /// granularity that the word lands in: the only digests re-derived.
    /// A word that does not fit inside the image is ignored.
    #[must_use]
    pub fn cached(
        baseline: &'a CachedImage,
        word: Option<(usize, [u8; 8])>,
        patched: &'a [usize],
    ) -> Self {
        assert!(
            patched.windows(2).all(|w| w[0] < w[1]),
            "patched segments must be strictly increasing"
        );
        let memory = baseline.bytes();
        ExpectedView {
            memory,
            word: word.filter(|&(off, _)| off.checked_add(8).is_some_and(|e| e <= memory.len())),
            baseline: Some(baseline),
            patched,
        }
    }

    /// The image bytes **without** the freshness word: the shared
    /// baseline for a cached view, the bytes themselves for an uncached
    /// one. Its length is the expected image's; [`Self::parts`] gives the
    /// exact expected bytes.
    #[must_use]
    pub fn memory(&self) -> &'a [u8] {
        self.memory
    }

    /// The expected bytes of `start..end` (clamped to the image) as three
    /// slices to concatenate: baseline before the word, the part of the
    /// word inside the range, baseline after it. Either of the last two
    /// may be empty.
    #[must_use]
    pub fn parts(&self, start: usize, end: usize) -> [&[u8]; 3] {
        let end = end.min(self.memory.len());
        let start = start.min(end);
        let whole = [&self.memory[start..end], &[][..], &[][..]];
        let Some((off, word)) = &self.word else {
            return whole;
        };
        let (from, to) = ((*off).clamp(start, end), (off + 8).clamp(start, end));
        if from == to {
            return whole;
        }
        [
            &self.memory[start..from],
            &word[from - off..to - off],
            &self.memory[to..end],
        ]
    }

    fn baseline_at(&self, segment_len: usize) -> Option<&'a CachedImage> {
        self.baseline
            .filter(|base| base.segment_len() as usize == segment_len)
    }

    /// The full digest vector of the expected bytes at `segment_len`
    /// granularity: the baseline vector with only the patched segments
    /// re-digested when a matching baseline is present, a full sweep
    /// otherwise.
    #[must_use]
    pub fn digests(&self, segment_len: usize) -> Vec<[u8; DIGEST_SIZE]> {
        let seg_len = segment_len.max(1);
        if let Some(base) = self.baseline_at(seg_len) {
            let mut out = base.digests().to_vec();
            for &i in self.patched {
                if let Some(slot) = out.get_mut(i) {
                    *slot = self.digest_of(i, seg_len);
                }
            }
            metrics::counter_add("imagecache.digest_patched", self.patched.len() as u64);
            out
        } else {
            metrics::counter_add("imagecache.digest_sweep_fallback", 1);
            (0..self.memory.len().div_ceil(seg_len))
                .map(|i| self.digest_of(i, seg_len))
                .collect()
        }
    }

    /// Runs `f` on gather parts whose concatenation is `head` followed by
    /// [`Self::digests`]: runs of baseline digests are borrowed in place
    /// and only the patched segments are digested, so the verifier MACs
    /// the combine input without copying the vector.
    pub fn with_digest_parts<R>(
        &self,
        segment_len: usize,
        head: &[&[u8]],
        f: impl FnOnce(&[&[u8]]) -> R,
    ) -> R {
        let seg_len = segment_len.max(1);
        let Some(base) = self.baseline_at(seg_len) else {
            let digests = self.digests(seg_len);
            return f(&[head, &[digests.as_flattened()]].concat());
        };
        let digests = base.digests();
        let patched = &self.patched[..self.patched.partition_point(|&i| i < digests.len())];
        let fresh: Vec<[u8; DIGEST_SIZE]> = patched
            .iter()
            .map(|&i| self.digest_of(i, seg_len))
            .collect();
        metrics::counter_add("imagecache.digest_patched", fresh.len() as u64);
        let mut parts = Vec::with_capacity(head.len() + 2 * fresh.len() + 1);
        parts.extend_from_slice(head);
        let mut next = 0;
        for (&i, digest) in patched.iter().zip(&fresh) {
            parts.push(digests[next..i].as_flattened());
            parts.push(digest);
            next = i + 1;
        }
        parts.push(digests[next..].as_flattened());
        f(&parts)
    }

    /// The digest of segment `index` alone: straight from the baseline
    /// when it is valid for that segment, recomputed from the expected
    /// bytes otherwise.
    #[must_use]
    pub fn segment_digest_at(&self, index: usize, segment_len: usize) -> [u8; DIGEST_SIZE] {
        let seg_len = segment_len.max(1);
        if !self.patched.contains(&index) {
            if let Some(base) = self.baseline_at(seg_len) {
                if let Some(d) = base.digests().get(index) {
                    return *d;
                }
            }
        }
        self.digest_of(index, seg_len)
    }

    fn digest_of(&self, index: usize, seg_len: usize) -> [u8; DIGEST_SIZE] {
        let start = index.saturating_mul(seg_len);
        segcache::segment_digest_parts(
            index as u32,
            &self.parts(start, start.saturating_add(seg_len)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| fill ^ (i as u8)).collect()
    }

    #[test]
    fn key_binds_contents_length_and_granularity() {
        let a = ImageKey::derive(&image(1, 512), 256);
        assert_eq!(a, ImageKey::derive(&image(1, 512), 256));
        assert_ne!(a, ImageKey::derive(&image(2, 512), 256));
        assert_ne!(a, ImageKey::derive(&image(1, 513), 256));
        assert_ne!(a, ImageKey::derive(&image(1, 512), 128));
        assert_ne!(a, ImageKey::derive(&image(1, 512), 0));
        assert_eq!(a.to_hex().len(), 2 * DIGEST_SIZE);
    }

    #[test]
    fn intern_hits_on_identical_images_and_sweeps_once() {
        let cache = ImageCache::new(4);
        let img = image(7, 1024);
        let a = cache.intern(&img, 256);
        let b = cache.intern(&img, 256);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.digests().len(), 4);
        assert_eq!(a.digests(), &segcache::segment_digests(&img, 256)[..]);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.digest_sweeps, 1);
        assert!(s.conservation_holds());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ImageCache::new(2);
        let a = cache.intern(&image(1, 128), 64);
        let _b = cache.intern(&image(2, 128), 64);
        cache.touch(&a); // a most recent; b is now LRU
        let _c = cache.intern(&image(3, 128), 64);
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        // a survived, b did not.
        cache.touch(&a);
        assert_eq!(cache.stats().hits, s.hits + 1);
        assert!(cache.stats().conservation_holds());
    }

    #[test]
    fn touch_refills_evicted_entry_without_recompute() {
        let cache = ImageCache::new(1);
        let a = cache.intern(&image(1, 128), 64);
        let _b = cache.intern(&image(2, 128), 64); // evicts a
        let sweeps_before = cache.stats().digest_sweeps;
        cache.touch(&a); // refill, no sweep
        let s = cache.stats();
        assert_eq!(s.refills, 1);
        assert_eq!(s.digest_sweeps, sweeps_before);
        assert!(s.conservation_holds());
        // a is resident again.
        cache.touch(&a);
        assert!(cache.stats().conservation_holds());
    }

    #[test]
    fn invalidate_drops_entry_and_counts() {
        let cache = ImageCache::new(4);
        let a = cache.intern(&image(1, 128), 64);
        assert!(cache.invalidate(a.key()));
        assert!(!cache.invalidate(a.key()));
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
        let _ = cache.intern(&image(1, 128), 64);
        let _ = cache.intern(&image(2, 128), 64);
        assert_eq!(cache.invalidate_all(), 2);
        assert!(cache.stats().conservation_holds());
    }

    #[test]
    fn view_patched_digests_match_full_sweep() {
        let base_img = image(9, 1000); // trailing partial segment
        let baseline = CachedImage::compute(base_img.clone(), 256);
        // A word straddling segments 0 and 1, and one inside the partial
        // segment 3.
        for (off, patched) in [(252usize, &[0usize, 1][..]), (990, &[3][..])] {
            let word = [0xA5u8, 1, 2, 3, 4, 5, 6, 7];
            let mut patched_img = base_img.clone();
            patched_img[off..off + 8].copy_from_slice(&word);
            let view = ExpectedView::cached(&baseline, Some((off, word)), patched);
            let sweep = segcache::segment_digests(&patched_img, 256);
            assert_eq!(view.digests(256), sweep);
            for (i, digest) in sweep.iter().enumerate() {
                assert_eq!(view.segment_digest_at(i, 256), *digest);
            }
            assert_eq!(view.parts(0, usize::MAX).concat(), patched_img);
            assert_eq!(view.memory(), &base_img[..]);
            view.with_digest_parts(256, &[b"head"], |parts| {
                assert_eq!(
                    parts.concat(),
                    [&b"head"[..], sweep.as_flattened()].concat()
                );
            });
            // Uncached view of the patched copy agrees too.
            assert_eq!(ExpectedView::uncached(&patched_img).digests(256), sweep);
        }
    }

    #[test]
    fn view_falls_back_on_mismatched_baseline() {
        // Baseline digested at 256, asked at 128: the view sweeps.
        let img = image(9, 1024);
        let baseline = CachedImage::compute(img.clone(), 256);
        let view = ExpectedView::cached(&baseline, None, &[]);
        assert_eq!(view.digests(128), segcache::segment_digests(&img, 128));
        view.with_digest_parts(128, &[], |parts| {
            assert_eq!(
                parts.concat(),
                segcache::segment_digests(&img, 128).concat()
            );
        });
    }
}
