//! SHA-1 compression on the x86-64 SHA extensions (`sha1rnds4`,
//! `sha1nexte`, `sha1msg1`, `sha1msg2`).
//!
//! This is the only module of the crate allowed to use `unsafe`: the
//! intrinsics exist only on CPUs that report the extensions, so the
//! kernel is an `unsafe fn` behind a runtime feature check. Its output is
//! bit-identical to the portable [`super::compress_portable`], which the
//! crate's tests compare it against.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_shuffle_epi8, _mm_xor_si128,
};

use super::BLOCK_SIZE;

/// Whether this CPU runs the kernel: the SHA extensions plus the SSSE3
/// byte shuffle and the SSE4.1 lane extract it is written with.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses every 64-byte block of `blocks` into `state` if the CPU
/// has the extensions; returns `false`, leaving `state` untouched, if it
/// does not.
pub(super) fn compress(state: &mut [u32; 5], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed every target feature the
    // kernel is compiled with, which is its only precondition.
    unsafe { compress_sha_ni(state, blocks) };
    true
}

/// Four rounds: the `E` of this group is `rol30(A)` of the group four
/// rounds back (`prev`), added to the first message word by `sha1nexte`.
macro_rules! rounds4 {
    ($abcd:expr, $prev:expr, $w:expr, $func:literal) => {
        _mm_sha1rnds4_epu32($abcd, _mm_sha1nexte_epu32($prev, $w), $func)
    };
}

/// `W[t..t+4]` from the four preceding message groups.
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
        _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3)
    };
}

/// Schedules the next message group into `$w4` and runs four rounds on
/// it, writing the new `ABCD` into `$h1`.
macro_rules! schedule_rounds4 {
    ($h0:ident, $h1:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $w4:ident, $func:literal) => {
        $w4 = schedule!($w0, $w1, $w2, $w3);
        $h1 = rounds4!($h0, $h1, $w4, $func);
    };
}

/// The SHA-NI compression loop over every whole block of `blocks`.
///
/// # Safety
///
/// The CPU must support the `sha`, `ssse3` and `sse4.1` target features
/// ([`available`] checks exactly these).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 5], blocks: &[u8]) {
    // Reverses the 16 bytes of a lane: big-endian message words, with W0
    // in the highest 32-bit element where `sha1rnds4` expects it.
    let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    // A in the highest element, D in the lowest; E alone in the highest.
    let mut abcd = _mm_set_epi32(
        state[0] as i32,
        state[1] as i32,
        state[2] as i32,
        state[3] as i32,
    );
    let mut e = _mm_set_epi32(state[4] as i32, 0, 0, 0);

    for block in blocks.chunks_exact(BLOCK_SIZE) {
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 readable bytes, so the four 16-byte
        // loads at offsets 0, 16, 32 and 48 stay inside it; `loadu`
        // has no alignment requirement.
        let [mut w0, mut w1, mut w2, mut w3]: [__m128i; 4] = unsafe {
            [
                _mm_shuffle_epi8(_mm_loadu_si128(p), mask),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask),
            ]
        };
        let mut w4;

        // Rounds 0..20.
        let mut h0 = abcd;
        let mut h1 = _mm_sha1rnds4_epu32(h0, _mm_add_epi32(e, w0), 0);
        h0 = rounds4!(h1, h0, w1, 0);
        h1 = rounds4!(h0, h1, w2, 0);
        h0 = rounds4!(h1, h0, w3, 0);
        schedule_rounds4!(h0, h1, w0, w1, w2, w3, w4, 0);
        // Rounds 20..40.
        schedule_rounds4!(h1, h0, w1, w2, w3, w4, w0, 1);
        schedule_rounds4!(h0, h1, w2, w3, w4, w0, w1, 1);
        schedule_rounds4!(h1, h0, w3, w4, w0, w1, w2, 1);
        schedule_rounds4!(h0, h1, w4, w0, w1, w2, w3, 1);
        schedule_rounds4!(h1, h0, w0, w1, w2, w3, w4, 1);
        // Rounds 40..60.
        schedule_rounds4!(h0, h1, w1, w2, w3, w4, w0, 2);
        schedule_rounds4!(h1, h0, w2, w3, w4, w0, w1, 2);
        schedule_rounds4!(h0, h1, w3, w4, w0, w1, w2, 2);
        schedule_rounds4!(h1, h0, w4, w0, w1, w2, w3, 2);
        schedule_rounds4!(h0, h1, w0, w1, w2, w3, w4, 2);
        // Rounds 60..80.
        schedule_rounds4!(h1, h0, w1, w2, w3, w4, w0, 3);
        schedule_rounds4!(h0, h1, w2, w3, w4, w0, w1, 3);
        schedule_rounds4!(h1, h0, w3, w4, w0, w1, w2, 3);
        schedule_rounds4!(h0, h1, w4, w0, w1, w2, w3, 3);
        schedule_rounds4!(h1, h0, w0, w1, w2, w3, w4, 3);

        abcd = _mm_add_epi32(abcd, h0);
        e = _mm_sha1nexte_epu32(h1, e);
    }

    state[0] = _mm_extract_epi32(abcd, 3) as u32;
    state[1] = _mm_extract_epi32(abcd, 2) as u32;
    state[2] = _mm_extract_epi32(abcd, 1) as u32;
    state[3] = _mm_extract_epi32(abcd, 0) as u32;
    state[4] = _mm_extract_epi32(e, 3) as u32;
}
