//! SHA-256 block compression on the x86-64 SHA extensions.
//!
//! `sha256rnds2` runs two rounds per instruction and `sha256msg1`/`msg2`
//! expand the message schedule four words at a time, so one 64-byte block
//! costs a few dozen instructions instead of the ~2 000 of the portable
//! round loop.  The default backend's sequential path
//! ([`crate::sha256::CompressBackend::Simd`]) dispatches here when
//! [`available`] reports the extensions; CPUs without them keep the
//! portable compressor, and the scalar oracle never comes here.
//!
//! This module holds the crate's only intrinsics.  Its `unsafe` is confined
//! to the `#[target_feature]` function and the one probe-guarded call into
//! it ([`compress_blocks`]).

// Intrinsics behind a runtime feature probe (see the module docs).
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::{BLOCK_LEN, K};

/// Whether this CPU has the SHA extensions (and SSE4.1, which the state
/// shuffles use).  `is_x86_feature_detected!` probes CPUID once per process
/// and caches the answer, so this is a load and a bit test.
#[inline]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Compresses every 64-byte block of `data` (whose length must be a
/// multiple of 64) into `state` on the SHA extensions.
///
/// Returns `false`, leaving `state` untouched, on a CPU without them.
pub fn compress_blocks(state: &mut [u32; 8], data: &[u8]) -> bool {
    assert_eq!(data.len() % BLOCK_LEN, 0, "whole blocks only");
    if !available() {
        return false;
    }
    // SAFETY: the probe above guarantees the `sha` and `sse4.1` features
    // the callee is compiled for, and `data` holds whole blocks, which is
    // all the callee's unaligned loads read.
    unsafe { compress_blocks_sha(state, data) };
    true
}

/// `w[i..i + 4]` for the next four rounds from the previous sixteen words
/// (`v0` oldest): `sha256msg1` adds σ0, the `alignr` supplies `w[i - 7]`,
/// and `sha256msg2` adds σ1 of the words it has just produced.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(v0, v1), _mm_alignr_epi8::<4>(v3, v2));
    _mm_sha256msg2_epu32(t, v3)
}

/// # Safety
///
/// The CPU must support `sha` and `sse4.1`, and `data.len()` must be a
/// multiple of [`BLOCK_LEN`].
#[target_feature(enable = "sha,sse4.1")]
unsafe fn compress_blocks_sha(state: &mut [u32; 8], data: &[u8]) {
    // SAFETY (every load and store below): each is a 16-byte unaligned
    // access at an offset that stays inside `state` (32 bytes), one 64-byte
    // block of `data` (`chunks_exact` yields whole blocks only), or `K` (64
    // words, read four at a time at word offsets 0, 4, ..., 60).  The
    // intrinsics themselves need only the features the caller guarantees.

    // Byte-swaps each 32-bit word: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // The round instructions keep the state as (a, b, e, f) and
    // (c, d, g, h), high lane first.
    let st = state.as_ptr().cast::<__m128i>();
    let cdab = _mm_shuffle_epi32::<0xb1>(_mm_loadu_si128(st));
    let efgh = _mm_shuffle_epi32::<0x1b>(_mm_loadu_si128(st.add(1)));
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    // Four rounds on the schedule words `w` of round group `g`.
    macro_rules! rounds4 {
        ($w:expr, $g:expr) => {{
            let kw = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $g).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(kw));
        }};
    }

    for block in data.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        // From group 4 on, each group's words replace the oldest held.
        for g in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4!(w0, g);
            w1 = schedule(w1, w2, w3, w0);
            rounds4!(w1, g + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4!(w2, g + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4!(w3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let st = state.as_mut_ptr().cast::<__m128i>();
    _mm_storeu_si128(st, _mm_blend_epi16::<0xf0>(feba, dchg));
    _mm_storeu_si128(st.add(1), _mm_alignr_epi8::<8>(dchg, feba));
}
