/**
 * @file
 * PCLMUL folding for the reflected IEEE 802.3 CRC-32.
 *
 * Follows Intel's "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ Instruction" (the same fold-by-4 schedule the Linux kernel
 * and zlib use): four 128-bit lanes each fold 64 input bytes per
 * iteration with two carry-less multiplies, then the lanes collapse to
 * 128 bits, to 64, and a Barrett reduction yields the 32-bit state.
 * The folding constants are x^k mod P for the reflected polynomial —
 * wrong constants produce wrong CRCs for *every* input, so the
 * bit-identity tests against slicing-by-8 pin them.
 *
 * The whole file is inert unless built for a GCC/Clang x86-64 target;
 * the function carries a target attribute instead of global -mpclmul
 * so the rest of the binary stays baseline-ISA.
 */

#include "net/crc32_pclmul.hh"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

namespace unet::net::detail {

bool
crc32PclmulAvailable()
{
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

namespace {

/** k1 = x^544 mod P, k2 = x^480 mod P: fold 512 bits forward. */
const std::uint64_t foldBy4[2] = {0x0154442bd4u, 0x01c6e41596u};

/** k3 = x^160 mod P, k4 = x^96 mod P: fold lane-to-lane / to 128. */
const std::uint64_t foldBy1[2] = {0x01751997d0u, 0x00ccaa009eu};

/** k5 = x^64 mod P: fold 128 bits to 64. */
const std::uint64_t fold64[2] = {0x0163cd6124u, 0};

/** Barrett constants: P' (low), mu (high). */
const std::uint64_t barrett[2] = {0x01db710641u, 0x01f7011641u};

} // namespace

__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crc32FoldPclmul(std::uint32_t state, const std::uint8_t *p,
                std::size_t n)
{
    // Caller guarantees n >= 64 and n % 64 == 0.
    const __m128i k12 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(foldBy4));

    __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 16));
    __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 32));
    __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 48));
    a = _mm_xor_si128(a, _mm_cvtsi32_si128(
                             static_cast<int>(state)));
    p += 64;
    n -= 64;

    while (n >= 64) {
        __m128i la = _mm_clmulepi64_si128(a, k12, 0x00);
        __m128i lb = _mm_clmulepi64_si128(b, k12, 0x00);
        __m128i lc = _mm_clmulepi64_si128(c, k12, 0x00);
        __m128i ld = _mm_clmulepi64_si128(d, k12, 0x00);
        a = _mm_clmulepi64_si128(a, k12, 0x11);
        b = _mm_clmulepi64_si128(b, k12, 0x11);
        c = _mm_clmulepi64_si128(c, k12, 0x11);
        d = _mm_clmulepi64_si128(d, k12, 0x11);
        a = _mm_xor_si128(
            _mm_xor_si128(a, la),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
        b = _mm_xor_si128(
            _mm_xor_si128(b, lb),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + 16)));
        c = _mm_xor_si128(
            _mm_xor_si128(c, lc),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + 32)));
        d = _mm_xor_si128(
            _mm_xor_si128(d, ld),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + 48)));
        p += 64;
        n -= 64;
    }

    // Collapse the four lanes into one 128-bit remainder.
    const __m128i k34 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(foldBy1));
    __m128i lo = _mm_clmulepi64_si128(a, k34, 0x00);
    a = _mm_clmulepi64_si128(a, k34, 0x11);
    a = _mm_xor_si128(_mm_xor_si128(a, lo), b);
    lo = _mm_clmulepi64_si128(a, k34, 0x00);
    a = _mm_clmulepi64_si128(a, k34, 0x11);
    a = _mm_xor_si128(_mm_xor_si128(a, lo), c);
    lo = _mm_clmulepi64_si128(a, k34, 0x00);
    a = _mm_clmulepi64_si128(a, k34, 0x11);
    a = _mm_xor_si128(_mm_xor_si128(a, lo), d);

    // 128 -> 64 bits.
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i t = _mm_clmulepi64_si128(a, k34, 0x10);
    a = _mm_xor_si128(_mm_srli_si128(a, 8), t);

    const __m128i k5 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(fold64));
    t = _mm_srli_si128(a, 4);
    a = _mm_and_si128(a, mask32);
    a = _mm_clmulepi64_si128(a, k5, 0x00);
    a = _mm_xor_si128(a, t);

    // Barrett reduction to the final 32-bit state.
    const __m128i pm =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(barrett));
    t = _mm_and_si128(a, mask32);
    t = _mm_clmulepi64_si128(t, pm, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, pm, 0x00);
    a = _mm_xor_si128(a, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(a, 1));
}

} // namespace unet::net::detail

#else // wrong arch/compiler

namespace unet::net::detail {

bool
crc32PclmulAvailable()
{
    return false;
}

std::uint32_t
crc32FoldPclmul(std::uint32_t state, const std::uint8_t *, std::size_t)
{
    return state; // unreachable: availability gate is false
}

} // namespace unet::net::detail

#endif
