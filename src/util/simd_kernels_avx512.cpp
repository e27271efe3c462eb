/**
 * @file
 * AVX-512 kernel table: the generic kernels (simd_kernels_generic.hpp)
 * compiled with -mavx512f/bw/dq/vl and left to the auto-vectorizer,
 * plus hand-written mulWords, denseColumn and rowProduct (rows of up
 * to 8 words), the kernels whose intrinsics beat the auto-vectorized
 * build by at least 1.2x in bench_micro (medians in ARCHITECTURE.md).
 * VPOPCNTDQ is deliberately not required.
 *
 * CMake confines the -mavx512* flags to this TU and defines
 * QUCLEAR_SIMD_COMPILE_AVX512 only when the level is compiled in, so
 * the rest of the binary stays runnable on non-AVX hosts and the
 * dispatcher only hands this table out after the CPUID probe passes.
 * The hand-written kernels reproduce the generic XOR-fold / popcount
 * results exactly.
 */
#include "util/simd_kernels_internal.hpp"

#if defined(QUCLEAR_SIMD_COMPILE_AVX512) && \
    (defined(__x86_64__) || defined(__i386__))

// GCC 12 reports a false -Wmaybe-uninitialized / -Wuninitialized on
// the deliberately self-initialized `__Y` inside avx512fintrin.h when
// its inlined intrinsics meet -fsanitize=thread. The pragma covers
// only the system header, so warnings in this file still fail -Werror.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <bit>
#include <cstdint>

#include "util/simd_kernels_generic.hpp"
#include "util/support_index.hpp"

namespace quclear::simd {

namespace {

inline __m512i
loadu(const uint64_t *p)
{
    return _mm512_loadu_si512(p);
}

inline void
storeu(uint64_t *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

/** Per-64-bit-lane popcount (byte-shuffle LUT + psadbw, no VPOPCNTDQ). */
inline __m512i
popcnt64x8(__m512i v)
{
    const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i low = _mm512_set1_epi8(0x0F);
    const __m512i lo = _mm512_and_si512(v, low);
    const __m512i hi =
        _mm512_and_si512(_mm512_srli_epi16(v, 4), low);
    const __m512i cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                        _mm512_shuffle_epi8(lut, hi));
    return _mm512_sad_epu8(cnt, _mm512_setzero_si512());
}

inline uint64_t
hxor(__m512i v)
{
    const __m256i h =
        _mm256_xor_si256(_mm512_castsi512_si256(v),
                         _mm512_extracti64x4_epi64(v, 1));
    const __m128i s = _mm_xor_si128(_mm256_castsi256_si128(h),
                                    _mm256_extracti128_si256(h, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) ^
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/** Per-lane exclusive prefix-parity scan (the generic shift cascade). */
inline __m512i
prefixParityExclusive8(__m512i v)
{
    v = _mm512_xor_si512(v, _mm512_slli_epi64(v, 1));
    v = _mm512_xor_si512(v, _mm512_slli_epi64(v, 2));
    v = _mm512_xor_si512(v, _mm512_slli_epi64(v, 4));
    v = _mm512_xor_si512(v, _mm512_slli_epi64(v, 8));
    v = _mm512_xor_si512(v, _mm512_slli_epi64(v, 16));
    v = _mm512_xor_si512(v, _mm512_slli_epi64(v, 32));
    return _mm512_slli_epi64(v, 1);
}

/**
 * mulWords over whole 8-word vectors; the generic kernel takes the
 * tail (the tallies add mod 4 across word ranges) and every string
 * shorter than one vector, where the horizontal sums cost more than
 * they save.
 */
uint32_t
mulWordsAvx512(uint64_t *xa, uint64_t *za, const uint64_t *xb,
               const uint64_t *zb, uint32_t n)
{
    const uint32_t full = n & ~7u;
    const uint32_t tail =
        mulWords(xa + full, za + full, xb + full, zb + full, n - full);
    if (full == 0)
        return tail;
    __m512i plus_v = _mm512_setzero_si512();
    __m512i minus_v = _mm512_setzero_si512();
    for (uint32_t w = 0; w < full; w += 8) {
        const __m512i x1 = loadu(xa + w);
        const __m512i z1 = loadu(za + w);
        const __m512i x2 = loadu(xb + w);
        const __m512i z2 = loadu(zb + w);
        const __m512i p = _mm512_or_si512(
            _mm512_or_si512(
                _mm512_and_si512(_mm512_andnot_si512(z1, x1),
                                 _mm512_and_si512(x2, z2)),
                _mm512_and_si512(_mm512_and_si512(x1, z1),
                                 _mm512_andnot_si512(x2, z2))),
            _mm512_and_si512(_mm512_andnot_si512(x1, z1),
                             _mm512_andnot_si512(z2, x2)));
        const __m512i m = _mm512_or_si512(
            _mm512_or_si512(
                _mm512_and_si512(_mm512_andnot_si512(z2, x2),
                                 _mm512_and_si512(x1, z1)),
                _mm512_and_si512(_mm512_and_si512(x2, z2),
                                 _mm512_andnot_si512(x1, z1))),
            _mm512_and_si512(_mm512_andnot_si512(x2, z2),
                             _mm512_andnot_si512(z1, x1)));
        plus_v = _mm512_add_epi64(plus_v, popcnt64x8(p));
        minus_v = _mm512_add_epi64(minus_v, popcnt64x8(m));
        storeu(xa + w, _mm512_xor_si512(x1, x2));
        storeu(za + w, _mm512_xor_si512(z1, z2));
    }
    const uint64_t plus =
        static_cast<uint64_t>(_mm512_reduce_add_epi64(plus_v));
    const uint64_t minus =
        static_cast<uint64_t>(_mm512_reduce_add_epi64(minus_v));
    return static_cast<uint32_t>((tail + plus + 3 * (minus & 3)) & 3);
}

DenseColumnResult
denseColumnAvx512(const uint64_t *xc, const uint64_t *zc,
                  const uint64_t *mask, uint32_t n)
{
    // Below one vector the horizontal folds cost more than they save.
    if (n < 8)
        return denseColumn(xc, zc, mask, n);
    __m512i xfold_v = _mm512_setzero_si512();
    __m512i zfold_v = _mm512_setzero_si512();
    __m512i pair_v = _mm512_setzero_si512();
    __m512i ycnt_v = _mm512_setzero_si512();
    uint64_t z_run = 0; // parity (0/1) of z bits in lower words
    uint32_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i mw = loadu(mask + w);
        const __m512i ux = _mm512_and_si512(loadu(xc + w), mw);
        const __m512i uz = _mm512_and_si512(loadu(zc + w), mw);
        xfold_v = _mm512_xor_si512(xfold_v, ux);
        zfold_v = _mm512_xor_si512(zfold_v, uz);
        ycnt_v = _mm512_add_epi64(
            ycnt_v, popcnt64x8(_mm512_and_si512(ux, uz)));
        pair_v = _mm512_xor_si512(
            pair_v, _mm512_and_si512(ux, prefixParityExclusive8(uz)));
        // Cross-word pairs: the 8 per-lane z popcount parities become
        // a kmask, its exclusive prefix parity (seeded with z_run)
        // expands back to an AND mask via movm.
        const __m512i cnt = popcnt64x8(uz);
        const uint32_t m = static_cast<uint32_t>(
            _mm512_test_epi64_mask(cnt, _mm512_set1_epi64(1)));
        uint32_t pm = m ^ (m << 1);
        pm ^= pm << 2;
        pm ^= pm << 4;
        const uint32_t ep =
            ((pm << 1) & 0xFFu) ^ (z_run != 0 ? 0xFFu : 0u);
        pair_v = _mm512_xor_si512(
            pair_v,
            _mm512_and_si512(
                _mm512_movm_epi64(static_cast<__mmask8>(ep)), ux));
        z_run ^= static_cast<uint64_t>(std::popcount(m)) & 1;
    }
    uint64_t x_fold = hxor(xfold_v);
    uint64_t z_fold = hxor(zfold_v);
    uint64_t pair_fold = hxor(pair_v);
    uint64_t y_count =
        static_cast<uint64_t>(_mm512_reduce_add_epi64(ycnt_v));
    for (; w < n; ++w) {
        const uint64_t ux = xc[w] & mask[w];
        const uint64_t uz = zc[w] & mask[w];
        x_fold ^= ux;
        z_fold ^= uz;
        y_count += popcnt(ux & uz);
        pair_fold ^= ux & prefixParityExclusive(uz);
        pair_fold ^= (0 - z_run) & ux;
        z_run ^= popcnt(uz) & 1;
    }
    return { popcnt(x_fold) & 1, popcnt(z_fold) & 1,
             static_cast<uint32_t>(y_count), pair_fold };
}

/** rw == 1: one 128-bit register holds the whole [x | z] row slot. */
RowProductResult
rowProduct1(const RowProductArgs &a)
{
    __m128i acc = _mm_setzero_si128();  // [acc_x, acc_z]
    __m128i fold = _mm_setzero_si128(); // lane 1 accumulates accz & xr
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const __m128i row = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    a.rowsXZ + static_cast<size_t>(r) * a.stride));
            // swapped = [z, x]; acc & swapped lane 1 = acc_z & x_row.
            const __m128i swapped = _mm_shuffle_epi32(row, 0x4E);
            fold = _mm_xor_si128(fold, _mm_and_si128(acc, swapped));
            acc = _mm_xor_si128(acc, row);
            y_rows += a.yCount[r];
        }
    });
    const uint64_t acc_x =
        static_cast<uint64_t>(_mm_cvtsi128_si64(acc));
    const uint64_t acc_z =
        static_cast<uint64_t>(_mm_extract_epi64(acc, 1));
    const uint64_t pf =
        static_cast<uint64_t>(_mm_extract_epi64(fold, 1));
    a.outX[0] = acc_x;
    a.outZ[0] = acc_z;
    return { sign_rows, y_rows, popcnt(pf) & 1, popcnt(acc_x & acc_z) };
}

/** rw == 2: one 256-bit register holds [x0, x1, z0, z1]. */
RowProductResult
rowProduct2(const RowProductArgs &a)
{
    __m256i acc = _mm256_setzero_si256();
    __m256i fold = _mm256_setzero_si256(); // lanes 2,3: accz & xr
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const __m256i row = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    a.rowsXZ + static_cast<size_t>(r) * a.stride));
            const __m256i swapped =
                _mm256_permute4x64_epi64(row, 0x4E); // [z0,z1,x0,x1]
            fold = _mm256_xor_si256(fold, _mm256_and_si256(acc, swapped));
            acc = _mm256_xor_si256(acc, row);
            y_rows += a.yCount[r];
        }
    });
    alignas(32) uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
    a.outX[0] = lanes[0];
    a.outX[1] = lanes[1];
    a.outZ[0] = lanes[2];
    a.outZ[1] = lanes[3];
    const uint32_t y_result = popcnt(lanes[0] & lanes[2]) +
                              popcnt(lanes[1] & lanes[3]);
    alignas(32) uint64_t flanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(flanes), fold);
    return { sign_rows, y_rows, popcnt(flanes[2] ^ flanes[3]) & 1,
             y_result };
}

/** rw == 3..4: one zmm holds [x0..x3, z0..z3] (rwPad == 4). */
RowProductResult
rowProduct4(const RowProductArgs &a)
{
    __m512i acc = _mm512_setzero_si512();
    __m512i fold = _mm512_setzero_si512(); // lanes 4..7: accz & xr
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const __m512i row =
                loadu(a.rowsXZ + static_cast<size_t>(r) * a.stride);
            // Swap the 256-bit halves: [z0..z3, x0..x3].
            const __m512i swapped =
                _mm512_shuffle_i64x2(row, row, 0x4E);
            fold = _mm512_xor_si512(fold, _mm512_and_si512(acc, swapped));
            acc = _mm512_xor_si512(acc, row);
            y_rows += a.yCount[r];
        }
    });
    alignas(64) uint64_t lanes[8];
    storeu(lanes, acc);
    uint32_t y_result = 0;
    for (uint32_t u = 0; u < a.rw; ++u) {
        a.outX[u] = lanes[u];
        a.outZ[u] = lanes[u + 4];
        y_result += popcnt(lanes[u] & lanes[u + 4]);
    }
    alignas(64) uint64_t flanes[8];
    storeu(flanes, fold);
    const uint64_t pf =
        flanes[4] ^ flanes[5] ^ flanes[6] ^ flanes[7];
    return { sign_rows, y_rows, popcnt(pf) & 1, y_result };
}

/** rw == 5..8: split zmm accumulators, rwPad == 8. */
RowProductResult
rowProduct8(const RowProductArgs &a)
{
    __m512i acc_x = _mm512_setzero_si512();
    __m512i acc_z = _mm512_setzero_si512();
    __m512i fold = _mm512_setzero_si512();
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const uint64_t *xr =
                a.rowsXZ + static_cast<size_t>(r) * a.stride;
            const __m512i vx = loadu(xr);
            const __m512i vz = loadu(xr + a.rwPad);
            fold = _mm512_xor_si512(fold, _mm512_and_si512(acc_z, vx));
            acc_x = _mm512_xor_si512(acc_x, vx);
            acc_z = _mm512_xor_si512(acc_z, vz);
            y_rows += a.yCount[r];
        }
    });
    alignas(64) uint64_t lx[8];
    alignas(64) uint64_t lz[8];
    storeu(lx, acc_x);
    storeu(lz, acc_z);
    uint32_t y_result = 0;
    for (uint32_t u = 0; u < a.rw; ++u) {
        a.outX[u] = lx[u];
        a.outZ[u] = lz[u];
        y_result += popcnt(lx[u] & lz[u]);
    }
    return { sign_rows, y_rows, popcnt(hxor(fold)) & 1, y_result };
}

RowProductResult
rowProductAvx512(const RowProductArgs &a)
{
    switch (a.rwPad) {
      case 1:  return rowProduct1(a);
      case 2:  return rowProduct2(a);
      case 4:  return rowProduct4(a);
      case 8:  return rowProduct8(a);
      default: return rowProduct(a);
    }
}

uint32_t
padRowWordsAvx512(uint32_t rw)
{
    // 1 -> one xmm slot, 2 -> one ymm slot, 3-4 -> one zmm slot, 5-8 ->
    // one zmm per half; wider rows take the generic walk, unpadded.
    if (rw <= 2 || rw > 8)
        return rw;
    return rw <= 4 ? 4 : 8;
}

constexpr Kernels
avx512Kernels()
{
    Kernels k = genericKernels(Level::Avx512, "avx512");
    k.mulWords = mulWordsAvx512;
    k.denseColumn = denseColumnAvx512;
    k.rowProduct = rowProductAvx512;
    k.padRowWords = padRowWordsAvx512;
    return k;
}

constexpr Kernels kAvx512Kernels = avx512Kernels();

} // namespace

namespace detail {

const Kernels *
avx512KernelsOrNull()
{
    return &kAvx512Kernels;
}

} // namespace detail

} // namespace quclear::simd

#else // !QUCLEAR_SIMD_COMPILE_AVX512

namespace quclear::simd::detail {

const Kernels *
avx512KernelsOrNull()
{
    return nullptr;
}

} // namespace quclear::simd::detail

#endif
