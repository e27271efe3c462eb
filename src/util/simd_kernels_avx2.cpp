/**
 * @file
 * AVX2 kernel table: the generic kernels (simd_kernels_generic.hpp)
 * compiled with -mavx2 and left to the auto-vectorizer, plus
 * hand-written mulWords, denseColumn and rowProduct, the kernels whose
 * intrinsics beat the auto-vectorized build by at least 1.2x in
 * bench_micro (medians in ARCHITECTURE.md).
 *
 * CMake confines -mavx2 to this TU and defines
 * QUCLEAR_SIMD_COMPILE_AVX2 only when the level is compiled in, so the
 * rest of the binary stays runnable on non-AVX hosts and the
 * dispatcher only hands this table out after the CPUID probe passes.
 * The hand-written kernels reproduce the generic XOR-fold / popcount
 * results exactly.
 */
#include "util/simd_kernels_internal.hpp"

#if defined(QUCLEAR_SIMD_COMPILE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "util/simd_kernels_generic.hpp"
#include "util/support_index.hpp"

namespace quclear::simd {

namespace {

inline __m256i
loadu(const uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeu(uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Per-64-bit-lane popcount (pshufb nibble LUT + psadbw). */
inline __m256i
popcnt64x4(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/** Sum of the four 64-bit lanes. */
inline uint64_t
hsum(__m256i v)
{
    const __m128i s =
        _mm_add_epi64(_mm256_castsi256_si128(v),
                      _mm256_extracti128_si256(v, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/** XOR of the four 64-bit lanes. */
inline uint64_t
hxor(__m256i v)
{
    const __m128i s =
        _mm_xor_si128(_mm256_castsi256_si128(v),
                      _mm256_extracti128_si256(v, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) ^
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/** Per-lane exclusive prefix-parity scan (the generic shift cascade). */
inline __m256i
prefixParityExclusive4(__m256i v)
{
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 1));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 2));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 4));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 8));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 16));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 32));
    return _mm256_slli_epi64(v, 1);
}

/**
 * Lane-select table: row e has lane k = all-ones iff bit k of e is
 * set. Used to broadcast the per-lane exclusive z-run parities into
 * AND masks (AVX2 has no movm; a load beats four inserts).
 */
constexpr uint64_t kSet = ~0ULL;
alignas(32) constexpr uint64_t kLaneMask[16][4] = {
    { 0, 0, 0, 0 },          { kSet, 0, 0, 0 },
    { 0, kSet, 0, 0 },       { kSet, kSet, 0, 0 },
    { 0, 0, kSet, 0 },       { kSet, 0, kSet, 0 },
    { 0, kSet, kSet, 0 },    { kSet, kSet, kSet, 0 },
    { 0, 0, 0, kSet },       { kSet, 0, 0, kSet },
    { 0, kSet, 0, kSet },    { kSet, kSet, 0, kSet },
    { 0, 0, kSet, kSet },    { kSet, 0, kSet, kSet },
    { 0, kSet, kSet, kSet }, { kSet, kSet, kSet, kSet },
};

/**
 * mulWords over whole 4-word vectors; the generic kernel takes the
 * tail (the tallies add mod 4 across word ranges) and every string
 * shorter than one vector.
 */
uint32_t
mulWordsAvx2(uint64_t *xa, uint64_t *za, const uint64_t *xb,
             const uint64_t *zb, uint32_t n)
{
    const uint32_t full = n & ~3u;
    const uint32_t tail =
        mulWords(xa + full, za + full, xb + full, zb + full, n - full);
    if (full == 0)
        return tail;
    __m256i plus_v = _mm256_setzero_si256();
    __m256i minus_v = _mm256_setzero_si256();
    for (uint32_t w = 0; w < full; w += 4) {
        const __m256i x1 = loadu(xa + w);
        const __m256i z1 = loadu(za + w);
        const __m256i x2 = loadu(xb + w);
        const __m256i z2 = loadu(zb + w);
        const __m256i p = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(_mm256_andnot_si256(z1, x1),
                                 _mm256_and_si256(x2, z2)),
                _mm256_and_si256(_mm256_and_si256(x1, z1),
                                 _mm256_andnot_si256(x2, z2))),
            _mm256_and_si256(_mm256_andnot_si256(x1, z1),
                             _mm256_andnot_si256(z2, x2)));
        const __m256i m = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(_mm256_andnot_si256(z2, x2),
                                 _mm256_and_si256(x1, z1)),
                _mm256_and_si256(_mm256_and_si256(x2, z2),
                                 _mm256_andnot_si256(x1, z1))),
            _mm256_and_si256(_mm256_andnot_si256(x2, z2),
                             _mm256_andnot_si256(z1, x1)));
        plus_v = _mm256_add_epi64(plus_v, popcnt64x4(p));
        minus_v = _mm256_add_epi64(minus_v, popcnt64x4(m));
        storeu(xa + w, _mm256_xor_si256(x1, x2));
        storeu(za + w, _mm256_xor_si256(z1, z2));
    }
    const uint64_t plus = hsum(plus_v);
    const uint64_t minus = hsum(minus_v);
    return static_cast<uint32_t>((tail + plus + 3 * (minus & 3)) & 3);
}

DenseColumnResult
denseColumnAvx2(const uint64_t *xc, const uint64_t *zc,
                const uint64_t *mask, uint32_t n)
{
    // Below one vector the horizontal folds cost more than they save.
    if (n < 4)
        return denseColumn(xc, zc, mask, n);
    __m256i xfold_v = _mm256_setzero_si256();
    __m256i zfold_v = _mm256_setzero_si256();
    __m256i pair_v = _mm256_setzero_si256();
    __m256i ycnt_v = _mm256_setzero_si256();
    uint64_t z_run = 0; // parity (0/1) of z bits in lower words
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i mw = loadu(mask + w);
        const __m256i ux = _mm256_and_si256(loadu(xc + w), mw);
        const __m256i uz = _mm256_and_si256(loadu(zc + w), mw);
        xfold_v = _mm256_xor_si256(xfold_v, ux);
        zfold_v = _mm256_xor_si256(zfold_v, uz);
        ycnt_v = _mm256_add_epi64(
            ycnt_v, popcnt64x4(_mm256_and_si256(ux, uz)));
        // In-word ordered pairs: per-lane prefix scan.
        pair_v = _mm256_xor_si256(
            pair_v, _mm256_and_si256(ux, prefixParityExclusive4(uz)));
        // Cross-word pairs: exclusive prefix parity of the per-lane z
        // popcount parities (4-bit mask trick), seeded with z_run.
        const __m256i cnt = popcnt64x4(uz);
        const uint32_t m = static_cast<uint32_t>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_slli_epi64(cnt, 63))));
        uint32_t pm = m ^ (m << 1);
        pm ^= pm << 2;
        const uint32_t ep =
            ((pm << 1) & 0xFu) ^ (z_run != 0 ? 0xFu : 0u);
        pair_v = _mm256_xor_si256(
            pair_v,
            _mm256_and_si256(
                _mm256_load_si256(reinterpret_cast<const __m256i *>(
                    kLaneMask[ep])),
                ux));
        z_run ^= static_cast<uint64_t>(std::popcount(m)) & 1;
    }
    uint64_t x_fold = hxor(xfold_v);
    uint64_t z_fold = hxor(zfold_v);
    uint64_t pair_fold = hxor(pair_v);
    uint64_t y_count = hsum(ycnt_v);
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
            const __m256i row =
                loadu(a.rowsXZ + static_cast<size_t>(r) * a.stride);
            const __m256i swapped =
                _mm256_permute4x64_epi64(row, 0x4E); // [z0,z1,x0,x1]
            fold = _mm256_xor_si256(fold, _mm256_and_si256(acc, swapped));
            acc = _mm256_xor_si256(acc, row);
            y_rows += a.yCount[r];
        }
    });
    alignas(32) uint64_t lanes[4];
    storeu(lanes, acc);
    a.outX[0] = lanes[0];
    a.outX[1] = lanes[1];
    a.outZ[0] = lanes[2];
    a.outZ[1] = lanes[3];
    const uint32_t y_result = popcnt(lanes[0] & lanes[2]) +
                              popcnt(lanes[1] & lanes[3]);
    alignas(32) uint64_t flanes[4];
    storeu(flanes, fold);
    return { sign_rows, y_rows, popcnt(flanes[2] ^ flanes[3]) & 1,
             y_result };
}

/** rw == 3..4: split ymm accumulators, rwPad == 4. */
RowProductResult
rowProduct4(const RowProductArgs &a)
{
    __m256i acc_x = _mm256_setzero_si256();
    __m256i acc_z = _mm256_setzero_si256();
    __m256i fold = _mm256_setzero_si256();
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
            const __m256i vx = loadu(xr);
            const __m256i vz = loadu(xr + a.rwPad);
            fold = _mm256_xor_si256(fold, _mm256_and_si256(acc_z, vx));
            acc_x = _mm256_xor_si256(acc_x, vx);
            acc_z = _mm256_xor_si256(acc_z, vz);
            y_rows += a.yCount[r];
        }
    });
    alignas(32) uint64_t lx[4];
    alignas(32) uint64_t lz[4];
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

/** Wide path: rwPad is a multiple of 4, accumulators in scratch. */
RowProductResult
rowProductWide(const RowProductArgs &a)
{
    uint64_t *acc_x = a.scratch;
    uint64_t *acc_z = acc_x + a.rwPad;
    uint64_t *fold = acc_z + a.rwPad;
    const __m256i zero = _mm256_setzero_si256();
    for (uint32_t u = 0; u < a.rwPad; u += 4) {
        storeu(acc_x + u, zero);
        storeu(acc_z + u, zero);
        storeu(fold + u, zero);
    }
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
            const uint64_t *zr = xr + a.rwPad;
            for (uint32_t u = 0; u < a.rwPad; u += 4) {
                const __m256i vx = loadu(xr + u);
                storeu(fold + u,
                       _mm256_xor_si256(loadu(fold + u),
                                        _mm256_and_si256(
                                            loadu(acc_z + u), vx)));
                storeu(acc_x + u,
                       _mm256_xor_si256(loadu(acc_x + u), vx));
                storeu(acc_z + u, _mm256_xor_si256(loadu(acc_z + u),
                                                   loadu(zr + u)));
            }
            y_rows += a.yCount[r];
        }
    });
    uint64_t pair_fold = 0;
    uint32_t y_result = 0;
    for (uint32_t u = 0; u < a.rw; ++u) {
        pair_fold ^= fold[u];
        y_result += popcnt(acc_x[u] & acc_z[u]);
        a.outX[u] = acc_x[u];
        a.outZ[u] = acc_z[u];
    }
    for (uint32_t u = a.rw; u < a.rwPad; ++u)
        pair_fold ^= fold[u];
    return { sign_rows, y_rows, popcnt(pair_fold) & 1, y_result };
}

RowProductResult
rowProductAvx2(const RowProductArgs &a)
{
    switch (a.rwPad) {
      case 1:  return rowProduct(a); // one word: the generic walk is as fast
      case 2:  return rowProduct2(a);
      case 4:  return rowProduct4(a);
      default: return rowProductWide(a);
    }
}

uint32_t
padRowWordsAvx2(uint32_t rw)
{
    // 1 -> unpadded generic walk, 2 -> [x|z] in one ymm; beyond that
    // pad each half to whole ymm vectors.
    if (rw <= 2)
        return rw;
    return (rw + 3) & ~3u;
}

constexpr Kernels
avx2Kernels()
{
    Kernels k = genericKernels(Level::Avx2, "avx2");
    k.mulWords = mulWordsAvx2;
    k.denseColumn = denseColumnAvx2;
    k.rowProduct = rowProductAvx2;
    k.padRowWords = padRowWordsAvx2;
    return k;
}

constexpr Kernels kAvx2Kernels = avx2Kernels();

} // namespace

namespace detail {

const Kernels *
avx2KernelsOrNull()
{
    return &kAvx2Kernels;
}

} // namespace detail

} // namespace quclear::simd

#else // !QUCLEAR_SIMD_COMPILE_AVX2

namespace quclear::simd::detail {

const Kernels *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace quclear::simd::detail

#endif
