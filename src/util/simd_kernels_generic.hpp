/**
 * @file
 * The generic kernel bodies behind every SIMD kernel table.
 *
 * These are the reference loops, lifted from the pre-dispatch
 * PackedTableau / PauliString hot paths (see the gate comments there
 * for the sign algebra). Each backend TU (simd_kernels_scalar.cpp,
 * _avx2.cpp, _avx512.cpp) includes this file once and is compiled with
 * its own ISA flags, so the same source yields a portable table and
 * two auto-vectorized ones. Some bodies are shaped for the vectorizer:
 * the gate-append columns are __restrict, anticommuteParity folds
 * words before its one popcount, and the transpose walks contiguous
 * half-blocks. A backend TU may then overwrite the entries it
 * hand-writes; those must match these bodies bit for bit.
 *
 * Everything here sits in an anonymous namespace. Each TU therefore
 * gets its own internal copies, and the linker can never fold an
 * AVX-compiled kernel into the scalar table, which must run on any
 * x86-64 host.
 */
#ifndef QUCLEAR_UTIL_SIMD_KERNELS_GENERIC_HPP
#define QUCLEAR_UTIL_SIMD_KERNELS_GENERIC_HPP

#include <bit>
#include <cstdint>
#include <utility>

#include "util/simd_dispatch.hpp"
#include "util/support_index.hpp"

namespace quclear::simd {

namespace {

inline uint32_t
popcnt(uint64_t v)
{
    return static_cast<uint32_t>(std::popcount(v));
}

/**
 * Exclusive prefix-parity scan: bit l of the result is the parity of
 * bits 0..l-1 of @p v.
 */
inline uint64_t
prefixParityExclusive(uint64_t v)
{
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    return v << 1;
}

void
appendH(uint64_t *__restrict x, uint64_t *__restrict z,
        uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // H: X <-> Z, Y -> -Y.
        s[w] ^= x[w] & z[w];
        std::swap(x[w], z[w]);
    }
}

void
appendS(uint64_t *__restrict x, uint64_t *__restrict z,
        uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // S: X -> Y, Y -> -X, Z -> Z.
        s[w] ^= x[w] & z[w];
        z[w] ^= x[w];
    }
}

void
appendSdg(uint64_t *__restrict x, uint64_t *__restrict z,
          uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // Sdg: X -> -Y, Y -> X, Z -> Z.
        s[w] ^= x[w] & ~z[w];
        z[w] ^= x[w];
    }
}

void
appendSqrtX(uint64_t *__restrict x, uint64_t *__restrict z,
            uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // sqrt(X): X -> X, Z -> -Y, Y -> Z.
        s[w] ^= ~x[w] & z[w];
        x[w] ^= z[w];
    }
}

void
appendSqrtXdg(uint64_t *__restrict x, uint64_t *__restrict z,
              uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // sqrt(X)~: X -> X, Z -> Y, Y -> -Z.
        s[w] ^= x[w] & z[w];
        x[w] ^= z[w];
    }
}

void
appendCX(uint64_t *__restrict xc, uint64_t *__restrict zc,
         uint64_t *__restrict xt, uint64_t *__restrict zt,
         uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // Aaronson-Gottesman: sign flips iff xc & zt & ~(xt ^ zc).
        s[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
}

void
appendCZ(uint64_t *__restrict xa, uint64_t *__restrict za,
         uint64_t *__restrict xb, uint64_t *__restrict zb,
         uint64_t *__restrict s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // CZ: sign flips iff xa & xb & (za ^ zb); za ^= xb, zb ^= xa.
        s[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w]);
        za[w] ^= xb[w];
        zb[w] ^= xa[w];
    }
}

void
xorInto(uint64_t *__restrict dst, const uint64_t *__restrict a,
        uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w)
        dst[w] ^= a[w];
}

void
xorInto2(uint64_t *__restrict dst, const uint64_t *__restrict a,
         const uint64_t *__restrict b, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w)
        dst[w] ^= a[w] ^ b[w];
}

void
swapWords(uint64_t *a, uint64_t *b, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w)
        std::swap(a[w], b[w]);
}

uint64_t
popcountWords(const uint64_t *a, uint32_t n)
{
    uint64_t c = 0;
    for (uint32_t w = 0; w < n; ++w)
        c += popcnt(a[w]);
    return c;
}

uint64_t
popcountAnd(const uint64_t *a, const uint64_t *b, uint32_t n)
{
    uint64_t c = 0;
    for (uint32_t w = 0; w < n; ++w)
        c += popcnt(a[w] & b[w]);
    return c;
}

uint32_t
anticommuteParity(const uint64_t *xa, const uint64_t *za,
                  const uint64_t *xb, const uint64_t *zb, uint32_t n)
{
    // Symplectic inner product: parities fold across words because
    // popcount(a) + popcount(b) == popcount(a ^ b) (mod 2), so one
    // popcount of the XOR-folded word suffices and the loop body is
    // pure bitwise work the auto-vectorizer can widen.
    uint64_t fold = 0;
    for (uint32_t w = 0; w < n; ++w)
        fold ^= (xa[w] & zb[w]) ^ (za[w] & xb[w]);
    return popcnt(fold) & 1;
}

uint32_t
mulWords(uint64_t *xa, uint64_t *za, const uint64_t *xb,
         const uint64_t *zb, uint32_t n)
{
    // Per qubit, the i-exponent of sigma(x1,z1).sigma(x2,z2) is +1 for
    // (X,Y),(Y,Z),(Z,X) and -1 for the reversed orders (0 otherwise);
    // the +-1 tallies become two branch-free popcounts per word.
    uint64_t plus = 0, minus = 0;
    for (uint32_t w = 0; w < n; ++w) {
        const uint64_t x1 = xa[w], z1 = za[w];
        const uint64_t x2 = xb[w], z2 = zb[w];
        const uint64_t p = (x1 & ~z1 & x2 & z2) |
                           (x1 & z1 & ~x2 & z2) |
                           (~x1 & z1 & x2 & ~z2);
        const uint64_t m = (x2 & ~z2 & x1 & z1) |
                           (x2 & z2 & ~x1 & z1) |
                           (~x2 & z2 & x1 & ~z1);
        plus += popcnt(p);
        minus += popcnt(m);
        xa[w] ^= x2;
        za[w] ^= z2;
    }
    return static_cast<uint32_t>((plus + 3 * (minus & 3)) & 3);
}

DenseColumnResult
denseColumn(const uint64_t *xc, const uint64_t *zc, const uint64_t *mask,
            uint32_t n)
{
    uint64_t x_fold = 0, z_fold = 0;
    uint64_t pair_fold = 0;
    uint32_t y_count = 0;
    uint64_t z_run = 0; // parity (0/1) of z bits in lower words
    for (uint32_t w = 0; w < n; ++w) {
        const uint64_t ux = xc[w] & mask[w];
        const uint64_t uz = zc[w] & mask[w];
        x_fold ^= ux;
        z_fold ^= uz;
        y_count += popcnt(ux & uz);
        // Ordered (z_j, x_l), j < l pairs: in-word via the prefix scan,
        // cross-word via the running z parity broadcast.
        pair_fold ^= ux & prefixParityExclusive(uz);
        pair_fold ^= (0 - z_run) & ux;
        z_run ^= popcnt(uz) & 1;
    }
    return { popcnt(x_fold) & 1, popcnt(z_fold) & 1, y_count, pair_fold };
}

/**
 * rowsumColumn with the broadcast letter as a compile-time constant:
 * fixing (x2, z2) collapses the mulWords case tables to two-term
 * boolean functions of the row letters, and the +-i tallies become a
 * carry-save add into the two phase bit-planes (+1 for plus rows,
 * +3 == +2 then +1 for minus rows, all mod 4).
 */
template <bool BX, bool BZ>
void
rowsumColumnImpl(uint64_t *xc, uint64_t *zc, const uint64_t *mask,
                 uint64_t *acc0, uint64_t *acc1, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        const uint64_t m = mask[w];
        const uint64_t x1 = xc[w], z1 = zc[w];
        uint64_t plus, minus;
        if (BX && BZ) {  // . Y: X -> +i, Z -> -i
            plus = x1 & ~z1;
            minus = ~x1 & z1;
        } else if (BX) { // . X: Z -> +i, Y -> -i
            plus = ~x1 & z1;
            minus = x1 & z1;
        } else {         // . Z: Y -> +i, X -> -i
            plus = x1 & z1;
            minus = x1 & ~z1;
        }
        plus &= m;
        minus &= m;
        uint64_t carry = acc0[w] & plus;
        acc0[w] ^= plus;
        acc1[w] ^= carry ^ minus;
        carry = acc0[w] & minus;
        acc0[w] ^= minus;
        acc1[w] ^= carry;
        if (BX)
            xc[w] ^= m;
        if (BZ)
            zc[w] ^= m;
    }
}

void
rowsumColumn(uint64_t *xc, uint64_t *zc, const uint64_t *mask,
             uint32_t bx, uint32_t bz, uint64_t *acc0, uint64_t *acc1,
             uint32_t n)
{
    if (bx != 0 && bz != 0)
        rowsumColumnImpl<true, true>(xc, zc, mask, acc0, acc1, n);
    else if (bx != 0)
        rowsumColumnImpl<true, false>(xc, zc, mask, acc0, acc1, n);
    else if (bz != 0)
        rowsumColumnImpl<false, true>(xc, zc, mask, acc0, acc1, n);
    // identity broadcast: no-op
}

/**
 * Row-product walk with the words-per-row count as a compile-time
 * constant when RW > 0, so the inner word loop fully unrolls (RW == 0
 * is the fallback above 256 qubits).
 */
template <uint32_t RW>
RowProductResult
rowProductImpl(const RowProductArgs &a)
{
    const uint32_t rw = RW != 0 ? RW : a.rw;
    uint64_t *acc_x = a.scratch;
    uint64_t *acc_z = acc_x + rw;
    uint64_t *fold = acc_z + rw;
    for (uint32_t u = 0; u < rw; ++u) {
        acc_x[u] = 0;
        acc_z[u] = 0;
        fold[u] = 0;
    }

    uint32_t sign_rows = 0; // rows contributing -1
    uint32_t y_rows = 0;    // sum of per-row |x_j & z_j| (mod 4 at end)
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
            for (uint32_t u = 0; u < rw; ++u) {
                fold[u] ^= acc_z[u] & xr[u]; // ordered pairs, j < l
                acc_x[u] ^= xr[u];
                acc_z[u] ^= zr[u];
            }
            y_rows += a.yCount[r];
        }
    });

    uint64_t pair_fold = 0;
    uint32_t y_result = 0; // |outX & outZ|
    for (uint32_t u = 0; u < rw; ++u) {
        pair_fold ^= fold[u];
        y_result += popcnt(acc_x[u] & acc_z[u]);
        a.outX[u] = acc_x[u];
        a.outZ[u] = acc_z[u];
    }
    return { sign_rows, y_rows, popcnt(pair_fold) & 1, y_result };
}

RowProductResult
rowProduct(const RowProductArgs &a)
{
    switch (a.rw) {
      case 1:  return rowProductImpl<1>(a);
      case 2:  return rowProductImpl<2>(a);
      case 3:  return rowProductImpl<3>(a);
      case 4:  return rowProductImpl<4>(a);
      default: return rowProductImpl<0>(a);
    }
}

uint32_t
padRowWords(uint32_t rw)
{
    return rw; // the generic walk needs no padding
}

/**
 * One block-swap round of the 64x64 bit transpose with a compile-time
 * stride so the 32-iteration loop fully unrolls. Each block is walked
 * as two contiguous half-blocks so the auto-vectorizer can widen the
 * rounds with J >= the vector width into whole-vector operations.
 */
template <uint32_t J, uint64_t M>
inline void
transposeStep(uint64_t a[64])
{
    for (uint32_t base = 0; base < 64; base += 2 * J) {
        uint64_t *lo = a + base;
        uint64_t *hi = lo + J;
        for (uint32_t off = 0; off < J; ++off) {
            const uint64_t t = ((lo[off] >> J) ^ hi[off]) & M;
            lo[off] ^= t << J;
            hi[off] ^= t;
        }
    }
}

/**
 * In-place 64x64 bit-matrix transpose (recursive block swap, Hacker's
 * Delight 7-3 adapted to LSB-first bit order): afterwards bit j of
 * a[i] is the old bit i of a[j].
 */
inline void
transpose64(uint64_t a[64])
{
    transposeStep<32, 0x00000000FFFFFFFFULL>(a);
    transposeStep<16, 0x0000FFFF0000FFFFULL>(a);
    transposeStep<8, 0x00FF00FF00FF00FFULL>(a);
    transposeStep<4, 0x0F0F0F0F0F0F0F0FULL>(a);
    transposeStep<2, 0x3333333333333333ULL>(a);
    transposeStep<1, 0x5555555555555555ULL>(a);
}

void
transpose64x2(uint64_t *x, uint64_t *z)
{
    transpose64(x);
    transpose64(z);
}

/**
 * The table of the generic kernels above, labelled with the level of
 * the including TU.
 */
constexpr Kernels
genericKernels(Level level, const char *name)
{
    return {
        level,
        name,
        appendH,
        appendS,
        appendSdg,
        appendSqrtX,
        appendSqrtXdg,
        appendCX,
        appendCZ,
        xorInto,
        xorInto2,
        swapWords,
        popcountWords,
        popcountAnd,
        anticommuteParity,
        mulWords,
        denseColumn,
        rowsumColumn,
        rowProduct,
        padRowWords,
        transpose64x2,
    };
}

} // namespace

} // namespace quclear::simd

#endif // QUCLEAR_UTIL_SIMD_KERNELS_GENERIC_HPP
