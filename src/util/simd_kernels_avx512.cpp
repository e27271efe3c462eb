/**
 * @file
 * AVX-512 kernel table: the generic kernels (simd_kernels_generic.hpp)
 * compiled with -mavx512f/bw/dq/vl and left to the auto-vectorizer.
 * VPOPCNTDQ is deliberately not required.
 *
 * CMake confines the -mavx512* flags to this TU and defines
 * QUCLEAR_SIMD_COMPILE_AVX512 only when the level is compiled in, so
 * the rest of the binary stays runnable on non-AVX hosts and the
 * dispatcher only hands this table out after the CPUID probe passes.
 */
#include "util/simd_kernels_internal.hpp"

#if defined(QUCLEAR_SIMD_COMPILE_AVX512) && \
    (defined(__x86_64__) || defined(__i386__))

#include "util/simd_kernels_generic.hpp"

namespace quclear::simd::detail {

const Kernels *
avx512KernelsOrNull()
{
    static constexpr Kernels kAvx512Kernels =
        genericKernels(Level::Avx512, "avx512");
    return &kAvx512Kernels;
}

} // namespace quclear::simd::detail

#else // !QUCLEAR_SIMD_COMPILE_AVX512

namespace quclear::simd::detail {

const Kernels *
avx512KernelsOrNull()
{
    return nullptr;
}

} // namespace quclear::simd::detail

#endif
