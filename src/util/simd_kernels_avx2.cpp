/**
 * @file
 * AVX2 kernel table: the generic kernels (simd_kernels_generic.hpp)
 * compiled with -mavx2 and left to the auto-vectorizer.
 *
 * CMake confines -mavx2 to this TU and defines
 * QUCLEAR_SIMD_COMPILE_AVX2 only when the level is compiled in, so the
 * rest of the binary stays runnable on non-AVX hosts and the
 * dispatcher only hands this table out after the CPUID probe passes.
 */
#include "util/simd_kernels_internal.hpp"

#if defined(QUCLEAR_SIMD_COMPILE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))

#include "util/simd_kernels_generic.hpp"

namespace quclear::simd::detail {

const Kernels *
avx2KernelsOrNull()
{
    static constexpr Kernels kAvx2Kernels =
        genericKernels(Level::Avx2, "avx2");
    return &kAvx2Kernels;
}

} // namespace quclear::simd::detail

#else // !QUCLEAR_SIMD_COMPILE_AVX2

namespace quclear::simd::detail {

const Kernels *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace quclear::simd::detail

#endif
