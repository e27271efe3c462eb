/**
 * @file
 * Scalar kernel table: the generic kernels compiled with the library's
 * baseline flags. It is the semantic reference every wider table must
 * match, and the table used on hosts without AVX2.
 */
#include "util/simd_kernels_generic.hpp"
#include "util/simd_kernels_internal.hpp"

namespace quclear::simd::detail {

const Kernels &
scalarKernelsImpl()
{
    static constexpr Kernels kScalarKernels =
        genericKernels(Level::Scalar, "scalar");
    return kScalarKernels;
}

} // namespace quclear::simd::detail
