// AVX2 kernel table (see simd.h): the W = 4 instantiation of the shared
// kernel bodies, in its own translation unit compiled with -mavx2.
// Referenced only when PWH_HAVE_AVX2 is defined and the CPU reports AVX2
// at runtime.
#if PWH_HAVE_AVX2

#include "common/simd_generic.h"

namespace pairwisehist {

extern const KernelOps kAvx2Kernels;
const KernelOps kAvx2Kernels = simd_detail::MakeTable<4>("avx2");

}  // namespace pairwisehist

#endif  // PWH_HAVE_AVX2
