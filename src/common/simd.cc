#include "common/simd.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/simd_generic.h"

namespace pairwisehist {

#if PWH_HAVE_AVX2
extern const KernelOps kAvx2Kernels;  // defined in simd_avx2.cc
#endif

namespace {

// The 2-lane tier needs no special compile flags: SSE2 is baseline on
// x86-64 and NEON on aarch64, so the 2-lane bodies compile straight to
// those ISAs under the default flags.
#if defined(__x86_64__) || defined(_M_X64)
constexpr const char* kVec2Name = "sse2";
#elif defined(__aarch64__) || defined(_M_ARM64)
constexpr const char* kVec2Name = "neon";
#else
constexpr const char* kVec2Name = "vec2";
#endif

const KernelOps kScalarTable = simd_detail::MakeTable<1>("scalar");
const KernelOps kVec2Table = simd_detail::MakeTable<2>(kVec2Name);

const KernelOps* Avx2Table() {
#if PWH_HAVE_AVX2
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
#endif
  return nullptr;
}

const KernelOps* TableByName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return &kScalarTable;
  if (std::strcmp(name, kVec2Name) == 0 || std::strcmp(name, "vec2") == 0) {
    return &kVec2Table;
  }
  if (std::strcmp(name, "avx2") == 0) return Avx2Table();
  return nullptr;
}

/// Widest table for this binary + CPU, honouring the PWH_KERNELS override.
/// Runs once (function-local static); the result never changes afterwards.
/// Parsing is case-insensitive ("AVX2" == "avx2"); unrecognized or
/// CPU-unsupported values warn once on stderr and fall back to detection.
const KernelOps* DetectBest() {
  const KernelOps* best = Avx2Table();
  if (best == nullptr) best = &kVec2Table;
  if (const char* env = std::getenv("PWH_KERNELS")) {
    char lower[32];
    size_t n = 0;
    for (; env[n] != '\0' && n + 1 < sizeof(lower); ++n) {
      lower[n] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(env[n])));
    }
    lower[n] = '\0';
    if (std::strcmp(lower, "auto") == 0 || lower[0] == '\0') {
      return best;
    }
    if (const KernelOps* forced = TableByName(lower)) return forced;
    // Valid-value list reflects what TableByName would actually accept on
    // this build + CPU (the vec2 alias only when it differs from the
    // tier's own name, avx2 only when the table is usable here).
    std::fprintf(stderr,
                 "pairwisehist: PWH_KERNELS='%s' unknown or unsupported on "
                 "this CPU (valid: scalar, %s%s%s, auto); "
                 "using '%s'\n",
                 env, kVec2Name,
                 std::strcmp(kVec2Name, "vec2") == 0 ? "" : ", vec2",
                 Avx2Table() != nullptr ? ", avx2" : "", best->name);
  }
  return best;
}

}  // namespace

const KernelOps& ScalarKernels() { return kScalarTable; }

const KernelOps& GetKernels(KernelMode mode) {
  static const KernelOps* best = DetectBest();
  switch (mode) {
    case KernelMode::kScalar:
      return kScalarTable;
    case KernelMode::kAuto:
      break;
  }
  return *best;
}

std::vector<const KernelOps*> SupportedKernels() {
  std::vector<const KernelOps*> all{&kScalarTable, &kVec2Table};
  if (const KernelOps* avx2 = Avx2Table()) all.push_back(avx2);
  return all;
}

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
  }
  return "?";
}

}  // namespace pairwisehist
