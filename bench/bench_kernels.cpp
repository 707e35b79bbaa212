// Figure 7 reproduction: cost of the leaf-kernel tier (the paper's compiler
// and native-BLAS study).
//
// The paper compiled its serial code three ways: (i) vendor cc + native
// dgemm leaves, (ii) vendor cc + its own C kernel, (iii) gcc + its own C
// kernel, finding (ii)/(i) ≈ 1.2-1.4 and (iii)/(ii) ≈ 1.5-1.9. We have no
// 1997 Sun compilers, so the tiers are kernel tiers with the same role
// (see DESIGN.md): Blocked4x4 stands in for the native-dgemm tier,
// TiledUnrolled is the paper's own kernel, and Naive is the
// unoptimized-compiler tier. Ratios are reported against Blocked4x4.
// Simd, the library's default vector leaf, is timed beside the three
// paper tiers.
//
// Both the raw kernels and full recursive gemms using each tier are timed.

#include <iterator>
#include <map>

#include "bench_common.hpp"

namespace {

using namespace rla;
using namespace rla::bench;

// Blocked4x4 first: it fills the ratio baseline the others read.
constexpr KernelKind kKernels[] = {KernelKind::Blocked4x4, KernelKind::TiledUnrolled,
                                   KernelKind::Naive, KernelKind::Simd};

double& baseline_slot(const std::string& key) {
  static std::map<std::string, double> cache;
  return cache[key];
}

void Fig7_RawKernel(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const KernelKind kind = kKernels[state.range(1)];
  Problem p(n);
  double best = 1e300;
  for (auto _ : state) {
    best = std::min(best, run_flat_dgemm(p, kind));
  }
  set_flops_counters(state, n);
  const std::string key = "raw" + std::to_string(n);
  if (kind == KernelKind::Blocked4x4) baseline_slot(key) = best;
  const double base = baseline_slot(key);
  if (base > 0.0) state.counters["ratio_vs_blocked4x4"] = best / base;
}

void Fig7_GemmWithKernelTier(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const KernelKind kind = kKernels[state.range(1)];
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.kernel = kind;
  double best = 1e300;
  for (auto _ : state) {
    best = std::min(best, run_gemm(p, cfg));
  }
  set_flops_counters(state, n);
  const std::string key = "gemm" + std::to_string(n);
  if (kind == KernelKind::Blocked4x4) baseline_slot(key) = best;
  const double base = baseline_slot(key);
  if (base > 0.0) state.counters["ratio_vs_blocked4x4"] = best / base;
}

void register_benchmarks() {
  const std::uint32_t sizes[] = {
      static_cast<std::uint32_t>(pick_size(512, 256)),
      static_cast<std::uint32_t>(pick_size(1024, 448))};
  for (const std::uint32_t n : sizes) {
    for (long k = 0; k < static_cast<long>(std::size(kKernels)); ++k) {
      const std::string kn = sanitize(kernel_name(kKernels[k]));
      benchmark::RegisterBenchmark(("Fig7_RawKernel/" + kn).c_str(),
                                   Fig7_RawKernel)
          ->Args({n, k})
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("Fig7_GemmWithKernelTier/" + kn).c_str(),
                                   Fig7_GemmWithKernelTier)
          ->Args({n, k})
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.05);
    }
  }
}

const int dummy = (register_benchmarks(), 0);

}  // namespace
