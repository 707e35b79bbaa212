// Slowdown-vs-dgemm accounting (paper §5, "Choice of tile size" text):
// at the best tile size the paper's standard/L_Z recursive multiply runs at
// a 1.88x slowdown against Sun's native dgemm for n = 1024 and 1.56x for
// n = 1536 — versus the factor ≈ 8 Frens & Wise reported for element-level
// quad-tree recursion.
//
// Stand-ins here (no vendor BLAS offline): the flat Simd kernel (the
// recursion's own leaf, cache-blocked over the whole matrix) plays native
// dgemm; an element-level (t = 1) run plays Frens–Wise. The
// orderings to reproduce: recursive/tiled ≈ small factor of flat;
// element-level ≫ tiled.

#include <map>

#include "bench_common.hpp"

namespace {

using namespace rla;
using namespace rla::bench;

double flat_seconds(std::uint32_t n) {
  static std::map<std::uint32_t, double> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Problem p(n);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) best = std::min(best, run_flat_dgemm(p));
  cache[n] = best;
  return best;
}

// Only publish the ratio when the baseline produced a usable time: a
// sub-resolution or failed flat run would otherwise export inf/NaN and
// poison every downstream comparison (bench_compare.py, the CI schema
// check).
void set_slowdown(benchmark::State& state, double best, std::uint32_t n) {
  const double flat = flat_seconds(n);
  if (flat > 0.0 && best < 1e300) {
    state.counters["slowdown_vs_dgemm"] = best / flat;
  }
}

void Dgemm_FlatBaseline(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Problem p(n);
  for (auto _ : state) {
    run_flat_dgemm(p);
  }
  set_flops_counters(state, n);
}

void Dgemm_RecursiveBestTile(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  double best = 1e300;
  for (auto _ : state) {
    best = std::min(best, run_gemm(p, cfg));
  }
  set_flops_counters(state, n);
  set_slowdown(state, best, n);
  // One measured (untimed) run so the --json export carries span/parallelism,
  // the per-depth recursion-tree shares, and, where the PMU is usable,
  // misses per FLOP.
  GemmConfig measured_cfg = cfg;
  measured_cfg.measure = true;
  measured_cfg.hw_counters = true;
  measured_cfg.tree_profile = true;
  GemmProfile profile;
  run_gemm(p, measured_cfg, &profile);
  set_profile_counters(state, profile);
  set_hw_counters(state, profile, n);
  set_tree_counters(state, profile);
  set_config_label(state, cfg);
}

void Dgemm_ElementLevelFrensWise(benchmark::State& state) {
  // t = 1: the configuration the paper improves on (reported factor ≈ 8).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.standard_variant = StandardVariant::InPlace;  // see bench_tilesize
  cfg.forced_depth = bits::floor_log2(n);
  double best = 1e300;
  for (auto _ : state) {
    best = std::min(best, run_gemm(p, cfg));
  }
  set_flops_counters(state, n);
  set_slowdown(state, best, n);
}

void Dgemm_StrassenBest(benchmark::State& state) {
  // The fast algorithms can beat the flat O(n³) kernel outright at scale.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  double best = 1e300;
  for (auto _ : state) {
    best = std::min(best, run_gemm(p, cfg));
  }
  set_flops_counters(state, n);
  set_slowdown(state, best, n);
  GemmConfig measured_cfg = cfg;
  measured_cfg.measure = true;
  measured_cfg.hw_counters = true;
  measured_cfg.tree_profile = true;
  GemmProfile profile;
  run_gemm(p, measured_cfg, &profile);
  set_profile_counters(state, profile);
  set_hw_counters(state, profile, n);
  set_tree_counters(state, profile);
  set_config_label(state, cfg);
}

void register_benchmarks() {
  const std::uint32_t sizes[] = {
      static_cast<std::uint32_t>(pick_size(1024, 384)),
      static_cast<std::uint32_t>(pick_size(1536, 576))};
  for (const std::uint32_t n : sizes) {
    benchmark::RegisterBenchmark("Dgemm_FlatBaseline", Dgemm_FlatBaseline)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("Dgemm_RecursiveBestTile",
                                 Dgemm_RecursiveBestTile)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("Dgemm_StrassenBest", Dgemm_StrassenBest)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
  }
  // Element-level recursion only at the smaller size (it is very slow —
  // that is the point).
  benchmark::RegisterBenchmark("Dgemm_ElementLevelFrensWise",
                               Dgemm_ElementLevelFrensWise)
      ->Arg(sizes[0])
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

const int dummy = (register_benchmarks(), 0);

}  // namespace
