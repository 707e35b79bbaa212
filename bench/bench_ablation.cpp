// Ablations of the design choices DESIGN.md calls out.
//
//   * Ablation_FastCutoff: Strassen's recursion truncation level — the paper
//     runs the fast recurrence down to single tiles; switching to the
//     standard recursion a level or two earlier trades multiplication count
//     against addition/temporary traffic (cf. Thottethodi/Chatterjee/Lebeck,
//     SC'98, paper ref. [37]).
//   * Ablation_StandardVariant: the Fig. 1(a) eight-spawn Temporaries form
//     vs the two-phase in-place form (memory vs one-level parallelism).
//   * Ablation_LowMemLayout: the §5.1 note — the sequential interleaved
//     fast variant "behaves more like the standard algorithm: L_Z reduces
//     execution times by 10-20%" relative to L_C. Rows give the interleaved
//     Strassen under both layouts, plus the parallel-form ones for contrast.
//   * Ablation_SpawnGrain: the fork grain (MulContext::spawn_flops), i.e.
//     task granularity of the work-stealing runtime.

#include "bench_common.hpp"
#include "core/recursion.hpp"
#include "layout/convert.hpp"

namespace {

using namespace rla;
using namespace rla::bench;

void Ablation_FastCutoff(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(pick_size(1024, 384));
  const auto cutoff = static_cast<int>(state.range(0));
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.fast_cutoff_level = cutoff;
  for (auto _ : state) {
    run_gemm(p, cfg);
  }
  set_flops_counters(state, n);
  state.counters["cutoff_level"] = cutoff;
}

void Ablation_StandardVariant(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(pick_size(1024, 384));
  const bool in_place = state.range(0) != 0;
  const auto threads = static_cast<unsigned>(state.range(1));
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.standard_variant =
      in_place ? StandardVariant::InPlace : StandardVariant::Temporaries;
  cfg.threads = threads;
  for (auto _ : state) {
    run_gemm(p, cfg);
  }
  set_flops_counters(state, n);
}

void Ablation_LowMemLayout(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(pick_size(1024, 384));
  const bool recursive = state.range(0) != 0;
  const bool lowmem = state.range(1) != 0;
  Problem p(n);
  GemmConfig cfg;
  cfg.layout = recursive ? Curve::ZMorton : Curve::ColMajor;
  cfg.algorithm = Algorithm::Strassen;
  cfg.fast_variant = lowmem ? FastVariant::SerialLowMem : FastVariant::Parallel;
  for (auto _ : state) {
    run_gemm(p, cfg);
  }
  set_flops_counters(state, n);
}

void Ablation_ZeroTileSkip(benchmark::State& state) {
  // Paper §4 design contrast: Frens–Wise zero-block flags vs blind
  // arithmetic on zeros. Workload: block-diagonal A (3 dense blocks) times
  // dense B — two thirds of A's tiles are zero.
  const auto n = static_cast<std::uint32_t>(pick_size(1024, 384));
  const bool skip = state.range(0) != 0;
  Matrix a(n, n), b(n, n);
  a.zero();
  b.fill_random(2);
  Xoshiro256 rng(3);
  const std::uint32_t blk = n / 3;
  for (std::uint32_t q = 0; q < 3; ++q) {
    for (std::uint32_t j = 0; j < blk; ++j) {
      for (std::uint32_t i = 0; i < blk; ++i) {
        a(q * blk + i, q * blk + j) = rng.next_double(-1.0, 1.0);
      }
    }
  }
  Matrix c(n, n);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.skip_zero_tiles = skip;
  for (auto _ : state) {
    gemm(n, n, n, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
         0.0, c.data(), c.ld(), cfg);
  }
  set_flops_counters(state, n);
}

void Ablation_SpawnGrain(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(pick_size(1024, 320));
  const auto log2_grain = static_cast<int>(state.range(0));
  const unsigned threads = 4;

  Matrix a(n, n), b(n, n);
  a.fill_random(1);
  b.fill_random(2);
  const auto depth = common_depth(std::array<std::uint64_t, 1>{n}, TileRange{});
  const TileGeometry g = make_geometry(n, n, depth.value_or(4), Curve::ZMorton);
  TiledMatrix ta(g), tb(g), tc(g);
  canonical_to_tiled(a.data(), a.ld(), false, 1.0, g, ta.data());
  canonical_to_tiled(b.data(), b.ld(), false, 1.0, g, tb.data());

  WorkerPool pool(threads);
  MulContext ctx;
  ctx.pool = &pool;
  ctx.spawn_flops = std::uint64_t{1} << log2_grain;
  for (auto _ : state) {
    tc.zero();
    mul_standard(ctx, tc.root(), ta.root(), tb.root());
  }
  set_flops_counters(state, n);
  state.counters["tasks"] = static_cast<double>(pool.tasks_executed());
  state.counters["steals"] = static_cast<double>(pool.steals());
}

void register_benchmarks() {
  for (int cutoff = 0; cutoff <= 4; ++cutoff) {
    benchmark::RegisterBenchmark("Ablation_FastCutoff", Ablation_FastCutoff)
        ->Arg(cutoff)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
  }
  for (long in_place = 0; in_place <= 1; ++in_place) {
    for (const unsigned threads : thread_sweep()) {
      const std::string name = std::string("Ablation_StandardVariant/") +
                               (in_place != 0 ? "inplace" : "temporaries") +
                               "_p" + std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(), Ablation_StandardVariant)
          ->Args({in_place, static_cast<long>(threads)})
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.05);
    }
  }
  for (long recursive = 0; recursive <= 1; ++recursive) {
    for (long lowmem = 0; lowmem <= 1; ++lowmem) {
      const std::string name = std::string("Ablation_LowMemLayout/") +
                               (lowmem != 0 ? "interleaved" : "parallelform") +
                               (recursive != 0 ? "_LZ" : "_LC");
      benchmark::RegisterBenchmark(name.c_str(), Ablation_LowMemLayout)
          ->Args({recursive, lowmem})
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.05);
    }
  }
  // On 16-wide tiles, 2^(13+3L) is the classical work of a level-L node:
  // forking from level 2, 3, 4 (the default) and 5.
  for (int log2_grain = 19; log2_grain <= 28; log2_grain += 3) {
    benchmark::RegisterBenchmark("Ablation_SpawnGrain", Ablation_SpawnGrain)
        ->Arg(log2_grain)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
  }
  for (long skip = 0; skip <= 1; ++skip) {
    const std::string name = std::string("Ablation_ZeroTileSkip/") +
                             (skip != 0 ? "flags" : "blind");
    benchmark::RegisterBenchmark(name.c_str(), Ablation_ZeroTileSkip)
        ->Arg(skip)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
  }
}

const int dummy = (register_benchmarks(), 0);

}  // namespace
