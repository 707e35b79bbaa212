// Tests of the paper §5.1 space-conserving sequential fast-algorithm
// variant (FastVariant::SerialLowMem) on both tiled and canonical layouts.

#include <gtest/gtest.h>

#include <tuple>

#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::gemm_vs_reference;

class LowMemTest
    : public ::testing::TestWithParam<std::tuple<Curve, Algorithm>> {};

TEST_P(LowMemTest, MatchesReference) {
  const auto [layout, alg] = GetParam();
  GemmConfig cfg;
  cfg.layout = layout;
  cfg.algorithm = alg;
  cfg.fast_variant = FastVariant::SerialLowMem;
  EXPECT_LT(gemm_vs_reference(96, 96, 96, 1.0, Op::None, Op::None, 0.0, cfg),
            1e-10);
  EXPECT_LT(gemm_vs_reference(70, 54, 62, -0.5, Op::Transpose, Op::None, 2.0, cfg),
            1e-10);
}

TEST_P(LowMemTest, MatchesParallelVariantNumerically) {
  const auto [layout, alg] = GetParam();
  const std::uint32_t n = 64;
  Matrix a = rla::testing::random_matrix(n, n, 1);
  Matrix b = rla::testing::random_matrix(n, n, 2);
  Matrix c_parallel(n, n);
  Matrix c_lowmem(n, n);
  if (is_recursive(layout)) {
    // The tiled recursion picks the form by the fork grain: spawn_flops = 0
    // keeps the Parallel form at every node of this small multiply, which
    // the default grain would run wholly in SerialLowMem.
    const TileGeometry g = make_geometry(n, n, 2, layout);
    TiledMatrix ta(g), tb(g);
    canonical_to_tiled(a.data(), a.ld(), false, 1.0, g, ta.data());
    canonical_to_tiled(b.data(), b.ld(), false, 1.0, g, tb.data());
    WorkerPool pool(0);
    auto run = [&](FastVariant variant, std::uint64_t grain, Matrix& c) {
      TiledMatrix tc(g);
      tc.zero();
      MulContext ctx;
      ctx.pool = &pool;
      ctx.fast_variant = variant;
      ctx.spawn_flops = grain;
      mul_dispatch(ctx, alg, tc.root(), ta.root(), tb.root());
      tiled_to_canonical(tc.data(), g, c.data(), c.ld());
    };
    run(FastVariant::Parallel, 0, c_parallel);
    run(FastVariant::SerialLowMem, MulContext{}.spawn_flops, c_lowmem);
  } else {
    GemmConfig cfg;
    cfg.layout = layout;
    cfg.algorithm = alg;
    multiply(c_parallel, a, b, cfg);
    cfg.fast_variant = FastVariant::SerialLowMem;
    multiply(c_lowmem, a, b, cfg);
  }
  // Different summation grouping => compare with tolerance, not bitwise.
  EXPECT_LT(max_abs_diff(c_parallel.view(), c_lowmem.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, LowMemTest,
    ::testing::Combine(::testing::Values(Curve::ColMajor, Curve::ZMorton,
                                         Curve::GrayMorton, Curve::Hilbert),
                       ::testing::Values(Algorithm::Strassen,
                                         Algorithm::Winograd)),
    [](const ::testing::TestParamInfo<LowMemTest::ParamType>& info) {
      return rla::testing::sanitize(curve_name(std::get<0>(info.param))) + "_" +
             rla::testing::sanitize(algorithm_name(std::get<1>(info.param)));
    });

TEST(LowMem, StandardAlgorithmUnaffectedByFastVariant) {
  GemmConfig cfg;
  cfg.algorithm = Algorithm::Standard;
  cfg.fast_variant = FastVariant::SerialLowMem;
  EXPECT_LT(gemm_vs_reference(48, 48, 48, 1.0, Op::None, Op::None, 1.0, cfg),
            1e-11);
}

TEST(LowMem, CutoffInteraction) {
  for (int cutoff = 0; cutoff <= 2; ++cutoff) {
    GemmConfig cfg;
    cfg.layout = Curve::ZMorton;
    cfg.algorithm = Algorithm::Strassen;
    cfg.fast_variant = FastVariant::SerialLowMem;
    cfg.fast_cutoff_level = cutoff;
    EXPECT_LT(gemm_vs_reference(80, 80, 80, 1.0, Op::None, Op::None, 0.0, cfg),
              1e-10)
        << cutoff;
  }
}

TEST(LowMem, WorkSpanModelsSerialExecution) {
  GemmConfig cfg;
  cfg.algorithm = Algorithm::Strassen;
  cfg.fast_variant = FastVariant::SerialLowMem;
  const WorkSpan lowmem = analyze_gemm(512, 512, 512, cfg);
  EXPECT_DOUBLE_EQ(lowmem.parallelism(), 1.0);  // span == work
  cfg.fast_variant = FastVariant::Parallel;
  const WorkSpan parallel = analyze_gemm(512, 512, 512, cfg);
  EXPECT_GT(parallel.parallelism(), 10.0);
  // Multiplication flops identical; the low-mem variant pays extra adds.
  EXPECT_GT(lowmem.work, 0.95 * parallel.work);
}

}  // namespace
}  // namespace rla
