// Tests of the tiled recursive algorithms (standard / Strassen / Winograd)
// across all recursive layouts, against the reference oracle.

#include <gtest/gtest.h>

#include <tuple>

#include "core/matrix.hpp"
#include "core/recursion.hpp"
#include "layout/convert.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::random_matrix;

/// Multiply via the tiled recursion (C_tiled += A_tiled · B_tiled) and
/// return the max deviation from the reference product.
double tiled_mul_error(Curve curve, Algorithm alg, std::uint32_t m,
                       std::uint32_t n, std::uint32_t k, int depth,
                       const MulContext& base_ctx) {
  Matrix a = random_matrix(m, k, 100);
  Matrix b = random_matrix(k, n, 101);

  TiledMatrix ta(make_geometry(m, k, depth, curve));
  TiledMatrix tb(make_geometry(k, n, depth, curve));
  TiledMatrix tc(make_geometry(m, n, depth, curve));
  canonical_to_tiled(a.data(), a.ld(), false, 1.0, ta.geom(), ta.data());
  canonical_to_tiled(b.data(), b.ld(), false, 1.0, tb.geom(), tb.data());
  tc.zero();

  MulContext ctx = base_ctx;
  mul_dispatch(ctx, alg, tc.root(), ta.root(), tb.root());

  Matrix c(m, n);
  tiled_to_canonical(tc.data(), tc.geom(), c.data(), c.ld());
  Matrix c_ref(m, n);
  c_ref.zero();
  reference_gemm(m, n, k, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 0.0, c_ref.data(), c_ref.ld());
  return max_abs_diff(c.view(), c_ref.view());
}

/// Fork grains the small correctness cases run at: 0 puts every node in the
/// parallel forms (Fig. 1's temporaries and post-additions), the default
/// puts these multiplies wholly in the serial forms below the grain.
const std::uint64_t kGrains[] = {0, MulContext{}.spawn_flops};

class RecursionTest
    : public ::testing::TestWithParam<std::tuple<Curve, Algorithm>> {};

TEST_P(RecursionTest, SquareExactGrid) {
  const auto [curve, alg] = GetParam();
  WorkerPool pool(0);
  MulContext ctx;
  ctx.pool = &pool;
  // 64x64 at depth 3: 8x8 tiles of 8x8.
  for (const std::uint64_t grain : kGrains) {
    ctx.spawn_flops = grain;
    EXPECT_LT(tiled_mul_error(curve, alg, 64, 64, 64, 3, ctx), 1e-10)
        << "spawn_flops=" << grain;
  }
}

TEST_P(RecursionTest, PaddedRectangular) {
  const auto [curve, alg] = GetParam();
  WorkerPool pool(0);
  MulContext ctx;
  ctx.pool = &pool;
  // 60x52x44 at depth 2: ragged tiles with live padding arithmetic.
  for (const std::uint64_t grain : kGrains) {
    ctx.spawn_flops = grain;
    EXPECT_LT(tiled_mul_error(curve, alg, 60, 52, 44, 2, ctx), 1e-10)
        << "spawn_flops=" << grain;
  }
}

TEST_P(RecursionTest, DeepRecursion) {
  const auto [curve, alg] = GetParam();
  WorkerPool pool(0);
  MulContext ctx;
  ctx.pool = &pool;
  // depth 4 with 4x4 tiles: 5 recursion levels exercise orientation nesting.
  for (const std::uint64_t grain : kGrains) {
    ctx.spawn_flops = grain;
    EXPECT_LT(tiled_mul_error(curve, alg, 64, 64, 64, 4, ctx), 1e-10)
        << "spawn_flops=" << grain;
  }
}

TEST_P(RecursionTest, ParallelMatchesSerialBitwise) {
  const auto [curve, alg] = GetParam();
  // The post-wait addition order is deterministic, so parallel execution
  // must produce bit-identical results to serial.
  const std::uint32_t n = 48;
  Matrix a = random_matrix(n, n, 7);
  Matrix b = random_matrix(n, n, 8);
  auto run = [&](WorkerPool& pool) {
    TiledMatrix ta(make_geometry(n, n, 2, curve));
    TiledMatrix tb(make_geometry(n, n, 2, curve));
    TiledMatrix tc(make_geometry(n, n, 2, curve));
    canonical_to_tiled(a.data(), a.ld(), false, 1.0, ta.geom(), ta.data());
    canonical_to_tiled(b.data(), b.ld(), false, 1.0, tb.geom(), tb.data());
    tc.zero();
    MulContext ctx;
    ctx.pool = &pool;
    ctx.spawn_flops = 0;  // parallel forms at every level
    mul_dispatch(ctx, alg, tc.root(), ta.root(), tb.root());
    Matrix c(n, n);
    tiled_to_canonical(tc.data(), tc.geom(), c.data(), c.ld());
    return c;
  };
  WorkerPool serial(0), parallel(4);
  Matrix cs = run(serial);
  Matrix cp = run(parallel);
  EXPECT_EQ(max_abs_diff(cs.view(), cp.view()), 0.0)
      << curve_name(curve) << "/" << algorithm_name(alg);
}

TEST_P(RecursionTest, DefaultGrainParallelMatchesSerialBitwise) {
  const auto [curve, alg] = GetParam();
  // 512³ on 16-wide tiles: the root and its level-4 children reach the
  // default grain and run the parallel forms; every node below runs the
  // serial forms. Which form a node runs depends on its shape only, so a
  // serial pool and 4 workers must agree bit for bit.
  const std::uint32_t n = 512;
  const int depth = 5;
  Matrix a = random_matrix(n, n, 17);
  Matrix b = random_matrix(n, n, 18);
  TiledMatrix ta(make_geometry(n, n, depth, curve));
  TiledMatrix tb(make_geometry(n, n, depth, curve));
  canonical_to_tiled(a.data(), a.ld(), false, 1.0, ta.geom(), ta.data());
  canonical_to_tiled(b.data(), b.ld(), false, 1.0, tb.geom(), tb.data());
  auto run = [&](WorkerPool& pool) {
    TiledMatrix tc(make_geometry(n, n, depth, curve));
    tc.zero();
    MulContext ctx;
    ctx.pool = &pool;
    EXPECT_TRUE(above_grain(ctx, node_flops(tc.root(), ta.root())));
    mul_dispatch(ctx, alg, tc.root(), ta.root(), tb.root());
    Matrix c(n, n);
    tiled_to_canonical(tc.data(), tc.geom(), c.data(), c.ld());
    return c;
  };
  WorkerPool serial(0), parallel(4);
  Matrix cs = run(serial);
  Matrix cp = run(parallel);
  EXPECT_EQ(max_abs_diff(cs.view(), cp.view()), 0.0)
      << curve_name(curve) << "/" << algorithm_name(alg);
  Matrix c_ref(n, n);
  c_ref.zero();
  reference_gemm(n, n, n, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false, 0.0,
                 c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(cs.view(), c_ref.view()), 1e-9);
}

TEST_P(RecursionTest, GenericAdditionAblationAgrees) {
  const auto [curve, alg] = GetParam();
  WorkerPool pool(0);
  MulContext fast_ctx;
  fast_ctx.pool = &pool;
  for (const std::uint64_t grain : kGrains) {
    fast_ctx.spawn_flops = grain;
    MulContext generic_ctx = fast_ctx;
    generic_ctx.force_generic_additions = true;
    const double e1 = tiled_mul_error(curve, alg, 40, 40, 40, 2, fast_ctx);
    const double e2 = tiled_mul_error(curve, alg, 40, 40, 40, 2, generic_ctx);
    EXPECT_LT(e1, 1e-10) << "spawn_flops=" << grain;
    EXPECT_LT(e2, 1e-10) << "spawn_flops=" << grain;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CurveByAlgorithm, RecursionTest,
    ::testing::Combine(::testing::ValuesIn(kRecursiveCurves),
                       ::testing::Values(Algorithm::Standard, Algorithm::Strassen,
                                         Algorithm::Winograd)),
    [](const ::testing::TestParamInfo<RecursionTest::ParamType>& info) {
      return rla::testing::sanitize(curve_name(std::get<0>(info.param))) +
             "_" +
             rla::testing::sanitize(algorithm_name(std::get<1>(info.param)));
    });

TEST(Recursion, InPlaceVariantMatchesTemporaries) {
  WorkerPool pool(0);
  MulContext temporaries;
  temporaries.pool = &pool;
  temporaries.standard_variant = StandardVariant::Temporaries;
  temporaries.spawn_flops = 0;  // the Temporaries form at every node
  MulContext in_place = temporaries;
  in_place.standard_variant = StandardVariant::InPlace;
  const double e1 =
      tiled_mul_error(Curve::ZMorton, Algorithm::Standard, 64, 64, 64, 3,
                      temporaries);
  const double e2 =
      tiled_mul_error(Curve::ZMorton, Algorithm::Standard, 64, 64, 64, 3,
                      in_place);
  EXPECT_LT(e1, 1e-10);
  EXPECT_LT(e2, 1e-10);
}

TEST(Recursion, ForkGrainIsMeasuredInClassicalWork) {
  // node_flops is 2·m·n·k of the node's blocks: 16-wide tiles at level L
  // give 2^(13+3L), so the 2^25 default starts forking at level 4.
  const TileGeometry g = make_geometry(512, 512, 5, Curve::ZMorton);
  TiledMatrix t(g);
  WorkerPool serial(0), parallel(2);
  MulContext ctx;
  ctx.pool = &serial;
  const TiledBlock root = t.root();
  const TiledBlock child = root.quadrant(kNW);
  const TiledBlock grandchild = child.quadrant(kNW);
  EXPECT_EQ(node_flops(root, root), std::uint64_t{1} << 28);
  EXPECT_EQ(node_flops(child, child), std::uint64_t{1} << 25);
  EXPECT_TRUE(above_grain(ctx, node_flops(child, child)));
  EXPECT_FALSE(above_grain(ctx, node_flops(grandchild, grandchild)));
  // Spawning additionally needs a parallel pool; the form does not.
  EXPECT_FALSE(spawn_here(ctx, node_flops(root, root)));
  ctx.pool = &parallel;
  EXPECT_TRUE(spawn_here(ctx, node_flops(child, child)));
  EXPECT_FALSE(spawn_here(ctx, node_flops(grandchild, grandchild)));
}

TEST(Recursion, FastCutoffLevels) {
  WorkerPool pool(0);
  for (const std::uint64_t grain : kGrains) {
    for (int cutoff = 0; cutoff <= 3; ++cutoff) {
      MulContext ctx;
      ctx.pool = &pool;
      ctx.spawn_flops = grain;
      ctx.fast_cutoff_level = cutoff;
      EXPECT_LT(
          tiled_mul_error(Curve::Hilbert, Algorithm::Strassen, 48, 48, 48, 3, ctx),
          1e-10)
          << "cutoff=" << cutoff << " spawn_flops=" << grain;
      EXPECT_LT(
          tiled_mul_error(Curve::GrayMorton, Algorithm::Winograd, 48, 48, 48, 3, ctx),
          1e-10)
          << "cutoff=" << cutoff << " spawn_flops=" << grain;
    }
  }
}

TEST(Recursion, AccumulatesIntoExistingC) {
  // The recursion contract is C += A·B.
  WorkerPool pool(0);
  const std::uint32_t n = 32;
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  Matrix c0 = random_matrix(n, n, 3);

  TiledMatrix ta(make_geometry(n, n, 2, Curve::ZMorton));
  TiledMatrix tb(make_geometry(n, n, 2, Curve::ZMorton));
  TiledMatrix tc(make_geometry(n, n, 2, Curve::ZMorton));
  canonical_to_tiled(a.data(), a.ld(), false, 1.0, ta.geom(), ta.data());
  canonical_to_tiled(b.data(), b.ld(), false, 1.0, tb.geom(), tb.data());
  canonical_to_tiled(c0.data(), c0.ld(), false, 1.0, tc.geom(), tc.data());

  MulContext ctx;
  ctx.pool = &pool;
  mul_standard(ctx, tc.root(), ta.root(), tb.root());

  Matrix c(n, n);
  tiled_to_canonical(tc.data(), tc.geom(), c.data(), c.ld());
  Matrix c_ref = c0;
  reference_gemm(n, n, n, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 1.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-11);
}

}  // namespace
}  // namespace rla
