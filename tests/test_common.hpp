#pragma once

// Shared helpers for the rla test suite.

#include <gtest/gtest.h>

#include <string>

#include "core/rla.hpp"
#include "obs/session.hpp"

namespace rla::testing {

/// Random m×k matrix with a deterministic seed.
inline Matrix random_matrix(std::uint32_t rows, std::uint32_t cols,
                            std::uint64_t seed) {
  Matrix m(rows, cols);
  m.fill_random(seed);
  return m;
}

/// Tolerance for comparing a recursive-algorithm product against the
/// reference: Strassen-type recurrences lose a few bits per level.
inline double gemm_tolerance(std::uint32_t m, std::uint32_t n, std::uint32_t k) {
  (void)m;
  (void)n;
  return 1e-9 * static_cast<double>(k == 0 ? 1 : k);
}

/// Run cfg's gemm and the reference on identical random inputs; return the
/// max elementwise deviation.
inline double gemm_vs_reference(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                                double alpha, Op op_a, Op op_b, double beta,
                                const GemmConfig& cfg, std::uint64_t seed = 42) {
  const std::uint32_t a_rows = op_a == Op::None ? m : k;
  const std::uint32_t a_cols = op_a == Op::None ? k : m;
  const std::uint32_t b_rows = op_b == Op::None ? k : n;
  const std::uint32_t b_cols = op_b == Op::None ? n : k;
  Matrix a = random_matrix(a_rows, a_cols, seed);
  Matrix b = random_matrix(b_rows, b_cols, seed + 1);
  Matrix c = random_matrix(m, n, seed + 2);
  Matrix c_ref = c;

  gemm(m, n, k, alpha, a.data(), a.ld(), op_a, b.data(), b.ld(), op_b, beta,
       c.data(), c.ld(), cfg);
  reference_gemm(m, n, k, alpha, a.data(), a.ld(), op_a == Op::Transpose, b.data(),
                 b.ld(), op_b == Op::Transpose, beta, c_ref.data(), c_ref.ld());
  return max_abs_diff(c.view(), c_ref.view());
}

/// Printable parameter name fragment.
inline std::string sanitize(std::string_view text) {
  std::string out;
  for (char ch : text) {
    if ((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
        (ch >= '0' && ch <= '9')) {
      out.push_back(ch);
    }
  }
  return out;
}

/// Folded FLOPs of a tree-profiling session armed around `run` (no depth
/// cap): leaf products plus one FLOP per element of every add pass.
template <typename F>
std::uint64_t treeprof_flops(F&& run) {
  obs::Session session(obs::kTree, obs::treeprof::kMaxPathDepth);
  EXPECT_TRUE(session.try_attach());
  run();
  session.detach();
  std::uint64_t total = 0;
  for (const obs::treeprof::Node& node : session.fold().tree) total += node.stats.flops;
  return total;
}

/// C = A·B for n×n operands on a tiled layout of 2^depth tiles per side,
/// through mul_dispatch on a serial pool.
inline Matrix tiled_multiply(const Matrix& a, const Matrix& b, int depth, Curve curve,
                             Algorithm alg, const MulContext& base = {}) {
  const std::uint32_t n = a.rows();
  const TileGeometry g = make_geometry(n, n, depth, curve);
  TiledMatrix ta(g), tb(g), tc(g);
  canonical_to_tiled(a.data(), a.ld(), false, 1.0, g, ta.data());
  canonical_to_tiled(b.data(), b.ld(), false, 1.0, g, tb.data());
  tc.zero();
  WorkerPool pool(0);
  MulContext ctx = base;
  ctx.pool = &pool;
  mul_dispatch(ctx, alg, tc.root(), ta.root(), tb.root());
  Matrix c(n, n);
  tiled_to_canonical(tc.data(), g, c.data(), c.ld());
  return c;
}

}  // namespace rla::testing
