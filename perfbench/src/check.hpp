#pragma once

// Result checks that every run makes, outside the timed interval.

#include <cstddef>

#include "inputs.hpp"

namespace perfbench {

/// Seed of the Freivalds probe vector: fixed, so the check is the same on
/// every commit and every workload seed.
inline constexpr std::uint64_t kProbeSeed = 0x5eedf00dULL;
/// Allowed residual as a share of n·(|α|·k·max|A|·max|B| + |β|·max|C0|):
/// far above fast-algorithm rounding at these sizes, far below any wrong
/// tile, sign or quadrant.
inline constexpr double kProbeTolerance = 1e-9;

struct CheckResult {
  bool ok = false;
  double residual = 0.0;  ///< worst scaled residual
};

/// Freivalds probe: compares C·r with α·op(A)·(B·r) + β·C0·r for one fixed
/// random vector r. O(mn + mk + kn).
CheckResult freivalds(const Shape& s, const Operands& in, const double* c,
                      std::size_t ldc);

/// Full comparison against rla::reference_gemm with rla::max_abs_diff.
CheckResult reference_check(const Shape& s, const Operands& in, const double* c,
                            std::size_t ldc);

}  // namespace perfbench
