#pragma once

// Recursive Cholesky factorization over the recursive array layouts.
//
// The paper positions recursive layouts for "parallel dense linear algebra"
// broadly and cites Gustavson (IBM JRD 1997, ref. [16]) on recursion as
// automatic variable blocking for dense factorizations. This module carries
// the same tiled quadrant machinery beyond matrix multiplication:
//
//   A = L·Lᵀ  (A symmetric positive definite, lower-triangular L in place)
//
// via the classical recursive blocked scheme
//
//   chol(A11); A21 ← A21·A11⁻ᵀ (TRSM); A22 ← A22 − A21·A21ᵀ (SYRK);
//   chol(A22)
//
// with TRSM and SYRK themselves quadrant recursions over TiledBlocks, an
// A·Bᵀ multiply recursion, and unblocked column-oriented leaf kernels on
// contiguous tiles. TRSM row-blocks and the three SYRK quadrant updates are
// spawned on the work-stealing pool.

#include <cstddef>
#include <cstdint>

#include "core/config.hpp"
#include "core/recursion.hpp"
#include "core/tiled_matrix.hpp"

namespace rla {

struct CholeskyConfig {
  Curve layout = Curve::ZMorton;  ///< any recursive curve
  TileRange tiles{};
  unsigned threads = 0;           ///< 0/1 = serial; ignored if pool set
  WorkerPool* pool = nullptr;
  KernelKind kernel = KernelKind::Simd;
};

/// Fork grain (MulContext::spawn_flops) lu_nopivot and cholesky run their
/// recursions at. A factorization chains its steps (factor A11, solve
/// the panels, update A22, factor A22), so it offers far less parallelism
/// per FLOP than a multiply, and Cholesky's leaves are scalar. 2^19 is the
/// 64³ node on 16-wide tiles, 64× finer than the multiply's grain; at the
/// multiply's 2^25 a 4-thread Cholesky of n = 512 and 1024 ran 1.3-1.8×
/// slower than at 2^19.
inline constexpr std::uint64_t kFactorizationSpawnFlops = std::uint64_t{1} << 19;

/// Profile of one factorization (wall seconds).
struct CholeskyProfile {
  double convert_in = 0.0;
  double compute = 0.0;
  double convert_out = 0.0;
  double total = 0.0;
  int depth = -1;
  std::uint32_t tile = 0;

  // Stability certificate (analysis/numerics/error_bound.hpp). growth_factor
  // is the computable a posteriori proxy max|factor| / max|A| (for Cholesky
  // it is ≲ 1 by |l_ij|² ≤ a_ii; for LU without pivoting it is unbounded and
  // is *the* number to watch). error_bound is the Higham-style relative
  // residual bound ‖A − L·U‖ / ‖A‖ ≤ γ_{n+1}·n·ρ evaluated at ρ =
  // max(growth_factor, 1) — u is already folded in.
  double growth_factor = 0.0;
  double error_bound = 0.0;
};

/// Factor the n×n symmetric positive definite column-major matrix `a`
/// (leading dimension lda; only the lower triangle is read) into L·Lᵀ.
/// On return the lower triangle of `a` holds L; the strict upper triangle
/// is zeroed. Throws std::domain_error if a non-positive pivot is met
/// (matrix not positive definite) and std::invalid_argument on bad
/// arguments.
void cholesky(std::uint32_t n, double* a, std::size_t lda,
              const CholeskyConfig& cfg = {}, CholeskyProfile* profile = nullptr);

// ---- building blocks, exposed for tests and ablations ----

/// C += alpha · A·Bᵀ on tiled blocks of equal level (A: m×k tiles of
/// tm×tk elements; B: n×k tiles of tn×tk; C: m×n tiles of tm×tn).
void mul_nt(const MulContext& ctx, double alpha, const TiledBlock& c,
            const TiledBlock& a, const TiledBlock& b);

/// X ← X · L⁻ᵀ where L is the lower triangle of an equal-level square
/// block (unit-free: divides by the stored diagonal).
void trsm_right_lower_transposed(const MulContext& ctx, const TiledBlock& x,
                                 const TiledBlock& l);

/// C ← C − A·Aᵀ restricted to C's lower-triangular quadrants (diagonal
/// blocks are updated fully at tile granularity).
void syrk_lower_update(const MulContext& ctx, const TiledBlock& c,
                       const TiledBlock& a);

/// In-place recursive Cholesky of a square tiled block (lower triangle).
/// Diagonal tiles must be positive definite.
void cholesky_block(const MulContext& ctx, const TiledBlock& a);

/// Reference unblocked Cholesky on a column-major matrix (test oracle).
/// Returns false if a non-positive pivot is encountered.
bool reference_cholesky(std::uint32_t n, double* a, std::size_t lda) noexcept;

}  // namespace rla
