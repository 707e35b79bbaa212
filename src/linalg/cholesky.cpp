#include "linalg/cholesky.hpp"

#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "analysis/numerics/error_bound.hpp"
#include "core/gemm.hpp"
#include "core/kernels.hpp"
#include "layout/convert.hpp"
#include "util/timer.hpp"

namespace rla {

namespace {

/// max |a_ij| over the lower triangle (the part the factorizations touch).
double max_abs_lower(std::uint32_t n, const double* a, std::size_t lda) noexcept {
  double m = 0.0;
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint32_t i = j; i < n; ++i) {
      const double v = std::fabs(a[static_cast<std::size_t>(j) * lda + i]);
      if (v > m) m = v;
    }
  }
  return m;
}

// ---- leaf kernels on contiguous column-major tiles ----

/// C (m×n, ldc) += alpha * A (m×k, lda) · Bᵀ where B is n×k (ldb).
void leaf_mm_nt(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc) noexcept {
  for (std::uint32_t j = 0; j < n; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (std::uint32_t l = 0; l < k; ++l) {
      const double bjl = alpha * b[static_cast<std::size_t>(l) * ldb + j];
      const double* al = a + static_cast<std::size_t>(l) * lda;
      for (std::uint32_t i = 0; i < m; ++i) cj[i] += al[i] * bjl;
    }
  }
}

/// Unblocked Cholesky of a t×t column-major tile (lower triangle; strict
/// upper left untouched). Returns false on a non-positive pivot.
bool leaf_potrf(std::uint32_t t, double* a, std::size_t lda) noexcept {
  for (std::uint32_t j = 0; j < t; ++j) {
    double* col_j = a + static_cast<std::size_t>(j) * lda;
    double diag = col_j[j];
    for (std::uint32_t k = 0; k < j; ++k) {
      const double ajk = a[static_cast<std::size_t>(k) * lda + j];
      diag -= ajk * ajk;
    }
    if (!(diag > 0.0)) return false;
    const double ljj = std::sqrt(diag);
    col_j[j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::uint32_t i = j + 1; i < t; ++i) {
      double v = col_j[i];
      for (std::uint32_t k = 0; k < j; ++k) {
        v -= a[static_cast<std::size_t>(k) * lda + i] *
             a[static_cast<std::size_t>(k) * lda + j];
      }
      col_j[i] = v * inv;
    }
  }
  return true;
}

/// X (m×t) ← X · L⁻ᵀ for a t×t lower-triangular tile L: column-oriented
/// forward substitution over X's columns.
void leaf_trsm_rlt(std::uint32_t m, std::uint32_t t, double* x, std::size_t ldx,
                   const double* l, std::size_t ldl) noexcept {
  for (std::uint32_t j = 0; j < t; ++j) {
    double* xj = x + static_cast<std::size_t>(j) * ldx;
    for (std::uint32_t k = 0; k < j; ++k) {
      const double ljk = l[static_cast<std::size_t>(k) * ldl + j];
      if (ljk == 0.0) continue;
      const double* xk = x + static_cast<std::size_t>(k) * ldx;
      for (std::uint32_t i = 0; i < m; ++i) xj[i] -= xk[i] * ljk;
    }
    const double inv = 1.0 / l[static_cast<std::size_t>(j) * ldl + j];
    for (std::uint32_t i = 0; i < m; ++i) xj[i] *= inv;
  }
}

}  // namespace

void mul_nt(const MulContext& ctx, double alpha, const TiledBlock& c,
            const TiledBlock& a, const TiledBlock& b) {
  if (c.level == 0) {
    leaf_mm_nt(c.geom->tile_rows, c.geom->tile_cols, a.geom->tile_cols, alpha,
               a.tile(), a.geom->tile_rows, b.tile(), b.geom->tile_rows,
               c.tile(), c.geom->tile_rows);
    return;
  }
  const bool par = spawn_here(ctx, node_flops(c, a));
  const TiledBlock c11 = c.quadrant(kNW), c12 = c.quadrant(kNE);
  const TiledBlock c21 = c.quadrant(kSW), c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  const TiledBlock b11 = b.quadrant(kNW), b12 = b.quadrant(kNE);
  const TiledBlock b21 = b.quadrant(kSW), b22 = b.quadrant(kSE);
  // C_ij += alpha Σ_k A_ik (B_jk)ᵀ, two accumulating phases of four.
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { mul_nt(ctx, alpha, c11, a11, b11); },
       [&] { mul_nt(ctx, alpha, c12, a11, b21); },
       [&] { mul_nt(ctx, alpha, c21, a21, b11); },
       [&] { mul_nt(ctx, alpha, c22, a21, b21); });
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { mul_nt(ctx, alpha, c11, a12, b12); },
       [&] { mul_nt(ctx, alpha, c12, a12, b22); },
       [&] { mul_nt(ctx, alpha, c21, a22, b12); },
       [&] { mul_nt(ctx, alpha, c22, a22, b22); });
}

void trsm_right_lower_transposed(const MulContext& ctx, const TiledBlock& x,
                                 const TiledBlock& l) {
  if (x.level == 0) {
    leaf_trsm_rlt(x.geom->tile_rows, x.geom->tile_cols, x.tile(),
                  x.geom->tile_rows, l.tile(), l.geom->tile_rows);
    return;
  }
  const bool par = spawn_here(ctx, node_flops(x, l));
  const TiledBlock l11 = l.quadrant(kNW), l21 = l.quadrant(kSW);
  const TiledBlock l22 = l.quadrant(kSE);
  // The two row-blocks of X solve independently against the same L.
  auto row = [&](const TiledBlock& x1, const TiledBlock& x2) {
    trsm_right_lower_transposed(ctx, x1, l11);
    mul_nt(ctx, -1.0, x2, x1, l21);
    trsm_right_lower_transposed(ctx, x2, l22);
  };
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { row(x.quadrant(kNW), x.quadrant(kNE)); },
       [&] { row(x.quadrant(kSW), x.quadrant(kSE)); });
}

void syrk_lower_update(const MulContext& ctx, const TiledBlock& c,
                       const TiledBlock& a) {
  if (c.level == 0) {
    // Diagonal tile: update the full tile (the symmetric upper half is
    // harmless scratch that the driver never extracts).
    leaf_mm_nt(c.geom->tile_rows, c.geom->tile_cols, a.geom->tile_cols, -1.0,
               a.tile(), a.geom->tile_rows, a.tile(), a.geom->tile_rows,
               c.tile(), c.geom->tile_rows);
    return;
  }
  const bool par = spawn_here(ctx, node_flops(c, a));
  const TiledBlock c11 = c.quadrant(kNW), c21 = c.quadrant(kSW);
  const TiledBlock c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  wave(
      *ctx.pool, ctx.cancel, ctx.priority, par,
      [&] {
        syrk_lower_update(ctx, c11, a11);
        syrk_lower_update(ctx, c11, a12);
      },
      [&] {
        mul_nt(ctx, -1.0, c21, a21, a11);
        mul_nt(ctx, -1.0, c21, a22, a12);
      },
      [&] {
        syrk_lower_update(ctx, c22, a21);
        syrk_lower_update(ctx, c22, a22);
      });
}

void cholesky_block(const MulContext& ctx, const TiledBlock& a) {
  if (a.level == 0) {
    if (!leaf_potrf(a.geom->tile_rows, a.tile(), a.geom->tile_rows)) {
      throw std::domain_error("cholesky: matrix is not positive definite");
    }
    return;
  }
  const TiledBlock a11 = a.quadrant(kNW), a21 = a.quadrant(kSW);
  const TiledBlock a22 = a.quadrant(kSE);
  cholesky_block(ctx, a11);
  trsm_right_lower_transposed(ctx, a21, a11);
  syrk_lower_update(ctx, a22, a21);
  cholesky_block(ctx, a22);
}

bool reference_cholesky(std::uint32_t n, double* a, std::size_t lda) noexcept {
  if (!leaf_potrf(n, a, lda)) return false;
  for (std::uint32_t j = 1; j < n; ++j) {
    for (std::uint32_t i = 0; i < j; ++i) {
      a[static_cast<std::size_t>(j) * lda + i] = 0.0;
    }
  }
  return true;
}

void cholesky(std::uint32_t n, double* a, std::size_t lda,
              const CholeskyConfig& cfg, CholeskyProfile* profile) {
  if (a == nullptr || lda < n) throw std::invalid_argument("cholesky: bad A/lda");
  if (!is_recursive(cfg.layout)) {
    throw std::invalid_argument("cholesky: layout must be a recursive curve");
  }
  if (n == 0) return;
  if (profile != nullptr) *profile = CholeskyProfile{};
  Timer total;
  const double max_in = profile != nullptr ? max_abs_lower(n, a, lda) : 0.0;

  std::optional<WorkerPool> owned;
  WorkerPool* pool = cfg.pool;
  if (pool == nullptr) {
    owned.emplace(cfg.threads <= 1 ? 0u : cfg.threads);
    pool = &*owned;
  }

  // Square tiles: one dimension, one depth. The padded trailing diagonal is
  // filled with identity so padded pivots stay positive definite.
  const std::array<std::uint64_t, 1> dims{n};
  const auto depth = common_depth(dims, cfg.tiles);
  if (!depth) throw std::invalid_argument("cholesky: no feasible tile depth");
  const TileGeometry g = make_geometry(n, n, *depth, cfg.layout);
  TiledMatrix ta(g);

  Timer timer;
  const std::uint64_t tiles = g.tile_count();
  const std::uint64_t grain =
      std::max<std::uint64_t>(1, tiles / (8 * (pool->thread_count() + 1)));
  pool->parallel_for(0, tiles, grain, [&](std::uint64_t s0, std::uint64_t s1) {
    canonical_to_tiled(a, lda, false, 1.0, g, ta.data(), s0, s1);
  });
  for (std::uint32_t i = n; i < g.padded_rows(); ++i) ta.at(i, i) = 1.0;
  const double conv_in = timer.seconds();

  timer.reset();
  MulContext ctx;
  ctx.kernel = cfg.kernel;
  ctx.spawn_flops = kFactorizationSpawnFlops;
  ctx.pool = pool;
  cholesky_block(ctx, ta.root());
  const double compute = timer.seconds();

  timer.reset();
  pool->parallel_for(0, tiles, grain, [&](std::uint64_t s0, std::uint64_t s1) {
    tiled_to_canonical(ta.data(), g, a, lda, s0, s1);
  });
  // Zero the strict upper triangle (scratch from the full-tile updates).
  for (std::uint32_t j = 1; j < n; ++j) {
    for (std::uint32_t i = 0; i < j; ++i) {
      a[static_cast<std::size_t>(j) * lda + i] = 0.0;
    }
  }
  if (profile != nullptr) {
    profile->convert_in = conv_in;
    profile->compute = compute;
    profile->convert_out = timer.seconds();
    profile->total = total.seconds();
    profile->depth = g.depth;
    profile->tile = g.tile_rows;
    // Growth proxy: the factored entries satisfy |l_ij|² ≤ a_ii, so a value
    // much above 1 here flags lost symmetry/definiteness, not normal growth.
    const double max_l = max_abs_lower(n, a, lda);
    profile->growth_factor = max_in > 0.0 ? (max_l * max_l) / max_in : 0.0;
    profile->error_bound = numerics::factorization_bound(n, profile->growth_factor);
  }
}

}  // namespace rla
