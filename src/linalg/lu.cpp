#include "linalg/lu.hpp"

#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "analysis/numerics/error_bound.hpp"
#include "core/kernels.hpp"
#include "layout/convert.hpp"
#include "util/timer.hpp"

namespace rla {

namespace {

/// max |a_ij| over the full n×n matrix.
double max_abs(std::uint32_t n, const double* a, std::size_t lda) noexcept {
  double m = 0.0;
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const double v = std::fabs(a[static_cast<std::size_t>(j) * lda + i]);
      if (v > m) m = v;
    }
  }
  return m;
}

/// Unblocked right-looking LU without pivoting on a t×t column-major tile.
bool leaf_lu(std::uint32_t t, double* a, std::size_t lda) noexcept {
  for (std::uint32_t k = 0; k < t; ++k) {
    double* col_k = a + static_cast<std::size_t>(k) * lda;
    const double pivot = col_k[k];
    if (pivot == 0.0) return false;
    const double inv = 1.0 / pivot;
    for (std::uint32_t i = k + 1; i < t; ++i) col_k[i] *= inv;
    for (std::uint32_t j = k + 1; j < t; ++j) {
      double* col_j = a + static_cast<std::size_t>(j) * lda;
      const double akj = col_j[k];
      if (akj == 0.0) continue;
      for (std::uint32_t i = k + 1; i < t; ++i) col_j[i] -= col_k[i] * akj;
    }
  }
  return true;
}

/// X (t×n tile block) ← L⁻¹·X for a unit lower-triangular t×t tile.
void leaf_trsm_llu(std::uint32_t t, std::uint32_t n, double* x, std::size_t ldx,
                   const double* l, std::size_t ldl) noexcept {
  for (std::uint32_t j = 0; j < n; ++j) {
    double* xj = x + static_cast<std::size_t>(j) * ldx;
    for (std::uint32_t k = 0; k < t; ++k) {
      const double xkj = xj[k];
      if (xkj == 0.0) continue;
      const double* lk = l + static_cast<std::size_t>(k) * ldl;
      for (std::uint32_t i = k + 1; i < t; ++i) xj[i] -= lk[i] * xkj;
    }
  }
}

/// X (m×t) ← X·U⁻¹ for an upper-triangular t×t tile (non-unit diagonal).
void leaf_trsm_ru(std::uint32_t m, std::uint32_t t, double* x, std::size_t ldx,
                  const double* u, std::size_t ldu) noexcept {
  for (std::uint32_t j = 0; j < t; ++j) {
    double* xj = x + static_cast<std::size_t>(j) * ldx;
    const double* uj = u + static_cast<std::size_t>(j) * ldu;
    for (std::uint32_t k = 0; k < j; ++k) {
      const double ukj = uj[k];
      if (ukj == 0.0) continue;
      const double* xk = x + static_cast<std::size_t>(k) * ldx;
      for (std::uint32_t i = 0; i < m; ++i) xj[i] -= xk[i] * ukj;
    }
    const double inv = 1.0 / uj[j];
    for (std::uint32_t i = 0; i < m; ++i) xj[i] *= inv;
  }
}

/// C += alpha·A·B on equal-level tiled blocks (two accumulating phases).
void mul_nn(const MulContext& ctx, double alpha, const TiledBlock& c,
            const TiledBlock& a, const TiledBlock& b) {
  if (c.level == 0) {
    leaf_mm(ctx.kernel, c.geom->tile_rows, c.geom->tile_cols, a.geom->tile_cols,
            alpha, a.tile(), a.geom->tile_rows, b.tile(), b.geom->tile_rows,
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
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { mul_nn(ctx, alpha, c11, a11, b11); },
       [&] { mul_nn(ctx, alpha, c12, a11, b12); },
       [&] { mul_nn(ctx, alpha, c21, a21, b11); },
       [&] { mul_nn(ctx, alpha, c22, a21, b12); });
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { mul_nn(ctx, alpha, c11, a12, b21); },
       [&] { mul_nn(ctx, alpha, c12, a12, b22); },
       [&] { mul_nn(ctx, alpha, c21, a22, b21); },
       [&] { mul_nn(ctx, alpha, c22, a22, b22); });
}

}  // namespace

void trsm_left_unit_lower(const MulContext& ctx, const TiledBlock& x,
                          const TiledBlock& l) {
  if (x.level == 0) {
    leaf_trsm_llu(x.geom->tile_rows, x.geom->tile_cols, x.tile(),
                  x.geom->tile_rows, l.tile(), l.geom->tile_rows);
    return;
  }
  const bool par = spawn_here(ctx, node_flops(x, l));
  const TiledBlock l11 = l.quadrant(kNW), l21 = l.quadrant(kSW);
  const TiledBlock l22 = l.quadrant(kSE);
  // Column blocks of X are independent.
  auto column = [&](const TiledBlock& x1, const TiledBlock& x2) {
    trsm_left_unit_lower(ctx, x1, l11);
    mul_nn(ctx, -1.0, x2, l21, x1);
    trsm_left_unit_lower(ctx, x2, l22);
  };
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { column(x.quadrant(kNW), x.quadrant(kSW)); },
       [&] { column(x.quadrant(kNE), x.quadrant(kSE)); });
}

void trsm_right_upper(const MulContext& ctx, const TiledBlock& x,
                      const TiledBlock& u) {
  if (x.level == 0) {
    leaf_trsm_ru(x.geom->tile_rows, x.geom->tile_cols, x.tile(),
                 x.geom->tile_rows, u.tile(), u.geom->tile_rows);
    return;
  }
  const bool par = spawn_here(ctx, node_flops(x, u));
  const TiledBlock u11 = u.quadrant(kNW), u12 = u.quadrant(kNE);
  const TiledBlock u22 = u.quadrant(kSE);
  // Row blocks of X are independent.
  auto row = [&](const TiledBlock& x1, const TiledBlock& x2) {
    trsm_right_upper(ctx, x1, u11);
    mul_nn(ctx, -1.0, x2, x1, u12);
    trsm_right_upper(ctx, x2, u22);
  };
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { row(x.quadrant(kNW), x.quadrant(kNE)); },
       [&] { row(x.quadrant(kSW), x.quadrant(kSE)); });
}

void lu_block(const MulContext& ctx, const TiledBlock& a) {
  if (a.level == 0) {
    if (!leaf_lu(a.geom->tile_rows, a.tile(), a.geom->tile_rows)) {
      throw std::domain_error("lu_nopivot: zero pivot encountered");
    }
    return;
  }
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  lu_block(ctx, a11);
  // The two panel solves are independent of each other.
  wave(*ctx.pool, ctx.cancel, ctx.priority, spawn_here(ctx, node_flops(a, a)),
       [&] { trsm_left_unit_lower(ctx, a12, a11); },
       [&] { trsm_right_upper(ctx, a21, a11); });
  mul_nn(ctx, -1.0, a22, a21, a12);
  lu_block(ctx, a22);
}

bool reference_lu_nopivot(std::uint32_t n, double* a, std::size_t lda) noexcept {
  return leaf_lu(n, a, lda);
}

void lu_nopivot(std::uint32_t n, double* a, std::size_t lda, const LuConfig& cfg,
                LuProfile* profile) {
  if (a == nullptr || lda < n) throw std::invalid_argument("lu: bad A/lda");
  if (!is_recursive(cfg.layout)) {
    throw std::invalid_argument("lu: layout must be a recursive curve");
  }
  if (n == 0) return;
  if (profile != nullptr) *profile = LuProfile{};
  Timer total;
  const double max_in = profile != nullptr ? max_abs(n, a, lda) : 0.0;

  std::optional<WorkerPool> owned;
  WorkerPool* pool = cfg.pool;
  if (pool == nullptr) {
    owned.emplace(cfg.threads <= 1 ? 0u : cfg.threads);
    pool = &*owned;
  }

  const std::array<std::uint64_t, 1> dims{n};
  const auto depth = common_depth(dims, cfg.tiles);
  if (!depth) throw std::invalid_argument("lu: no feasible tile depth");
  const TileGeometry g = make_geometry(n, n, *depth, cfg.layout);
  TiledMatrix ta(g);

  Timer timer;
  const std::uint64_t tiles = g.tile_count();
  const std::uint64_t grain =
      std::max<std::uint64_t>(1, tiles / (8 * (pool->thread_count() + 1)));
  pool->parallel_for(0, tiles, grain, [&](std::uint64_t s0, std::uint64_t s1) {
    canonical_to_tiled(a, lda, false, 1.0, g, ta.data(), s0, s1);
  });
  // Identity on the padded diagonal keeps the padded pivots nonzero.
  for (std::uint32_t i = n; i < g.padded_rows(); ++i) ta.at(i, i) = 1.0;
  const double conv_in = timer.seconds();

  timer.reset();
  MulContext ctx;
  ctx.kernel = cfg.kernel;
  ctx.spawn_flops = kFactorizationSpawnFlops;
  ctx.pool = pool;
  lu_block(ctx, ta.root());
  const double compute = timer.seconds();

  timer.reset();
  pool->parallel_for(0, tiles, grain, [&](std::uint64_t s0, std::uint64_t s1) {
    tiled_to_canonical(ta.data(), g, a, lda, s0, s1);
  });
  if (profile != nullptr) {
    profile->convert_in = conv_in;
    profile->compute = compute;
    profile->convert_out = timer.seconds();
    profile->total = total.seconds();
    profile->depth = g.depth;
    profile->tile = g.tile_rows;
    // Without pivoting the element growth ρ = max|L,U| / max|A| is the whole
    // stability story (Higham §9.3): the residual bound scales linearly in
    // it, and it is unbounded for general matrices.
    const double max_lu = max_abs(n, a, lda);
    profile->growth_factor = max_in > 0.0 ? max_lu / max_in : 0.0;
    profile->error_bound = numerics::factorization_bound(n, profile->growth_factor);
  }
}

}  // namespace rla
