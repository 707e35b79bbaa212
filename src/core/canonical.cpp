#include "core/canonical.hpp"

#include <array>
#include <cassert>
#include <utility>

#include "analysis/annotations.hpp"
#include "core/fast_interpreter.hpp"
#include "core/kernels.hpp"

namespace rla {

namespace treeprof = obs::treeprof;

namespace {

template <typename V>  // MatrixView or ConstMatrixView
V sub(V v, std::uint32_t r0, std::uint32_t c0, std::uint32_t rows, std::uint32_t cols) {
  return {v.data + static_cast<std::size_t>(c0) * v.ld + r0, v.ld, rows, cols};
}

void leaf(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
          ConstMatrixView b) {
  leaf_mm(ctx.kernel, c.rows, c.cols, a.cols, 1.0, a.data, a.ld, b.data, b.ld,
          c.data, c.ld);
  treeprof::add_flops(2ull * c.rows * c.cols * a.cols);
}

/// External-cancellation check at node granularity (one relaxed load); the
/// canonical counterpart of recursion.cpp's node_cancelled.
bool canon_cancelled(const CanonContext& ctx) noexcept {
  return ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed);
}

}  // namespace

void canon_standard(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  if (canon_cancelled(ctx)) return;
  treeprof::NodeScope tree_node(path);
  const std::uint32_t m = c.rows, n = c.cols, k = a.cols;
  if (m <= ctx.leaf && n <= ctx.leaf && k <= ctx.leaf) {
    leaf(ctx, c, a, b);
    return;
  }
  // Ceiling-half boundaries for each dimension that needs splitting.
  auto bounds = [&](std::uint32_t x) {
    std::array<std::uint32_t, 3> edges{0, x, x};
    std::size_t pieces = 1;
    if (x > ctx.leaf) {
      edges[1] = (x + 1) / 2;
      pieces = 2;
    }
    return std::pair(edges, pieces);
  };
  const auto [me, mp] = bounds(m);
  const auto [ne, np] = bounds(n);
  const auto [ke, kp] = bounds(k);
  const bool par = analysis::detection_active() ||
                   (!ctx.pool->serial() && 2ull * m * n * k >= ctx.spawn_flops);

  // Piece i covers C block (i / np, i % np). Tree addresses follow the tiled
  // recursion's convention: C-quadrant products of the first k-half are
  // children 0..3, the second k-half 4..7.
  auto piece = [&](std::size_t i) {
    const std::size_t mi = i / np, nj = i % np;
    const std::uint32_t r0 = me[mi], rows = me[mi + 1] - me[mi];
    const std::uint32_t c0 = ne[nj], cols = ne[nj + 1] - ne[nj];
    const MatrixView cc = sub(c, r0, c0, rows, cols);
    const unsigned ci = static_cast<unsigned>(mi * 2 + nj);
    if (kp == 1) {
      canon_standard(ctx, cc, sub(a, r0, 0, rows, k), sub(b, 0, c0, k, cols),
                     treeprof::child_path(path, ci));
      return;
    }
    const std::uint32_t k1 = ke[1];
    const ConstMatrixView a1 = sub(a, r0, 0, rows, k1);
    const ConstMatrixView a2 = sub(a, r0, k1, rows, k - k1);
    const ConstMatrixView b1 = sub(b, 0, c0, k1, cols);
    const ConstMatrixView b2 = sub(b, k1, c0, k - k1, cols);
    if (ctx.standard_variant == StandardVariant::Temporaries && par) {
      // Paper Fig. 1(a) parallel form: both k-halves at once, the second
      // into a temporary folded in by a post-addition.
      Matrix tmp(rows, cols);
      wave(*ctx.pool, nullptr, ctx.priority, true,
           [&] { canon_standard(ctx, cc, a1, b1, treeprof::child_path(path, ci)); },
           [&] {
             tmp.zero();
             canon_standard(ctx, tmp.view(), a2, b2, treeprof::child_path(path, 4 + ci));
           });
      treeprof::NodeScope add_node(path);
      strided_acc(cc.data, cc.ld, 1.0, tmp.data(), tmp.ld(), rows, cols);
      treeprof::add_flops(static_cast<std::uint64_t>(rows) * cols);
    } else {
      canon_standard(ctx, cc, a1, b1, treeprof::child_path(path, ci));
      canon_standard(ctx, cc, a2, b2, treeprof::child_path(path, 4 + ci));
    }
  };
  auto fork = [&](auto... i) {
    wave(*ctx.pool, nullptr, ctx.priority, par, [&piece, i] { piece(i); }...);
  };
  switch (mp * np) {
    case 4:
      return fork(0u, 1u, 2u, 3u);
    case 2:
      return fork(0u, 1u);
    default:
      return fork(0u);
  }
}

namespace {

/// The fast-algorithm interpreter's adapter for canonical views. The variant
/// alone picks the form; temporaries are compact (ld == h): each level of
/// the fast recursions halves the leading dimension (paper §5.1).
struct CanonOps {
  using In = ConstMatrixView;
  using Out = MatrixView;
  using Temp = Matrix;
  static constexpr bool kAddPhases = false;

  const CanonContext& ctx;

  fast::Form node(MatrixView c, ConstMatrixView a, ConstMatrixView b,
                  std::uint64_t path) const {
    if (canon_cancelled(ctx)) return fast::Form::Done;
    const std::uint64_t s = c.rows;
    assert(c.cols == s && a.cols == s && b.rows == s);
    if (s <= ctx.leaf || (s & 1) != 0) {
      treeprof::NodeScope tree_node(path);
      leaf(ctx, c, a, b);
      return fast::Form::Done;
    }
    if (ctx.fast_variant == FastVariant::SerialLowMem) return fast::Form::LowMemory;
    const bool fork = analysis::detection_active() ||
                      (!ctx.pool->serial() && 2 * s * s * s >= ctx.spawn_flops);
    return fork ? fast::Form::Fork : fast::Form::Inline;
  }
  static Matrix temp(ConstMatrixView like) { return Matrix(like.rows, like.cols); }
  static MatrixView view(Matrix& t) { return t.view(); }
  static void zero(Matrix& t) { t.zero(); }
  template <typename V>
  static V quadrant(V v, int q) {
    const std::uint32_t h = v.rows / 2;
    return sub(v, static_cast<std::uint32_t>(q >> 1) * h,
               static_cast<std::uint32_t>(q & 1) * h, h, h);
  }
  static std::uint64_t elems(MatrixView v) {
    return static_cast<std::uint64_t>(v.rows) * v.cols;
  }
  void set_add(MatrixView d, ConstMatrixView x, double sign, ConstMatrixView y) const {
    strided_set_add(d.data, d.ld, x.data, x.ld, sign, y.data, y.ld, d.rows, d.cols);
  }
  /// d += Σ c·p over (c, p) pairs, column by column.
  template <typename... T>
  void acc(MatrixView d, const T&... cp) const {
    RLA_RACE_WRITE_STRIDED(d.data, d.rows * sizeof(double), d.ld * sizeof(double),
                           d.cols);
    (race_read(cp), ...);
    for (std::uint32_t j = 0; j < d.cols; ++j) {
      if constexpr (sizeof...(T) == 2) vacc(&d(0, j), column(cp, j)..., d.rows);
      if constexpr (sizeof...(T) == 4) vacc2(&d(0, j), column(cp, j)..., d.rows);
      if constexpr (sizeof...(T) == 6) vacc3(&d(0, j), column(cp, j)..., d.rows);
      if constexpr (sizeof...(T) == 8) vacc4(&d(0, j), column(cp, j)..., d.rows);
    }
  }
  static void race_read(double) {}
  static void race_read([[maybe_unused]] ConstMatrixView v) {
    RLA_RACE_READ_STRIDED(v.data, v.rows * sizeof(double), v.ld * sizeof(double), v.cols);
  }
  static double column(double s, std::uint32_t) { return s; }
  static const double* column(ConstMatrixView v, std::uint32_t j) { return &v(0, j); }
  template <typename... F>
  void wave(bool fork, F&&... fs) const {
    rla::wave(*ctx.pool, nullptr, ctx.priority, fork, std::forward<F>(fs)...);
  }
};

}  // namespace

void canon_strassen(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  fast::run<fast::kStrassen>(CanonOps{ctx}, c, a, b, path);
}

void canon_winograd(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  fast::run<fast::kWinograd>(CanonOps{ctx}, c, a, b, path);
}

}  // namespace rla
