#include "core/recursion.hpp"

#include <cfenv>
#include <limits>

#include "analysis/annotations.hpp"
#include "core/fast_interpreter.hpp"
#include "core/kernels.hpp"
#include "core/zero_tree.hpp"
#include "obs/session.hpp"
#include "robust/fault.hpp"

namespace rla {

namespace treeprof = obs::treeprof;

namespace {

/// Fresh temporary with the same tile shape and curve as `like`, sized to
/// one block of like.level levels. Root orientation is 0 by construction.
TiledMatrix make_temp(const TiledBlock& like) {
  fault::maybe_fail_alloc(fault::Site::AllocTemp);
  TileGeometry g;
  g.tile_rows = like.geom->tile_rows;
  g.tile_cols = like.geom->tile_cols;
  g.depth = like.level;
  g.curve = like.geom->curve;
  g.rows = g.padded_rows();
  g.cols = g.padded_cols();
  return TiledMatrix(g);
}

void leaf(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
          const TiledBlock& b) {
  leaf_mm_tile(ctx.kernel, c.geom->tile_rows, c.geom->tile_cols, a.geom->tile_cols,
               a.tile(), b.tile(), c.tile());
  treeprof::add_flops(2ull * c.geom->tile_rows * c.geom->tile_cols *
                      a.geom->tile_cols);
  if (fault::should_fail(fault::Site::KernelCorrupt)) c.tile()[0] += 1.0e6;
  if (fault::should_fail(fault::Site::KernelFpe)) {
    // Raise a real FE_INVALID and poison the output the way an actual kernel
    // NaN would. feraiseexcept (rather than computing 0/0) keeps the
    // injection visible to the fenv capture without tripping
    // -fsanitize=float-divide-by-zero builds.
    std::feraiseexcept(FE_INVALID);
    c.tile()[0] += std::numeric_limits<double>::quiet_NaN();
  }
}

/// Cancellation + task.throw preamble shared by every recursion entry: one
/// relaxed load (and one more inside should_fail) when nothing is armed.
/// Returns true when the caller should return immediately.
bool node_cancelled(const MulContext& ctx) {
  if (ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  if (ctx.external_cancel != nullptr &&
      ctx.external_cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  fault::maybe_fail_task(fault::Site::TaskThrow);
  return false;
}

}  // namespace

std::uint64_t node_flops(const TiledBlock& c, const TiledBlock& a) noexcept {
  return 2 * (static_cast<std::uint64_t>(c.geom->tile_rows) << c.level) *
         (static_cast<std::uint64_t>(c.geom->tile_cols) << c.level) *
         (static_cast<std::uint64_t>(a.geom->tile_cols) << a.level);
}

bool spawn_here(const MulContext& ctx, std::uint64_t flops) {
  return above_grain(ctx, flops) &&
         (!ctx.pool->serial() || analysis::detection_active());
}

void mul_standard(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  if (node_cancelled(ctx)) return;
  // Frens–Wise flags: an all-zero operand annihilates the product.
  if ((ctx.zero_a != nullptr && ctx.zero_a->zero(a.level, a.s_base)) ||
      (ctx.zero_b != nullptr && ctx.zero_b->zero(b.level, b.s_base))) {
    return;
  }
  treeprof::NodeScope node(path);
  if (c.level == 0) {
    leaf(ctx, c, a, b);
    return;
  }
  const std::uint64_t flops = node_flops(c, a);
  const bool par = spawn_here(ctx, flops);
  const bool fg = ctx.force_generic_additions;

  const TiledBlock c11 = c.quadrant(kNW), c12 = c.quadrant(kNE);
  const TiledBlock c21 = c.quadrant(kSW), c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  const TiledBlock b11 = b.quadrant(kNW), b12 = b.quadrant(kNE);
  const TiledBlock b21 = b.quadrant(kSW), b22 = b.quadrant(kSE);

  if (ctx.standard_variant == StandardVariant::InPlace || !above_grain(ctx, flops)) {
    // Two phases of four accumulating products; C quadrants are disjoint
    // within each phase, so no temporaries are needed. Below the grain this
    // is the serial form of either variant.
    wave(*ctx.pool, ctx.cancel, ctx.priority, par,
         [&] { mul_standard(ctx, c11, a11, b11, treeprof::child_path(path, 0)); },
         [&] { mul_standard(ctx, c12, a11, b12, treeprof::child_path(path, 1)); },
         [&] { mul_standard(ctx, c21, a21, b11, treeprof::child_path(path, 2)); },
         [&] { mul_standard(ctx, c22, a21, b12, treeprof::child_path(path, 3)); });
    wave(*ctx.pool, ctx.cancel, ctx.priority, par,
         [&] { mul_standard(ctx, c11, a12, b21, treeprof::child_path(path, 4)); },
         [&] { mul_standard(ctx, c12, a12, b22, treeprof::child_path(path, 5)); },
         [&] { mul_standard(ctx, c21, a22, b21, treeprof::child_path(path, 6)); },
         [&] { mul_standard(ctx, c22, a22, b22, treeprof::child_path(path, 7)); });
    return;
  }

  // Paper Fig. 1(a): all eight products concurrently. The first four target
  // the C quadrants directly; the other four go to quadrant-sized
  // temporaries folded in by the post-additions.
  TiledMatrix t11 = make_temp(c11), t12 = make_temp(c12);
  TiledMatrix t21 = make_temp(c21), t22 = make_temp(c22);
  auto into_temp = [&](TiledMatrix& t, const TiledBlock& x, const TiledBlock& y,
                       unsigned child) {
    t.zero();
    mul_standard(ctx, t.root(), x, y, treeprof::child_path(path, child));
  };
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { mul_standard(ctx, c11, a11, b11, treeprof::child_path(path, 0)); },
       [&] { mul_standard(ctx, c12, a11, b12, treeprof::child_path(path, 1)); },
       [&] { mul_standard(ctx, c21, a21, b11, treeprof::child_path(path, 2)); },
       [&] { mul_standard(ctx, c22, a21, b12, treeprof::child_path(path, 3)); },
       [&] { into_temp(t11, a12, b21, 4); }, [&] { into_temp(t12, a12, b22, 5); },
       [&] { into_temp(t21, a22, b21, 6); }, [&] { into_temp(t22, a22, b22, 7); });
  // "adds" phases mark the serial joints between product waves in the
  // trace; only spawning nodes emit them (deep nodes would flood the ring).
  // Forked add tasks attribute to this node's own path (same depth).
  obs::PhaseScope adds_phase("adds", par);
  auto post_add = [&](const TiledBlock& dst, TiledMatrix& t) {
    treeprof::NodeScope add_node(path);
    block_acc(dst, 1.0, t.root(), fg);
    treeprof::add_flops(dst.elems());
  };
  wave(*ctx.pool, ctx.cancel, ctx.priority, par,
       [&] { post_add(c11, t11); }, [&] { post_add(c12, t12); },
       [&] { post_add(c21, t21); }, [&] { post_add(c22, t22); });
}

namespace {

/// The fast-algorithm interpreter's adapter for tiled blocks.
struct TiledOps {
  using In = TiledBlock;
  using Out = TiledBlock;
  using Temp = TiledMatrix;
  static constexpr bool kAddPhases = true;

  const MulContext& ctx;

  /// Nodes below the fork grain run the low-memory form whatever the variant.
  fast::Form node(const TiledBlock& c, const TiledBlock& a, const TiledBlock& b,
                  std::uint64_t path) const {
    if (node_cancelled(ctx)) return fast::Form::Done;
    const std::uint64_t flops = node_flops(c, a);
    if (c.level <= ctx.fast_cutoff_level) {
      mul_standard(ctx, c, a, b, path);
      return fast::Form::Done;
    }
    if (ctx.fast_variant == FastVariant::SerialLowMem || !above_grain(ctx, flops)) {
      return fast::Form::LowMemory;
    }
    return spawn_here(ctx, flops) ? fast::Form::Fork : fast::Form::Inline;
  }
  static TiledMatrix temp(const TiledBlock& like) { return make_temp(like); }
  static TiledBlock view(TiledMatrix& t) { return t.root(); }
  static void zero(TiledMatrix& t) { t.zero(); }
  static TiledBlock quadrant(const TiledBlock& b, int q) { return b.quadrant(q); }
  static std::uint64_t elems(const TiledBlock& b) { return b.elems(); }
  void set_add(const TiledBlock& d, const TiledBlock& x, double sign,
               const TiledBlock& y) const {
    block_set_add(d, x, sign, y, ctx.force_generic_additions);
  }
  /// d += Σ c·p over (c, p) pairs.
  template <typename... T>
  void acc(const TiledBlock& d, const T&... cp) const {
    const bool g = ctx.force_generic_additions;
    if constexpr (sizeof...(T) == 2) block_acc(d, cp..., g);
    if constexpr (sizeof...(T) == 4) block_acc2(d, cp..., g);
    if constexpr (sizeof...(T) == 6) block_acc3(d, cp..., g);
    if constexpr (sizeof...(T) == 8) block_acc4(d, cp..., g);
  }
  template <typename... F>
  void wave(bool fork, F&&... fs) const {
    rla::wave(*ctx.pool, ctx.cancel, ctx.priority, fork, std::forward<F>(fs)...);
  }
};

}  // namespace

void mul_strassen(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  fast::run<fast::kStrassen>(TiledOps{ctx}, c, a, b, path);
}

void mul_winograd(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  fast::run<fast::kWinograd>(TiledOps{ctx}, c, a, b, path);
}

void mul_dispatch(const MulContext& ctx, Algorithm alg, const TiledBlock& c,
                  const TiledBlock& a, const TiledBlock& b,
                  std::uint64_t path) {
  switch (alg) {
    case Algorithm::Standard:
      mul_standard(ctx, c, a, b, path);
      break;
    case Algorithm::Strassen:
      mul_strassen(ctx, c, a, b, path);
      break;
    case Algorithm::Winograd:
      mul_winograd(ctx, c, a, b, path);
      break;
  }
}

}  // namespace rla
