#include "core/recursion.hpp"

#include <cfenv>
#include <limits>

#include "analysis/annotations.hpp"
#include "core/kernels.hpp"
#include "core/zero_tree.hpp"
#include "obs/collector.hpp"
#include "robust/fault.hpp"

namespace rla {

namespace treeprof = obs::treeprof;

namespace {

/// Elements covered by one block: 2^level × 2^level tiles of
/// tile_rows × tile_cols. FLOP weight of one elementwise add pass.
std::uint64_t block_elems(const TiledBlock& b) noexcept {
  return (static_cast<std::uint64_t>(b.geom->tile_rows) << b.level) *
         (static_cast<std::uint64_t>(b.geom->tile_cols) << b.level);
}

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
    wave(ctx, par,
         [&] { mul_standard(ctx, c11, a11, b11, treeprof::child_path(path, 0)); },
         [&] { mul_standard(ctx, c12, a11, b12, treeprof::child_path(path, 1)); },
         [&] { mul_standard(ctx, c21, a21, b11, treeprof::child_path(path, 2)); },
         [&] { mul_standard(ctx, c22, a21, b12, treeprof::child_path(path, 3)); });
    wave(ctx, par,
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
  wave(ctx, par,
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
    treeprof::add_flops(block_elems(dst));
  };
  wave(ctx, par, [&] { post_add(c11, t11); }, [&] { post_add(c12, t12); },
       [&] { post_add(c21, t21); }, [&] { post_add(c22, t22); });
}

namespace {

/// Paper §5.1's space-conserving sequential variant: one S, one T and one P
/// buffer per node, products interspersed with their pre-/post-additions.
/// Winograd's U-chains are expanded into per-product C contributions (the
/// common-subexpression savings cannot survive with a single P buffer).
void mul_fast_lowmem(const MulContext& ctx, bool winograd, const TiledBlock& c,
                     const TiledBlock& a, const TiledBlock& b,
                     std::uint64_t path) {
  if (node_cancelled(ctx)) return;
  if (c.level <= ctx.fast_cutoff_level) {
    mul_standard(ctx, c, a, b, path);
    return;
  }
  treeprof::NodeScope tree_node(path);
  const bool fg = ctx.force_generic_additions;
  const TiledBlock c11 = c.quadrant(kNW), c12 = c.quadrant(kNE);
  const TiledBlock c21 = c.quadrant(kSW), c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  const TiledBlock b11 = b.quadrant(kNW), b12 = b.quadrant(kNE);
  const TiledBlock b21 = b.quadrant(kSW), b22 = b.quadrant(kSE);

  TiledMatrix s_buf = make_temp(a11), t_buf = make_temp(b11);
  TiledMatrix p_buf = make_temp(c11);
  const TiledBlock s = s_buf.root(), t = t_buf.root(), p = p_buf.root();

  // Products carry child paths P1..P7 -> 0..6; every elementwise add pass
  // charges one FLOP per element to this node.
  auto product = [&](unsigned idx, const TiledBlock& x, const TiledBlock& y) {
    block_zero(p);
    mul_fast_lowmem(ctx, winograd, p, x, y, treeprof::child_path(path, idx));
  };
  auto acc = [&](const TiledBlock& dst, double scale, const TiledBlock& src) {
    block_acc(dst, scale, src, fg);
    treeprof::add_flops(block_elems(dst));
  };
  auto set_add = [&](const TiledBlock& dst, const TiledBlock& x, double scale,
                     const TiledBlock& y) {
    block_set_add(dst, x, scale, y, fg);
    treeprof::add_flops(block_elems(dst));
  };

  if (!winograd) {
    // P1 = (A11+A22)(B11+B22) -> C11, C22
    set_add(s, a11, +1.0, a22);
    set_add(t, b11, +1.0, b22);
    product(0, s, t);
    acc(c11, +1.0, p);
    acc(c22, +1.0, p);
    // P2 = (A21+A22) B11 -> C21, -C22
    set_add(s, a21, +1.0, a22);
    product(1, s, b11);
    acc(c21, +1.0, p);
    acc(c22, -1.0, p);
    // P3 = A11 (B12-B22) -> C12, C22
    set_add(t, b12, -1.0, b22);
    product(2, a11, t);
    acc(c12, +1.0, p);
    acc(c22, +1.0, p);
    // P4 = A22 (B21-B11) -> C11, C21
    set_add(t, b21, -1.0, b11);
    product(3, a22, t);
    acc(c11, +1.0, p);
    acc(c21, +1.0, p);
    // P5 = (A11+A12) B22 -> -C11, C12
    set_add(s, a11, +1.0, a12);
    product(4, s, b22);
    acc(c11, -1.0, p);
    acc(c12, +1.0, p);
    // P6 = (A21-A11)(B11+B12) -> C22
    set_add(s, a21, -1.0, a11);
    set_add(t, b11, +1.0, b12);
    product(5, s, t);
    acc(c22, +1.0, p);
    // P7 = (A12-A22)(B21+B22) -> C11
    set_add(s, a12, -1.0, a22);
    set_add(t, b21, +1.0, b22);
    product(6, s, t);
    acc(c11, +1.0, p);
    return;
  }

  // Winograd with expanded U-chains:
  //   C11 = P1+P2, C21 = P1+P4+P5+P7, C22 = P1+P3+P4+P5, C12 = P1+P3+P4+P6.
  // P1 = A11 B11
  product(0, a11, b11);
  acc(c11, +1.0, p);
  acc(c21, +1.0, p);
  acc(c22, +1.0, p);
  acc(c12, +1.0, p);
  // P2 = A12 B21
  product(1, a12, b21);
  acc(c11, +1.0, p);
  // P3 = (A21+A22)(B12-B11)
  set_add(s, a21, +1.0, a22);
  set_add(t, b12, -1.0, b11);
  product(2, s, t);
  acc(c22, +1.0, p);
  acc(c12, +1.0, p);
  // P4 = (A21+A22-A11)(B22-B12+B11)
  set_add(s, a21, +1.0, a22);
  acc(s, -1.0, a11);
  set_add(t, b22, -1.0, b12);
  acc(t, +1.0, b11);
  product(3, s, t);
  acc(c21, +1.0, p);
  acc(c22, +1.0, p);
  acc(c12, +1.0, p);
  // P5 = (A11-A21)(B22-B12)
  set_add(s, a11, -1.0, a21);
  set_add(t, b22, -1.0, b12);
  product(4, s, t);
  acc(c21, +1.0, p);
  acc(c22, +1.0, p);
  // P6 = (A12-A21-A22+A11) B22
  set_add(s, a12, -1.0, a21);
  acc(s, -1.0, a22);
  acc(s, +1.0, a11);
  product(5, s, b22);
  acc(c12, +1.0, p);
  // P7 = A22 (B21-B22+B12-B11)
  set_add(t, b21, -1.0, b22);
  acc(t, +1.0, b12);
  acc(t, -1.0, b11);
  product(6, a22, t);
  acc(c21, +1.0, p);
}

}  // namespace

void mul_strassen(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  if (node_cancelled(ctx)) return;
  const std::uint64_t flops = node_flops(c, a);
  if (ctx.fast_variant == FastVariant::SerialLowMem || !above_grain(ctx, flops)) {
    mul_fast_lowmem(ctx, /*winograd=*/false, c, a, b, path);
    return;
  }
  if (c.level <= ctx.fast_cutoff_level) {
    mul_standard(ctx, c, a, b, path);
    return;
  }
  treeprof::NodeScope tree_node(path);
  const bool par = spawn_here(ctx, flops);
  const bool fg = ctx.force_generic_additions;

  const TiledBlock c11 = c.quadrant(kNW), c12 = c.quadrant(kNE);
  const TiledBlock c21 = c.quadrant(kSW), c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  const TiledBlock b11 = b.quadrant(kNW), b12 = b.quadrant(kNE);
  const TiledBlock b21 = b.quadrant(kSW), b22 = b.quadrant(kSE);

  TiledMatrix s1 = make_temp(a11), s2 = make_temp(a11), s3 = make_temp(a11);
  TiledMatrix s4 = make_temp(a11), s5 = make_temp(a11);
  TiledMatrix t1 = make_temp(b11), t2 = make_temp(b11), t3 = make_temp(b11);
  TiledMatrix t4 = make_temp(b11), t5 = make_temp(b11);
  TiledMatrix p1 = make_temp(c11), p2 = make_temp(c11), p3 = make_temp(c11);
  TiledMatrix p4 = make_temp(c11), p5 = make_temp(c11), p6 = make_temp(c11);
  TiledMatrix p7 = make_temp(c11);

  {
    // Pre-additions (Fig. 1(b)): ten independent quadrant adds, each
    // attributed to this node's own path.
    obs::PhaseScope adds_phase("adds", par);
    auto pre_add = [&](TiledMatrix& dst, const TiledBlock& x, double s,
                       const TiledBlock& y) {
      treeprof::NodeScope add_node(path);
      block_set_add(dst.root(), x, s, y, fg);
      treeprof::add_flops(block_elems(dst.root()));
    };
    // Note: S3 = A11 + A12 (Strassen's M5 pre-sum). The SPAA'99 scan prints
    // "S3 = A11 - A12", which is inconsistent with its own post-additions
    // C12 = P3 + P5 and C11 = ... - P5 ...; the + sign is the classical one.
    wave(ctx, par, [&] { pre_add(s1, a11, +1.0, a22); },
         [&] { pre_add(s2, a21, +1.0, a22); }, [&] { pre_add(s3, a11, +1.0, a12); },
         [&] { pre_add(s4, a21, -1.0, a11); }, [&] { pre_add(s5, a12, -1.0, a22); },
         [&] { pre_add(t1, b11, +1.0, b22); }, [&] { pre_add(t2, b12, -1.0, b22); },
         [&] { pre_add(t3, b21, -1.0, b11); }, [&] { pre_add(t4, b11, +1.0, b12); },
         [&] { pre_add(t5, b21, +1.0, b22); });
  }
  // Seven recursive products, all spawned at once (paper §2).
  auto product = [&](TiledMatrix& p, const TiledBlock& x, const TiledBlock& y,
                     unsigned child) {
    p.zero();
    mul_strassen(ctx, p.root(), x, y, treeprof::child_path(path, child));
  };
  wave(ctx, par, [&] { product(p1, s1.root(), t1.root(), 0); },
       [&] { product(p2, s2.root(), b11, 1); }, [&] { product(p3, a11, t2.root(), 2); },
       [&] { product(p4, a22, t3.root(), 3); }, [&] { product(p5, s3.root(), b22, 4); },
       [&] { product(p6, s4.root(), t4.root(), 5); },
       [&] { product(p7, s5.root(), t5.root(), 6); });
  // Post-additions.
  obs::PhaseScope adds_phase("adds", par);
  wave(
      ctx, par,
      [&] {
        treeprof::NodeScope add_node(path);
        block_acc4(c11, +1.0, p1.root(), +1.0, p4.root(), -1.0, p5.root(), +1.0,
                   p7.root(), fg);
        treeprof::add_flops(4 * block_elems(c11));
      },
      [&] {
        treeprof::NodeScope add_node(path);
        block_acc2(c21, +1.0, p2.root(), +1.0, p4.root(), fg);
        treeprof::add_flops(2 * block_elems(c21));
      },
      [&] {
        treeprof::NodeScope add_node(path);
        block_acc2(c12, +1.0, p3.root(), +1.0, p5.root(), fg);
        treeprof::add_flops(2 * block_elems(c12));
      },
      [&] {
        treeprof::NodeScope add_node(path);
        block_acc4(c22, +1.0, p1.root(), +1.0, p3.root(), -1.0, p2.root(), +1.0,
                   p6.root(), fg);
        treeprof::add_flops(4 * block_elems(c22));
      });
}

void mul_winograd(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  if (node_cancelled(ctx)) return;
  const std::uint64_t flops = node_flops(c, a);
  if (ctx.fast_variant == FastVariant::SerialLowMem || !above_grain(ctx, flops)) {
    mul_fast_lowmem(ctx, /*winograd=*/true, c, a, b, path);
    return;
  }
  if (c.level <= ctx.fast_cutoff_level) {
    mul_standard(ctx, c, a, b, path);
    return;
  }
  treeprof::NodeScope tree_node(path);
  const bool par = spawn_here(ctx, flops);
  const bool fg = ctx.force_generic_additions;

  const TiledBlock c11 = c.quadrant(kNW), c12 = c.quadrant(kNE);
  const TiledBlock c21 = c.quadrant(kSW), c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  const TiledBlock b11 = b.quadrant(kNW), b12 = b.quadrant(kNE);
  const TiledBlock b21 = b.quadrant(kSW), b22 = b.quadrant(kSE);

  TiledMatrix s1 = make_temp(a11), s2 = make_temp(a11), s3 = make_temp(a11);
  TiledMatrix s4 = make_temp(a11);
  TiledMatrix t1 = make_temp(b11), t2 = make_temp(b11), t3 = make_temp(b11);
  TiledMatrix t4 = make_temp(b11);
  TiledMatrix p1 = make_temp(c11), p2 = make_temp(c11), p3 = make_temp(c11);
  TiledMatrix p4 = make_temp(c11), p5 = make_temp(c11), p6 = make_temp(c11);
  TiledMatrix p7 = make_temp(c11);

  {
    // Pre-additions (Fig. 1(c)). S2/S4 and T2/T4 chain on earlier sums —
    // this sharing is Winograd's signature — so each side runs its chain in
    // one task, with the independent S3/T3 adds in their own tasks.
    obs::PhaseScope adds_phase("adds", par);
    wave(
        ctx, par,
        [&] {
          treeprof::NodeScope add_node(path);
          block_set_add(s1.root(), a21, +1.0, a22, fg);
          block_set_add(s2.root(), s1.root(), -1.0, a11, fg);
          block_set_add(s4.root(), a12, -1.0, s2.root(), fg);
          treeprof::add_flops(3 * block_elems(s1.root()));
        },
        [&] {
          treeprof::NodeScope add_node(path);
          block_set_add(s3.root(), a11, -1.0, a21, fg);
          treeprof::add_flops(block_elems(s3.root()));
        },
        [&] {
          treeprof::NodeScope add_node(path);
          block_set_add(t1.root(), b12, -1.0, b11, fg);
          block_set_add(t2.root(), b22, -1.0, t1.root(), fg);
          block_set_add(t4.root(), b21, -1.0, t2.root(), fg);
          treeprof::add_flops(3 * block_elems(t1.root()));
        },
        [&] {
          treeprof::NodeScope add_node(path);
          block_set_add(t3.root(), b22, -1.0, b12, fg);
          treeprof::add_flops(block_elems(t3.root()));
        });
  }
  auto product = [&](TiledMatrix& p, const TiledBlock& x, const TiledBlock& y,
                     unsigned child) {
    p.zero();
    mul_winograd(ctx, p.root(), x, y, treeprof::child_path(path, child));
  };
  wave(ctx, par, [&] { product(p1, a11, b11, 0); }, [&] { product(p2, a12, b21, 1); },
       [&] { product(p3, s1.root(), t1.root(), 2); },
       [&] { product(p4, s2.root(), t2.root(), 3); },
       [&] { product(p5, s3.root(), t3.root(), 4); }, [&] { product(p6, s4.root(), b22, 5); },
       [&] { product(p7, a22, t4.root(), 6); });
  // Post-additions with Winograd's common-subexpression reuse: the U-chain
  // accumulates in place into the P buffers (all orientation 0, so the
  // aliased elementwise updates are safe).
  obs::PhaseScope adds_phase("adds", par);
  wave(
      ctx, par,
      [&] {
        treeprof::NodeScope add_node(path);
        block_acc2(c11, +1.0, p1.root(), +1.0, p2.root(), fg);
        treeprof::add_flops(2 * block_elems(c11));
      },
      [&] {
        treeprof::NodeScope add_node(path);
        block_acc(p4.root(), 1.0, p1.root(), fg);   // U2 = P1 + P4
        block_acc(p5.root(), 1.0, p4.root(), fg);   // U3 = U2 + P5
        treeprof::add_flops(2 * block_elems(p4.root()));
        wave(
            ctx, par,
            [&] {
              treeprof::NodeScope inner_node(path);
              block_acc2(c21, +1.0, p5.root(), +1.0, p7.root(), fg);
              treeprof::add_flops(2 * block_elems(c21));
            },
            [&] {
              treeprof::NodeScope inner_node(path);
              block_acc2(c22, +1.0, p5.root(), +1.0, p3.root(), fg);
              treeprof::add_flops(2 * block_elems(c22));
            },
            [&] {
              treeprof::NodeScope inner_node(path);
              block_acc3(c12, +1.0, p4.root(), +1.0, p3.root(), +1.0, p6.root(), fg);
              treeprof::add_flops(3 * block_elems(c12));
            });
      });
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
