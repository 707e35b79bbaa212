#include "core/add.hpp"

#include <cassert>

#include "analysis/annotations.hpp"
#include "core/kernels.hpp"
#include "layout/mapping.hpp"

namespace rla {

namespace {

void check_compatible(const TiledBlock& a, const TiledBlock& b) {
  assert(a.level == b.level);
  assert(a.geom->tile_elems() == b.geom->tile_elems());
  (void)a;
  (void)b;
}

}  // namespace

// hotpath-exempt: the order-map registry locks and allocates only on first
// use per (curve, orientation, level); steady state returns a cached pointer.
TileMap make_tile_map(const TiledBlock& dst, const TiledBlock& src,
                      bool force_generic) {
  check_compatible(dst, src);
  TileMap m;
  m.mask = dst.tile_count() - 1;
  if (force_generic) {
    m.map = cached_order_map(dst.geom->curve, dst.orient, src.orient, dst.level).data();
    return m;
  }
  if (dst.orient == src.orient) return m;  // identity stream
  if (dst.geom->curve == Curve::GrayMorton) {
    // The two Gray-Morton orientations' tile orders differ by a rotation of
    // half the tile count (paper §3.4; verified in test_mapping).
    m.rot = dst.tile_count() / 2;
    return m;
  }
  m.map = cached_order_map(dst.geom->curve, dst.orient, src.orient, dst.level).data();
  return m;
}

// rla-hotpath
void block_set_add(const TiledBlock& dst, const TiledBlock& a, double sb,
                   const TiledBlock& b, bool force_generic) {
  const TileMap ma = make_tile_map(dst, a, force_generic);
  const TileMap mb = make_tile_map(dst, b, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  // Tile maps only permute tiles within each operand's contiguous span, so
  // one span annotation per operand is exact.
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(a.begin(), a.elems() * sizeof(double));
  RLA_RACE_READ(b.begin(), b.elems() * sizeof(double));
  if (ma.identity() && mb.identity()) {
    vset_add(dst.begin(), a.begin(), sb, b.begin(), dst.elems());
    return;
  }
  double* d = dst.begin();
  const double* pa = a.begin();
  const double* pb = b.begin();
  for (std::uint64_t s = 0; s < dst.tile_count(); ++s) {
    vset_add(d + s * tsz, pa + ma(s) * tsz, sb, pb + mb(s) * tsz, tsz);
  }
}

// rla-hotpath
void block_acc(const TiledBlock& dst, double s, const TiledBlock& src,
               bool force_generic) {
  const TileMap m = make_tile_map(dst, src, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(src.begin(), src.elems() * sizeof(double));
  if (m.identity()) {
    vacc(dst.begin(), s, src.begin(), dst.elems());
    return;
  }
  if (m.map == nullptr) {
    // Gray-Morton half-step: two contiguous streaming passes.
    const std::uint64_t half = dst.elems() / 2;
    vacc(dst.begin(), s, src.begin() + half, half);
    vacc(dst.begin() + half, s, src.begin(), half);
    return;
  }
  double* d = dst.begin();
  const double* p = src.begin();
  for (std::uint64_t t = 0; t < dst.tile_count(); ++t) {
    vacc(d + t * tsz, s, p + m(t) * tsz, tsz);
  }
}

// rla-hotpath
void block_acc2(const TiledBlock& dst, double s1, const TiledBlock& p1, double s2,
                const TiledBlock& p2, bool force_generic) {
  const TileMap m1 = make_tile_map(dst, p1, force_generic);
  const TileMap m2 = make_tile_map(dst, p2, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(p1.begin(), p1.elems() * sizeof(double));
  RLA_RACE_READ(p2.begin(), p2.elems() * sizeof(double));
  if (m1.identity() && m2.identity()) {
    vacc2(dst.begin(), s1, p1.begin(), s2, p2.begin(), dst.elems());
    return;
  }
  double* d = dst.begin();
  for (std::uint64_t s = 0; s < dst.tile_count(); ++s) {
    vacc2(d + s * tsz, s1, p1.begin() + m1(s) * tsz, s2, p2.begin() + m2(s) * tsz,
          tsz);
  }
}

// rla-hotpath
void block_acc3(const TiledBlock& dst, double s1, const TiledBlock& p1, double s2,
                const TiledBlock& p2, double s3, const TiledBlock& p3,
                bool force_generic) {
  const TileMap m1 = make_tile_map(dst, p1, force_generic);
  const TileMap m2 = make_tile_map(dst, p2, force_generic);
  const TileMap m3 = make_tile_map(dst, p3, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(p1.begin(), p1.elems() * sizeof(double));
  RLA_RACE_READ(p2.begin(), p2.elems() * sizeof(double));
  RLA_RACE_READ(p3.begin(), p3.elems() * sizeof(double));
  if (m1.identity() && m2.identity() && m3.identity()) {
    vacc3(dst.begin(), s1, p1.begin(), s2, p2.begin(), s3, p3.begin(), dst.elems());
    return;
  }
  double* d = dst.begin();
  for (std::uint64_t s = 0; s < dst.tile_count(); ++s) {
    vacc3(d + s * tsz, s1, p1.begin() + m1(s) * tsz, s2, p2.begin() + m2(s) * tsz,
          s3, p3.begin() + m3(s) * tsz, tsz);
  }
}

// rla-hotpath
void block_acc4(const TiledBlock& dst, double s1, const TiledBlock& p1, double s2,
                const TiledBlock& p2, double s3, const TiledBlock& p3, double s4,
                const TiledBlock& p4, bool force_generic) {
  const TileMap m1 = make_tile_map(dst, p1, force_generic);
  const TileMap m2 = make_tile_map(dst, p2, force_generic);
  const TileMap m3 = make_tile_map(dst, p3, force_generic);
  const TileMap m4 = make_tile_map(dst, p4, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(p1.begin(), p1.elems() * sizeof(double));
  RLA_RACE_READ(p2.begin(), p2.elems() * sizeof(double));
  RLA_RACE_READ(p3.begin(), p3.elems() * sizeof(double));
  RLA_RACE_READ(p4.begin(), p4.elems() * sizeof(double));
  if (m1.identity() && m2.identity() && m3.identity() && m4.identity()) {
    vacc4(dst.begin(), s1, p1.begin(), s2, p2.begin(), s3, p3.begin(), s4,
          p4.begin(), dst.elems());
    return;
  }
  double* d = dst.begin();
  for (std::uint64_t s = 0; s < dst.tile_count(); ++s) {
    vacc4(d + s * tsz, s1, p1.begin() + m1(s) * tsz, s2, p2.begin() + m2(s) * tsz,
          s3, p3.begin() + m3(s) * tsz, s4, p4.begin() + m4(s) * tsz, tsz);
  }
}

}  // namespace rla
