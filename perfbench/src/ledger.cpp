// The traced run: a short stretch of the workload with spans around every
// call the benchmark makes into a layer, a layer-by-layer replay of one op
// per shape class (serial, 2 and 4 threads), layer probes, and the machine
// ceilings, folded into the per-layer ledger. No in-program instrumentation
// is armed (measure, hw_counters, tree_profile and trace_path stay off), so
// nothing here needs a PMU.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "core/add.hpp"
#include "core/kernels.hpp"
#include "core/recursion.hpp"
#include "core/tiled_matrix.hpp"
#include "core/work_span.hpp"
#include "layout/convert.hpp"
#include "layout/tiled_layout.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using rla::Algorithm;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The driver's default tile range (GemmConfig::tiles is never changed here).
const rla::TileRange kTiles{};

/// Stated slack of the reconciliation checks.
constexpr double kReconcileSlack = 0.10;
constexpr double kCoverageSlack = 0.10;

// ---------------------------------------------------------------------------
// The squat pieces the driver runs for one multiply, planned from outside
// with the public common_depth() and the paper's Fig. 3 split rule (cut the
// largest extent near its middle, on a multiple of T_max).

struct Piece {
  std::uint32_t m, n, k;     ///< piece extents
  std::uint32_t i0, j0, l0;  ///< offsets: C rows, C columns, inner dimension
  double beta;               ///< 1 for the second half of an inner split
  int depth;
};

std::uint32_t split_point(std::uint32_t x) {
  const std::uint32_t unit = kTiles.t_max;
  std::uint32_t cut = (x / 2 / unit) * unit;
  if (cut == 0) cut = std::min(unit, x - 1);
  return cut;
}

void plan(std::uint32_t m, std::uint32_t n, std::uint32_t k, std::uint32_t i0,
          std::uint32_t j0, std::uint32_t l0, double beta, std::vector<Piece>& out) {
  const std::array<std::uint64_t, 3> dims{m, k, n};
  if (const auto d = rla::common_depth(dims, kTiles)) {
    out.push_back({m, n, k, i0, j0, l0, beta, *d});
  } else if (m >= n && m >= k) {
    const std::uint32_t c = split_point(m);
    plan(c, n, k, i0, j0, l0, beta, out);
    plan(m - c, n, k, i0 + c, j0, l0, beta, out);
  } else if (n >= k) {
    const std::uint32_t c = split_point(n);
    plan(m, c, k, i0, j0, l0, beta, out);
    plan(m, n - c, k, i0, j0 + c, l0, beta, out);
  } else {
    const std::uint32_t c = split_point(k);
    plan(m, n, c, i0, j0, l0, beta, out);
    plan(m, n, k - c, i0, j0, l0 + c, 1.0, out);
  }
}

std::vector<Piece> plan_pieces(const Shape& s) {
  std::vector<Piece> out;
  plan(s.m, s.n, s.k, 0, 0, 0, s.beta, out);
  return out;
}

/// Leaf multiplies of one piece (fast cutoff 0: 7 products per level).
double leaf_calls(Algorithm alg, int depth) {
  return std::pow(alg == Algorithm::Standard ? 8.0 : 7.0, depth);
}

// ---------------------------------------------------------------------------
// Shape classes: one representative multiply each, weighted by how many of
// its kind one op of the workload issues.

struct ClassRep {
  std::string name;
  Shape shape;
  double weight = 1.0;  ///< multiplies of this class per op
};

std::vector<ClassRep> classes(Workload w) {
  std::vector<ClassRep> out;
  if (w != Workload::ServedMixed) {
    for (const Shape& s : square_op(w)) {
      out.push_back({std::string("square-") + std::string(rla::algorithm_name(s.alg)), s, 1.0});
    }
    return out;
  }
  // Served: the largest Z-Morton request of each deck class stands for the
  // class; weight = the class's share of the deck (ops are requests).
  const auto& deck = served_deck();
  std::map<std::string, std::pair<const Shape*, int>> by_class;
  for (const Shape& s : deck) {
    auto& [rep, count] = by_class[s.cls];
    ++count;
    if (s.layout == rla::Curve::ZMorton && (rep == nullptr || s.flops() > rep->flops())) {
      rep = &s;
    }
  }
  for (const auto& [name, rc] : by_class) {
    out.push_back({name, *rc.first, static_cast<double>(rc.second) / deck.size()});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer-by-layer replay of one multiply: canonical_to_tiled, mul_dispatch,
// tiled_to_canonical per piece, each in its own span.

struct Replay {
  double to_tiled = 0.0, zero = 0.0, recursion = 0.0, to_canonical = 0.0;
  double to_tiled_bytes = 0.0, to_canonical_bytes = 0.0;
  bool ok = false;
  double total() const { return to_tiled + zero + recursion + to_canonical; }
};

Replay replay(const Shape& s, const Operands& in, rla::WorkerPool& pool, Spans& spans,
              int parent, std::int64_t op) {
  Replay r;
  rla::Matrix c(s.m, s.n);
  prepare_c(s, in, c.data());
  const rla::GemmConfig cfg = s.config();
  const double* a = in.a.data();
  const double* b = in.b.data();
  const std::size_t lda = in.a.ld(), ldb = in.b.ld(), ldc = c.ld();
  const bool ta_t = s.op_a == rla::Op::Transpose;
  for (const Piece& p : plan_pieces(s)) {
    const rla::TileGeometry ga = rla::make_geometry(p.m, p.k, p.depth, s.layout);
    const rla::TileGeometry gb = rla::make_geometry(p.k, p.n, p.depth, s.layout);
    const rla::TileGeometry gc = rla::make_geometry(p.m, p.n, p.depth, s.layout);
    rla::TiledMatrix ta(ga), tb(gb), tc(gc);
    const double* pa = ta_t ? a + std::size_t{p.i0} * lda + p.l0
                            : a + std::size_t{p.l0} * lda + p.i0;
    const double* pb = b + std::size_t{p.j0} * ldb + p.l0;
    double* pc = c.data() + std::size_t{p.j0} * ldc + p.i0;
    const std::uint64_t tiles = ga.tile_count();
    const std::uint64_t grain =
        std::max<std::uint64_t>(1, tiles / (8 * (pool.thread_count() + 1)));
    auto to_tiled = [&](const double* src, std::size_t ld, bool tr, double scale,
                        const rla::TileGeometry& g, double* dst) {
      pool.parallel_for(0, tiles, grain, [&](std::uint64_t s0, std::uint64_t s1) {
        rla::canonical_to_tiled(src, ld, tr, scale, g, dst, s0, s1);
      });
      r.to_tiled_bytes +=
          8.0 * (static_cast<double>(g.rows) * g.cols + static_cast<double>(g.total_elems()));
    };
    {
      SpanScope span(&spans, "layout.to_tiled", parent, op);
      to_tiled(pa, lda, ta_t, s.alpha, ga, ta.data());
      to_tiled(pb, ldb, false, 1.0, gb, tb.data());
      if (p.beta != 0.0) to_tiled(pc, ldc, false, p.beta, gc, tc.data());
      r.to_tiled += span.close();
    }
    if (p.beta == 0.0) {
      SpanScope span(&spans, "layout.zero", parent, op);
      tc.zero();
      r.zero += span.close();
    }
    {
      std::atomic<bool> cancelled{false};
      rla::MulContext ctx;
      ctx.kernel = cfg.kernel;
      ctx.standard_variant = cfg.standard_variant;
      ctx.fast_variant = cfg.fast_variant;
      ctx.fast_cutoff_level = cfg.fast_cutoff_level;
      ctx.pool = &pool;
      ctx.cancel = &cancelled;
      SpanScope span(&spans, "recursion", parent, op);
      rla::mul_dispatch(ctx, s.alg, tc.root(), ta.root(), tb.root());
      r.recursion += span.close();
    }
    {
      SpanScope span(&spans, "layout.to_canonical", parent, op);
      pool.parallel_for(0, tiles, grain, [&](std::uint64_t s0, std::uint64_t s1) {
        rla::tiled_to_canonical(tc.data(), gc, pc, ldc, s0, s1);
      });
      r.to_canonical += span.close();
      r.to_canonical_bytes += 16.0 * p.m * p.n;
    }
  }
  r.ok = freivalds(s, in, c.data(), ldc).ok;
  return r;
}

/// Serial gemm() of the same multiply: the wall time the replay reconciles to.
double serial_gemm(const Shape& s, const Operands& in, rla::WorkerPool& pool0,
                   Spans& spans, int parent, std::int64_t op, bool& ok) {
  rla::Matrix c(s.m, s.n);
  prepare_c(s, in, c.data());
  SpanScope span(&spans, "driver.gemm.serial", parent, op);
  gemm_on(s, in, pool0, c.data());
  const double t = span.close();
  ok = freivalds(s, in, c.data(), c.ld()).ok;
  return t;
}

// ---------------------------------------------------------------------------
// Layer probes.

/// Best per-call seconds of f over 5 batches of >= `min_batch` seconds.
template <typename F>
double per_call(F&& f, double min_batch) {
  std::int64_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < calls; ++i) f();
    if (since(t0) >= min_batch) break;
    calls *= 2;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < calls; ++i) f();
    best = std::min(best, since(t0) / static_cast<double>(calls));
  }
  return best;
}

/// leaf_mm on one L1-resident tile triple of the configured kernel, on
/// cache-line-aligned tiles like the tiled layout's.
double kernel_seconds(rla::KernelKind kind, std::uint32_t tm, std::uint32_t tk,
                      std::uint32_t tn) {
  rla::AlignedBuffer<double> a(std::size_t{tm} * tk), b(std::size_t{tk} * tn),
      c(std::size_t{tm} * tn);
  fill_uniform(a.data(), a.size(), 7);
  fill_uniform(b.data(), b.size(), 8);
  c.zero();
  return per_call(
      [&] { rla::leaf_mm_tile(kind, tm, tn, tk, a.data(), b.data(), c.data()); }, 0.005);
}

enum class AddOp { SetAdd, Acc, Acc2, Acc3, Acc4 };

/// Elements read + written per destination element.
double add_passes(AddOp op) {
  switch (op) {
    case AddOp::SetAdd:
    case AddOp::Acc:
      return 3.0;
    case AddOp::Acc2:
      return 4.0;
    case AddOp::Acc3:
      return 5.0;
    case AddOp::Acc4:
      return 6.0;
  }
  return 0.0;
}

struct AddUse {
  AddOp op;
  char shape;  ///< 'a', 'b' or 'c': whose tile shape the blocks have
  int count;   ///< per recursion node
};

/// Quadrant additions one internal recursion node issues (Parallel
/// variants; Standard = the Temporaries variant's post-additions).
std::vector<AddUse> node_adds(Algorithm alg) {
  switch (alg) {
    case Algorithm::Standard:
      return {{AddOp::Acc, 'c', 4}};
    case Algorithm::Strassen:
      return {{AddOp::SetAdd, 'a', 5}, {AddOp::SetAdd, 'b', 5},
              {AddOp::Acc4, 'c', 2}, {AddOp::Acc2, 'c', 2}};
    case Algorithm::Winograd:
      return {{AddOp::SetAdd, 'a', 4}, {AddOp::SetAdd, 'b', 4}, {AddOp::Acc2, 'c', 3},
              {AddOp::Acc, 'c', 2},    {AddOp::Acc3, 'c', 1}};
  }
  return {};
}

/// Seconds of one block addition on blocks of `level` with the given tile
/// shape and curve (memoized: the same block recurs across classes).
double add_seconds(AddOp op, std::uint32_t tr, std::uint32_t tc, int level,
                   rla::Curve curve) {
  static std::map<std::tuple<int, std::uint32_t, std::uint32_t, int, int>, double> memo;
  const auto key = std::make_tuple(static_cast<int>(op), tr, tc, level,
                                   static_cast<int>(curve));
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  rla::TileGeometry g;
  g.tile_rows = tr;
  g.tile_cols = tc;
  g.depth = level;
  g.curve = curve;
  g.rows = g.padded_rows();
  g.cols = g.padded_cols();
  std::vector<std::unique_ptr<rla::TiledMatrix>> m;
  for (int i = 0; i < 5; ++i) {
    m.push_back(std::make_unique<rla::TiledMatrix>(g));
    fill_uniform(m.back()->data(), m.back()->size(), 100 + i);
  }
  const rla::TiledBlock d = m[0]->root(), x = m[1]->root(), y = m[2]->root(),
                        z = m[3]->root(), w = m[4]->root();
  double sgn = 1.0;  // alternate signs so repeated accumulation stays bounded
  const double t = per_call(
      [&] {
        sgn = -sgn;
        switch (op) {
          case AddOp::SetAdd:
            rla::block_set_add(d, x, sgn, y);
            break;
          case AddOp::Acc:
            rla::block_acc(d, sgn, x);
            break;
          case AddOp::Acc2:
            rla::block_acc2(d, sgn, x, sgn, y);
            break;
          case AddOp::Acc3:
            rla::block_acc3(d, sgn, x, sgn, y, sgn, z);
            break;
          case AddOp::Acc4:
            rla::block_acc4(d, sgn, x, sgn, y, sgn, z, sgn, w);
            break;
        }
      },
      0.002);
  memo[key] = t;
  return t;
}

struct LayerCost {
  double seconds = 0.0;
  double flops_or_bytes = 0.0;
};

/// Kernel time and flops of one multiply: leaf calls × per-call time on
/// each piece's tile shape.
LayerCost kernel_cost(const Shape& s) {
  static std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, double> memo;
  LayerCost cost;
  const rla::KernelKind kind = s.config().kernel;
  for (const Piece& p : plan_pieces(s)) {
    const rla::TileGeometry ga = rla::make_geometry(p.m, p.k, p.depth, s.layout);
    const rla::TileGeometry gb = rla::make_geometry(p.k, p.n, p.depth, s.layout);
    const auto key = std::make_tuple(ga.tile_rows, ga.tile_cols, gb.tile_cols);
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, kernel_seconds(kind, ga.tile_rows, ga.tile_cols, gb.tile_cols))
               .first;
    }
    const double calls = leaf_calls(s.alg, p.depth);
    cost.seconds += calls * it->second;
    cost.flops_or_bytes += calls * 2.0 * ga.tile_rows * ga.tile_cols * gb.tile_cols;
  }
  return cost;
}

/// Quadrant-addition time and computed bytes of one multiply: at each node
/// level, nodes × additions per node × measured block-addition time.
LayerCost add_cost(const Shape& s) {
  LayerCost cost;
  const double branch = s.alg == Algorithm::Standard ? 8.0 : 7.0;
  for (const Piece& p : plan_pieces(s)) {
    const rla::TileGeometry ga = rla::make_geometry(p.m, p.k, p.depth, s.layout);
    const rla::TileGeometry gb = rla::make_geometry(p.k, p.n, p.depth, s.layout);
    for (int level = 1; level <= p.depth; ++level) {
      const double nodes = std::pow(branch, p.depth - level);
      for (const AddUse& u : node_adds(s.alg)) {
        const std::uint32_t tr = u.shape == 'b' ? gb.tile_rows : ga.tile_rows;
        const std::uint32_t tc = u.shape == 'a' ? ga.tile_cols : gb.tile_cols;
        const double elems = static_cast<double>(tr << (level - 1)) * (tc << (level - 1));
        cost.seconds += nodes * u.count * add_seconds(u.op, tr, tc, level - 1, s.layout);
        cost.flops_or_bytes += nodes * u.count * 8.0 * elems * add_passes(u.op);
      }
    }
  }
  return cost;
}

/// Work/span model parallelism of one multiply, flop-weighted over pieces.
double model_parallelism(const Shape& s) {
  double num = 0.0, den = 0.0;
  const rla::GemmConfig cfg = s.config();
  for (const Piece& p : plan_pieces(s)) {
    const rla::TileGeometry ga = rla::make_geometry(p.m, p.k, p.depth, s.layout);
    const rla::TileGeometry gb = rla::make_geometry(p.k, p.n, p.depth, s.layout);
    rla::WorkSpanParams wp;
    wp.algorithm = s.alg;
    wp.standard_variant = cfg.standard_variant;
    wp.fast_variant = cfg.fast_variant;
    wp.depth = p.depth;
    wp.tile_m = ga.tile_rows;
    wp.tile_k = ga.tile_cols;
    wp.tile_n = gb.tile_cols;
    wp.fast_cutoff_level = cfg.fast_cutoff_level;
    const double f = 2.0 * p.m * p.n * p.k;
    num += f * rla::analyze_work_span(wp).parallelism();
    den += f;
  }
  return den > 0.0 ? num / den : 0.0;
}

/// Microseconds for one TaskGroup spawn + wait of an empty task.
double spawn_us(rla::WorkerPool& pool) {
  return 1e6 * per_call(
                   [&] {
                     rla::TaskGroup g(pool);
                     g.spawn([] {});
                     g.wait();
                   },
                   0.01);
}

// ---------------------------------------------------------------------------
// Aggregates of the traced stretch.

struct DriverAgg {
  double ops = 0.0, convert_in = 0.0, compute = 0.0, convert_out = 0.0, pieces = 0.0;
  double other = 0.0, unsplit = 0.0;

  /// One op: the (wall seconds, profile) of each multiply it issued.
  void add_op(const std::vector<std::pair<double, const rla::GemmProfile*>>& muls) {
    ops += 1.0;
    double op_other = 0.0;
    bool all_unsplit = true;
    for (const auto& [wall, p] : muls) {
      convert_in += p->convert_in;
      compute += p->compute;
      convert_out += p->convert_out;
      pieces += p->splits + 1;
      all_unsplit = all_unsplit && p->splits == 0;
      op_other += wall - (p->convert_in + p->compute + p->convert_out);
    }
    if (all_unsplit) {
      other += op_other;
      unsplit += 1.0;
    }
  }
  double per_op(double x) const { return ops > 0.0 ? x / ops : 0.0; }
};

struct SchedDelta {
  std::uint64_t tasks = 0, steals = 0, failed = 0, idle = 0;
  static SchedDelta read(const rla::WorkerPool& p) {
    return {p.tasks_executed(), p.steals(), p.failed_steals(), p.idle_wakeups()};
  }
  SchedDelta since(const SchedDelta& base) const {
    return {tasks - base.tasks, steals - base.steals, failed - base.failed, idle - base.idle};
  }
};

struct ServiceStats {
  std::vector<double> submit, queue, run, overhead, coverage;
  double responses = 0.0, degraded = 0.0;
  double arena_recycled = 0.0, arena_allocs = 0.0, reserved_peak = 0.0;
};

/// One client alternating a served request with the same multiply as a
/// direct gemm() on an equal pool; paired latency differences give the
/// service overhead. Direct profiles feed `drv` when given.
void service_vs_direct(const std::vector<std::vector<Shape>>& ops, const OperandStore& inputs,
                       rla::service::GemmService& svc, rla::WorkerPool& direct_pool,
                       Spans& spans, Result& res, ServiceStats& st, DriverAgg* drv,
                       bool record_service_latencies) {
  std::size_t c_elems = 0;
  for (const auto& op : ops) {
    for (const Shape& s : op) c_elems = std::max<std::size_t>(c_elems, std::size_t{s.m} * s.n);
  }
  std::vector<double> c(c_elems);
  const std::uint64_t rec0 = svc.arena().recycled(), alloc0 = svc.arena().allocations();
  std::int64_t op_id = 1000000;
  for (std::size_t i = 0; i < ops.size(); ++i, ++op_id) {
    double served = 0.0, direct = 0.0;
    std::vector<rla::GemmProfile> profiles(ops[i].size());
    std::vector<std::pair<double, const rla::GemmProfile*>> muls;
    const int root = spans.begin("op.service-vs-direct", -1, op_id);
    for (int pass = 0; pass < 2; ++pass) {
      const bool do_served = (pass == 0) == (i % 2 == 0);
      for (std::size_t j = 0; j < ops[i].size(); ++j) {
        const Shape& s = ops[i][j];
        const Operands& in = inputs.get(s);
        prepare_c(s, in, c.data());
        ++res.attempted;
        bool ok = false;
        if (do_served) {
          SpanScope span(&spans, "service.request", root, op_id);
          const auto t0 = Clock::now();
          auto fut = svc.submit(make_request(s, in, c.data()));
          const double sub = since(t0);
          const rla::service::Response r = fut.get();
          const double lat = since(t0);
          span.set_trace(r.trace_id);
          served += lat;
          ok = r.outcome == rla::service::Outcome::Completed;
          st.responses += 1.0;
          if (r.outcome == rla::service::Outcome::Degraded) st.degraded += 1.0;
          if (record_service_latencies) {
            st.submit.push_back(sub);
            st.queue.push_back(r.queue_seconds);
            st.run.push_back(r.run_seconds);
            st.coverage.push_back((r.queue_seconds + r.run_seconds) / lat);
          }
        } else {
          SpanScope span(&spans, "driver.gemm", root, op_id);
          try {
            gemm_on(s, in, direct_pool, c.data(), &profiles[j]);
            ok = true;
          } catch (const std::exception&) {
          }
          const double wall = span.close();
          direct += wall;
          muls.emplace_back(wall, &profiles[j]);
        }
        ok = ok && freivalds(s, in, c.data(), s.m).ok;
        if (!ok) ++res.failed;
      }
    }
    spans.end(root);
    st.overhead.push_back(served - direct);
    if (drv != nullptr) drv->add_op(muls);
  }
  st.arena_recycled += static_cast<double>(svc.arena().recycled() - rec0);
  st.arena_allocs += static_cast<double>(svc.arena().allocations() - alloc0);
  st.reserved_peak = static_cast<double>(svc.arena().reserved_high_water());
}

/// Everything the workload-specific stage hands to the ledger.
struct Stage {
  DriverAgg driver;
  SchedDelta sched;
  double sched_ops = 0.0;
  ServiceStats service;
  double trace_overhead = 0.0;
};

void square_stage(const Args& args, double stretch, Spans& spans, Result& res, Stage& out) {
  SquareState st(args.workload, args.seed);
  for (const Shape& s : st.op) square_multiply(st, s, nullptr, -1, -1);  // warm-up
  const auto [ref_n, ref_failed] =
      reference_checks(st.op, st.inputs, [&](const Shape& s, double* c) {
        gemm_on(s, st.inputs.get(s), st.pool, c);
        return true;
      });
  res.attempted += ref_n;
  res.failed += ref_failed;

  // Stretch: odd ops carry spans, even ops run untraced, for the overhead.
  std::vector<double> traced, untraced;
  const SchedDelta base = SchedDelta::read(st.pool);
  const auto start = Clock::now();
  for (std::int64_t op = 0; since(start) < stretch || op < 4; ++op) {
    const bool tr = op % 2 == 1;
    SpanScope op_span(tr ? &spans : nullptr, "op", -1, op);
    std::vector<MulRecord> recs;
    double wall = 0.0;
    bool ok = true;
    for (const Shape& s : st.op) {
      recs.push_back(square_multiply(st, s, tr ? &spans : nullptr, op_span.id(), op));
      wall += recs.back().seconds;
      ok = ok && recs.back().ok;
    }
    ++res.attempted;
    if (!ok) ++res.failed;
    (tr ? traced : untraced).push_back(wall);
    std::vector<std::pair<double, const rla::GemmProfile*>> muls;
    for (const MulRecord& r : recs) muls.emplace_back(r.seconds, &r.profile);
    out.driver.add_op(muls);
    out.sched_ops += 1.0;
  }
  out.sched = SchedDelta::read(st.pool).since(base);
  out.trace_overhead = median(traced) / median(untraced) - 1.0;

  // Service layer on this workload's requests: one client, served vs direct.
  rla::service::GemmService svc(served_config());
  std::vector<std::vector<Shape>> ops(3, st.op);
  service_vs_direct(ops, st.inputs, svc, st.pool, spans, res, out.service, nullptr, true);
}

void served_stage(const Args& args, double stretch, Spans& spans, Result& res, Stage& out) {
  ServedState st(args.seed);
  warm_up(st);
  const auto [ref_n, ref_failed] =
      reference_checks(served_deck(), st.inputs, [&](const Shape& s, double* c) {
        return st.svc.submit(make_request(s, st.inputs.get(s), c)).get().outcome ==
               rla::service::Outcome::Completed;
      });
  res.attempted += ref_n;
  res.failed += ref_failed;

  const SchedDelta base = SchedDelta::read(st.svc.pool());
  const std::uint64_t rec0 = st.svc.arena().recycled(), alloc0 = st.svc.arena().allocations();
  const ClientLoad load = run_clients(st, args.seed, kClients, stretch, &spans);
  out.sched = SchedDelta::read(st.svc.pool()).since(base);
  out.sched_ops = static_cast<double>(load.records.size());
  ServiceStats& ss = out.service;
  ss.arena_recycled = static_cast<double>(st.svc.arena().recycled() - rec0);
  ss.arena_allocs = static_cast<double>(st.svc.arena().allocations() - alloc0);
  // Overhead of tracing: per deck entry, traced vs untraced median latency.
  std::map<const Shape*, std::pair<std::vector<double>, std::vector<double>>> by_entry;
  for (const RequestRecord& r : load.records) {
    ++res.attempted;
    if (!r.ok) ++res.failed;
    ss.submit.push_back(r.submit);
    ss.queue.push_back(r.resp.queue_seconds);
    ss.run.push_back(r.resp.run_seconds);
    ss.coverage.push_back((r.resp.queue_seconds + r.resp.run_seconds) / r.latency);
    ss.responses += 1.0;
    if (r.resp.outcome == rla::service::Outcome::Degraded) ss.degraded += 1.0;
    auto& e = by_entry[r.shape];
    (r.traced ? e.first : e.second).push_back(r.latency);
  }
  std::vector<double> ratios;
  for (const auto& [shape, e] : by_entry) {
    if (!e.first.empty() && !e.second.empty()) ratios.push_back(median(e.first) / median(e.second));
  }
  out.trace_overhead = median(ratios) - 1.0;

  // One client over one deck of the seeded sequence: served vs direct
  // gemm() on an equal pool; the direct profiles give the driver phases.
  rla::WorkerPool direct_pool(kWorkers);
  RequestStream stream(args.seed, 0);
  std::vector<std::vector<Shape>> ops;
  for (std::size_t i = 0; i < served_deck().size(); ++i) ops.push_back({stream.next()});
  ServiceStats one_client;
  service_vs_direct(ops, st.inputs, st.svc, direct_pool, spans, res, one_client, &out.driver,
                    false);
  ss.overhead = one_client.overhead;
  ss.responses += one_client.responses;
  ss.degraded += one_client.degraded;
  ss.reserved_peak = static_cast<double>(st.svc.arena().reserved_high_water());
}

// ---------------------------------------------------------------------------
// The ledger: every per-layer metric with its unit, ceiling and the
// end-to-end metrics it should move.

struct LedgerRow {
  const char* name;
  const char* ceiling;  ///< the ceiling it is read against, or ""
  const char* moves;    ///< end-to-end metrics it should move, and where
};

constexpr LedgerRow kRows[] = {
    {"kernel.gflops", "probe.peak_gflops",
     "gflops, latency_p50_ms: most on square-standard, ~half on square-fast, least on served-mixed"},
    {"kernel.peak_frac", "", "as kernel.gflops"},
    {"kernel.ms_per_op", "", "as kernel.gflops"},
    {"add.gbps", "probe.stream_gbps", "gflops on square-fast; none on square-standard"},
    {"add.bw_frac", "", "as add.gbps"},
    {"add.ms_per_op", "", "as add.gbps"},
    {"recursion.serial_ms", "", "gflops, peak_rss_mb on square-fast; less on square-standard"},
    {"recursion.self_ms", "", "as recursion.serial_ms"},
    {"recursion.self_frac", "", "as recursion.serial_ms"},
    {"parallel.speedup_2t", "ideal 2", "gflops on square-*; latency_p50_ms on served-mixed"},
    {"parallel.speedup_4t", "ideal 4", "as parallel.speedup_2t"},
    {"parallel.efficiency_4t", "ideal 1", "as parallel.speedup_2t"},
    {"parallel.model_parallelism", "", "as parallel.speedup_2t"},
    {"parallel.tasks_per_op", "", "as parallel.speedup_2t"},
    {"parallel.steals_per_op", "", "as parallel.speedup_2t"},
    {"parallel.failed_steals_per_op", "", "as parallel.speedup_2t"},
    {"parallel.idle_wakeups_per_op", "", "as parallel.speedup_2t"},
    {"parallel.spawn_us", "", "as parallel.speedup_2t"},
    {"layout.to_tiled_gbps", "probe.stream_gbps",
     "latency_p50_ms, throughput_rps on served-mixed; none on square-*"},
    {"layout.to_canonical_gbps", "probe.stream_gbps", "as layout.to_tiled_gbps"},
    {"layout.to_tiled_bw_frac", "", "as layout.to_tiled_gbps"},
    {"layout.convert_share", "", "as layout.to_tiled_gbps"},
    {"driver.convert_in_ms", "", "gflops on all; latency_p50_ms on served-mixed"},
    {"driver.compute_ms", "", "as driver.convert_in_ms"},
    {"driver.convert_out_ms", "", "as driver.convert_in_ms"},
    {"driver.other_ms", "", "as driver.convert_in_ms"},
    {"driver.pieces_per_op", "", "as driver.convert_in_ms"},
    {"driver.reconcile_frac", "slack 0.10", "as driver.convert_in_ms"},
    {"service.submit_us_p50", "",
     "latency_p50_ms, latency_tail_ms, throughput_rps on served-mixed"},
    {"service.queue_ms_p50", "", "as service.submit_us_p50"},
    {"service.run_ms_p50", "", "as service.submit_us_p50"},
    {"service.overhead_ms_p50", "", "as service.submit_us_p50"},
    {"service.arena_hit_frac", "", "as service.submit_us_p50"},
    {"service.reserved_peak_mb", "", "as service.submit_us_p50"},
    {"service.degraded_frac", "", "as service.submit_us_p50"},
    {"probe.peak_gflops", "", "none (ceiling)"},
    {"probe.stream_gbps", "", "none (ceiling)"},
    {"trace.overhead_frac", "", "none"},
};

void write_trace_file(const Args& args, const Spans& spans, const Result& res) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  const fs::path path = fs::path(args.out_dir) /
                        (std::string(workload_name(args.workload)) + "-seed" +
                         std::to_string(args.seed) + ".trace.json");
  std::ofstream f(path);
  f << "{\"workload\": \"" << workload_name(args.workload) << "\", \"seed\": " << args.seed
    << ",\n \"ledger\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    f << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf << ", \"unit\": \""
      << m.unit << "\"}";
  }
  f << "},\n \"spans\": [\n";
  const std::vector<Span> all = spans.snapshot();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << "  {\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"op\": " << s.op
      << ", \"trace_id\": " << s.trace_id << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << " ]}\n";
  f.close();
  if (f) {
    std::printf("trace: %zu spans and the ledger written to %s\n", all.size(),
                path.string().c_str());
  } else {
    std::printf("trace: could not write %s\n", path.string().c_str());
  }
}

}  // namespace

Result run_traced(const Args& args) {
  Result res;
  Spans spans;
  Stage stage;
  const double stretch = std::clamp(args.seconds / 2.0, 1.0, 5.0);
  std::printf("traced: stretch %.1f s, then replays, probes and ceilings\n", stretch);
  if (args.workload == Workload::ServedMixed) {
    served_stage(args, stretch, spans, res, stage);
  } else {
    square_stage(args, stretch, spans, res, stage);
  }

  // Replays of one op per shape class, best of three rounds: serial (each
  // followed by the serial gemm() it reconciles to), then 2 and 4 threads.
  const std::vector<ClassRep> reps = classes(args.workload);
  const OperandStore inputs(args.seed, workload_shapes(args.workload));
  rla::WorkerPool pool0(0), pool1(1), pool3(kWorkers);
  double w_serial = 0, w_2t = 0, w_4t = 0, w_gemm = 0, w_spans = 0;
  double tt_s = 0, tt_b = 0, tc_s = 0, tc_b = 0;
  double kern_s = 0, kern_f = 0, add_s = 0, add_b = 0, model_num = 0, model_den = 0;
  std::int64_t op = 2000000;
  for (const ClassRep& rep : reps) {
    const Shape& s = rep.shape;
    const Operands& in = inputs.get(s);
    double serial = 1e300, gemm_wall = 1e300, t2 = 1e300, t4 = 1e300;
    Replay best;
    for (int rnd = 0; rnd < 3; ++rnd, ++op) {
      const int root = spans.begin("op.replay." + rep.name, -1, op);
      const Replay r = replay(s, in, pool0, spans, root, op);
      bool gemm_ok = false;
      const double g = serial_gemm(s, in, pool0, spans, root, op, gemm_ok);
      res.attempted += 2;
      res.failed += (r.ok ? 0 : 1) + (gemm_ok ? 0 : 1);
      if (r.total() < best.total() || rnd == 0) best = r;
      serial = std::min(serial, r.recursion);
      gemm_wall = std::min(gemm_wall, g);
      for (rla::WorkerPool* p : {&pool1, &pool3}) {
        const Replay rp = replay(s, in, *p, spans, root, op);
        res.attempted += 1;
        if (!rp.ok) ++res.failed;
        double& t = p == &pool1 ? t2 : t4;
        t = std::min(t, rp.recursion);
      }
      spans.end(root);
    }
    const LayerCost kc = kernel_cost(s), ac = add_cost(s);
    const double mp = model_parallelism(s);
    const double w = rep.weight;
    w_serial += w * serial;
    w_2t += w * t2;
    w_4t += w * t4;
    w_gemm += w * gemm_wall;
    w_spans += w * best.total();
    tt_s += w * best.to_tiled;
    tt_b += w * best.to_tiled_bytes;
    tc_s += w * best.to_canonical;
    tc_b += w * best.to_canonical_bytes;
    kern_s += w * kc.seconds;
    kern_f += w * kc.flops_or_bytes;
    add_s += w * ac.seconds;
    add_b += w * ac.flops_or_bytes;
    model_num += w * s.flops() * mp;
    model_den += w * s.flops();
    std::printf(
        "replay %-18s w=%.2f pieces=%zu serial: to_tiled=%.2fms zero=%.2fms recursion=%.2fms "
        "to_canonical=%.2fms sum=%.2fms gemm()=%.2fms | recursion 2t=%.2fms 4t=%.2fms | "
        "kernel=%.2fms add=%.2fms model_parallelism=%.1f\n",
        rep.name.c_str(), w, plan_pieces(s).size(), best.to_tiled * 1e3, best.zero * 1e3,
        best.recursion * 1e3, best.to_canonical * 1e3, best.total() * 1e3, gemm_wall * 1e3,
        t2 * 1e3, t4 * 1e3, kc.seconds * 1e3, ac.seconds * 1e3, mp);
  }
  const double spawn = spawn_us(pool3);

  // Ceilings last: the triad's arrays are the run's largest allocation.
  const FmaPeak peak = fma_peak();
  const StreamTriad triad = stream_triad();
  std::printf("ceiling: FMA loop %d lanes x %d accumulators, one thread: %.2f GF/s\n",
              peak.lanes, peak.accumulators, peak.gflops);
  std::printf("ceiling: triad over 3 arrays of %.1f MiB each (last-level cache %.1f MiB%s), "
              "one thread, 3 arrays counted: %.2f GB/s\n",
              triad.array_bytes / 1048576.0, triad.l3_bytes / 1048576.0,
              triad.l3_assumed ? ", assumed" : "", triad.gbps);

  const DriverAgg& d = stage.driver;
  const ServiceStats& ss = stage.service;
  const double kernel_gflops = kern_f / kern_s / 1e9;
  const double add_gbps = add_b / add_s / 1e9;
  const double to_tiled_gbps = tt_b / tt_s / 1e9;
  const double reconcile = std::fabs(w_spans - w_gemm) / w_gemm;
  const double ops = std::max(stage.sched_ops, 1.0);
  const double conv = d.convert_in + d.convert_out;

  res.add("kernel.gflops", kernel_gflops, "GF/s");
  res.add("kernel.peak_frac", kernel_gflops / peak.gflops, "ratio");
  res.add("kernel.ms_per_op", kern_s * 1e3, "ms");
  res.add("add.gbps", add_gbps, "GB/s");
  res.add("add.bw_frac", add_gbps / triad.gbps, "ratio");
  res.add("add.ms_per_op", add_s * 1e3, "ms");
  res.add("recursion.serial_ms", w_serial * 1e3, "ms");
  res.add("recursion.self_ms", (w_serial - kern_s - add_s) * 1e3, "ms");
  res.add("recursion.self_frac", (w_serial - kern_s - add_s) / w_serial, "ratio");
  res.add("parallel.speedup_2t", w_serial / w_2t, "x");
  res.add("parallel.speedup_4t", w_serial / w_4t, "x");
  res.add("parallel.efficiency_4t", w_serial / w_4t / 4.0, "ratio");
  res.add("parallel.model_parallelism", model_num / model_den, "x");
  res.add("parallel.tasks_per_op", stage.sched.tasks / ops, "1/op");
  res.add("parallel.steals_per_op", stage.sched.steals / ops, "1/op");
  res.add("parallel.failed_steals_per_op", stage.sched.failed / ops, "1/op");
  res.add("parallel.idle_wakeups_per_op", stage.sched.idle / ops, "1/op");
  res.add("parallel.spawn_us", spawn, "us");
  res.add("layout.to_tiled_gbps", to_tiled_gbps, "GB/s");
  res.add("layout.to_canonical_gbps", tc_b / tc_s / 1e9, "GB/s");
  res.add("layout.to_tiled_bw_frac", to_tiled_gbps / triad.gbps, "ratio");
  res.add("layout.convert_share", conv / (conv + d.compute), "ratio");
  res.add("driver.convert_in_ms", d.per_op(d.convert_in) * 1e3, "ms");
  res.add("driver.compute_ms", d.per_op(d.compute) * 1e3, "ms");
  res.add("driver.convert_out_ms", d.per_op(d.convert_out) * 1e3, "ms");
  res.add("driver.other_ms", d.unsplit > 0 ? d.other / d.unsplit * 1e3 : 0.0, "ms");
  res.add("driver.pieces_per_op", d.per_op(d.pieces), "1/op");
  res.add("driver.reconcile_frac", reconcile, "ratio");
  res.add("service.submit_us_p50", median(ss.submit) * 1e6, "us");
  res.add("service.queue_ms_p50", median(ss.queue) * 1e3, "ms");
  res.add("service.run_ms_p50", median(ss.run) * 1e3, "ms");
  res.add("service.overhead_ms_p50", median(ss.overhead) * 1e3, "ms");
  res.add("service.arena_hit_frac",
          ss.arena_recycled / std::max(ss.arena_recycled + ss.arena_allocs, 1.0), "ratio");
  res.add("service.reserved_peak_mb", ss.reserved_peak / 1048576.0, "MB");
  res.add("service.degraded_frac", ss.degraded / std::max(ss.responses, 1.0), "ratio");
  res.add("probe.peak_gflops", peak.gflops, "GF/s");
  res.add("probe.stream_gbps", triad.gbps, "GB/s");
  res.add("trace.overhead_frac", stage.trace_overhead, "ratio");

  // Reconciliations, each against its stated slack.
  std::printf("reconcile: serial replay spans (to_tiled + zero + recursion + to_canonical) "
              "%.2f ms vs gemm() wall %.2f ms per op: frac %.4f, slack %.2f -> %s\n",
              w_spans * 1e3, w_gemm * 1e3, reconcile, kReconcileSlack,
              reconcile <= kReconcileSlack ? "within" : "OUTSIDE");
  const double cover = median(ss.coverage);
  std::printf("reconcile: service queue + run covers %.4f of client-seen latency (median of "
              "%zu), slack %.2f -> %s\n",
              cover, ss.coverage.size(), kCoverageSlack,
              cover >= 1.0 - kCoverageSlack && cover <= 1.0 + 1e-6 ? "within" : "OUTSIDE");
  std::printf("driver: %.0f ops profiled, %.0f unsplit (other_ms is per unsplit op)\n", d.ops,
              d.unsplit);

  std::printf("%-30s %14s %-6s  %-28s %s\n", "ledger metric", "value", "unit", "ceiling",
              "should move");
  std::map<std::string, const Metric*> metric;
  for (const Metric& m : res.metrics) metric[m.name] = &m;
  for (const LedgerRow& row : kRows) {
    const Metric& m = *metric.at(row.name);
    char ceiling[64] = "";
    if (std::string(row.ceiling).rfind("probe.", 0) == 0) {
      std::snprintf(ceiling, sizeof ceiling, "%s=%.2f", row.ceiling,
                    metric.at(row.ceiling)->value);
    } else {
      std::snprintf(ceiling, sizeof ceiling, "%s", row.ceiling);
    }
    std::printf("%-30s %14.4f %-6s  %-28s %s\n", row.name, m.value, m.unit.c_str(), ceiling,
                row.moves);
  }
  write_trace_file(args, spans, res);
  return res;
}

}  // namespace perfbench
