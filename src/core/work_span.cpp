#include "core/work_span.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/fast_program.hpp"
#include "layout/tiled_layout.hpp"

namespace rla {

namespace {

struct Model {
  WorkSpanParams p;
  // Elements of one level-l block per operand shape.
  double ea(int l) const {
    return static_cast<double>(std::uint64_t{1} << (2 * l)) * p.tile_m * p.tile_k;
  }
  double eb(int l) const {
    return static_cast<double>(std::uint64_t{1} << (2 * l)) * p.tile_k * p.tile_n;
  }
  double ec(int l) const {
    return static_cast<double>(std::uint64_t{1} << (2 * l)) * p.tile_m * p.tile_n;
  }
  double leaf_flops() const {
    return 2.0 * p.tile_m * p.tile_k * p.tile_n;
  }

  WorkSpan standard(int l) const {
    if (l == 0) return {leaf_flops(), leaf_flops()};
    const WorkSpan child = standard(l - 1);
    const double e = ec(l - 1);
    if (p.standard_variant == StandardVariant::InPlace) {
      // Two barriers of four parallel products each.
      return {8.0 * child.work, 2.0 * child.span};
    }
    // Eight parallel products (four preceded by a temp zero), then four
    // parallel post-additions.
    WorkSpan r;
    r.work = 8.0 * child.work + 4.0 * e /*zeros*/ + 4.0 * e /*post adds*/;
    r.span = (e + child.span) + e;
    return r;
  }

  WorkSpan fast(int l, const fast::Plan& plan) const {
    if (l <= p.fast_cutoff_level) return standard(l);
    const WorkSpan child = fast(l - 1, plan);
    const double a = ea(l - 1), b = eb(l - 1), c = ec(l - 1);
    // Flops of a step: one per destination element per elementwise pass.
    auto cost = [&](const fast::Step& st) {
      const fast::Kind k = st.dst.kind;
      return st.passes() * (k == fast::Kind::S ? a : k == fast::Kind::T ? b : c);
    };
    auto work = [&](const auto& steps) {
      double w = 0.0;
      for (int i = 0; i < steps.n; ++i) w += cost(steps.s[i]);
      return w;
    };
    // Seven zeroed products, plus the additions. The §5.1 form is entirely
    // sequential (span equals work). The parallel form runs a wave of
    // pre-addition tasks, the products, then a wave of post tasks, each
    // wave as long as its longest task.
    if (p.fast_variant == FastVariant::SerialLowMem) {
      const double w = 7.0 * child.work + 7.0 * c + work(plan.low);
      return {w, w};
    }
    double adds = 0.0, pre = 0.0, post = 0.0;
    for (int i = 0; i < plan.n_pre; ++i) {
      adds += work(plan.pre[i]);
      pre = std::max(pre, work(plan.pre[i]));
    }
    for (int i = 0; i < plan.n_post; ++i) {
      const fast::PostTask& task = plan.post[i];
      double after = 0.0;
      for (int j = 0; j < task.after.n; ++j) {
        after = std::max(after, cost(task.after.s[j]));
      }
      adds += work(task.serial) + work(task.after);
      post = std::max(post, work(task.serial) + after);
    }
    return {7.0 * child.work + 7.0 * c + adds, pre + (c + child.span) + post};
  }
};

}  // namespace

WorkSpan analyze_work_span(const WorkSpanParams& params) {
  Model m{params};
  switch (params.algorithm) {
    case Algorithm::Standard:
      return m.standard(params.depth);
    case Algorithm::Strassen:
      return m.fast(params.depth, fast::plan_of<fast::kStrassen>);
    case Algorithm::Winograd:
      return m.fast(params.depth, fast::plan_of<fast::kWinograd>);
  }
  return {};
}

WorkSpan analyze_gemm(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                      const GemmConfig& cfg) {
  const std::array<std::uint64_t, 3> dims{m, k, n};
  const auto depth = cfg.forced_depth >= 0
                         ? std::optional<int>(cfg.forced_depth)
                         : common_depth(dims, cfg.tiles);
  if (!depth) {
    throw std::invalid_argument("analyze_gemm: shape requires splitting");
  }
  WorkSpanParams p;
  p.algorithm = cfg.algorithm;
  p.standard_variant = cfg.standard_variant;
  p.fast_variant = cfg.fast_variant;
  p.depth = *depth;
  p.fast_cutoff_level = cfg.fast_cutoff_level;
  const std::uint32_t side = std::uint32_t{1} << *depth;
  p.tile_m = (m + side - 1) / side;
  p.tile_k = (k + side - 1) / side;
  p.tile_n = (n + side - 1) / side;
  return analyze_work_span(p);
}

}  // namespace rla
