#pragma once

// The one interpreter of the fast-algorithm plans (core/fast_program.hpp),
// templated over a per-layout adapter: core/recursion.cpp instantiates it on
// TiledBlock, core/canonical.cpp on column-major views.
//
// A node checks cancellation, asks the adapter for its form, hands base
// cases to the adapter, and otherwise opens its treeprof frame and runs
// either
//   * the parallel form (Fig. 1(b)/(c)): quadrant temporaries for every S,
//     T and P, allocated in that order; a wave of pre-addition tasks, a wave
//     of the seven products (children 0..6), a wave of post tasks; or
//   * paper §5.1's low-memory form: one S, one T and one P buffer and the
//     derived schedule, inline.
// Add tasks open a treeprof frame on the node's own path, and every
// elementwise pass credits one FLOP per destination element.
//
// The adapter L supplies: the types In, Out (operand and writable views) and
// Temp; kAddPhases (mark "adds" phases in the trace); node(c, a, b, path)
// -> Form; temp(like), view(temp), zero(temp); quadrant(view, q);
// elems(view); set_add(d, x, sign, y): d = x + sign·y;
// acc(d, c1, p1, ...): d += Σ c·p over 1..4 pairs; wave(fork, fs...).

#include <array>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/fast_program.hpp"
#include "obs/session.hpp"
#include "obs/treeprof/treeprof.hpp"

namespace rla::fast {

/// What a layout makes of one node: nothing more (cancelled, or a base
/// case the adapter ran), the §5.1 form, or the parallel form run inline or
/// with its waves forked.
enum class Form : std::uint8_t { Done, LowMemory, Inline, Fork };

template <const Program& G, typename L>
void run(const L& lay, const typename L::Out& c, const typename L::In& a,
         const typename L::In& b, std::uint64_t path);

namespace detail {

/// f(integral_constant<0>), ..., f(integral_constant<N-1>) as one fork-join
/// wave, or inline in order when !fork.
template <std::size_t N, typename L, typename F>
void each(const L& lay, bool fork, F&& f) {
  if constexpr (N > 0) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      lay.wave(fork, [&f] { f(std::integral_constant<std::size_t, I>{}); }...);
    }(std::make_index_sequence<N>{});
  }
}

/// One node's operands: its 12 quadrants and its temporaries, allocated
/// S, T, P in order at construction.
template <typename L, std::size_t NS, std::size_t NT, std::size_t NP>
struct Frame {
  using In = typename L::In;
  using Out = typename L::Out;
  std::array<In, 4> a, b;
  std::array<Out, 4> c;
  std::array<typename L::Temp, NS> s;
  std::array<typename L::Temp, NT> t;
  std::array<typename L::Temp, NP> p;

  Frame(const L& lay, const Out& cc, const In& aa, const In& bb)
      : a(quadrants(aa)), b(quadrants(bb)), c(quadrants(cc)) {
    for (auto& x : s) x = lay.temp(a[0]);
    for (auto& x : t) x = lay.temp(b[0]);
    for (auto& x : p) x = lay.temp(c[0]);
  }
  template <typename V>
  static std::array<V, 4> quadrants(const V& v) {
    return {L::quadrant(v, 0), L::quadrant(v, 1), L::quadrant(v, 2), L::quadrant(v, 3)};
  }
  In in(Ref r) {
    return r.kind == Kind::A ? a[r.i] : r.kind == Kind::B ? b[r.i] : In(out(r));
  }
  Out out(Ref r) {
    return r.kind == Kind::C   ? c[r.i]
           : r.kind == Kind::S ? L::view(s[r.i])
           : r.kind == Kind::T ? L::view(t[r.i])
                               : L::view(p[r.i]);
  }
};

template <const Program& G, Step St, typename L, typename F>
void exec(const L& lay, F& f, std::uint64_t path) {
  auto k = [](std::size_t j) { return static_cast<double>(St.rhs.t[j].coef); };
  auto x = [&](std::size_t j) { return f.in(St.rhs.t[j].src); };
  const typename L::Out dst = f.out(St.dst);
  if constexpr (St.op == Step::Op::Mul) {
    L::zero(f.p[St.dst.i]);
    run<G>(lay, dst, x(0), x(1), obs::treeprof::child_path(path, St.child));
  } else if constexpr (St.op == Step::Op::Set) {
    lay.set_add(dst, x(0), k(1), x(1));
    each<St.rhs.n - 2>(lay, false, [&](auto j) { lay.acc(dst, k(j + 2), x(j + 2)); });
  } else {
    [&]<std::size_t... J>(std::index_sequence<J...>) {
      std::apply([&](const auto&... v) { lay.acc(dst, v...); },
                 std::tuple_cat(std::tuple(k(J), x(J))...));
    }(std::make_index_sequence<St.rhs.n>{});
  }
  obs::treeprof::add_flops(static_cast<std::uint64_t>(St.passes()) * L::elems(dst));
}

}  // namespace detail

/// C += A·B by program G on the adapter's layout.
template <const Program& G, typename L>
void run(const L& lay, const typename L::Out& c, const typename L::In& a,
         const typename L::In& b, std::uint64_t path) {
  using namespace detail;
  constexpr const Plan& plan = plan_of<G>;
  const Form form = lay.node(c, a, b, path);
  if (form == Form::Done) return;
  obs::treeprof::NodeScope node(path);
  if (form == Form::LowMemory) {
    Frame<L, 1, 1, 1> f(lay, c, a, b);
    each<plan.low.n>(lay, false, [&](auto i) { exec<G, plan.low.s[i]>(lay, f, path); });
    return;
  }
  Frame<L, sums(G.s), sums(G.t), kProducts> f(lay, c, a, b);
  const bool fork = form == Form::Fork;
  {
    // "adds" phases mark the serial joints between waves in the trace; only
    // forking nodes emit them (deep nodes would flood the ring).
    obs::PhaseScope adds_phase("adds", L::kAddPhases && fork);
    each<plan.n_pre>(lay, fork, [&](auto i) {
      obs::treeprof::NodeScope add_node(path);
      each<plan.pre[i].n>(lay, false,
                          [&](auto j) { exec<G, plan.pre[i].s[j]>(lay, f, path); });
    });
  }
  each<kProducts>(lay, fork, [&](auto k) { exec<G, plan.mul[k]>(lay, f, path); });
  obs::PhaseScope adds_phase("adds", L::kAddPhases && fork);
  each<plan.n_post>(lay, fork, [&](auto i) {
    constexpr const PostTask& task = plan.post[i];
    obs::treeprof::NodeScope add_node(path);
    each<task.serial.n>(lay, false,
                        [&](auto j) { exec<G, task.serial.s[j]>(lay, f, path); });
    each<task.after.n>(lay, fork, [&](auto j) {
      obs::treeprof::NodeScope after_node(path);
      exec<G, task.after.s[j]>(lay, f, path);
    });
  });
}

}  // namespace rla::fast
