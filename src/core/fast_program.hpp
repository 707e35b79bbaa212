#pragma once

// Strassen's and Winograd's algorithms as programs (paper Fig. 1(b)/(c)).
//
// Both are one pattern over 2×2 quadrants: pre-additions S_n = x ± y on
// A's side and T_n = x ± y on B's side, seven products P_k = x·y, then
// post-updates dst += Σ ±P into a C quadrant or, for Winograd's U-chains,
// in place into a product. A sum may read an earlier sum of its own side,
// so Winograd keeps its chained 15-addition structure.
//
// Everything else is derived from the two tables at compile time:
//   * `well_formed` and the Brent-equation check `brent`, static_asserted
//     below, so a malformed table does not compile;
//   * the parallel form's tasks: a sum that reads an earlier sum joins that
//     sum's task; the updates into products form one chain task, and the C
//     updates that read a chain-updated product run after it as a wave;
//   * paper §5.1's low-memory schedule: each S/T operand is flattened into
//     signed quadrant terms set into one buffer, and each product is
//     accumulated into every C quadrant whose expansion contains it, in
//     program order.
// core/fast_interpreter.hpp runs the plans on tiled blocks and canonical
// views, core/work_span models them, trace/footprint walks the programs.

#include <algorithm>
#include <array>
#include <cstdint>

namespace rla::fast {

inline constexpr int kProducts = 7;

/// Operand roles: quadrants of the node's A, B, C; the S/T sums; products.
enum class Kind : std::uint8_t { None, A, B, C, S, T, P };

struct Ref {
  Kind kind = Kind::None;
  std::uint8_t i = 0;  ///< quadrant (kNW, kNE, kSW, kSE) or 0-based index
  friend constexpr bool operator==(Ref, Ref) = default;
};

struct Term {  ///< coef·src
  int coef = 0;
  Ref src;
};

/// Σ coef·src over n ≤ 4 terms (n = 0: an unused table entry).
struct Terms {
  int n = 0;
  std::array<Term, 4> t{};
  constexpr Terms operator+(Ref r) const { return with({+1, r}); }
  constexpr Terms operator-(Ref r) const { return with({-1, r}); }
  constexpr Terms with(Term x) const {
    Terms out = *this;
    out.t[out.n++] = x;
    return out;
  }
};

struct Update {  ///< dst += rhs
  Ref dst;
  Terms rhs;
};

struct Program {
  std::array<Terms, 5> s{}, t{};                ///< S_n, T_n
  std::array<std::array<Ref, 2>, kProducts> p{};  ///< P_k = p[k][0]·p[k][1]
  std::array<Update, 6> post{};
};

/// The tables' notation: A(12) is A's NE quadrant, S(1) the first sum.
namespace notation {
constexpr Ref quadrant(Kind k, int rc) {
  return {k, static_cast<std::uint8_t>(2 * (rc / 10 - 1) + rc % 10 - 1)};
}
constexpr Ref A(int rc) { return quadrant(Kind::A, rc); }
constexpr Ref B(int rc) { return quadrant(Kind::B, rc); }
constexpr Ref C(int rc) { return quadrant(Kind::C, rc); }
constexpr Ref S(int n) { return {Kind::S, static_cast<std::uint8_t>(n - 1)}; }
constexpr Ref T(int n) { return {Kind::T, static_cast<std::uint8_t>(n - 1)}; }
constexpr Ref P(int n) { return {Kind::P, static_cast<std::uint8_t>(n - 1)}; }
constexpr Terms operator+(Ref x, Ref y) { return Terms{}.with({+1, x}) + y; }
constexpr Terms operator-(Ref x, Ref y) { return Terms{}.with({+1, x}) - y; }
constexpr Terms operator+(Ref x) { return Terms{}.with({+1, x}); }
}  // namespace notation

// S3 = A11 + A12 (Strassen's M5 pre-sum). The SPAA'99 scan prints
// "S3 = A11 - A12", which is inconsistent with its own post-additions
// C12 = P3 + P5 and C11 = ... - P5 ...; the + sign is the classical one.
inline constexpr Program kStrassen = [] {
  using namespace notation;
  return Program{
      .s = {A(11) + A(22), A(21) + A(22), A(11) + A(12), A(21) - A(11), A(12) - A(22)},
      .t = {B(11) + B(22), B(12) - B(22), B(21) - B(11), B(11) + B(12), B(21) + B(22)},
      .p = {{{S(1), T(1)}, {S(2), B(11)}, {A(11), T(2)}, {A(22), T(3)}, {S(3), B(22)},
             {S(4), T(4)}, {S(5), T(5)}}},
      .post = {Update{C(11), P(1) + P(4) - P(5) + P(7)}, Update{C(21), P(2) + P(4)},
               Update{C(12), P(3) + P(5)}, Update{C(22), P(1) + P(3) - P(2) + P(6)}},
  };
}();

// The U-chains run in place: U2 = P1 + P4 lands in P4, U3 = U2 + P5 in P5.
inline constexpr Program kWinograd = [] {
  using namespace notation;
  return Program{
      .s = {A(21) + A(22), S(1) - A(11), A(11) - A(21), A(12) - S(2)},
      .t = {B(12) - B(11), B(22) - T(1), B(22) - B(12), B(21) - T(2)},
      .p = {{{A(11), B(11)}, {A(12), B(21)}, {S(1), T(1)}, {S(2), T(2)}, {S(3), T(3)},
             {S(4), B(22)}, {A(22), T(4)}}},
      .post = {Update{C(11), P(1) + P(2)}, Update{P(4), +P(1)}, Update{P(5), +P(4)},
               Update{C(21), P(5) + P(7)}, Update{C(22), P(5) + P(3)},
               Update{C(12), P(4) + P(3) + P(6)}},
  };
}();

constexpr int sums(const std::array<Terms, 5>& side) {
  return static_cast<int>(std::ranges::count_if(side, [](Terms x) { return x.n > 0; }));
}
constexpr int updates(const Program& g) {
  return static_cast<int>(
      std::ranges::count_if(g.post, [](Update u) { return u.dst.kind != Kind::None; }));
}

/// A quadrant or sum of `side` as signed quadrant terms, in order of first
/// appearance (coefficients of repeats add up).
constexpr Terms flatten(const std::array<Terms, 5>& side, Ref r, int sign = 1,
                        Terms f = {}) {
  if (r.kind == Kind::S || r.kind == Kind::T) {
    for (const Term& x : side[r.i].t) {
      if (x.coef != 0) f = flatten(side, x.src, sign * x.coef, f);
    }
    return f;
  }
  const auto seen = std::ranges::find(f.t.begin(), f.t.begin() + f.n, r, &Term::src);
  if (seen == f.t.begin() + f.n) return f.with({sign, r});
  seen->coef += sign;
  return f;
}

/// coef[q][k] of product P_k in C quadrant q, in-place updates expanded.
constexpr std::array<std::array<int, kProducts>, 4> c_expansion(const Program& g) {
  std::array<std::array<int, kProducts>, kProducts> pe{};
  for (int k = 0; k < kProducts; ++k) pe[k][k] = 1;
  std::array<std::array<int, kProducts>, 4> ce{};
  for (const Update& up : g.post) {
    auto& dst = up.dst.kind == Kind::C ? ce[up.dst.i] : pe[up.dst.i];
    for (const Term& x : up.rhs.t) {
      const auto src = pe[x.src.i];
      for (int k = 0; k < kProducts; ++k) dst[k] += x.coef * src[k];
    }
  }
  return ce;
}

/// What the derived schedules rely on (used entries first): a sum reads two
/// own-side quadrants or one earlier sum and flattens to ≥ 2 unit terms led
/// by +1; a product multiplies an A-side by a B-side operand; each C
/// quadrant is updated once; updates read other products, and read an
/// in-place updated product only after its last update.
constexpr bool well_formed(const Program& g) {
  auto in = [](Ref r, Kind k, int n) { return r.kind == k && r.i < n; };
  // A quadrant of A (B), or one of the first n S (T) sums.
  auto side_operand = [&](Ref r, Kind sum, int n) {
    return in(r, sum == Kind::S ? Kind::A : Kind::B, 4) || in(r, sum, n);
  };
  for (Kind sum : {Kind::S, Kind::T}) {
    const auto& side = sum == Kind::S ? g.s : g.t;
    for (int i = 0; i < sums(side); ++i) {
      const Ref x = side[i].t[0].src, y = side[i].t[1].src;
      if (!side_operand(x, sum, i) || !side_operand(y, sum, i) ||
          (x.kind == sum && y.kind == sum)) {
        return false;
      }
      const Terms f = flatten(side, {sum, static_cast<std::uint8_t>(i)});
      auto unit = [](Term t) { return t.coef * t.coef == 1; };
      const auto units = std::ranges::count_if(f.t, unit);
      if (f.n < 2 || f.t[0].coef != 1 || units != f.n) return false;
    }
  }
  for (const auto& [x, y] : g.p) {
    if (!side_operand(x, Kind::S, sums(g.s)) || !side_operand(y, Kind::T, sums(g.t))) {
      return false;
    }
  }
  std::array<int, 4> c_updates{};
  std::array<int, kProducts> last_update{};  // 1 + index of the last update into P_k
  for (int u = 0; u < updates(g); ++u) {
    const Update& up = g.post[u];
    if (!in(up.dst, Kind::C, 4) && !in(up.dst, Kind::P, kProducts)) return false;
    if (up.dst.kind == Kind::C) ++c_updates[up.dst.i];
    if (up.dst.kind == Kind::P) last_update[up.dst.i] = u + 1;
    for (int j = 0; j < up.rhs.n; ++j) {
      const Ref src = up.rhs.t[j].src;
      if (!in(src, Kind::P, kProducts) || src == up.dst) return false;
    }
  }
  for (int u = 0; u < updates(g); ++u) {
    for (int j = 0; j < g.post[u].rhs.n; ++j) {
      if (last_update[g.post[u].rhs.t[j].src.i] > u) return false;
    }
  }
  return std::ranges::count(c_updates, 1) == 4;
}

/// Brent's equations: expanded into A_il·B_lj coefficients, every C
/// quadrant is the classical C_ij = Σ_l A_il·B_lj. Requires well_formed.
constexpr bool brent(const Program& g) {
  const auto ce = c_expansion(g);
  std::array<int, 64> e{};  // [C quadrant][A quadrant][B quadrant], less the classical
  for (int q = 0; q < 4; ++q) {
    for (int l = 0; l < 2; ++l) e[16 * q + 4 * (q / 2 * 2 + l) + 2 * l + q % 2] = -1;
    for (int k = 0; k < kProducts; ++k) {
      for (const Term& x : flatten(g.s, g.p[k][0]).t) {
        for (const Term& y : flatten(g.t, g.p[k][1]).t) {
          e[16 * q + 4 * x.src.i + y.src.i] += ce[q][k] * x.coef * y.coef;
        }
      }
    }
  }
  return std::ranges::count(e, 0) == 64;
}

constexpr bool valid(const Program& g) { return well_formed(g) && brent(g); }

static_assert(valid(kStrassen), "Strassen's table fails its checks");
static_assert(valid(kWinograd), "Winograd's table fails its checks");

/// One interpreter step: Set dst = rhs (led by +1), Acc dst += rhs, or Mul
/// product buffer dst = rhs.t[0].src · rhs.t[1].src as treeprof child
/// `child`. A Set of n terms streams n - 1 elementwise passes, an Acc n.
struct Step {
  enum class Op : std::uint8_t { Set, Acc, Mul };
  Op op = Op::Acc;
  Ref dst;
  Terms rhs;
  int child = 0;
  constexpr int passes() const {
    return op == Op::Mul ? 0 : op == Op::Set ? rhs.n - 1 : rhs.n;
  }
};

template <int N>
struct Steps {
  int n = 0;
  std::array<Step, N> s{};
  constexpr void push(const Step& st) { s[n++] = st; }
};

/// A post task of the parallel form: `serial` in order, then `after` as a
/// wave of one-step tasks.
struct PostTask {
  Steps<6> serial, after;
};

struct Plan {
  // Parallel form: a wave of pre-addition tasks, the seven products, a
  // wave of post tasks.
  int n_pre = 0, n_post = 0;
  std::array<Steps<5>, 10> pre{};
  std::array<Step, kProducts> mul{};
  std::array<PostTask, 6> post{};
  Steps<7 * kProducts> low;  ///< §5.1 form, buffers Ref{S|T|P, 0}
};

/// The schedules of a valid program.
constexpr Plan derive(const Program& g) {
  Plan plan;
  for (Kind sum : {Kind::S, Kind::T}) {
    const auto& side = sum == Kind::S ? g.s : g.t;
    std::array<int, 5> task{};
    for (int i = 0; i < sums(side); ++i) {
      const Ref x = side[i].t[0].src, y = side[i].t[1].src;
      task[i] = x.kind == sum ? task[x.i] : y.kind == sum ? task[y.i] : plan.n_pre++;
      const Ref dst{sum, static_cast<std::uint8_t>(i)};
      plan.pre[task[i]].push({Step::Op::Set, dst, side[i]});
    }
  }
  for (int k = 0; k < kProducts; ++k) {
    const Terms xy = Terms{}.with({1, g.p[k][0]}).with({1, g.p[k][1]});
    plan.mul[k] = {Step::Op::Mul, {Kind::P, static_cast<std::uint8_t>(k)}, xy, k};
  }
  std::array<bool, kProducts> chained{};
  for (const Update& up : g.post) chained[up.dst.i] |= up.dst.kind == Kind::P;
  int chain = -1;
  for (const Update& up : g.post) {
    const Step st{Step::Op::Acc, up.dst, up.rhs};
    if (up.dst.kind == Kind::P) {
      plan.post[chain < 0 ? (chain = plan.n_post++) : chain].serial.push(st);
    } else if (std::ranges::any_of(up.rhs.t,
                                   [&](Term x) { return x.coef && chained[x.src.i]; })) {
      plan.post[chain].after.push(st);
    } else if (up.dst.kind == Kind::C) {
      plan.post[plan.n_post++].serial.push(st);
    }
  }
  const auto ce = c_expansion(g);
  for (int k = 0; k < kProducts; ++k) {
    Terms xy;
    for (Kind buf : {Kind::S, Kind::T}) {
      const Ref r = g.p[k][buf == Kind::S ? 0 : 1];
      if (r.kind == buf) {
        plan.low.push({Step::Op::Set, {buf, 0}, flatten(buf == Kind::S ? g.s : g.t, r)});
      }
      xy = xy.with({1, r.kind == buf ? Ref{buf, 0} : r});
    }
    plan.low.push({Step::Op::Mul, {Kind::P, 0}, xy, k});
    for (const Update& up : g.post) {
      if (up.dst.kind == Kind::C && ce[up.dst.i][k] != 0) {
        const Terms p = Terms{}.with({ce[up.dst.i][k], {Kind::P, 0}});
        plan.low.push({Step::Op::Acc, up.dst, p});
      }
    }
  }
  return plan;
}

template <const Program& G>
inline constexpr Plan plan_of = derive(G);

}  // namespace rla::fast
