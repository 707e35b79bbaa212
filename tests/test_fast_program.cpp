// Tests of the fast-algorithm programs (core/fast_program.hpp): the Brent
// check rejects malformed tables, and the schedules derived from the two
// programs have the task structure and pass counts the interpreter runs.

#include <gtest/gtest.h>

#include <vector>

#include "core/fast_program.hpp"

namespace rla {
namespace {

using fast::Kind;
using fast::Program;
using fast::Ref;

/// Every program that differs from `g` by one flipped sign: of either term
/// of a sum, or of one term of a post-update.
std::vector<Program> sign_flips(const Program& g) {
  std::vector<Program> out;
  for (auto side : {&Program::s, &Program::t}) {
    for (int i = 0; i < fast::sums(g.*side); ++i) {
      for (int j = 0; j < 2; ++j) {
        Program m = g;
        (m.*side)[i].t[j].coef *= -1;
        out.push_back(m);
      }
    }
  }
  for (int u = 0; u < fast::updates(g); ++u) {
    for (int j = 0; j < g.post[u].rhs.n; ++j) {
      Program m = g;
      m.post[u].rhs.t[j].coef *= -1;
      out.push_back(m);
    }
  }
  return out;
}

/// Every program that differs from `g` by one operand swapped for another
/// of the same role (A12 for A21, S2 for S1, P5 for P4, C12 for C11): in a
/// sum, a product, or a post-update's destination or terms.
std::vector<Program> operand_swaps(const Program& g) {
  std::vector<Program> out;
  auto swaps = [&](auto&& slot) {
    Program probe = g;
    const Ref original = slot(probe);
    const int count = original.kind == Kind::P ? fast::kProducts
                      : original.kind == Kind::S || original.kind == Kind::T ? 5
                                                                               : 4;
    for (int i = 0; i < count; ++i) {
      if (i == original.i) continue;
      Program m = g;
      slot(m) = Ref{original.kind, static_cast<std::uint8_t>(i)};
      out.push_back(m);
    }
  };
  for (auto side : {&Program::s, &Program::t}) {
    for (int i = 0; i < fast::sums(g.*side); ++i) {
      for (int j = 0; j < 2; ++j) {
        swaps([=](Program& m) -> Ref& { return (m.*side)[i].t[j].src; });
      }
    }
  }
  for (int k = 0; k < fast::kProducts; ++k) {
    for (int j = 0; j < 2; ++j) {
      swaps([=](Program& m) -> Ref& { return m.p[k][j]; });
    }
  }
  for (int u = 0; u < fast::updates(g); ++u) {
    swaps([=](Program& m) -> Ref& { return m.post[u].dst; });
    for (int j = 0; j < g.post[u].rhs.n; ++j) {
      swaps([=](Program& m) -> Ref& { return m.post[u].rhs.t[j].src; });
    }
  }
  return out;
}

TEST(BrentCheck, BothProgramsPass) {
  EXPECT_TRUE(fast::well_formed(fast::kStrassen));
  EXPECT_TRUE(fast::brent(fast::kStrassen));
  EXPECT_TRUE(fast::well_formed(fast::kWinograd));
  EXPECT_TRUE(fast::brent(fast::kWinograd));
}

TEST(BrentCheck, RejectsEverySingleSignFlipAndOperandSwap) {
  for (const Program* g : {&fast::kStrassen, &fast::kWinograd}) {
    const std::vector<Program> flips = sign_flips(*g);
    const std::vector<Program> swaps = operand_swaps(*g);
    EXPECT_GE(flips.size(), 20u);
    EXPECT_GE(swaps.size(), 100u);
    for (std::size_t i = 0; i < flips.size(); ++i) {
      EXPECT_FALSE(fast::valid(flips[i])) << "sign flip " << i;
    }
    for (std::size_t i = 0; i < swaps.size(); ++i) {
      EXPECT_FALSE(fast::valid(swaps[i])) << "operand swap " << i;
    }
  }
}

TEST(BrentCheck, CatchesAWellFormedTableWithAWrongProduct) {
  // Well-formed (every reference in range, each C quadrant updated once)
  // but P6 multiplies by B11 instead of T4: only Brent's equations see it.
  Program g = fast::kStrassen;
  g.p[5][1] = Ref{Kind::B, 0};
  EXPECT_TRUE(fast::well_formed(g));
  EXPECT_FALSE(fast::brent(g));
}

/// Elementwise passes of a step list.
template <typename Steps>
int passes(const Steps& steps) {
  int n = 0;
  for (int i = 0; i < steps.n; ++i) n += steps.s[i].passes();
  return n;
}

TEST(FastPlan, StrassenParallelForm) {
  const fast::Plan& plan = fast::plan_of<fast::kStrassen>;
  // Ten independent one-pass pre-additions, four independent post-updates.
  ASSERT_EQ(plan.n_pre, 10);
  for (int i = 0; i < plan.n_pre; ++i) EXPECT_EQ(passes(plan.pre[i]), 1);
  ASSERT_EQ(plan.n_post, 4);
  int post = 0;
  for (int i = 0; i < plan.n_post; ++i) {
    EXPECT_EQ(plan.post[i].serial.n, 1);
    EXPECT_EQ(plan.post[i].after.n, 0);
    post += passes(plan.post[i].serial);
  }
  EXPECT_EQ(post, 12);
  for (int k = 0; k < fast::kProducts; ++k) EXPECT_EQ(plan.mul[k].child, k);
}

TEST(FastPlan, WinogradParallelForm) {
  const fast::Plan& plan = fast::plan_of<fast::kWinograd>;
  // Two 3-step chains (S1, S2, S4 and T1, T2, T4) plus S3 and T3.
  ASSERT_EQ(plan.n_pre, 4);
  EXPECT_EQ(plan.pre[0].n, 3);
  EXPECT_EQ(plan.pre[1].n, 1);
  EXPECT_EQ(plan.pre[2].n, 3);
  EXPECT_EQ(plan.pre[3].n, 1);
  EXPECT_EQ(plan.pre[0].s[2].dst, (Ref{Kind::S, 3}));
  EXPECT_EQ(plan.pre[2].s[2].dst, (Ref{Kind::T, 3}));
  // {C11 += P1 + P2} beside {P4 += P1; P5 += P4; then C21, C22, C12}.
  ASSERT_EQ(plan.n_post, 2);
  EXPECT_EQ(plan.post[0].serial.n, 1);
  EXPECT_EQ(plan.post[0].serial.s[0].dst, (Ref{Kind::C, 0}));
  EXPECT_EQ(plan.post[1].serial.n, 2);
  EXPECT_EQ(plan.post[1].serial.s[0].dst, (Ref{Kind::P, 3}));
  EXPECT_EQ(plan.post[1].serial.s[1].dst, (Ref{Kind::P, 4}));
  EXPECT_EQ(plan.post[1].after.n, 3);
  EXPECT_EQ(passes(plan.post[0].serial) + passes(plan.post[1].serial) +
                passes(plan.post[1].after),
            11);
}

TEST(FastPlan, LowMemorySchedules) {
  // Paper §5.1: one S, one T and one P buffer; 22 elementwise passes per
  // node for Strassen, 28 for Winograd with its U-chains expanded.
  for (const fast::Plan* plan :
       {&fast::plan_of<fast::kStrassen>, &fast::plan_of<fast::kWinograd>}) {
    int muls = 0;
    for (int i = 0; i < plan->low.n; ++i) {
      const fast::Step& st = plan->low.s[i];
      if (st.dst.kind != Kind::C) {
        EXPECT_EQ(st.dst.i, 0);  // the one S, T or P buffer
      }
      if (st.op == fast::Step::Op::Mul) {
        EXPECT_EQ(st.child, muls++);
      }
    }
    EXPECT_EQ(muls, fast::kProducts);
  }
  EXPECT_EQ(passes(fast::plan_of<fast::kStrassen>.low), 22);
  EXPECT_EQ(passes(fast::plan_of<fast::kWinograd>.low), 28);
  // Winograd's P6 = S4·B22 with S4 = A12 - A21 - A22 + A11 flattened.
  const fast::Plan& w = fast::plan_of<fast::kWinograd>;
  int p6 = 0;
  while (!(w.low.s[p6].op == fast::Step::Op::Mul && w.low.s[p6].child == 5)) ++p6;
  const fast::Terms& s4 = w.low.s[p6 - 1].rhs;
  ASSERT_EQ(s4.n, 4);
  EXPECT_EQ(s4.t[0].src, (Ref{Kind::A, 1}));
  EXPECT_EQ(s4.t[1].coef, -1);
  EXPECT_EQ(s4.t[3].src, (Ref{Kind::A, 0}));
  EXPECT_EQ(s4.t[3].coef, +1);
}

}  // namespace
}  // namespace rla
