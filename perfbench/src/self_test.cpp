// Unit checks of the benchmark's own machinery: quartiles (against values
// from Python's statistics.quantiles), the tail rule, seed determinism of the
// operands and request sequence, and the result checks.

#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "check.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

bool quartiles_are(std::vector<double> v, double q1, double q2, double q3) {
  const auto q = quartiles(std::move(v));
  return near(q[0], q1) && near(q[1], q2) && near(q[2], q3);
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_stats() {
  // Expected values: statistics.quantiles(data, n=4) on Python 3.11.
  expect(quartiles_are(iota(10), 2.75, 5.5, 8.25), "quartiles of 1..10");
  expect(quartiles_are({3.5, 1.25, 9.0, 4.75, 2.0}, 1.625, 3.5, 6.875),
         "quartiles of 5 unsorted values");
  expect(quartiles_are({10.0, 20.0}, 7.5, 15.0, 22.5), "quartiles of 2 values");
  expect(quartiles_are({5, 1, 4, 2, 3, 9, 7}, 2.0, 4.0, 7.0), "quartiles of 7 values");
  expect(near(median({4, 1, 3, 2}), 2.5) && near(median({3, 1, 2}), 2.0), "median");

  Tail t = tail_percentile(iota(100));
  expect(t.enough && t.pct == 90 && t.value == 90 && t.beyond == 10,
         "tail of 100 samples is p90 with 10 beyond");
  t = tail_percentile(iota(1000));
  expect(t.enough && t.pct == 99 && t.beyond == 10, "tail of 1000 samples is p99");
  t = tail_percentile(iota(20));
  expect(t.enough && t.pct == 50 && t.beyond == 10 && near(t.value, 10.5),
         "tail of 20 samples is the median");
  t = tail_percentile(iota(19));
  expect(!t.enough && t.pct == 50 && t.beyond == 9,
         "tail of 19 samples falls back to the median, flagged");
  t = tail_percentile(std::vector<double>(40, 5.0));
  expect(!t.enough && t.beyond == 0, "ties: nothing lies beyond a constant sample");
}

void test_seeds() {
  const auto& deck = served_deck();
  const OperandStore a(7, deck), b(7, deck), c(8, deck);
  expect(a.digest() == b.digest(), "same seed, same operands");
  expect(a.digest() != c.digest(), "different seed, different operands");

  RequestStream s1(7, 2), s2(7, 2), s3(8, 2);
  bool same = true, differ = false;
  std::multiset<const Shape*> first_deck, whole;
  for (std::size_t i = 0; i < 10 * deck.size(); ++i) {
    const Shape* x = &s1.next();
    same = same && x == &s2.next();
    differ = differ || x != &s3.next();
    if (i < deck.size()) first_deck.insert(x);
  }
  for (const Shape& s : deck) whole.insert(&s);
  expect(same, "same seed, same request sequence");
  expect(differ, "different seed, different request sequence");
  expect(first_deck == whole, "each deck round issues every variant once");
  expect(&RequestStream(7, 0).next() != &RequestStream(7, 1).next() ||
             &RequestStream(7, 0).next() != &RequestStream(7, 3).next(),
         "clients get distinct streams");
}

void test_checks() {
  const Shape s{48, 40, 32, rla::Op::Transpose, -1.0, 1.0, rla::Algorithm::Standard,
                rla::Curve::ZMorton, "test"};
  const OperandStore store(3, {s});
  const Operands& in = store.get(s);
  rla::Matrix c(s.m, s.n);
  std::copy(in.c0.data(), in.c0.data() + in.c0.size(), c.data());
  rla::reference_gemm(s.m, s.n, s.k, s.alpha, in.a.data(), in.a.ld(), true, in.b.data(),
                      in.b.ld(), false, s.beta, c.data(), c.ld());
  expect(freivalds(s, in, c.data(), c.ld()).ok, "Freivalds accepts a correct C");
  expect(reference_check(s, in, c.data(), c.ld()).ok, "reference accepts a correct C");
  c(17, 23) += 1e-3;
  expect(!freivalds(s, in, c.data(), c.ld()).ok, "Freivalds rejects one wrong element");
  expect(!reference_check(s, in, c.data(), c.ld()).ok, "reference rejects one wrong element");
  c(17, 23) = std::nan("");
  expect(!freivalds(s, in, c.data(), c.ld()).ok, "Freivalds rejects a NaN");
}

}  // namespace

int self_test() {
  test_stats();
  test_seeds();
  test_checks();
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
