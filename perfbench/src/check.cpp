#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

namespace {

double max_abs(const rla::Matrix& m) {
  double r = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) r = std::max(r, std::fabs(m.data()[i]));
  return r;
}

/// Scale the residuals are measured against (see kProbeTolerance).
double scale(const Shape& s, const Operands& in) {
  const double prod = std::fabs(s.alpha) * s.k * max_abs(in.a) * max_abs(in.b);
  const double prev = s.beta != 0.0 ? std::fabs(s.beta) * max_abs(in.c0) : 0.0;
  return std::max(prod + prev, 1e-300);
}

}  // namespace

CheckResult freivalds(const Shape& s, const Operands& in, const double* c,
                      std::size_t ldc) {
  std::vector<double> r(s.n), br(s.k, 0.0), want(s.m, 0.0), got(s.m, 0.0);
  fill_uniform(r.data(), r.size(), kProbeSeed);
  const double* b = in.b.data();
  const std::size_t ldb = in.b.ld();
  for (std::uint32_t j = 0; j < s.n; ++j) {
    for (std::uint32_t l = 0; l < s.k; ++l) br[l] += b[j * ldb + l] * r[j];
  }
  const double* a = in.a.data();
  const std::size_t lda = in.a.ld();
  if (s.op_a == rla::Op::None) {
    for (std::uint32_t l = 0; l < s.k; ++l) {
      for (std::uint32_t i = 0; i < s.m; ++i) want[i] += a[l * lda + i] * br[l];
    }
  } else {
    for (std::uint32_t i = 0; i < s.m; ++i) {
      double acc = 0.0;
      for (std::uint32_t l = 0; l < s.k; ++l) acc += a[i * lda + l] * br[l];
      want[i] = acc;
    }
  }
  for (std::uint32_t i = 0; i < s.m; ++i) want[i] *= s.alpha;
  if (s.beta != 0.0) {
    const double* c0 = in.c0.data();
    for (std::uint32_t j = 0; j < s.n; ++j) {
      for (std::uint32_t i = 0; i < s.m; ++i) {
        want[i] += s.beta * c0[j * in.c0.ld() + i] * r[j];
      }
    }
  }
  for (std::uint32_t j = 0; j < s.n; ++j) {
    for (std::uint32_t i = 0; i < s.m; ++i) got[i] += c[j * ldc + i] * r[j];
  }
  const double denom = scale(s, in) * s.n;
  CheckResult res{true, 0.0};
  for (std::uint32_t i = 0; i < s.m; ++i) {
    const double e = std::fabs(got[i] - want[i]) / denom;
    if (!(e <= kProbeTolerance)) res.ok = false;  // also catches NaN
    if (!(e <= res.residual)) res.residual = e;
  }
  return res;
}

CheckResult reference_check(const Shape& s, const Operands& in, const double* c,
                            std::size_t ldc) {
  rla::Matrix ref(s.m, s.n);
  if (s.beta != 0.0) std::copy(in.c0.data(), in.c0.data() + in.c0.size(), ref.data());
  rla::reference_gemm(s.m, s.n, s.k, s.alpha, in.a.data(), in.a.ld(),
                      s.op_a == rla::Op::Transpose, in.b.data(), in.b.ld(), false,
                      s.beta, ref.data(), ref.ld());
  const double diff =
      rla::max_abs_diff(ref.view(), rla::ConstMatrixView{c, ldc, s.m, s.n});
  const double e = diff / scale(s, in);
  return {e <= kProbeTolerance, e};
}

}  // namespace perfbench
