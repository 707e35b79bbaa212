#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// 16 independent chains: FMA latency (4-5 cycles) × 2 ports needs >= 10.
constexpr int kAcc = 16;

#if defined(__AVX512F__)
using Vec = __m512d;
constexpr int kLanes = 8;
inline Vec vset(double x) { return _mm512_set1_pd(x); }
inline Vec vfma(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }
inline double vsum(Vec v) {
  alignas(64) double t[8];
  _mm512_store_pd(t, v);
  return t[0] + t[1] + t[2] + t[3] + t[4] + t[5] + t[6] + t[7];
}
#elif defined(__FMA__)
using Vec = __m256d;
constexpr int kLanes = 4;
inline Vec vset(double x) { return _mm256_set1_pd(x); }
inline Vec vfma(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
inline double vsum(Vec v) {
  alignas(32) double t[4];
  _mm256_store_pd(t, v);
  return t[0] + t[1] + t[2] + t[3];
}
#else
using Vec = double;
constexpr int kLanes = 1;
inline Vec vset(double x) { return x; }
inline Vec vfma(Vec a, Vec b, Vec c) { return std::fma(a, b, c); }
inline double vsum(Vec v) { return v; }
#endif

/// `iters` rounds of kAcc dependent-chain FMAs; returns a value the caller
/// consumes so the loop cannot be removed.
__attribute__((noinline)) double fma_loop(std::int64_t iters, double x, double y) {
  Vec acc[kAcc];
  for (int i = 0; i < kAcc; ++i) acc[i] = vset(1.0 + i * 1e-3);
  const Vec vx = vset(x), vy = vset(y);
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < kAcc; ++i) acc[i] = vfma(acc[i], vx, vy);
  }
  double s = 0.0;
  for (int i = 0; i < kAcc; ++i) s += vsum(acc[i]);
  return s;
}

}  // namespace

FmaPeak fma_peak() {
  // acc ← acc·x + y converges to y/(1−x): no overflow, no denormals.
  volatile double x = 0.999999, y = 1e-6;
  volatile double sink = 0.0;
  std::int64_t iters = 1 << 16;
  // Grow the trial until it lasts >= 50 ms.
  for (;;) {
    const auto t0 = Clock::now();
    sink = sink + fma_loop(iters, x, y);
    if (seconds_since(t0) >= 0.05) break;
    iters *= 2;
  }
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto t0 = Clock::now();
    sink = sink + fma_loop(iters, x, y);
    const double t = seconds_since(t0);
    best = std::max(best, 2.0 * kLanes * kAcc * static_cast<double>(iters) / t / 1e9);
  }
  return {best, kLanes, kAcc};
}

StreamTriad stream_triad() {
  StreamTriad out;
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  out.l3_assumed = l3 <= 0;
  out.l3_bytes = out.l3_assumed ? std::size_t{32} << 20 : static_cast<std::size_t>(l3);
  const std::size_t n = 4 * out.l3_bytes / sizeof(double);
  out.array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  volatile double s = 0.5;
  const double sc = s;
  for (int pass = 0; pass < 4; ++pass) {
    const auto t0 = Clock::now();
    double* __restrict pa = a.get();
    const double* __restrict pb = b.get();
    const double* __restrict pc = c.get();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + sc * pc[i];
    const double t = seconds_since(t0);
    if (pass > 0) out.gbps = std::max(out.gbps, 3.0 * static_cast<double>(out.array_bytes) / t / 1e9);
  }
  s = a[n / 2];  // consume
  return out;
}

}  // namespace perfbench
