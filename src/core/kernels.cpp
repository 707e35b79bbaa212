#include "core/kernels.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "analysis/annotations.hpp"
#include "analysis/numerics/shadow.hpp"

namespace rla {

namespace {

/// Textbook jik dot-product loop; deliberately unblocked.
void mm_naive(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
              const double* a, std::size_t lda, const double* b, std::size_t ldb,
              double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  for (std::uint32_t j = 0; j < n; ++j) {
    const double* bj = b + static_cast<std::size_t>(j) * ldb;
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (std::uint32_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::uint32_t l = 0; l < k; ++l) acc += a[static_cast<std::size_t>(l) * lda + i] * bj[l];
      cj[i] += alpha * acc;
    }
  }
}

/// The paper's leaf kernel: tiled loops with the innermost accumulation loop
/// unrolled four-way. For cache-resident leaf tiles the outer tiling loops
/// collapse; the tiling matters when the canonical baseline calls this with
/// large leading dimensions.
void mm_tiled_unrolled(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                       const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  constexpr std::uint32_t kTile = 32;
  for (std::uint32_t jj = 0; jj < n; jj += kTile) {
    const std::uint32_t jmax = jj + kTile < n ? jj + kTile : n;
    for (std::uint32_t ii = 0; ii < m; ii += kTile) {
      const std::uint32_t imax = ii + kTile < m ? ii + kTile : m;
      for (std::uint32_t ll = 0; ll < k; ll += kTile) {
        const std::uint32_t lmax = ll + kTile < k ? ll + kTile : k;
        for (std::uint32_t j = jj; j < jmax; ++j) {
          const double* bj = b + static_cast<std::size_t>(j) * ldb;
          double* cj = c + static_cast<std::size_t>(j) * ldc;
          for (std::uint32_t i = ii; i < imax; ++i) {
            const double* ai = a + i;
            double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
            std::uint32_t l = ll;
            for (; l + 4 <= lmax; l += 4) {
              acc0 += ai[static_cast<std::size_t>(l) * lda] * bj[l];
              acc1 += ai[static_cast<std::size_t>(l + 1) * lda] * bj[l + 1];
              acc2 += ai[static_cast<std::size_t>(l + 2) * lda] * bj[l + 2];
              acc3 += ai[static_cast<std::size_t>(l + 3) * lda] * bj[l + 3];
            }
            for (; l < lmax; ++l) acc0 += ai[static_cast<std::size_t>(l) * lda] * bj[l];
            cj[i] += alpha * (((acc0 + acc1) + (acc2 + acc3)));
          }
        }
      }
    }
  }
}

/// Register-blocked 4×4 micro-kernel: 16 scalar accumulators live in
/// registers across the k loop; the compiler vectorizes the column updates.
void mm_blocked4x4(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                   const double* a, std::size_t lda, const double* b, std::size_t ldb,
                   double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  const std::uint32_t m4 = m & ~3u;
  const std::uint32_t n4 = n & ~3u;
  for (std::uint32_t j = 0; j < n4; j += 4) {
    const double* b0 = b + static_cast<std::size_t>(j) * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    double* c0 = c + static_cast<std::size_t>(j) * ldc;
    double* c1 = c0 + ldc;
    double* c2 = c1 + ldc;
    double* c3 = c2 + ldc;
    for (std::uint32_t i = 0; i < m4; i += 4) {
      double acc[4][4] = {};
      const double* ai = a + i;
      for (std::uint32_t l = 0; l < k; ++l) {
        const double* al = ai + static_cast<std::size_t>(l) * lda;
        const double bv0 = b0[l], bv1 = b1[l], bv2 = b2[l], bv3 = b3[l];
        for (int r = 0; r < 4; ++r) {
          const double av = al[r];
          acc[0][r] += av * bv0;
          acc[1][r] += av * bv1;
          acc[2][r] += av * bv2;
          acc[3][r] += av * bv3;
        }
      }
      for (int r = 0; r < 4; ++r) {
        c0[i + r] += alpha * acc[0][r];
        c1[i + r] += alpha * acc[1][r];
        c2[i + r] += alpha * acc[2][r];
        c3[i + r] += alpha * acc[3][r];
      }
    }
    if (m4 < m) {
      mm_tiled_unrolled(m - m4, 4, k, alpha, a + m4, lda, b0, ldb, c0 + m4, ldc);
    }
  }
  if (n4 < n) {
    mm_tiled_unrolled(m, n - n4, k, alpha, a, lda,
                      b + static_cast<std::size_t>(n4) * ldb, ldb,
                      c + static_cast<std::size_t>(n4) * ldc, ldc);
  }
}

// ---- Simd: a register-blocked micro-kernel in GCC/Clang vector extensions.
// The vector width follows the build's -march (no intrinsics, no runtime
// dispatch); the register block is sized to the register file: kMr = two
// vectors of rows by kNr columns of accumulators, plus two A vectors and
// one broadcast B value.
#if defined(__AVX512F__)
constexpr std::uint32_t kVec = 8;  // zmm; 16x8 block: 16 of 32 registers,
constexpr std::uint32_t kNr = 8;   // and 8 columns divide 16-, 24-, 32-wide tiles
#elif defined(__AVX__)
constexpr std::uint32_t kVec = 4;  // ymm; 8x6 block: 12 of 16 registers
constexpr std::uint32_t kNr = 6;
#else
constexpr std::uint32_t kVec = 2;  // xmm / NEON; 4x6 block
constexpr std::uint32_t kNr = 6;
#endif
constexpr std::uint32_t kMr = 2 * kVec;
// Cache blocking for calls larger than a leaf tile: a kKc x kNr B
// micro-panel stays in L1 while the micro-kernel walks a kMc x kKc A block
// held in L2. Leaf tiles (edges <= 32) are one block.
constexpr std::uint32_t kKc = 256;
constexpr std::uint32_t kMc = 6 * kMr;

typedef double Vec __attribute__((vector_size(kVec * sizeof(double))));

// Unaligned vector access: tiles are cache-line aligned, but canonical
// leaves and ragged tiles are not, and the result must not depend on where
// an operand happens to sit.
inline Vec load_vec(const double* p) noexcept {
  Vec v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store_vec(double* p, Vec v) noexcept { __builtin_memcpy(p, &v, sizeof v); }

/// C (NV*kVec x NR, ldc) += alpha * A (NV*kVec x k, lda) * B (k x NR, ldb).
/// Every C element is one k-ordered FMA chain followed by c + alpha*acc, so
/// its value depends only on the operands, never on the block it sits in.
template <int NV, int NR>
void micro(std::uint32_t k, double alpha, const double* a, std::size_t lda,
           const double* b, std::size_t ldb, double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  Vec acc[NR][NV] = {};
  for (std::uint32_t l = 0; l < k; ++l) {
    const double* al = a + static_cast<std::size_t>(l) * lda;
    Vec av[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) av[v] = load_vec(al + static_cast<std::size_t>(v) * kVec);
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
      const double bv = b[static_cast<std::size_t>(j) * ldb + l];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) acc[j][v] += av[v] * bv;
    }
  }
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      double* cj = c + static_cast<std::size_t>(j) * ldc + static_cast<std::size_t>(v) * kVec;
      store_vec(cj, load_vec(cj) + alpha * acc[j][v]);
    }
  }
}

using MicroFn = void (*)(std::uint32_t, double, const double*, std::size_t,
                         const double*, std::size_t, double*, std::size_t) noexcept;

template <int NV, std::size_t... R>
constexpr std::array<MicroFn, sizeof...(R)> column_edges(std::index_sequence<R...>) {
  return {&micro<NV, static_cast<int>(R) + 1>...};
}

/// One NV-vector row strip of an nb-column block (nb <= kNr): the full
/// block inlines, a column remainder goes through its own instantiation.
template <int NV>
void micro_cols(std::uint32_t nb, std::uint32_t k, double alpha, const double* a,
                std::size_t lda, const double* b, std::size_t ldb, double* c,
                std::size_t ldc) noexcept {
  static constexpr std::array<MicroFn, kNr> kEdges =
      column_edges<NV>(std::make_index_sequence<kNr>());
  if (nb == kNr) {
    micro<NV, kNr>(k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    kEdges[nb - 1](k, alpha, a, lda, b, ldb, c, ldc);
  }
}

/// Rows [0, mb) of one nb-column block: two-vector strips, then one vector,
/// then fewer than kVec rows run as one vector on copies padded with their
/// last row, so the padding lanes repeat real arithmetic (no spurious IEEE
/// flags) and are dropped on the way back.
void simd_block(std::uint32_t mb, std::uint32_t nb, std::uint32_t k, double alpha,
                const double* a, std::size_t lda, const double* b, std::size_t ldb,
                double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  std::uint32_t i = 0;
  for (; i + kMr <= mb; i += kMr) micro_cols<2>(nb, k, alpha, a + i, lda, b, ldb, c + i, ldc);
  if (i + kVec <= mb) {
    micro_cols<1>(nb, k, alpha, a + i, lda, b, ldb, c + i, ldc);
    i += kVec;
  }
  if (i == mb) return;
  const std::uint32_t r = mb - i;
  double ap[kVec * kKc];
  double cp[kVec * kNr];
  for (std::uint32_t l = 0; l < k; ++l) {
    const double* al = a + static_cast<std::size_t>(l) * lda + i;
    double* apl = ap + static_cast<std::size_t>(l) * kVec;
    for (std::uint32_t v = 0; v < kVec; ++v) apl[v] = al[std::min(v, r - 1)];
  }
  for (std::uint32_t j = 0; j < nb; ++j) {
    const double* cj = c + static_cast<std::size_t>(j) * ldc + i;
    double* cpj = cp + static_cast<std::size_t>(j) * kVec;
    for (std::uint32_t v = 0; v < kVec; ++v) cpj[v] = cj[std::min(v, r - 1)];
  }
  micro_cols<1>(nb, k, alpha, ap, kVec, b, ldb, cp, kVec);
  for (std::uint32_t j = 0; j < nb; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc + i;
    const double* cpj = cp + static_cast<std::size_t>(j) * kVec;
    for (std::uint32_t v = 0; v < r; ++v) cj[v] = cpj[v];
  }
}

/// The vector tier: no packing, because a leaf tile is already a contiguous
/// column-major block; any ld works, so canonical leaves share the kernel.
void mm_simd(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
             const double* a, std::size_t lda, const double* b, std::size_t ldb,
             double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  for (std::uint32_t kk = 0; kk < k; kk += kKc) {
    const std::uint32_t kb = std::min(kKc, k - kk);
    for (std::uint32_t ii = 0; ii < m; ii += kMc) {
      const std::uint32_t mb = std::min(kMc, m - ii);
      for (std::uint32_t j = 0; j < n; j += kNr) {
        simd_block(mb, std::min(kNr, n - j), kb, alpha,
                   a + static_cast<std::size_t>(kk) * lda + ii, lda,
                   b + static_cast<std::size_t>(j) * ldb + kk, ldb,
                   c + static_cast<std::size_t>(j) * ldc + ii, ldc);
      }
    }
  }
}

}  // namespace

// rla-hotpath
void leaf_mm(KernelKind kind, std::uint32_t m, std::uint32_t n, std::uint32_t k,
             double alpha, const double* a, std::size_t lda, const double* b,
             std::size_t ldb, double* c, std::size_t ldc) noexcept {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  // One annotation per operand covers every kernel variant: a is m×k and b
  // is k×n (column-major, leading dimensions lda/ldb); c is accumulated
  // into, so the write annotation subsumes its read.
  RLA_RACE_READ_STRIDED(a, m * sizeof(double), lda * sizeof(double), k);
  RLA_RACE_READ_STRIDED(b, k * sizeof(double), ldb * sizeof(double), n);
  RLA_RACE_WRITE_STRIDED(c, m * sizeof(double), ldc * sizeof(double), n);
  // One shadow pass covers every kernel variant (they compute the same
  // products; only the double-precision summation order differs, which the
  // extended-precision mirror absorbs). Must precede the double kernel so
  // the mirror reads the pre-update C.
  RLA_SHADOW_MM(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  switch (kind) {
    case KernelKind::Naive:
      mm_naive(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
    case KernelKind::TiledUnrolled:
      mm_tiled_unrolled(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
    case KernelKind::Blocked4x4:
      mm_blocked4x4(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
    case KernelKind::Simd:
      mm_simd(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
  }
}

// rla-hotpath
void vset_add(double* dst, const double* a, double sb, const double* b,
              std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_SET_ADD(dst, a, sb, b, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] = a[i] + sb * b[i];
}

// rla-hotpath
void vacc(double* dst, double s, const double* src, std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC(dst, s, src, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

// rla-hotpath
void vacc2(double* dst, double s1, const double* a, double s2, const double* b,
           std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC2(dst, s1, a, s2, b, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] += s1 * a[i] + s2 * b[i];
}

// rla-hotpath
void vacc3(double* dst, double s1, const double* a, double s2, const double* b,
           double s3, const double* c, std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC3(dst, s1, a, s2, b, s3, c, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] += s1 * a[i] + s2 * b[i] + s3 * c[i];
}

// rla-hotpath
void vacc4(double* dst, double s1, const double* a, double s2, const double* b,
           double s3, const double* c, double s4, const double* d,
           std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC4(dst, s1, a, s2, b, s3, c, s4, d, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    dst[i] += s1 * a[i] + s2 * b[i] + s3 * c[i] + s4 * d[i];
  }
}

// rla-hotpath
void strided_set_add(double* dst, std::size_t ldd, const double* a, std::size_t lda,
                     double sb, const double* b, std::size_t ldb, std::uint32_t m,
                     std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(a, m * sizeof(double), lda * sizeof(double), n);
  RLA_RACE_READ_STRIDED(b, m * sizeof(double), ldb * sizeof(double), n);
  for (std::uint32_t j = 0; j < n; ++j) {
    vset_add(dst + static_cast<std::size_t>(j) * ldd,
             a + static_cast<std::size_t>(j) * lda, sb,
             b + static_cast<std::size_t>(j) * ldb, m);
  }
}

// rla-hotpath
void strided_acc(double* dst, std::size_t ldd, double s, const double* src,
                 std::size_t lds, std::uint32_t m, std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(src, m * sizeof(double), lds * sizeof(double), n);
  for (std::uint32_t j = 0; j < n; ++j) {
    vacc(dst + static_cast<std::size_t>(j) * ldd, s,
         src + static_cast<std::size_t>(j) * lds, m);
  }
}

// rla-hotpath
void strided_scale(double* dst, std::size_t ldd, double s, std::uint32_t m,
                   std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_SHADOW_SCALE(dst, ldd, s, m, n);
  for (std::uint32_t j = 0; j < n; ++j) {
    double* col = dst + static_cast<std::size_t>(j) * ldd;
    if (s == 0.0) {
      for (std::uint32_t i = 0; i < m; ++i) col[i] = 0.0;
    } else {
      for (std::uint32_t i = 0; i < m; ++i) col[i] *= s;
    }
  }
}

// rla-hotpath
void strided_copy(double* dst, std::size_t ldd, const double* src, std::size_t lds,
                  std::uint32_t m, std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(src, m * sizeof(double), lds * sizeof(double), n);
  RLA_SHADOW_COPY_STRIDED(dst, ldd, src, lds, m, n);
  for (std::uint32_t j = 0; j < n; ++j) {
    const double* in = src + static_cast<std::size_t>(j) * lds;
    double* out = dst + static_cast<std::size_t>(j) * ldd;
    for (std::uint32_t i = 0; i < m; ++i) out[i] = in[i];
  }
}

// rla-hotpath
void strided_transpose(double* dst, std::size_t ldd, const double* src,
                       std::size_t lds, std::uint32_t m, std::uint32_t n) noexcept {
  // dst is m×n, src is n×m; blocked to keep both sides cache-friendly.
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(src, n * sizeof(double), lds * sizeof(double), m);
  RLA_SHADOW_TRANSPOSE(dst, ldd, src, lds, m, n);
  constexpr std::uint32_t kBlock = 32;
  for (std::uint32_t jj = 0; jj < n; jj += kBlock) {
    const std::uint32_t jmax = jj + kBlock < n ? jj + kBlock : n;
    for (std::uint32_t ii = 0; ii < m; ii += kBlock) {
      const std::uint32_t imax = ii + kBlock < m ? ii + kBlock : m;
      for (std::uint32_t j = jj; j < jmax; ++j) {
        for (std::uint32_t i = ii; i < imax; ++i) {
          dst[static_cast<std::size_t>(j) * ldd + i] =
              src[static_cast<std::size_t>(i) * lds + j];
        }
      }
    }
  }
}

}  // namespace rla
