#pragma once

// Seeded inputs of the three workloads: the benchmark's own generator, the
// multiply shapes, the served-mixed request deck and the operand store.
//
// Everything here is a pure function of --seed, so the same seed gives the
// same operands and the same request sequence on every commit.

#include <cstdint>
#include <map>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/matrix.hpp"

namespace perfbench {

/// SplitMix64. Kept in the benchmark so operand values never depend on
/// library code a later change might touch.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); the modulo bias is irrelevant for the small n used.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for stream `stream` of `seed`.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Fill `n` doubles with uniform values in [-1, 1).
void fill_uniform(double* p, std::size_t n, std::uint64_t seed);

enum class Workload { SquareStandard, SquareFast, ServedMixed };
bool parse_workload(std::string_view text, Workload& out);
const char* workload_name(Workload w);

/// One multiply as the benchmark issues it: C = α·op(A)·B + β·C.
struct Shape {
  std::uint32_t m = 0, n = 0, k = 0;
  rla::Op op_a = rla::Op::None;
  double alpha = 1.0, beta = 0.0;
  rla::Algorithm alg = rla::Algorithm::Standard;
  rla::Curve layout = rla::Curve::ZMorton;
  const char* cls = "";  ///< shape class (one reference check per class)

  double flops() const { return 2.0 * m * n * k; }
  std::uint32_t a_rows() const { return op_a == rla::Op::None ? m : k; }
  std::uint32_t a_cols() const { return op_a == rla::Op::None ? k : m; }
  /// GemmConfig for this multiply (pool left to the caller).
  rla::GemmConfig config() const;
};

/// The square workloads' operand edge (padded to 1024 by the driver).
inline constexpr std::uint32_t kSquareN = 1000;

/// Multiplies making up one op of a square workload, in issue order.
std::vector<Shape> square_op(Workload w);

/// The served-mixed deck: every request variant once, so the mix
/// proportions are fixed and only the order depends on the seed.
const std::vector<Shape>& served_deck();

/// One client's request order: the deck, reshuffled from the seed each
/// time it is used up.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, unsigned client);
  const Shape& next();

 private:
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Operands of one (m, n, k, op_a): A, B and the pre-call C0 used by β ≠ 0.
struct Operands {
  rla::Matrix a, b, c0;
};

/// Seeded operands for every distinct multiply dimension of a workload.
class OperandStore {
 public:
  OperandStore(std::uint64_t seed, const std::vector<Shape>& shapes);
  const Operands& get(const Shape& s) const;
  /// FNV-1a over every operand bit pattern (seed-determinism check).
  std::uint64_t digest() const;

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, int>;
  static Key key(const Shape& s);
  std::map<Key, Operands> ops_;
};

/// Every multiply a workload can issue (deduplicated by dimension is the
/// store's job).
std::vector<Shape> workload_shapes(Workload w);

}  // namespace perfbench
