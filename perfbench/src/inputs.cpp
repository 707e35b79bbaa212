#include "inputs.hpp"

#include <cstring>
#include <stdexcept>

namespace perfbench {

using rla::Algorithm;
using rla::Curve;
using rla::Op;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
  r.next();
  return r.next();
}

void fill_uniform(double* p, std::size_t n, std::uint64_t seed) {
  Rng r(seed);
  for (std::size_t i = 0; i < n; ++i) p[i] = 2.0 * r.uniform() - 1.0;
}

bool parse_workload(std::string_view text, Workload& out) {
  if (text == "square-standard") {
    out = Workload::SquareStandard;
  } else if (text == "square-fast") {
    out = Workload::SquareFast;
  } else if (text == "served-mixed") {
    out = Workload::ServedMixed;
  } else {
    return false;
  }
  return true;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::SquareStandard:
      return "square-standard";
    case Workload::SquareFast:
      return "square-fast";
    case Workload::ServedMixed:
      return "served-mixed";
  }
  return "?";
}

rla::GemmConfig Shape::config() const {
  rla::GemmConfig cfg;
  cfg.layout = layout;
  cfg.algorithm = alg;
  cfg.fast_variant = rla::FastVariant::Parallel;
  cfg.fast_cutoff_level = 0;
  return cfg;
}

std::vector<Shape> square_op(Workload w) {
  const std::uint32_t n = kSquareN;
  if (w == Workload::SquareFast) {
    return {{n, n, n, Op::None, 1.0, 0.0, Algorithm::Strassen, Curve::ZMorton, "square"},
            {n, n, n, Op::None, 1.0, 0.0, Algorithm::Winograd, Curve::ZMorton, "square"}};
  }
  return {{n, n, n, Op::None, 1.0, 0.0, Algorithm::Standard, Curve::ZMorton, "square"}};
}

const std::vector<Shape>& served_deck() {
  constexpr Algorithm S = Algorithm::Standard, St = Algorithm::Strassen,
                      W = Algorithm::Winograd;
  constexpr Curve Z = Curve::ZMorton, H = Curve::Hilbert, C = Curve::ColMajor;
  constexpr Op N = Op::None, T = Op::Transpose;
  static const std::vector<Shape> deck = {
      // Small squares, Standard, β ∈ {0, 1}.
      {64, 64, 64, N, 1.0, 0.0, S, Z, "small"},
      {64, 64, 64, N, 1.0, 1.0, S, Z, "small"},
      {128, 128, 128, N, 1.0, 0.0, S, Z, "small"},
      {128, 128, 128, N, 1.0, 1.0, S, H, "small"},
      {128, 128, 128, N, 1.0, 0.0, S, C, "small"},
      {256, 256, 256, N, 1.0, 0.0, S, Z, "small"},
      {256, 256, 256, N, 1.0, 1.0, S, Z, "small"},
      {256, 256, 256, N, 1.0, 1.0, S, C, "small"},
      // Mid squares, Strassen or Winograd.
      {384, 384, 384, N, 1.0, 0.0, St, Z, "mid"},
      {384, 384, 384, N, 1.0, 0.0, W, Z, "mid"},
      {384, 384, 384, N, 1.0, 0.0, W, H, "mid"},
      {512, 512, 512, N, 1.0, 0.0, St, Z, "mid"},
      {512, 512, 512, N, 1.0, 0.0, W, Z, "mid"},
      {512, 512, 512, N, 1.0, 0.0, St, C, "mid"},
      // Rank-k trailing updates C -= Aᵀ·B (LU/Cholesky), op(A) = T, β = 1.
      {512, 512, 32, T, -1.0, 1.0, S, Z, "rank-k"},
      {512, 512, 64, T, -1.0, 1.0, S, H, "rank-k"},
      {1024, 1024, 32, T, -1.0, 1.0, S, C, "rank-k"},
      {1024, 1024, 64, T, -1.0, 1.0, S, Z, "rank-k"},
      // One lean shape the driver splits into squat pieces (paper Fig. 3).
      {768, 96, 768, N, 1.0, 0.0, S, Z, "lean"},
      {768, 96, 768, N, 1.0, 0.0, S, H, "lean"},
  };
  return deck;
}

RequestStream::RequestStream(std::uint64_t seed, unsigned client)
    : rng_(derive(seed, 1000 + client)), order_(served_deck().size()) {
  pos_ = order_.size();
}

const Shape& RequestStream::next() {
  if (pos_ == order_.size()) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng_.below(i + 1)]);
    }
    pos_ = 0;
  }
  return served_deck()[order_[pos_++]];
}

std::vector<Shape> workload_shapes(Workload w) {
  return w == Workload::ServedMixed ? served_deck() : square_op(w);
}

OperandStore::Key OperandStore::key(const Shape& s) {
  return {s.m, s.n, s.k, static_cast<int>(s.op_a)};
}

OperandStore::OperandStore(std::uint64_t seed, const std::vector<Shape>& shapes) {
  for (const Shape& s : shapes) {
    const Key k = key(s);
    if (ops_.count(k) != 0) continue;
    const std::uint64_t stream =
        (std::uint64_t{s.m} << 40) ^ (std::uint64_t{s.n} << 20) ^ s.k ^
        (static_cast<std::uint64_t>(s.op_a) << 62);
    Operands o{rla::Matrix(s.a_rows(), s.a_cols()), rla::Matrix(s.k, s.n),
               rla::Matrix(s.m, s.n)};
    fill_uniform(o.a.data(), o.a.size(), derive(seed, stream * 3 + 0));
    fill_uniform(o.b.data(), o.b.size(), derive(seed, stream * 3 + 1));
    fill_uniform(o.c0.data(), o.c0.size(), derive(seed, stream * 3 + 2));
    ops_.emplace(k, std::move(o));
  }
}

const Operands& OperandStore::get(const Shape& s) const {
  const auto it = ops_.find(key(s));
  if (it == ops_.end()) throw std::logic_error("perfbench: no operands for shape");
  return it->second;
}

std::uint64_t OperandStore::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const rla::Matrix& m) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, m.data() + i, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ULL;
    }
  };
  for (const auto& [k, o] : ops_) {
    mix(o.a);
    mix(o.b);
    mix(o.c0);
  }
  return h;
}

}  // namespace perfbench
