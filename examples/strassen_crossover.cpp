// Strassen crossover demo: sweeps n and prints the time of the standard
// vs Strassen vs Winograd recursions (all on the Z-Morton layout) together
// with the flat register-blocked kernel — showing where the O(n^lg7)
// algorithms start to win, the "fast algorithms consistently outperform the
// standard algorithm" observation of §5.
//
//   ./example_strassen_crossover [--min=64] [--max=768] [--threads=0]

#include <cstdio>
#include <iostream>

#include "core/rla.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

double time_gemm(rla::Matrix& c, const rla::Matrix& a, const rla::Matrix& b,
                 const rla::GemmConfig& cfg) {
  rla::Timer timer;
  rla::multiply(c, a, b, cfg);
  return timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  rla::CliArgs args(argc, argv);
  const auto n_min = static_cast<std::uint32_t>(args.get_int("min", 64));
  const auto n_max = static_cast<std::uint32_t>(args.get_int("max", 768));
  const auto threads = static_cast<unsigned>(args.get_int("threads", 0));

  rla::TextTable table({"n", "flat kernel (ms)", "standard (ms)", "strassen (ms)",
                        "winograd (ms)", "strassen speedup vs standard"});
  for (std::uint32_t n = n_min; n <= n_max; n *= 2) {
    rla::Matrix a(n, n), b(n, n), c(n, n);
    a.fill_random(10);
    b.fill_random(11);

    rla::Timer timer;
    c.zero();
    rla::leaf_mm(rla::KernelKind::Simd, n, n, n, 1.0, a.data(), a.ld(),
                 b.data(), b.ld(), c.data(), c.ld());
    const double flat = timer.seconds();

    rla::GemmConfig cfg;
    cfg.layout = rla::Curve::ZMorton;
    cfg.threads = threads;
    cfg.algorithm = rla::Algorithm::Standard;
    const double standard = time_gemm(c, a, b, cfg);
    cfg.algorithm = rla::Algorithm::Strassen;
    const double strassen = time_gemm(c, a, b, cfg);
    cfg.algorithm = rla::Algorithm::Winograd;
    const double winograd = time_gemm(c, a, b, cfg);

    table.add_row({rla::TextTable::num(static_cast<long long>(n)),
                   rla::TextTable::num(flat * 1e3),
                   rla::TextTable::num(standard * 1e3),
                   rla::TextTable::num(strassen * 1e3),
                   rla::TextTable::num(winograd * 1e3),
                   rla::TextTable::num(standard / strassen, 2)});
  }
  table.print(std::cout);
  std::printf("\nSpeedup > 1 marks the crossover where the 7-multiply\n"
              "recurrences beat the 8-multiply recursion.\n");
  return 0;
}
