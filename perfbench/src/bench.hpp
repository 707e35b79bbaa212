#pragma once

// Shared types of the benchmark driver: command-line arguments and the
// result every run prints as its last line.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

struct Args {
  Workload workload = Workload::SquareStandard;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< where the traced run writes spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the last output line reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && attempted > 0; }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Tracing off: run the workload for args.seconds and report the
/// end-to-end metrics.
Result run_end_to_end(const Args& args);

/// Tracing on: a short stretch of the workload with spans, the per-layer
/// replays and probes, and the ceilings; reports the per-layer metrics.
Result run_traced(const Args& args);

/// Unit checks of the statistics, seeding and result checks; 0 = pass.
int self_test();

}  // namespace perfbench
