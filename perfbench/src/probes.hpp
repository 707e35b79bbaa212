#pragma once

// Machine ceilings measured in the same run as the per-layer ledger.

#include <cstddef>

namespace perfbench {

struct FmaPeak {
  double gflops = 0.0;  ///< best of several trials, one thread
  int lanes = 0;        ///< doubles per vector register used
  int accumulators = 0;
};

/// FMA-throughput loop with enough independent accumulators to cover the
/// FMA latency on every port at the compiled vector width.
FmaPeak fma_peak();

struct StreamTriad {
  double gbps = 0.0;             ///< best pass, one thread, 3 arrays counted
  std::size_t array_bytes = 0;   ///< bytes per array
  std::size_t l3_bytes = 0;      ///< last-level cache the arrays are sized from
  bool l3_assumed = false;       ///< sysconf gave nothing; a default was used
};

/// a[i] = b[i] + s·c[i] over arrays of at least 4× the last-level cache each.
StreamTriad stream_triad();

}  // namespace perfbench
