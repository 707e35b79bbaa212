#pragma once

// Shared helpers for the benchmark harnesses.
//
// Problem sizes default to roughly 2.5x-linear scaled-down versions of the
// paper's (which targeted a 1997-era 4-CPU SMP); set RLA_PAPER_SCALE=1 in
// the environment to run the original sizes. Thread counts default to {1};
// set RLA_BENCH_THREADS=4 to sweep {1,2,4} as in the paper (only meaningful
// on a multi-core host).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "core/rla.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace rla::bench {

/// Strip punctuation for benchmark-name fragments.
inline std::string sanitize(std::string_view text) {
  std::string out;
  for (char ch : text) {
    if (ch != '-' && ch != ' ') out.push_back(ch);
  }
  return out;
}

/// Threads to sweep: {1} by default, {1, 2, 4} when RLA_BENCH_THREADS is
/// set (value = max threads).
inline std::vector<unsigned> thread_sweep() {
  const auto max_threads =
      static_cast<unsigned>(env_int("RLA_BENCH_THREADS", 1));
  std::vector<unsigned> sweep{1};
  for (unsigned p = 2; p <= max_threads; p *= 2) sweep.push_back(p);
  return sweep;
}

/// Problem inputs reused across iterations of one benchmark.
struct Problem {
  Matrix a, b, c;
  explicit Problem(std::uint32_t n) : a(n, n), b(n, n), c(n, n) {
    a.fill_random(0xA);
    b.fill_random(0xB);
    c.zero();
  }
};

/// One C = A·B under cfg; returns wall seconds.
inline double run_gemm(Problem& p, const GemmConfig& cfg,
                       GemmProfile* profile = nullptr) {
  Timer timer;
  gemm(p.c.rows(), p.c.cols(), p.a.cols(), 1.0, p.a.data(), p.a.ld(), Op::None,
       p.b.data(), p.b.ld(), Op::None, 0.0, p.c.data(), p.c.ld(), cfg, profile);
  return timer.seconds();
}

/// Flat (single-call) multiply with the leaf kernel the recursion uses
/// (Simd, cache-blocked over the whole matrix): the stand-in for the vendor
/// dgemm baseline of the paper's §5, so slowdown_vs_dgemm compares like
/// with like.
inline double run_flat_dgemm(Problem& p, KernelKind kernel = KernelKind::Simd) {
  Timer timer;
  p.c.zero();
  leaf_mm(kernel, p.c.rows(), p.c.cols(), p.a.cols(), 1.0, p.a.data(), p.a.ld(),
          p.b.data(), p.b.ld(), p.c.data(), p.c.ld());
  return timer.seconds();
}

inline void set_flops_counters(benchmark::State& state, std::uint32_t n) {
  // 2n^3 FLOPs per iteration, published in units of 1e9 so the counter
  // reads as GFLOP/s (kIs1000 would have google-benchmark rescale the
  // number to "G" itself and the exported value would be raw FLOP/s).
  const double gflops = 2.0 * n * n * n / 1e9;
  state.counters["gflops"] = benchmark::Counter(
      gflops, benchmark::Counter::kIsIterationInvariantRate);
}

/// Publish hardware-counter results (one cfg.hw_counters run done outside
/// the timed loop) as misses-per-FLOP counters. No-ops when the PMU was
/// unavailable, so --json output is stable across hosts: absent key means
/// "not counted", never zero-means-unknown.
inline void set_hw_counters(benchmark::State& state,
                            const GemmProfile& profile, std::uint32_t n) {
  if (!profile.hw_measured) return;
  const double flops = 2.0 * n * n * static_cast<double>(n);
  const auto have = [&](const char* name) {
    for (const auto& e : profile.hw_events) {
      if (e == name) return true;
    }
    return false;
  };
  if (have("l1d_read_misses")) {
    state.counters["l1d_miss_per_flop"] = benchmark::Counter(
        static_cast<double>(profile.hw_total.l1d_read_misses) / flops);
  }
  if (have("llc_misses")) {
    state.counters["llc_miss_per_flop"] = benchmark::Counter(
        static_cast<double>(profile.hw_total.llc_misses) / flops);
  }
  if (have("dtlb_misses")) {
    state.counters["dtlb_miss_per_flop"] = benchmark::Counter(
        static_cast<double>(profile.hw_total.dtlb_misses) / flops);
  }
  if (have("instructions") && have("cycles") &&
      profile.hw_total.cycles > 0) {
    state.counters["ipc"] = benchmark::Counter(
        static_cast<double>(profile.hw_total.instructions) /
        static_cast<double>(profile.hw_total.cycles));
  }
}

/// Publish one measured run's work/span results as plain counters, for the
/// --json export (ISSUE: measured span + parallelism per benchmark). Call
/// with the profile of a single cfg.measure = true run done outside the
/// timed loop; the values are iteration-invariant.
inline void set_profile_counters(benchmark::State& state,
                                 const GemmProfile& profile) {
  if (!profile.measured) return;
  state.counters["measured_parallelism"] =
      benchmark::Counter(profile.achieved_parallelism);
  state.counters["measured_span_ms"] =
      benchmark::Counter(profile.measured_span * 1e3);
  state.counters["measured_work_ms"] =
      benchmark::Counter(profile.measured_work * 1e3);
  state.counters["tasks"] =
      benchmark::Counter(static_cast<double>(profile.tasks_traced));
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(profile.sched.steals));
}

/// Publish recursion-resolved (treeprof) per-depth results from one
/// cfg.tree_profile run done outside the timed loop: exclusive time share
/// per depth plus, where the PMU counted, misses-per-FLOP and IPC per
/// depth. Keys look like "tree_d2_time_share". No-op when the tree was not
/// measured (disarmed, or the session slot was busy), so absent keys mean
/// "not profiled", never zero-means-unknown — same contract as
/// set_hw_counters above.
inline void set_tree_counters(benchmark::State& state,
                              const GemmProfile& profile) {
  if (!profile.tree_measured || profile.tree_profile.empty()) return;
  // Only publish hw-derived columns for events the perf session actually
  // counted (a host where just the software task clock works would
  // otherwise export zero-means-unknown miss rates).
  const auto counted = [&](const char* name) {
    if (!profile.hw_measured) return false;
    for (const auto& e : profile.hw_events) {
      if (e == name) return true;
    }
    return false;
  };
  const bool have_l1 = counted("l1d_read_misses");
  const bool have_ipc = counted("instructions") && counted("cycles");
  struct DepthRow {
    double time_ns = 0, flops = 0, l1 = 0, instructions = 0, cycles = 0;
  };
  std::map<int, DepthRow> depths;
  double total_ns = 0;
  for (const auto& node : profile.tree_profile) {
    DepthRow& row = depths[std::atoi(node.key.c_str() + 1)];
    row.time_ns += static_cast<double>(node.time_ns);
    row.flops += static_cast<double>(node.flops);
    total_ns += static_cast<double>(node.time_ns);
    if (node.hw_valid) {
      row.l1 += static_cast<double>(node.hw.l1d_read_misses);
      row.instructions += static_cast<double>(node.hw.instructions);
      row.cycles += static_cast<double>(node.hw.cycles);
    }
  }
  for (const auto& [depth, row] : depths) {
    const std::string prefix = "tree_d" + std::to_string(depth) + "_";
    if (total_ns > 0) {
      state.counters[prefix + "time_share"] =
          benchmark::Counter(row.time_ns / total_ns);
    }
    if (have_l1 && row.flops > 0) {
      state.counters[prefix + "l1d_miss_per_flop"] =
          benchmark::Counter(row.l1 / row.flops);
    }
    if (have_ipc && row.cycles > 0) {
      state.counters[prefix + "ipc"] =
          benchmark::Counter(row.instructions / row.cycles);
    }
  }
}

/// Benchmark label "layout=... algorithm=... threads=N" so the --json
/// report carries the configuration alongside the name and shape.
inline void set_config_label(benchmark::State& state, const GemmConfig& cfg) {
  state.SetLabel("layout=" + std::string(curve_name(cfg.layout)) +
                 " algorithm=" + std::string(algorithm_name(cfg.algorithm)) +
                 " threads=" + std::to_string(cfg.threads));
}

}  // namespace rla::bench
