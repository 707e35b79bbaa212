// rla_perfbench: the repository benchmark (see perfbench/README.md).
//
//   rla_perfbench --workload <square-standard|square-fast|served-mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   rla_perfbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer ledger when
// --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace {

using perfbench::Args;

int usage(const char* why) {
  std::fprintf(stderr,
               "rla_perfbench: %s\nusage: rla_perfbench --workload "
               "<square-standard|square-fast|served-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n       rla_perfbench --self-test\n",
               why);
  return 2;
}

/// Unset every RLA_* variable (fault plans, tracing, perf, tree profiling,
/// RLA_SERVICE_*/RLA_TELEMETRY_*, paper scale) before the first library
/// call; returns the names that were set.
std::vector<std::string> clear_rla_env() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("RLA_", 0) == 0) names.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

bool parse_args(int argc, char** argv, Args& args, std::string& err) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + key;
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!perfbench::parse_workload(value, args.workload)) {
        err = "unknown workload '" + value + "'";
        return false;
      }
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0.0 &&
                     args.seconds <= 3600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      err = "unknown argument " + key;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    err = "--workload, --seed, --seconds (0 < s <= 3600) and --trace (0|1) are required";
    return false;
  }
  return true;
}

void print_result(const perfbench::Result& res) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "rla_perfbench: metric %s is not finite; reported as 0\n",
                   m.name.c_str());
      v = 0.0;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_rla_env();
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::self_test();
  }
  Args args;
  std::string err;
  if (!parse_args(argc, argv, args, err)) return usage(err.c_str());

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              perfbench::workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("env: cleared RLA_* (incl. RLA_FAULT, RLA_TRACE, RLA_PERF, RLA_TREEPROF) "
              "before the first library call; were set:");
  for (const std::string& n : cleared) std::printf(" %s", n.c_str());
  std::printf("%s\n", cleared.empty() ? " none" : "");
  std::fflush(stdout);
  try {
    const perfbench::Result res =
        args.trace ? perfbench::run_traced(args) : perfbench::run_end_to_end(args);
    std::fflush(stderr);
    print_result(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rla_perfbench: aborted: %s\n", e.what());
    return 1;
  }
  return 0;
}
