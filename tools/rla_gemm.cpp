// Traced gemm driver: run one C = A·B and emit observability artifacts.
//
//   rla_gemm --m=1024 --n=1024 --k=1024 --threads=4 --layout=z
//            --algorithm=strassen --trace=trace.json --profile=profile.json
//
// --trace writes a Chrome trace-event file (chrome://tracing / Perfetto);
// --profile writes GemmProfile::to_json(). With neither, measurement still
// runs and a one-line summary goes to stdout. This binary is what the CI
// observability job drives and what tools/trace_summary.py consumes.
//
// --serve routes the call through the GemmService engine instead of a direct
// gemm() (admission, deadline, retry and arena policy all apply; the
// RLA_SERVICE_* environment variables configure the engine). --batch=N
// submits N independent requests of the same shape as one batch and reports
// per-outcome totals. --service-metrics=FILE dumps the engine's registry
// snapshot afterwards — the same JSON tools/soak_check.py reads.
//
// Live introspection while serving: SIGUSR1 prints the status document
// (inflight table with ids/traces/states, queue depths, flight-recorder
// counters) to stderr, and --telemetry-socket=PATH (or RLA_TELEMETRY_SOCKET)
// serves the Prometheus exposition over a Unix socket, one document per
// connection.

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/gemm.hpp"
#include "obs/telemetry/endpoint.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"

namespace {

/// SIGUSR1 handshake: the handler only flips this flag; a poller thread does
/// the non-signal-safe status rendering.
volatile std::sig_atomic_t g_status_requested = 0;

void on_sigusr1(int) { g_status_requested = 1; }

void usage(const char* prog) {
  std::printf(
      "usage: %s [--m=N] [--n=N] [--k=N] [--threads=N] [--layout=z|u|h|x|col]\n"
      "          [--algorithm=standard|strassen|winograd] [--seed=N]\n"
      "          [--trace=FILE] [--profile=FILE] [--profile-json=FILE]\n"
      "          [--perf] [--no-measure] [--tree-profile] [--flame=FILE]\n"
      "          [--serve] [--batch=N] [--deadline-ms=N] [--priority=N]\n"
      "          [--service-metrics=FILE] [--telemetry-socket=PATH]\n"
      "          [--telemetry-ms=N]\n",
      prog);
}

/// Fold GemmProfile::tree_profile per depth and print the attribution table
/// plus the reconciliation line against the compute phase.
void print_tree_table(const rla::GemmProfile& profile) {
  if (!profile.tree_measured) return;
  struct Row {
    std::uint64_t nodes = 0, time_ns = 0, flops = 0, tasks = 0;
    double l1 = 0.0, instructions = 0.0, cycles = 0.0;
    bool hw = false;
  };
  std::vector<Row> rows;
  std::uint64_t total_ns = 0;
  for (const rla::GemmProfile::TreeNode& node : profile.tree_profile) {
    const int d = std::atoi(node.key.c_str() + 1);
    if (d < 0) continue;
    if (rows.size() <= static_cast<std::size_t>(d)) {
      rows.resize(static_cast<std::size_t>(d) + 1);
    }
    Row& row = rows[static_cast<std::size_t>(d)];
    row.nodes++;
    row.time_ns += node.time_ns;
    row.flops += node.flops;
    row.tasks += node.tasks;
    total_ns += node.time_ns;
    if (node.hw_valid) {
      row.hw = true;
      row.l1 += static_cast<double>(node.hw.l1d_read_misses);
      row.instructions += static_cast<double>(node.hw.instructions);
      row.cycles += static_cast<double>(node.hw.cycles);
    }
  }
  std::printf("tree profile: %zu nodes\n", profile.tree_profile.size());
  std::printf("  %-5s %6s %10s %7s %8s %8s %12s %6s\n", "depth", "nodes",
              "time-ms", "time%", "gflop", "tasks", "L1miss/flop", "IPC");
  for (std::size_t d = 0; d < rows.size(); ++d) {
    const Row& row = rows[d];
    if (row.nodes == 0) continue;
    char l1buf[32], ipcbuf[32];
    if (row.hw && row.flops > 0) {
      std::snprintf(l1buf, sizeof l1buf, "%.3e",
                    row.l1 / static_cast<double>(row.flops));
    } else {
      std::snprintf(l1buf, sizeof l1buf, "n/a");
    }
    if (row.hw && row.cycles > 0.0) {
      std::snprintf(ipcbuf, sizeof ipcbuf, "%.2f",
                    row.instructions / row.cycles);
    } else {
      std::snprintf(ipcbuf, sizeof ipcbuf, "n/a");
    }
    std::printf("  d%-4zu %6llu %10.3f %6.1f%% %8.3f %8llu %12s %6s\n", d,
                static_cast<unsigned long long>(row.nodes),
                static_cast<double>(row.time_ns) / 1e6,
                total_ns > 0 ? 100.0 * static_cast<double>(row.time_ns) /
                                   static_cast<double>(total_ns)
                             : 0.0,
                static_cast<double>(row.flops) / 1e9,
                static_cast<unsigned long long>(row.tasks), l1buf, ipcbuf);
  }
  // Tree time is exclusive CPU time summed over all workers, so the
  // comparable phase budget is compute wall time × workers. On a serial run
  // that is the compute phase itself and coverage should be ~100%; in
  // parallel the shortfall is worker idle/steal time.
  if (profile.compute > 0.0) {
    const double tree_s = static_cast<double>(total_ns) / 1e9;
    const unsigned workers = std::max(1u, profile.sched.workers);
    std::printf(
        "  reconcile: tree=%.3fms compute=%.3fms x %u workers "
        "cpu-coverage=%.1f%%\n",
        tree_s * 1e3, profile.compute * 1e3, workers,
        100.0 * tree_s / (profile.compute * workers));
  }
}

/// --flame=FILE: exclusive time per node as flamegraph.pl folded stacks.
bool write_flame(const std::string& path, const rla::GemmProfile& profile) {
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  rows.reserve(profile.tree_profile.size());
  for (const rla::GemmProfile::TreeNode& node : profile.tree_profile) {
    rows.emplace_back(node.key, node.time_ns);
  }
  std::ofstream out(path);
  out << rla::obs::treeprof::folded_stacks(rows);
  return static_cast<bool>(out);
}

/// --serve / --batch: drive the request(s) through a GemmService.
int run_served(const rla::CliArgs& args, std::uint32_t m, std::uint32_t n,
               std::uint32_t k, const rla::GemmConfig& base_cfg) {
  const auto batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch", 1)));

  rla::service::ServiceConfig svc_cfg = rla::service::ServiceConfig::from_env();
  if (args.has("threads")) {
    svc_cfg.threads =
        static_cast<unsigned>(std::max<std::int64_t>(0, args.get_int("threads", 0)));
  }
  if (args.has("telemetry-ms")) {
    svc_cfg.telemetry_period = std::chrono::milliseconds(
        std::max<std::int64_t>(0, args.get_int("telemetry-ms", 0)));
  }
  rla::service::GemmService service(svc_cfg);

  // SIGUSR1 → status dump on stderr, rendered by a poller thread (the
  // handler itself only sets a flag).
  std::signal(SIGUSR1, on_sigusr1);
  std::atomic<bool> status_stop{false};
  std::thread status_thread([&service, &status_stop] {
    while (!status_stop.load(std::memory_order_acquire)) {
      if (g_status_requested != 0) {
        g_status_requested = 0;
        const std::string status = service.status_json();
        std::fprintf(stderr, "rla_gemm status: %s\n", status.c_str());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::string socket_path = args.get("telemetry-socket");
  if (socket_path.empty()) socket_path = rla::env_string("RLA_TELEMETRY_SOCKET");
  std::unique_ptr<rla::obs::telemetry::ExpositionServer> endpoint;
  if (!socket_path.empty()) {
    endpoint = std::make_unique<rla::obs::telemetry::ExpositionServer>(
        socket_path, [&service] { return service.telemetry_prometheus(); });
    if (!endpoint->ok()) {
      std::fprintf(stderr, "rla_gemm: telemetry socket %s: %s\n",
                   socket_path.c_str(), endpoint->error().c_str());
    }
  }

  std::mt19937_64 rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  struct Operands {
    std::vector<double> a, b, c;
  };
  std::vector<Operands> ops(batch);
  std::vector<rla::service::Request> reqs(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    Operands& o = ops[i];
    o.a.resize(static_cast<std::size_t>(m) * k);
    o.b.resize(static_cast<std::size_t>(k) * n);
    o.c.assign(static_cast<std::size_t>(m) * n, 0.0);
    for (double& x : o.a) x = dist(rng);
    for (double& x : o.b) x = dist(rng);
    rla::service::Request& req = reqs[i];
    req.m = m;
    req.n = n;
    req.k = k;
    req.a = o.a.data();
    req.lda = m;
    req.b = o.b.data();
    req.ldb = k;
    req.c = o.c.data();
    req.ldc = m;
    req.cfg = base_cfg;
    if (i > 0) {
      // One instrumentation session per process: concurrent siblings would
      // only record trace:busy / treeprof:busy (and read as spuriously
      // Degraded). The first request carries the measurement; the rest run
      // bare.
      req.cfg.trace_path.clear();
      req.cfg.measure = false;
      req.cfg.hw_counters = false;
      req.cfg.tree_profile = false;
    }
    req.priority = static_cast<int>(args.get_int("priority", 0));
    req.deadline =
        std::chrono::milliseconds(std::max<std::int64_t>(0, args.get_int("deadline-ms", 0)));
  }

  std::vector<std::future<rla::service::Response>> futures =
      service.submit_batch(reqs);
  std::size_t outcomes[5] = {0, 0, 0, 0, 0};
  int rc = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const rla::service::Response r = futures[i].get();
    outcomes[static_cast<int>(r.outcome)]++;
    if (batch == 1 || r.outcome != rla::service::Outcome::Completed) {
      std::printf("request %llu: %s%s%s queue=%.3fms run=%.3fms attempts=%d\n",
                  static_cast<unsigned long long>(r.id),
                  rla::service::outcome_name(r.outcome).data(),
                  r.reason.empty() ? "" : " — ", r.reason.c_str(),
                  r.queue_seconds * 1e3, r.run_seconds * 1e3, r.attempts);
      for (const std::string& step : r.degradation_trail) {
        std::printf("  trail: %s\n", step.c_str());
      }
    }
    if (r.outcome == rla::service::Outcome::Failed) rc = 1;
  }
  if (endpoint) endpoint->stop();
  status_stop.store(true, std::memory_order_release);
  status_thread.join();
  std::signal(SIGUSR1, SIG_DFL);
  service.shutdown();
  std::printf(
      "serve %ux%ux%u batch=%zu workers=%u executors=%u completed=%zu "
      "degraded=%zu rejected=%zu cancelled=%zu failed=%zu\n",
      m, n, k, batch, service.config().threads, service.config().executors,
      outcomes[0], outcomes[1], outcomes[2], outcomes[3], outcomes[4]);

  const std::string metrics_path = args.get("service-metrics");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << service.metrics_json() << "\n";
    if (!out) {
      std::fprintf(stderr, "rla_gemm: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const rla::CliArgs args(argc, argv);
  if (args.get_bool("help")) {
    usage(argv[0]);
    return 0;
  }

  const auto m = static_cast<std::uint32_t>(args.get_int("m", 1024));
  const auto n = static_cast<std::uint32_t>(args.get_int("n", m));
  const auto k = static_cast<std::uint32_t>(args.get_int("k", m));
  if (m == 0 || n == 0 || k == 0) {
    std::fprintf(stderr, "rla_gemm: extents must be positive\n");
    return 2;
  }

  rla::GemmConfig cfg;
  cfg.threads = static_cast<unsigned>(args.get_int("threads", 4));
  cfg.trace_path = args.get("trace");
  cfg.measure = !args.get_bool("no-measure");
  cfg.hw_counters = args.get_bool("perf");
  cfg.tree_profile = args.get_bool("tree-profile") || args.has("flame");
  if (!rla::parse_curve(args.get("layout", "z"), cfg.layout)) {
    std::fprintf(stderr, "rla_gemm: unknown layout '%s'\n",
                 args.get("layout").c_str());
    return 2;
  }
  if (!rla::parse_algorithm(args.get("algorithm", "standard"), cfg.algorithm)) {
    std::fprintf(stderr, "rla_gemm: unknown algorithm '%s'\n",
                 args.get("algorithm").c_str());
    return 2;
  }

  if (args.get_bool("serve") || args.has("batch")) {
    try {
      return run_served(args, m, n, k, cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rla_gemm: %s\n", e.what());
      return 1;
    }
  }

  std::mt19937_64 rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(m) * k);
  std::vector<double> b(static_cast<std::size_t>(k) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (double& x : a) x = dist(rng);
  for (double& x : b) x = dist(rng);

  rla::GemmProfile profile;
  try {
    rla::gemm(m, n, k, 1.0, a.data(), m, rla::Op::None, b.data(), k,
              rla::Op::None, 0.0, c.data(), m, cfg, &profile);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rla_gemm: %s\n", e.what());
    return 1;
  }

  // --profile-json is an alias kept for scripts that spell the format out.
  std::string profile_path = args.get("profile");
  if (profile_path.empty()) profile_path = args.get("profile-json");
  if (!profile_path.empty()) {
    std::ofstream out(profile_path);
    out << profile.to_json() << "\n";
    if (!out) {
      std::fprintf(stderr, "rla_gemm: cannot write %s\n", profile_path.c_str());
      return 1;
    }
  }

  const std::string flame_path = args.get("flame");
  if (!flame_path.empty() && !write_flame(flame_path, profile)) {
    std::fprintf(stderr, "rla_gemm: cannot write %s\n", flame_path.c_str());
    return 1;
  }

  print_tree_table(profile);

  const double gflops =
      profile.total > 0.0 ? 2.0 * m * n * static_cast<double>(k) / profile.total / 1e9
                          : 0.0;
  std::printf(
      "gemm %ux%ux%u threads=%u total=%.3fs gflops=%.2f tasks=%llu steals=%llu "
      "parallelism=%.2f span=%.3fms trace=%s\n",
      m, n, k, profile.sched.workers, profile.total, gflops,
      static_cast<unsigned long long>(profile.sched.tasks),
      static_cast<unsigned long long>(profile.sched.steals),
      profile.achieved_parallelism, profile.measured_span * 1e3,
      profile.trace_file.empty() ? "(none)" : profile.trace_file.c_str());
  return 0;
}
