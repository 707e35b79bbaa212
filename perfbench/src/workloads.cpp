#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t max_c_elems(const std::vector<Shape>& shapes) {
  std::size_t n = 0;
  for (const Shape& s : shapes) n = std::max<std::size_t>(n, std::size_t{s.m} * s.n);
  return n;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

SquareState::SquareState(Workload w, std::uint64_t seed)
    : pool(kWorkers), op(square_op(w)), inputs(seed, op), c(kSquareN, kSquareN) {}

void gemm_on(const Shape& s, const Operands& in, rla::WorkerPool& pool, double* c,
             rla::GemmProfile* profile) {
  rla::GemmConfig cfg = s.config();
  cfg.pool = &pool;
  rla::gemm(s.m, s.n, s.k, s.alpha, in.a.data(), in.a.ld(), s.op_a, in.b.data(), in.b.ld(),
            rla::Op::None, s.beta, c, s.m, cfg, profile);
}

MulRecord square_multiply(SquareState& st, const Shape& s, Spans* spans,
                          int parent, std::int64_t op) {
  const Operands& in = st.inputs.get(s);
  prepare_c(s, in, st.c.data());
  MulRecord rec;
  const auto t0 = Clock::now();
  try {
    SpanScope span(spans, "driver.gemm", parent, op);
    gemm_on(s, in, st.pool, st.c.data(), &rec.profile);
    rec.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: gemm threw: %s\n", e.what());
  }
  rec.seconds = seconds_between(t0, Clock::now());
  if (rec.ok) rec.ok = freivalds(s, in, st.c.data(), st.c.ld()).ok;
  return rec;
}

rla::service::ServiceConfig served_config() {
  rla::service::ServiceConfig cfg;
  cfg.threads = kWorkers;
  cfg.executors = 2;
  cfg.max_inflight = 64;
  cfg.arena_bytes = 0;  // unlimited
  cfg.watchdog_period = std::chrono::milliseconds(10);
  cfg.telemetry_period = std::chrono::milliseconds(0);  // no snapshotter
  cfg.flight_dump_path.clear();
  return cfg;
}

ServedState::ServedState(std::uint64_t seed)
    : svc(served_config()), inputs(seed, served_deck()) {}

rla::service::Request make_request(const Shape& s, const Operands& in, double* c) {
  rla::service::Request r;
  r.m = s.m;
  r.n = s.n;
  r.k = s.k;
  r.alpha = s.alpha;
  r.a = in.a.data();
  r.lda = in.a.ld();
  r.op_a = s.op_a;
  r.b = in.b.data();
  r.ldb = in.b.ld();
  r.beta = s.beta;
  r.c = c;
  r.ldc = s.m;
  r.cfg = s.config();
  return r;  // no deadline, default priority and retry budget
}

void prepare_c(const Shape& s, const Operands& in, double* c) {
  if (s.beta == 0.0) return;
  std::copy(in.c0.data(), in.c0.data() + in.c0.size(), c);
}

void warm_up(ServedState& st) {
  std::vector<rla::Matrix> c;
  std::vector<rla::service::Request> batch;
  for (const Shape& s : served_deck()) {
    const Operands& in = st.inputs.get(s);
    c.emplace_back(s.m, s.n);
    prepare_c(s, in, c.back().data());
    batch.push_back(make_request(s, in, c.back().data()));
  }
  for (auto& f : st.svc.submit_batch(batch)) f.get();
}

ClientLoad run_clients(ServedState& st, std::uint64_t seed, unsigned clients,
                       double seconds, Spans* spans) {
  const std::size_t c_elems = max_c_elems(served_deck());
  std::vector<std::vector<RequestRecord>> per_client(clients);
  std::vector<Clock::time_point> last_done(clients);
  std::atomic<std::int64_t> next_op{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned cl = 0; cl < clients; ++cl) {
    threads.emplace_back([&, cl] {
      RequestStream stream(seed, cl);
      std::vector<double> c(c_elems);
      auto& out = per_client[cl];
      last_done[cl] = start;
      for (std::size_t i = 0;; ++i) {
        if (i % served_deck().size() == 0 && Clock::now() >= deadline) break;
        const Shape& s = stream.next();
        const Operands& in = st.inputs.get(s);
        prepare_c(s, in, c.data());
        const rla::service::Request req = make_request(s, in, c.data());
        RequestRecord rec;
        rec.shape = &s;
        rec.traced = spans != nullptr && i % 2 == 1;
        Spans* sp = rec.traced ? spans : nullptr;
        const std::int64_t op = next_op.fetch_add(1);
        SpanScope op_span(sp, "op", -1, op);
        const auto t0 = Clock::now();
        std::future<rla::service::Response> fut;
        {
          SpanScope span(sp, "service.submit", op_span.id(), op);
          fut = st.svc.submit(req);
        }
        const auto t1 = Clock::now();
        {
          SpanScope span(sp, "service.wait", op_span.id(), op);
          rec.resp = fut.get();
          span.set_trace(rec.resp.trace_id);
        }
        const auto t2 = Clock::now();
        op_span.set_trace(rec.resp.trace_id);
        op_span.close();
        rec.submit = seconds_between(t0, t1);
        rec.latency = seconds_between(t0, t2);
        rec.ok = rec.resp.outcome == rla::service::Outcome::Completed &&
                 freivalds(s, in, c.data(), s.m).ok;
        if (!rec.ok) {
          std::fprintf(stderr, "perfbench: request %ux%ux%u %s: %s %s\n", s.m, s.n,
                       s.k, s.cls, std::string(outcome_name(rec.resp.outcome)).c_str(),
                       rec.resp.reason.c_str());
        }
        last_done[cl] = t2;
        rec.done = seconds_between(start, t2);
        out.push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  ClientLoad load;
  auto end = start, first_stop = last_done.empty() ? start : last_done[0];
  for (unsigned cl = 0; cl < clients; ++cl) {
    end = std::max(end, last_done[cl]);
    first_stop = std::min(first_stop, last_done[cl]);
    for (auto& r : per_client[cl]) load.records.push_back(std::move(r));
  }
  load.window = seconds_between(start, end);
  load.common = seconds_between(start, first_stop);
  return load;
}

std::pair<std::uint64_t, std::uint64_t> reference_checks(
    const std::vector<Shape>& shapes, const OperandStore& inputs,
    const std::function<bool(const Shape&, double*)>& multiply) {
  // Largest multiply per (class, algorithm).
  std::map<std::pair<std::string, int>, const Shape*> reps;
  for (const Shape& s : shapes) {
    const Shape*& r = reps[{s.cls, static_cast<int>(s.alg)}];
    if (r == nullptr || s.flops() > r->flops()) r = &s;
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [key, s] : reps) {
    const Operands& in = inputs.get(*s);
    rla::Matrix c(s->m, s->n);
    prepare_c(*s, in, c.data());
    ++attempted;
    bool ok = false;
    try {
      ok = multiply(*s, c.data());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: reference multiply threw: %s\n", e.what());
    }
    const CheckResult r = ok ? reference_check(*s, in, c.data(), c.ld()) : CheckResult{};
    ok = ok && r.ok;
    if (!ok) ++failed;
    std::printf("reference: class=%s alg=%s shape=%ux%ux%u layout=%s scaled_err=%.3g %s\n",
                s->cls, std::string(rla::algorithm_name(s->alg)).c_str(), s->m, s->n,
                s->k, std::string(rla::curve_name(s->layout)).c_str(), r.residual,
                ok ? "ok" : "FAILED");
  }
  return {attempted, failed};
}

namespace {

/// Metrics shared by both workload kinds, from per-op latencies (seconds).
void add_latency_metrics(Result& res, const std::vector<double>& lat) {
  const Tail tail = tail_percentile(lat);
  res.add("latency_p50_ms", median(lat) * 1e3, "ms");
  res.add("latency_tail_ms", tail.value * 1e3, "ms");
  const auto q = quartiles(lat);
  std::printf("e2e latency_p50_ms %.4f ms (samples=%zu; min %.2f q1 %.2f q3 %.2f max %.2f)\n",
              median(lat) * 1e3, lat.size(), *std::min_element(lat.begin(), lat.end()) * 1e3,
              q[0] * 1e3, q[2] * 1e3, *std::max_element(lat.begin(), lat.end()) * 1e3);
  std::printf("e2e latency_tail_ms %.4f ms (p%g, samples=%zu, beyond=%zu%s)\n",
              tail.value * 1e3, tail.pct, lat.size(), tail.beyond,
              tail.enough ? "" : ", fewer than 10 beyond p50: reporting p50");
}

void add_common_metrics(Result& res, const std::vector<double>& setup) {
  const double ok_frac =
      res.attempted == 0 ? 0.0
                         : static_cast<double>(res.attempted - res.failed) /
                               static_cast<double>(res.attempted);
  res.add("ok_frac", ok_frac, "ratio");
  res.add("setup_s", median(setup), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("e2e failed_frac %.6f (failed=%llu of attempted=%llu)\n", 1.0 - ok_frac,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("e2e ok_frac %.6f ratio (samples=%llu)\n", ok_frac,
              static_cast<unsigned long long>(res.attempted));
  std::printf("e2e setup_s %.4f s (median of %zu set-ups:", median(setup), setup.size());
  for (const double s : setup) std::printf(" %.4f", s);
  std::printf(")\n");
  std::printf("e2e peak_rss_mb %.1f MB (samples=1)\n", peak_rss_mb());
}

Result square_end_to_end(const Args& args) {
  Result res;
  std::vector<double> setup;
  std::unique_ptr<SquareState> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    st = std::make_unique<SquareState>(args.workload, args.seed);
    for (const Shape& s : st->op) square_multiply(*st, s, nullptr, -1, -1);  // warm-up
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("inputs: digest=%016llx\n",
              static_cast<unsigned long long>(st->inputs.digest()));
  const auto [ref_n, ref_failed] =
      reference_checks(st->op, st->inputs, [&](const Shape& s, double* c) {
        gemm_on(s, st->inputs.get(s), st->pool, c);
        return true;
      });
  res.attempted += ref_n;
  res.failed += ref_failed;

  std::vector<double> lat, done_flops;
  double timed = 0.0, flops = 0.0;
  std::uint64_t completed = 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < args.seconds) {
    double op_seconds = 0.0, op_flops = 0.0;
    bool ok = true;
    for (const Shape& s : st->op) {
      const MulRecord r = square_multiply(*st, s, nullptr, -1, -1);
      op_seconds += r.seconds;
      op_flops += s.flops();
      ok = ok && r.ok;
    }
    ++res.attempted;
    timed += op_seconds;
    lat.push_back(op_seconds);
    done_flops.push_back(ok ? op_flops : 0.0);
    if (ok) {
      ++completed;
      flops += op_flops;
    } else {
      ++res.failed;
    }
  }
  // Rates of kBins groups of consecutive ops; the median group is reported.
  const std::size_t groups = std::min<std::size_t>(kBins, lat.size());
  std::vector<double> g_rate, r_rate;
  for (std::size_t g = 0; g < groups; ++g) {
    double t = 0.0, f = 0.0, ok = 0.0;
    for (std::size_t i = g * lat.size() / groups; i < (g + 1) * lat.size() / groups; ++i) {
      t += lat[i];
      f += done_flops[i];
      ok += done_flops[i] > 0.0 ? 1.0 : 0.0;
    }
    g_rate.push_back(f / t);
    r_rate.push_back(ok / t);
  }
  res.add("gflops", median(g_rate) / 1e9, "GF/s");
  res.add("throughput_rps", median(r_rate), "1/s");
  std::printf("e2e gflops %.4f GF/s (median of %zu groups of consecutive ops; samples=%zu "
              "ops; whole run %.4f GF/s over %.3f timed s)\n",
              median(g_rate) / 1e9, groups, lat.size(), flops / timed / 1e9, timed);
  std::printf("e2e throughput_rps %.4f 1/s (median of %zu groups; samples=%zu ops)\n",
              median(r_rate), groups, lat.size());
  add_latency_metrics(res, lat);
  add_common_metrics(res, setup);
  return res;
}

Result served_end_to_end(const Args& args) {
  Result res;
  std::vector<double> setup;
  std::unique_ptr<ServedState> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    st = std::make_unique<ServedState>(args.seed);
    warm_up(*st);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("inputs: digest=%016llx\n",
              static_cast<unsigned long long>(st->inputs.digest()));
  const auto [ref_n, ref_failed] =
      reference_checks(served_deck(), st->inputs, [&](const Shape& s, double* c) {
        auto resp = st->svc.submit(make_request(s, st->inputs.get(s), c)).get();
        return resp.outcome == rla::service::Outcome::Completed;
      });
  res.attempted += ref_n;
  res.failed += ref_failed;

  const ClientLoad load = run_clients(*st, args.seed, kClients, args.seconds, nullptr);
  // Completions in kBins equal time bins while all clients were running;
  // the median bin is reported.
  std::vector<double> lat, g_rate(kBins, 0.0), r_rate(kBins, 0.0);
  double flops = 0.0;
  const double bin = load.common / kBins;
  for (const RequestRecord& r : load.records) {
    ++res.attempted;
    lat.push_back(r.latency);
    if (!r.ok) {
      ++res.failed;
      continue;
    }
    flops += r.shape->flops();
    if (r.done < load.common) {
      const auto b = std::min<std::size_t>(static_cast<std::size_t>(r.done / bin), kBins - 1);
      g_rate[b] += r.shape->flops() / bin;
      r_rate[b] += 1.0 / bin;
    }
  }
  res.add("gflops", median(g_rate) / 1e9, "GF/s");
  res.add("throughput_rps", median(r_rate), "1/s");
  std::printf("e2e gflops %.4f GF/s (median of %zu bins of %.2f s; samples=%zu requests; "
              "whole run %.4f GF/s over %.3f s)\n",
              median(g_rate) / 1e9, kBins, bin, lat.size(), flops / load.window / 1e9,
              load.window);
  std::printf("e2e throughput_rps %.4f 1/s (median of %zu bins; samples=%zu requests)\n",
              median(r_rate), kBins, lat.size());
  add_latency_metrics(res, lat);
  add_common_metrics(res, setup);
  return res;
}

}  // namespace

Result run_end_to_end(const Args& args) {
  return args.workload == Workload::ServedMixed ? served_end_to_end(args)
                                                : square_end_to_end(args);
}

}  // namespace perfbench
