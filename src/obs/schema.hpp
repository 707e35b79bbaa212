#pragma once

// Canonical observability name schema: the single registry of record for
// every metric and trace-span name the project emits or consumes.
//
// Three parties read this list:
//   * GemmService pre-registers the tagged entries at startup so an export
//     after a quiet run still carries every series (soak_check.py validates
//     against the full set);
//   * rla_lint's C3 checker parses the X-macro rows and cross-checks them
//     against every counter()/gauge()/histogram()/PhaseScope name literal in
//     the C++ tree *and* every schema-shaped name consumed by the Python
//     tools (trace_summary.py, soak_check.py) — in both directions, so a
//     renamed counter cannot silently zero a soak gate;
//   * humans, when picking a name for a new series.
//
// Grammar: X(kind, "name", preregister). `kind` is Counter, Gauge or
// Histogram. A '*' in a name is a wildcard matching one or more characters
// of [A-Za-z0-9_.] — use it for families with a dynamic segment (per-worker
// lanes, per-phase perf counters, per-outcome tallies). Call sites that build
// such names at runtime declare the family with an adjacent
// `// metric-family: <pattern>` comment naming a row from this list.
// Wildcard rows cannot be pre-registered (there is no single name to
// create); the static_assert below pins that.

#include <cstddef>
#include <string_view>

namespace rla::obs::schema {

// clang-format off
#define RLA_METRIC_SCHEMA(X)                                                   \
  /* --- service request accounting (service.cpp) --- */                       \
  X(Counter,   "service.submitted",              true)                         \
  X(Counter,   "service.accepted",               true)                         \
  X(Counter,   "service.rejected",               true)                         \
  X(Counter,   "service.retries",                true)                         \
  X(Counter,   "service.deadline_expired",       true)                         \
  X(Counter,   "service.stalls_detected",        true)                         \
  X(Counter,   "service.arena_rejections",       true)                         \
  X(Counter,   "service.degraded_admission",     true)                         \
  X(Counter,   "service.outcome.*",              false) /* per Outcome */      \
  X(Gauge,     "service.workers",                false)                        \
  X(Gauge,     "service.executors",              false)                        \
  X(Gauge,     "service.max_inflight",           false)                        \
  X(Gauge,     "service.in_flight",              false)                        \
  X(Gauge,     "service.queue_depth",            false)                        \
  X(Gauge,     "service.queue_depth_high_water", false)                        \
  X(Gauge,     "service.running",                false)                        \
  X(Histogram, "service.queue_ns",               true)                         \
  X(Histogram, "service.run_ns",                 true)                         \
  X(Histogram, "service.total_ns",               true)                         \
  /* --- per-priority-class SLO series (service.cpp telemetry fold) --- */     \
  X(Histogram, "service.priority.*",             false) /* <class>.total_ns */ \
  X(Gauge,     "service.slo.*",                  false) /* quantiles, rates */ \
  /* --- telemetry pipeline (src/obs/telemetry/, service.cpp) --- */           \
  X(Counter,   "telemetry.snapshots",            true)                         \
  X(Counter,   "telemetry.flight.events",        true)                         \
  X(Counter,   "telemetry.flight.dropped",       true)                         \
  X(Counter,   "telemetry.flight.dumps",         true)                         \
  X(Gauge,     "telemetry.trace_id",             false)                        \
  /* --- conversion-buffer arena (service.cpp export) --- */                   \
  X(Gauge,     "arena.budget_bytes",             false)                        \
  X(Gauge,     "arena.reserved_bytes",           false)                        \
  X(Gauge,     "arena.cached_bytes",             false)                        \
  X(Gauge,     "arena.reserved_high_water",      false)                        \
  X(Counter,   "arena.recycled",                 false)                        \
  X(Counter,   "arena.allocations",              false)                        \
  X(Counter,   "arena.rejections",               false)                        \
  /* --- scheduler health (gemm.cpp / service.cpp exports) --- */              \
  X(Counter,   "sched.total.steals",             false)                        \
  X(Counter,   "sched.total.failed_steals",      false)                        \
  X(Counter,   "sched.total.idle_wakeups",       false)                        \
  X(Counter,   "sched.total.injection_pops",     false)                        \
  X(Counter,   "sched.total.tasks",              false)                        \
  X(Gauge,     "sched.total.deque_high_water",   false)                        \
  X(Counter,   "sched.exceptions_swallowed",     false)                        \
  X(Counter,   "sched.w*.*",                     false) /* per-worker lane */  \
  X(Counter,   "sched.external.*",               false) /* non-pool callers */ \
  /* --- hardware counters (gemm.cpp export; suffix = perf event) --- */       \
  X(Counter,   "perf.total.*",                   false)                        \
  X(Counter,   "perf.*",                         false) /* per-phase lanes */  \
  /* --- recursion-tree profiler (gemm.cpp / service.cpp exports) --- */       \
  X(Counter,   "treeprof.nodes",                 true)                         \
  X(Counter,   "treeprof.*",                     false) /* per-depth lanes */
// clang-format on

/// Trace-span (PhaseScope) names: the gemm driver's phases. The Chrome-trace
/// "cat" labels (task/spawn/steal/sync) are event kinds, not phase names,
/// and live in session.cpp.
#define RLA_SPAN_SCHEMA(X)                                                     \
  X("convert.in")                                                              \
  X("compute")                                                                 \
  X("adds")                                                                    \
  X("verify")                                                                  \
  X("convert.out")

enum class Kind { Counter, Gauge, Histogram };

struct Entry {
  Kind kind;
  std::string_view name;
  bool preregister;  ///< created eagerly by GemmService so exports are total
};

inline constexpr Entry kMetrics[] = {
#define RLA_METRIC_ENTRY(kind, name, pre) {Kind::kind, name, pre},
    RLA_METRIC_SCHEMA(RLA_METRIC_ENTRY)
#undef RLA_METRIC_ENTRY
};

inline constexpr std::string_view kSpans[] = {
#define RLA_SPAN_ENTRY(name) name,
    RLA_SPAN_SCHEMA(RLA_SPAN_ENTRY)
#undef RLA_SPAN_ENTRY
};

inline constexpr std::size_t kMetricCount =
    sizeof(kMetrics) / sizeof(kMetrics[0]);

static_assert(
    [] {
      for (const Entry& e : kMetrics) {
        if (!e.preregister) continue;
        for (const char c : e.name) {
          if (c == '*') return false;
        }
      }
      return true;
    }(),
    "wildcard schema rows describe name families and cannot be "
    "pre-registered; enumerate the members instead");

}  // namespace rla::obs::schema
