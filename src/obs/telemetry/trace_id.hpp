#pragma once

// Request-scoped trace identifiers (DESIGN.md §15).
//
// A trace id is a nonzero, process-unique token minted once per service
// request (GemmService::submit) or test fixture and carried everywhere that
// request's work goes: GemmConfig::trace_id → the gemm driver →
// TaskGroup::spawn stamps it into every TaskTag → the worker that runs the
// task restores it as the thread-ambient id → every trace event, flight
// record, and the final GemmProfile carry it. Joining a Chrome trace with a
// metrics series or a flight-recorder bundle is then a key match, not
// guesswork.
//
// The ambient (thread-local) id lives in session.cpp next to the other
// per-thread observability state; this header only mints.

#include <atomic>
#include <cstdint>

namespace rla::obs::telemetry {

/// Next process-unique trace id: nonzero, monotonically increasing. Safe to
/// call from any thread.
inline std::uint64_t mint_trace_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rla::obs::telemetry
