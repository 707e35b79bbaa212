#pragma once

// Hardware performance counters via Linux perf_event_open (DESIGN.md §11).
//
// While an obs::Session is armed for the pmu probe (obs/session.hpp), every
// thread that executes pool work lazily opens its own *counter group* —
// cycles, instructions, L1d-read-misses, LLC-misses, dTLB-misses and
// task-clock — led by the first event the kernel accepts. Groups are read
// with PERF_FORMAT_GROUP (one read syscall returns every sibling plus
// time_enabled/time_running), and every value is multiplexing-scaled:
//
//     scaled = raw * time_enabled / time_running
//
// so runs where the PMU was shared with other event sets still report
// extrapolated whole-run counts; Sample::scale keeps the worst
// running/enabled ratio so consumers can judge how much was extrapolated.
//
// Degradation, never failure: perf_event_open can be absent (ENOSYS under
// seccomp), forbidden (perf_event_paranoid >= 2 in containers), or partial
// (VMs without a PMU reject the hardware events but accept the software
// task-clock). A session whose attaching thread cannot open any event reports
// pmu_available() == false with a reason string; individual events that fail
// to open are simply dropped from the active mask. The gemm driver turns an
// unavailable PMU into a "perf:unavailable:<reason>" degradation-trail entry
// and carries on.
// The fault site "perf.open" (robust/fault.hpp) forces the unavailable path
// deterministically for tests.

#include <cstdint>
#include <string>

namespace rla::obs::perf {

/// Fixed event set, indexed 0..kEventCount-1. Order is the JSON/report
/// order; event_name() gives the stable wire names.
inline constexpr int kEventCount = 6;
enum EventIndex : int {
  kCycles = 0,
  kInstructions = 1,
  kL1dReadMisses = 2,
  kLlcMisses = 3,
  kDtlbMisses = 4,
  kTaskClock = 5,  ///< software clock, ns; survives PMU-less VMs
};

/// Stable name for event index i ("cycles", "instructions",
/// "l1d_read_misses", "llc_misses", "dtlb_misses", "task_clock_ns").
const char* event_name(int index) noexcept;

/// One multiplexing-scaled reading (cumulative or delta) of the event set.
struct Sample {
  std::uint64_t value[kEventCount] = {};
  unsigned mask = 0;    ///< bit i set = event i was counting
  double scale = 1.0;   ///< min time_running/time_enabled seen (1 = exact)

  bool has(int index) const noexcept { return (mask >> index) & 1u; }

  /// this - earlier, per event (saturating at 0 against clock skew between
  /// the two group reads); mask intersects, scale takes the worse (smaller).
  Sample delta_since(const Sample& earlier) const noexcept;

  /// Accumulate a delta: values add, masks union, scale takes the worse.
  void accumulate(const Sample& d) noexcept;
};

/// One perf_event group owned by the thread that opened it. Reads are safe
/// from any thread (the fd read does not care who calls it).
class CounterGroup {
 public:
  CounterGroup() = default;
  ~CounterGroup();
  CounterGroup(const CounterGroup&) = delete;
  CounterGroup& operator=(const CounterGroup&) = delete;

  /// Open the group on the *calling* thread and start it counting. Returns
  /// false — with a short reason ("ENOSYS", "paranoid=2", "fault-injected",
  /// "unsupported-platform", "errno=N") — when no event at all could be
  /// opened. Partial success (some events rejected) is still success.
  bool open(std::string* reason);

  /// Cumulative scaled values since open(). False on read failure.
  bool read(Sample& out) const;

  void close() noexcept;

 private:
  int fds_[kEventCount] = {-1, -1, -1, -1, -1, -1};
  std::uint64_t ids_[kEventCount] = {};
  int leader_ = -1;      ///< event index of the group leader
  unsigned mask_ = 0;
};

}  // namespace rla::obs::perf
