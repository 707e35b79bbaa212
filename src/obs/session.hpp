#pragma once

// The instrumentation session: one process-wide slot, armed for a set of
// probes.
//
//  * spans — trace events (task executions, spawns, steals, group syncs,
//    driver phases, recursion-tree nodes) into fixed-capacity per-thread
//    rings (overflow drops the oldest events and counts the loss; every
//    event is self-contained, so a partial ring is still a valid trace),
//    and measured work/span: each executing task carries a frame on its
//    thread's frame stack tracking exclusive time (nested helping pauses
//    the parent) and running span; completed children fold
//    offset + queue-latency + subtree-span into their TaskGroup, and wait()
//    takes the max into the waiting frame. The queue latency term is what
//    makes the span "burdened": it charges the schedule's real migration
//    cost to the critical path, the way Cilkview charges steal overhead.
//  * pmu — one perf_event counter group per participating thread
//    (obs/perf.hpp), read around driver phases and at recursion-frame
//    transitions.
//  * tree — exclusive time, FLOPs, tasks and PMU deltas per recursion-tree
//    node (obs/treeprof/).
//
// Lifecycle contract: try_attach() before the instrumented region (false
// while any session is armed: the caller proceeds uninstrumented and notes
// the collision), detach() after all task activity the caller started has
// joined, then fold() once. Each thread that reaches a hook registers one
// lane — its ring, counter group and tree table — once per attach. detach()
// clears the slot and spins out any hook still pinned to the session (pin
// protocol), so lanes never dangle.
//
// Export is Chrome trace-event JSON (chrome://tracing / Perfetto), with the
// metrics-registry snapshot and the work/span summary under extra top-level
// keys that trace viewers ignore.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "support/sync.hpp"

namespace rla::obs {

/// Probe bits a Session is armed for.
enum Probe : unsigned {
  kSpans = 1u << 0,  ///< trace events and measured work/span
  kPmu = 1u << 1,    ///< hardware counter groups
  kTree = 1u << 2,   ///< recursion-tree attribution
};

/// One recorded event. Self-contained (no begin/end pairing), so ring
/// overflow can drop any subset and the remainder still parses.
struct TraceEvent {
  enum class Kind : std::uint8_t { Task, Phase, Spawn, Steal, Sync, Node };

  const char* name = "";     ///< static string
  std::int64_t ts_ns = 0;    ///< steady-clock start
  std::int64_t dur_ns = 0;   ///< 0 for instant events
  std::uint64_t id = 0;      ///< task id
  std::uint64_t parent = 0;  ///< spawning task id
  std::uint64_t trace = 0;   ///< request trace id (0 = no request scope)
  std::uint64_t seq = 0;     ///< spawn index within the group
  std::int64_t off_ns = 0;   ///< span offset at spawn
  std::int64_t lat_ns = 0;   ///< spawn-to-start queue latency (burden)
  std::int64_t span_ns = 0;  ///< measured subtree span (Task events)
  std::int64_t excl_ns = 0;  ///< exclusive body time (Task events)
  /// Scaled HW-counter deltas for Phase and Node events when the session
  /// was counting (indexed by perf::EventIndex; hw_mask bit i = hw[i]
  /// valid). Exported as trace-event args so Perfetto shows misses per span.
  std::uint64_t hw[perf::kEventCount] = {};
  std::uint8_t hw_mask = 0;
  Kind kind = Kind::Task;
  bool migrated = false;     ///< executed on a different thread than spawned
};
// Node events (recursion-tree frames, obs/treeprof/) reuse fields: id =
// quadrant path, seq = depth, span_ns = attributed FLOPs, excl_ns =
// exclusive time, hw = exclusive PMU deltas. write_event renders the path
// key ("d2:01") as the display name and unpacks the args.

/// One thread's share of an armed session: registered by the thread's first
/// hook, written only by that thread, read by fold() and the exports after
/// detach()'s quiescence barrier. Kept across re-attaches of its session.
struct Lane {
  std::thread::id owner;
  int index = 0;    ///< registration order = trace lane id
  int worker = -1;  ///< pool worker index (-1 = not a pool worker)
  // spans
  std::vector<TraceEvent> ring;  ///< empty unless the session records spans
  std::uint64_t written = 0;     ///< events emitted (>= ring.size() when wrapped)
  // pmu: null when not counting or when this thread's open failed; set
  // under the session mutex
  std::unique_ptr<perf::CounterGroup> group;
  // tree: path -> exclusive aggregate
  std::unordered_map<std::uint64_t, treeprof::NodeStats> tree;

  void emit(const TraceEvent& e) noexcept {
    ring[written % ring.size()] = e;
    ++written;
  }
};

class Session {
 public:
  /// `probes` is a set of Probe bits. Trace rings hold RLA_TRACE_BUF events
  /// per thread (default 32768, ~4.5 MiB per participating thread); tree
  /// frames stop at `tree_max_depth`.
  explicit Session(unsigned probes,
                   int tree_max_depth = treeprof::default_max_depth());
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Arm this session. False if any session is already armed (the caller
  /// should proceed uninstrumented and note the collision). Under kPmu,
  /// check pmu_available() after a true return.
  bool try_attach();

  /// Disarm. Blocks until every in-flight hook has left the session.
  /// Results are stable after this returns. Idempotent.
  void detach();

  bool has(unsigned probe) const noexcept { return (probes_ & probe) != 0; }

  /// Whether the attaching thread could open a counter group — the probe of
  /// perf availability. When false the session counts nothing and
  /// pmu_reason() says why ("ENOSYS", "paranoid=2", "fault-injected", ...).
  bool pmu_available() const noexcept {
    return pmu_available_.load(std::memory_order_acquire);
  }
  const std::string& pmu_reason() const noexcept { return pmu_reason_; }

  /// What every probe recorded, merged across lanes.
  struct Fold {
    std::uint64_t tasks = 0;
    std::int64_t work_ns = 0;
    std::int64_t span_ns = 0;  ///< sum of sequential root spans
    double parallelism = 0.0;  ///< work / span (0 without a span)
    std::uint64_t events_dropped = 0;
    perf::Sample hw_total;     ///< mask 0 = nothing counted
    /// Per-phase aggregates in first-seen order.
    std::vector<std::pair<std::string, perf::Sample>> hw_phases;
    std::vector<treeprof::Node> tree;  ///< sorted by (depth, path)
  };

  /// Merge the lanes and publish the perf.* and treeprof.* aggregates into
  /// registry(). Call after detach().
  Fold fold();

  const Histogram& task_durations() const { return task_hist_; }
  Registry& registry() { return registry_; }

  /// Chrome trace-event JSON of the rings, with the registry snapshot and
  /// `fold`'s work/span summary. The file form returns false (and leaves a
  /// partial file) on I/O failure.
  void write_chrome_trace(const Fold& fold, std::ostream& out) const;
  bool write_chrome_trace_file(const Fold& fold, const std::string& path) const;

  /// Lanes ever registered, process-wide. A lane owns every per-thread
  /// allocation of every probe (ring, counter group, tree table), so the
  /// disabled-path guard asserts this does not move across an unarmed run.
  static std::uint64_t lanes_created();

  // ---- hook internals (session.cpp, treeprof.cpp): call pinned ----

  std::uint64_t generation() const noexcept { return gen_; }
  int tree_max_depth() const noexcept { return tree_max_depth_; }
  /// The calling thread's lane, registered on first use per attach.
  Lane& lane();
  /// Fold one closed task frame into the work/span totals.
  void record_task(std::int64_t excl_ns, std::int64_t dur_ns,
                   std::int64_t root_span_ns) noexcept;
  /// Sum of every lane's cumulative counters. False when nothing counts.
  bool pmu_total(perf::Sample& out) const;
  /// Accumulate one phase-scoped counter delta under `name`.
  void note_phase(const char* name, const perf::Sample& delta);

 private:
  /// Open the calling thread's counter group into `own` (once per lane).
  bool join_pmu(Lane& own, std::string* reason);

  const unsigned probes_;
  const std::size_t ring_capacity_;
  const int tree_max_depth_;
  std::uint64_t gen_ = 0;      ///< attach generation (process-unique)
  std::int64_t epoch_ns_ = 0;  ///< attach time; trace timestamps are relative
  bool attached_ = false;
  std::string pmu_reason_;
  /// Atomic, not mutex-guarded: hooks read it through the slot, and the
  /// release store in try_attach() publishes the probe group with it.
  std::atomic<bool> pmu_available_{false};

  /// Guards the lane *list*, each lane's `group` pointer (phase snapshots
  /// read every group while armed) and the phase aggregates. The rest of a
  /// lane stays unguarded by design: single writer (its owning thread), and
  /// readers wait for detach()'s quiescence before touching it.
  mutable Mutex mutex_;  // lock-level: registry
  std::vector<std::unique_ptr<Lane>> lanes_ RLA_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, perf::Sample>> phases_
      RLA_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::int64_t> work_ns_{0};
  std::atomic<std::int64_t> span_ns_{0};
  Histogram task_hist_;
  Registry registry_;
};

namespace detail {
/// Pins the armed session for one hook operation (null when none is armed).
/// detach() waits for every pin to be released, so the session and its
/// lanes outlive the guard.
class Pin {
 public:
  Pin() noexcept;
  ~Pin();
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

  explicit operator bool() const noexcept { return s_ != nullptr; }
  Session* operator->() const noexcept { return s_; }
  Session* get() const noexcept { return s_; }

 private:
  Session* s_;
};

/// Emit one finished recursion-tree frame (NodeScope destructor) as a
/// Kind::Node span on the calling thread's lane of the pinned session.
/// `path`/`depth` follow the treeprof path encoding; `hw` carries the
/// frame's exclusive scaled PMU deltas (mask 0 = not counting).
void node_event(Session& s, std::uint64_t path, int depth,
                std::int64_t start_ns, std::int64_t dur_ns,
                std::int64_t excl_ns, std::uint64_t flops,
                const perf::Sample& hw);
}  // namespace detail

/// Root frame for one driver-level run: everything spawned underneath folds
/// its span up to here; at destruction the root span accumulates into the
/// session (sequential roots — e.g. degradation reruns — add up).
class ScopedRoot {
 public:
  explicit ScopedRoot(const char* name = "gemm");
  ~ScopedRoot();
  ScopedRoot(const ScopedRoot&) = delete;
  ScopedRoot& operator=(const ScopedRoot&) = delete;

 private:
  bool on_;
};

/// Named X-span on the current thread's lane (driver phases: convert.in /
/// compute / adds / verify / convert.out), bracketed with whole-process
/// counter snapshots when the session counts.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name) : PhaseScope(name, true) {}
  /// Conditional form: records nothing when `enabled` is false (for spots
  /// that would flood the ring at deep recursion levels).
  PhaseScope(const char* name, bool enabled);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  perf::Sample hw_begin_;  ///< counter snapshot at entry (hw_on_ only)
  bool on_ = false;        ///< the session records spans
  bool hw_on_ = false;     ///< the session was counting at entry
};

}  // namespace rla::obs
