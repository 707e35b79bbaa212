#include "obs/session.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace rla::obs {

namespace {

/// Request trace id ambient on this thread (0 = none). Maintained
/// unconditionally — unlike the session hooks it must survive with no
/// session armed, because flight-recorder events and GemmProfiles carry it
/// too. Restored across task boundaries by TraceIdScope (worker_pool.cpp
/// wraps each task body in the spawn-time tag's scope).
thread_local std::uint64_t tl_trace_id = 0;

}  // namespace

std::uint64_t current_trace_id() noexcept { return tl_trace_id; }

void set_current_trace_id(std::uint64_t trace) noexcept {
  tl_trace_id = trace;
}

namespace detail {

std::atomic<Session*> g_session{nullptr};

namespace {

constexpr std::size_t kDefaultRingCapacity = 32768;

/// Attach generations; a thread's lane cache from an earlier attach never
/// matches a later one.
std::atomic<std::uint64_t> g_generation{0};

/// Hooks inside a session operation. detach() clears g_session then spins
/// until this drains, so a pinned session can never be freed under a hook.
/// Global (not a member) so the count survives the session it protected.
std::atomic<std::uint64_t> g_pins{0};

/// Process-unique task ids; never reset (ids stay unique across sessions).
std::atomic<std::uint64_t> g_next_task_id{1};

/// Lanes ever registered (disabled-path allocation guard for tests).
std::atomic<std::uint64_t> g_lanes_created{0};

/// Process-unique thread uid, for detecting task migration (steals).
std::atomic<int> g_next_thread_uid{0};
int thread_uid() noexcept {
  thread_local const int uid = g_next_thread_uid.fetch_add(1);
  return uid;
}

/// Worker index of this thread within its pool (-1 = not a pool worker);
/// names the thread's lane.
thread_local int tl_worker_hint = -1;

/// This thread's lane in the session attached at generation tl_lane_gen.
thread_local Lane* tl_lane = nullptr;
thread_local std::uint64_t tl_lane_gen = 0;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One executing task (or driver root) on this thread's frame stack.
/// Exclusive time accrues only while the segment is open; helping (nested
/// frames) and wait() close it.
struct Frame {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t seg_start_ns = 0;
  std::int64_t excl_ns = 0;
  std::int64_t span_ns = 0;
  std::int64_t off_ns = 0;
  std::int64_t lat_ns = 0;
  bool seg_open = true;
  bool parent_was_open = false;
  bool migrated = false;
  bool root = false;
  const char* name = "task";
};

thread_local std::vector<Frame> tl_frames;

void close_segment(Frame& f, std::int64_t now) noexcept {
  if (f.seg_open) {
    f.excl_ns += now - f.seg_start_ns;
    f.span_ns += now - f.seg_start_ns;
    f.seg_open = false;
  }
}

void open_segment(Frame& f, std::int64_t now) noexcept {
  if (!f.seg_open) {
    f.seg_start_ns = now;
    f.seg_open = true;
  }
}

/// Running span including the currently open segment.
std::int64_t span_now(const Frame& f, std::int64_t now) noexcept {
  return f.span_ns + (f.seg_open ? now - f.seg_start_ns : 0);
}

std::size_t ring_capacity_from_env() {
  const std::int64_t env = env_int("RLA_TRACE_BUF", 0);
  return env > 0 ? std::max<std::size_t>(static_cast<std::size_t>(env), 16)
                 : kDefaultRingCapacity;
}

bool spans_armed() noexcept {
  const Pin p;
  return p && p->has(kSpans);
}

void push_frame(std::uint64_t id, std::uint64_t parent, std::uint64_t seq,
                std::int64_t off_ns, std::int64_t lat_ns, bool migrated,
                bool root, const char* name) {
  const std::int64_t now = now_ns();
  bool parent_was_open = false;
  if (!tl_frames.empty()) {
    Frame& p = tl_frames.back();
    parent_was_open = p.seg_open;
    close_segment(p, now);
  }
  Frame f;
  f.id = id;
  f.parent = parent;
  f.seq = seq;
  f.start_ns = now;
  f.seg_start_ns = now;
  f.off_ns = off_ns;
  f.lat_ns = lat_ns;
  f.parent_was_open = parent_was_open;
  f.migrated = migrated;
  f.root = root;
  f.name = name;
  tl_frames.push_back(f);
}

}  // namespace

Pin::Pin() noexcept {
  g_pins.fetch_add(1, std::memory_order_seq_cst);
  s_ = g_session.load(std::memory_order_seq_cst);
  if (s_ == nullptr) g_pins.fetch_sub(1, std::memory_order_seq_cst);
}

Pin::~Pin() {
  if (s_ != nullptr) g_pins.fetch_sub(1, std::memory_order_seq_cst);
}

void task_end(GroupObs* fold_into) {
  if (tl_frames.empty()) return;  // session churn mid-task; stay balanced
  const std::int64_t now = now_ns();
  Frame f = tl_frames.back();
  tl_frames.pop_back();
  close_segment(f, now);
  if (fold_into != nullptr) {
    fold_into->fold(f.off_ns + f.lat_ns + f.span_ns);
  }
  if (!tl_frames.empty() && f.parent_was_open) {
    open_segment(tl_frames.back(), now);
  }
  const Pin p;
  if (!p || !p->has(kSpans)) return;
  p->record_task(f.excl_ns, now - f.start_ns, f.root ? f.span_ns : 0);
  TraceEvent e;
  e.name = f.name;
  e.kind = TraceEvent::Kind::Task;
  e.trace = tl_trace_id;
  e.ts_ns = f.start_ns;
  e.dur_ns = now - f.start_ns;
  e.id = f.id;
  e.parent = f.parent;
  e.seq = f.seq;
  e.off_ns = f.off_ns;
  e.lat_ns = f.lat_ns;
  e.span_ns = f.span_ns;
  e.excl_ns = f.excl_ns;
  e.migrated = f.migrated;
  p->lane().emit(e);
}

void spawn_hook(TaskTag& tag, std::uint64_t seq) {
  const Pin p;
  if (!p || !p->has(kSpans)) return;
  const std::int64_t now = now_ns();
  tag.id = g_next_task_id.fetch_add(1, std::memory_order_relaxed);
  tag.spawn_ns = now;
  tag.spawn_thread = thread_uid();
  if (!tl_frames.empty()) {
    const Frame& f = tl_frames.back();
    tag.parent = f.id;
    tag.off_ns = span_now(f, now);
  }
  TraceEvent e;
  e.name = "spawn";
  e.kind = TraceEvent::Kind::Spawn;
  e.trace = tag.trace;
  e.ts_ns = now;
  e.id = tag.id;
  e.parent = tag.parent;
  e.seq = seq;
  e.off_ns = tag.off_ns;
  p->lane().emit(e);
}

bool inline_begin(std::uint64_t seq) {
  if (!spans_armed()) return false;
  const std::int64_t now = now_ns();
  std::uint64_t parent = 0;
  std::int64_t off = 0;
  if (!tl_frames.empty()) {
    const Frame& p = tl_frames.back();
    parent = p.id;
    off = span_now(p, now);
  }
  push_frame(g_next_task_id.fetch_add(1, std::memory_order_relaxed), parent,
             seq, off, /*lat_ns=*/0, /*migrated=*/false, /*root=*/false,
             "task");
  return true;
}

bool run_begin(const TaskTag& tag, std::uint64_t seq) {
  const Pin p;
  if (!p) return false;
  Lane& lane = p->lane();
  if (!p->has(kSpans)) return false;
  const std::int64_t now = now_ns();
  const bool tagged = tag.id != 0;
  const std::uint64_t id =
      tagged ? tag.id : g_next_task_id.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t lat = tagged ? now - tag.spawn_ns : 0;
  const bool migrated = tagged && tag.spawn_thread != thread_uid();
  if (migrated) {
    TraceEvent e;
    e.name = "steal";
    e.kind = TraceEvent::Kind::Steal;
    e.trace = tag.trace;
    e.ts_ns = now;
    e.id = id;
    e.parent = tag.parent;
    e.seq = seq;
    e.lat_ns = lat;
    lane.emit(e);
  }
  push_frame(id, tag.parent, seq, tag.off_ns, lat, migrated, /*root=*/false,
             "task");
  return true;
}

void node_event(Session& s, std::uint64_t path, int depth,
                std::int64_t start_ns, std::int64_t dur_ns,
                std::int64_t excl_ns, std::uint64_t flops,
                const perf::Sample& hw) {
  if (!s.has(kSpans)) return;
  TraceEvent e;
  e.name = "node";
  e.kind = TraceEvent::Kind::Node;
  e.trace = tl_trace_id;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.id = path;
  e.seq = static_cast<std::uint64_t>(depth);
  e.excl_ns = excl_ns;
  e.span_ns = static_cast<std::int64_t>(flops);  // field reuse, see header
  e.hw_mask = static_cast<std::uint8_t>(hw.mask);
  for (int i = 0; i < perf::kEventCount; ++i) e.hw[i] = hw.value[i];
  s.lane().emit(e);
}

void wait_begin() {
  if (!tl_frames.empty()) close_segment(tl_frames.back(), now_ns());
  treeprof::detail::wait_begin();
}

void wait_end(GroupObs* fold_from) {
  treeprof::detail::wait_end();
  if (tl_frames.empty()) return;
  const std::int64_t now = now_ns();
  Frame& f = tl_frames.back();
  // Emit a sync event only when the join extends the waiter's span — i.e.
  // some child's subtree was the longer path. Trivial waits (empty groups,
  // the TaskGroup destructor's second wait) would otherwise flood the ring:
  // the recursion creates a group per node even below the spawn threshold.
  bool extended = false;
  if (fold_from != nullptr) {
    const std::int64_t child =
        fold_from->max_child_ns.load(std::memory_order_acquire);
    if (child > f.span_ns) {
      f.span_ns = child;
      extended = true;
    }
  }
  open_segment(f, now);
  if (!extended) return;
  const Pin p;
  if (!p || !p->has(kSpans)) return;
  TraceEvent e;
  e.name = "sync";
  e.kind = TraceEvent::Kind::Sync;
  e.trace = tl_trace_id;
  e.ts_ns = now;
  e.parent = f.id;
  e.span_ns = f.span_ns;
  p->lane().emit(e);
}

void set_worker_hint(int worker_index) { tl_worker_hint = worker_index; }

}  // namespace detail

using detail::g_generation;
using detail::g_lanes_created;
using detail::g_pins;
using detail::g_session;

Session::Session(unsigned probes, int tree_max_depth)
    : probes_(probes),
      ring_capacity_(detail::ring_capacity_from_env()),
      tree_max_depth_(std::clamp(tree_max_depth, 0, treeprof::kMaxPathDepth)) {}

Session::~Session() { detach(); }

bool Session::try_attach() {
  if (attached_) return false;
  // Written before publication: hooks read them through the slot.
  gen_ = g_generation.fetch_add(1, std::memory_order_seq_cst) + 1;
  epoch_ns_ = detail::now_ns();
  Session* expected = nullptr;
  if (!g_session.compare_exchange_strong(expected, this,
                                         std::memory_order_seq_cst)) {
    return false;
  }
  attached_ = true;
  Lane& own = lane();
  if (has(kPmu)) {
    // The attaching thread's group (kept from an earlier attach, or opened
    // now) is the probe: if even this thread cannot open one event, workers
    // will not fare better. Release: the group must be visible to any hook
    // that acquires the flag through the slot.
    pmu_available_.store(join_pmu(own, &pmu_reason_), std::memory_order_release);
  }
  return true;
}

void Session::detach() {
  if (!attached_) return;
  Session* expected = this;
  g_session.compare_exchange_strong(expected, nullptr, std::memory_order_seq_cst);
  // Spin out hooks that pinned before the slot cleared. Pins bracket a few
  // stores or one counter read, so this is bounded and short.
  while (g_pins.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  attached_ = false;
  // Counter groups stay open (and readable) until destruction so fold()
  // sees the totals; they stopped accumulating our work because no new
  // tasks run under this session.
}

Lane& Session::lane() {
  using detail::tl_lane;
  using detail::tl_lane_gen;
  if (tl_lane != nullptr && tl_lane_gen == gen_) return *tl_lane;
  const std::thread::id self = std::this_thread::get_id();
  Lane* own = nullptr;
  {
    MutexLock lock(mutex_);
    for (const auto& l : lanes_) {
      if (l->owner == self) own = l.get();
    }
  }
  if (own == nullptr) {
    auto fresh = std::make_unique<Lane>();
    fresh->owner = self;
    fresh->worker = detail::tl_worker_hint;
    if (has(kSpans)) fresh->ring.resize(ring_capacity_);
    MutexLock lock(mutex_);
    fresh->index = static_cast<int>(lanes_.size());
    lanes_.push_back(std::move(fresh));
    own = lanes_.back().get();
    g_lanes_created.fetch_add(1, std::memory_order_relaxed);
  }
  // A thread whose open fails just goes uncounted: retrying per task would
  // turn degradation into a hot-path syscall storm.
  if (has(kPmu) && pmu_available()) join_pmu(*own, nullptr);
  tl_lane = own;
  tl_lane_gen = gen_;
  return *own;
}

bool Session::join_pmu(Lane& own, std::string* reason) {
  if (own.group != nullptr) return true;
  auto group = std::make_unique<perf::CounterGroup>();
  if (!group->open(reason)) return false;
  MutexLock lock(mutex_);
  own.group = std::move(group);
  return true;
}

void Session::record_task(std::int64_t excl_ns, std::int64_t dur_ns,
                          std::int64_t root_span_ns) noexcept {
  tasks_.fetch_add(1, std::memory_order_relaxed);
  work_ns_.fetch_add(excl_ns, std::memory_order_relaxed);
  if (root_span_ns != 0) span_ns_.fetch_add(root_span_ns, std::memory_order_relaxed);
  task_hist_.record(dur_ns);
}

bool Session::pmu_total(perf::Sample& out) const {
  if (!has(kPmu) || !pmu_available()) return false;
  // The mutex is held only to list the groups, never across a read: an
  // open group is immutable and lives as long as the session.
  std::vector<const perf::CounterGroup*> groups;
  {
    MutexLock lock(mutex_);
    for (const auto& l : lanes_) {
      if (l->group != nullptr) groups.push_back(l->group.get());
    }
  }
  perf::Sample total;
  for (const perf::CounterGroup* g : groups) {
    perf::Sample s;
    if (g->read(s)) total.accumulate(s);
  }
  out = total;
  return total.mask != 0;
}

void Session::note_phase(const char* name, const perf::Sample& delta) {
  MutexLock lock(mutex_);
  for (auto& [phase, sample] : phases_) {
    if (phase == name) {
      sample.accumulate(delta);
      return;
    }
  }
  perf::Sample first;
  first.accumulate(delta);
  phases_.emplace_back(name, first);
}

Session::Fold Session::fold() {
  Fold f;
  f.tasks = tasks_.load(std::memory_order_relaxed);
  f.work_ns = work_ns_.load(std::memory_order_relaxed);
  f.span_ns = span_ns_.load(std::memory_order_relaxed);
  f.parallelism = f.span_ns > 0 ? static_cast<double>(f.work_ns) /
                                      static_cast<double>(f.span_ns)
                                : 0.0;
  std::unordered_map<std::uint64_t, treeprof::NodeStats> merged;
  std::vector<std::pair<std::string, const perf::CounterGroup*>> groups;
  {
    MutexLock lock(mutex_);
    for (const auto& l : lanes_) {
      if (l->written > l->ring.size()) f.events_dropped += l->written - l->ring.size();
      for (const auto& [path, stats] : l->tree) {
        treeprof::NodeStats& n = merged[path];
        n.time_ns += stats.time_ns;
        n.flops += stats.flops;
        n.tasks += stats.tasks;
        n.hw.accumulate(stats.hw);
      }
      if (l->group != nullptr) {
        // "wN" for pool workers, "main" for the first other thread (the
        // attaching one), "t<lane>" for the rest.
        groups.emplace_back(l->worker >= 0 ? "w" + std::to_string(l->worker)
                            : l->index == 0 ? std::string("main")
                                            : "t" + std::to_string(l->index),
                            l->group.get());
      }
    }
    f.hw_phases = phases_;
  }

  if (pmu_total(f.hw_total)) {
    for (int i = 0; i < perf::kEventCount; ++i) {
      if (!f.hw_total.has(i)) continue;
      registry_.counter(std::string("perf.total.") +  // metric-family: perf.total.*
                        perf::event_name(i))
          .set(f.hw_total.value[i]);
    }
    for (const auto& [label, group] : groups) {
      perf::Sample s;
      if (!group->read(s)) continue;
      for (int i = 0; i < perf::kEventCount; ++i) {
        if (!s.has(i)) continue;
        registry_.counter("perf." + label + "." +  // metric-family: perf.*
                          perf::event_name(i))
            .set(s.value[i]);
      }
    }
  }

  f.tree.reserve(merged.size());
  for (const auto& [path, stats] : merged) f.tree.push_back({path, stats});
  std::sort(f.tree.begin(), f.tree.end(),
            [](const treeprof::Node& a, const treeprof::Node& b) {
              const int da = treeprof::path_depth(a.path);
              const int db = treeprof::path_depth(b.path);
              return da != db ? da < db : a.path < b.path;
            });
  if (has(kTree)) {
    // Per-depth aggregates (the list is sorted by depth, so one linear
    // sweep per level).
    registry_.counter("treeprof.nodes").set(f.tree.size());
    std::size_t i = 0;
    while (i < f.tree.size()) {
      const int d = treeprof::path_depth(f.tree[i].path);
      std::uint64_t t_ns = 0, flops = 0, tasks = 0;
      std::size_t j = i;
      for (; j < f.tree.size() && treeprof::path_depth(f.tree[j].path) == d; ++j) {
        t_ns += f.tree[j].stats.time_ns;
        flops += f.tree[j].stats.flops;
        tasks += f.tree[j].stats.tasks;
      }
      const std::string prefix = "treeprof.d" + std::to_string(d) + ".";
      // metric-family: treeprof.*
      registry_.counter(prefix + "time_ns").set(t_ns);
      registry_.counter(prefix + "flops").set(flops);
      registry_.counter(prefix + "tasks").set(tasks);
      i = j;
    }
  }
  return f;
}

std::uint64_t Session::lanes_created() {
  return g_lanes_created.load(std::memory_order_relaxed);
}

namespace {

const char* phase_name(TraceEvent::Kind kind) noexcept {
  switch (kind) {
    case TraceEvent::Kind::Task: return "task";
    case TraceEvent::Kind::Phase: return "phase";
    case TraceEvent::Kind::Spawn: return "spawn";
    case TraceEvent::Kind::Steal: return "steal";
    case TraceEvent::Kind::Sync: return "sync";
    case TraceEvent::Kind::Node: return "node";
  }
  return "?";
}

void write_event(std::ostream& out, const TraceEvent& e, int tid,
                 std::int64_t epoch_ns) {
  const double ts_us = static_cast<double>(e.ts_ns - epoch_ns) / 1000.0;
  out << "{\"name\":";
  if (e.kind == TraceEvent::Kind::Node) {
    // Display name is the quadrant path key so Perfetto nests the recursion
    // ("d0" > "d1:2" > "d2:21" ...); the static name stays the cat.
    out << json::quote(treeprof::path_key(e.id));
  } else {
    out << json::quote(e.name);
  }
  out << ",\"cat\":\"" << phase_name(e.kind) << "\",\"pid\":1,\"tid\":" << tid;
  const bool durational = e.kind == TraceEvent::Kind::Task ||
                          e.kind == TraceEvent::Kind::Phase ||
                          e.kind == TraceEvent::Kind::Node;
  if (durational) {
    out << ",\"ph\":\"X\",\"ts\":" << ts_us
        << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
  } else {
    out << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us;
  }
  out << ",\"args\":{";
  out << "\"id\":" << e.id << ",\"parent\":" << e.parent << ",\"seq\":" << e.seq;
  if (e.trace != 0) out << ",\"trace\":" << e.trace;
  if (e.kind == TraceEvent::Kind::Task) {
    out << ",\"off_ns\":" << e.off_ns << ",\"lat_ns\":" << e.lat_ns
        << ",\"span_ns\":" << e.span_ns << ",\"excl_ns\":" << e.excl_ns
        << ",\"migrated\":" << (e.migrated ? "true" : "false");
  } else if (e.kind == TraceEvent::Kind::Phase && e.hw_mask != 0) {
    // Scaled HW-counter deltas for this span (Perfetto shows them in the
    // args pane when the slice is selected).
    for (int i = 0; i < perf::kEventCount; ++i) {
      if ((e.hw_mask >> i) & 1u) {
        out << ",\"" << perf::event_name(i) << "\":" << e.hw[i];
      }
    }
  } else if (e.kind == TraceEvent::Kind::Node) {
    out << ",\"depth\":" << e.seq << ",\"excl_ns\":" << e.excl_ns
        << ",\"flops\":" << e.span_ns;
    for (int i = 0; i < perf::kEventCount; ++i) {
      if ((e.hw_mask >> i) & 1u) {
        out << ",\"" << perf::event_name(i) << "\":" << e.hw[i];
      }
    }
  } else if (e.kind == TraceEvent::Kind::Spawn) {
    out << ",\"off_ns\":" << e.off_ns;
  } else if (e.kind == TraceEvent::Kind::Steal) {
    out << ",\"lat_ns\":" << e.lat_ns;
  } else if (e.kind == TraceEvent::Kind::Sync) {
    out << ",\"span_ns\":" << e.span_ns;
  }
  out << "}}";
}

}  // namespace

void Session::write_chrome_trace(const Fold& fold, std::ostream& out) const {
  MutexLock lock(mutex_);
  out << "{\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"rla\"}}";
  for (const auto& l : lanes_) {
    const std::string label =
        l->worker >= 0 ? "worker " + std::to_string(l->worker) : std::string("main");
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << l->index << ",\"args\":{\"name\":" << json::quote(label) << "}}";
  }
  // Stable lane order regardless of registration (= first-hook) order: the
  // main lane on top, then workers by pool index.
  for (const auto& l : lanes_) {
    out << ",{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << l->index << ",\"args\":{\"sort_index\":" << l->worker + 1 << "}}";
  }
  for (const auto& l : lanes_) {
    const std::uint64_t count = std::min<std::uint64_t>(l->written, l->ring.size());
    for (std::uint64_t i = l->written - count; i < l->written; ++i) {
      out << ",";
      write_event(out, l->ring[i % l->ring.size()], l->index, epoch_ns_);
      out << "\n";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"";
  out << ",\"rla_metrics\":" << registry_.snapshot().dump();
  out << ",\"rla_summary\":{\"tasks\":" << fold.tasks
      << ",\"work_ns\":" << fold.work_ns << ",\"span_ns\":" << fold.span_ns
      << ",\"parallelism\":" << json::Value::number(fold.parallelism).dump()
      << ",\"events_dropped\":" << fold.events_dropped << "}}\n";
}

bool Session::write_chrome_trace_file(const Fold& fold,
                                      const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(fold, out);
  out.flush();
  return static_cast<bool>(out);
}

ScopedRoot::ScopedRoot(const char* name)
    : on_(armed() && detail::spans_armed()) {
  if (on_) {
    detail::push_frame(
        detail::g_next_task_id.fetch_add(1, std::memory_order_relaxed),
        /*parent=*/0, /*seq=*/0, /*off_ns=*/0, /*lat_ns=*/0,
        /*migrated=*/false, /*root=*/true, name);
  }
}

ScopedRoot::~ScopedRoot() {
  if (on_) detail::task_end(nullptr);
}

PhaseScope::PhaseScope(const char* name, bool enabled) : name_(name) {
  if (!enabled || !armed()) return;
  const detail::Pin p;
  if (!p) return;
  on_ = p->has(kSpans);
  hw_on_ = p->pmu_total(hw_begin_);
  if (on_ || hw_on_) start_ns_ = detail::now_ns();
}

PhaseScope::~PhaseScope() {
  if (!on_ && !hw_on_) return;
  const detail::Pin p;
  if (!p) return;  // detached mid-phase: nothing left to record into
  TraceEvent e;
  e.name = name_;
  e.kind = TraceEvent::Kind::Phase;
  e.trace = current_trace_id();
  e.ts_ns = start_ns_;
  e.dur_ns = detail::now_ns() - start_ns_;
  perf::Sample end;
  if (hw_on_ && p->pmu_total(end)) {
    // Bracket the phase with whole-process counter snapshots (the sum over
    // all thread groups — work done by workers inside the phase counts) and
    // fold the delta into the session's per-phase aggregate.
    const perf::Sample d = end.delta_since(hw_begin_);
    p->note_phase(name_, d);
    e.hw_mask = static_cast<std::uint8_t>(d.mask);
    for (int i = 0; i < perf::kEventCount; ++i) e.hw[i] = d.value[i];
  }
  if (!on_) return;  // counters recorded; no spans to emit the phase to
  if (!detail::tl_frames.empty()) e.parent = detail::tl_frames.back().id;
  p->lane().emit(e);
}

}  // namespace rla::obs
