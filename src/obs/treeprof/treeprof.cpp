#include "obs/treeprof/treeprof.hpp"

#include <chrono>

#include "obs/session.hpp"
#include "util/env.hpp"

namespace rla::obs::treeprof {

// ---- path encoding ----------------------------------------------------------

int path_depth(std::uint64_t path) noexcept {
  int d = 0;
  while (path != 1 && path != 0) {
    path >>= 3;
    ++d;
  }
  return d;
}

unsigned path_digit(std::uint64_t path, int i) noexcept {
  const int d = path_depth(path);
  if (i < 0 || i >= d) return 0;
  return static_cast<unsigned>((path >> (3 * (d - 1 - i))) & 7u);
}

std::string path_key(std::uint64_t path) {
  const int d = path_depth(path);
  std::string out = "d" + std::to_string(d);
  if (d > 0) {
    out += ':';
    for (int i = 0; i < d; ++i) {
      out += static_cast<char>('0' + path_digit(path, i));
    }
  }
  return out;
}

int default_max_depth() {
  int d = env_int("RLA_TREEPROF_MAX_DEPTH", kDefaultMaxDepth);
  if (d < 0) d = 0;
  if (d > kMaxPathDepth) d = kMaxPathDepth;
  return d;
}

namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- per-thread frame stack -------------------------------------------------

/// One open recursion-node frame. Mirrors the span probe's frame discipline:
/// only the top frame has an open exclusive segment; pushes close the
/// parent's segment, pops reopen it unless a wait paused it.
struct Frame {
  std::uint64_t path = kRootPath;
  std::uint64_t gen = 0;        ///< session generation at push
  std::int64_t start_ns = 0;    ///< push time (inclusive span start)
  std::int64_t seg_start = 0;   ///< open exclusive segment start (0 = closed)
  std::uint64_t excl_ns = 0;
  std::uint64_t flops = 0;
  std::uint64_t tasks = 0;
  perf::Sample hw;              ///< exclusive PMU deltas charged so far
  bool paused = false;          ///< a TaskGroup::wait() is in progress here
};

thread_local std::vector<Frame> tl_stack;

/// PMU interval baseline for this thread: counters at the last frame
/// transition. The delta since the baseline belongs to whoever owned the
/// elapsed interval.
thread_local perf::Sample tl_pmu_base;
thread_local bool tl_pmu_valid = false;

void close_segment(Frame& f, std::int64_t now) noexcept {
  if (f.seg_start != 0) {
    if (now > f.seg_start) {
      f.excl_ns += static_cast<std::uint64_t>(now - f.seg_start);
    }
    f.seg_start = 0;
  }
}

void open_segment(Frame& f, std::int64_t now) noexcept { f.seg_start = now; }

/// Read this thread's counters in the pinned session `s` (null = none) and
/// charge the interval since the last baseline to `owner` (null = drop it:
/// idle / scheduler time).
void pmu_flush(Session* s, Frame* owner) noexcept {
  const perf::CounterGroup* group =
      s != nullptr && s->has(kPmu) ? s->lane().group.get() : nullptr;
  perf::Sample now_s;
  if (group == nullptr || !group->read(now_s)) {
    tl_pmu_valid = false;
    return;
  }
  if (tl_pmu_valid && owner != nullptr) {
    owner->hw.accumulate(now_s.delta_since(tl_pmu_base));
  }
  tl_pmu_base = now_s;
  tl_pmu_valid = true;
}

}  // namespace

// ---- scopes -----------------------------------------------------------------

NodeScope::NodeScope(std::uint64_t path) noexcept {
  if (!armed()) return;
  const obs::detail::Pin s;
  if (!s || !s->has(kTree)) return;
  if (path_depth(path) > s->tree_max_depth()) {
    // Deeper than the frame cap: the cost rolls up into the enclosing
    // frame; only the task tally records this node ran.
    if (!tl_stack.empty() && tl_stack.back().gen == s->generation()) {
      tl_stack.back().tasks += 1;
    }
    return;
  }
  const std::int64_t now = now_ns();
  if (!tl_stack.empty()) {
    Frame& top = tl_stack.back();
    close_segment(top, now);
    pmu_flush(s.get(), top.paused ? nullptr : &top);
  } else {
    pmu_flush(s.get(), nullptr);  // rebaseline: prior interval belongs to no frame
  }
  Frame f;
  f.path = path;
  f.gen = s->generation();
  f.start_ns = now;
  f.seg_start = now;
  f.tasks = 1;
  tl_stack.push_back(f);
  open_ = true;
}

NodeScope::~NodeScope() {
  if (!open_ || tl_stack.empty()) return;
  const std::int64_t now = now_ns();
  Frame f = tl_stack.back();
  tl_stack.pop_back();
  close_segment(f, now);
  const obs::detail::Pin s;
  pmu_flush(s.get(), &f);
  // Dropped when the session changed since the frame opened.
  if (s && s->generation() == f.gen) {
    obs::detail::node_event(*s.get(), f.path, path_depth(f.path), f.start_ns,
                            now - f.start_ns,
                            static_cast<std::int64_t>(f.excl_ns), f.flops,
                            f.hw);
    NodeStats& n = s->lane().tree[f.path];
    n.time_ns += f.excl_ns;
    n.flops += f.flops;
    n.tasks += f.tasks;
    n.hw.accumulate(f.hw);
  }
  if (!tl_stack.empty()) {
    Frame& top = tl_stack.back();
    if (!top.paused) open_segment(top, now);
  }
}

void add_flops(std::uint64_t n) noexcept {
  if (!armed()) return;
  if (!tl_stack.empty()) tl_stack.back().flops += n;
}

namespace detail {

void wait_begin() noexcept {
  if (tl_stack.empty()) return;
  Frame& top = tl_stack.back();
  if (top.paused) return;
  close_segment(top, now_ns());
  const obs::detail::Pin s;
  pmu_flush(s.get(), &top);
  top.paused = true;
}

void wait_end() noexcept {
  if (tl_stack.empty()) return;
  Frame& top = tl_stack.back();
  if (!top.paused) return;
  top.paused = false;
  open_segment(top, now_ns());
  const obs::detail::Pin s;
  pmu_flush(s.get(), nullptr);  // waited interval belongs to no frame
}

}  // namespace detail

// ---- flame export -----------------------------------------------------------

std::string folded_stacks(
    const std::vector<std::pair<std::string, std::uint64_t>>& rows) {
  std::string out;
  for (const auto& [key, value] : rows) {
    std::string stack = "gemm";
    // "d<depth>[:digits]" — one stack frame per quadrant digit.
    const std::size_t colon = key.find(':');
    if (colon != std::string::npos) {
      for (std::size_t i = colon + 1; i < key.size(); ++i) {
        stack += ';';
        stack += key[i];
      }
    } else if (!key.empty() && key[0] != 'd') {
      stack += ';';
      stack += key;  // not a path key; keep it as one frame
    }
    out += stack;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

}  // namespace rla::obs::treeprof
