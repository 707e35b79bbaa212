#pragma once

// Recursion-resolved profiler: per-depth / per-quadrant cost attribution
// (DESIGN.md §16).
//
// While an obs::Session is armed for the tree probe (obs/session.hpp), every
// executed node of the quadrant recursion
// opens a NodeScope keyed by its *quadrant path* — the sequence of child
// indices from the root, packed into a uint64 (see path encoding below) —
// and the scope attributes to that key:
//
//   * exclusive wall time (nested children and group waits pause the clock,
//     mirroring the span probe's frame discipline);
//   * FLOPs (leaf multiplies and block-add traffic, via add_flops);
//   * task counts (one per recursion node or forked add task);
//   * PMU deltas — the calling thread's own perf counter group is read at
//     every frame transition and the delta charged to the frame that owned
//     the interval (empty when the session does not count).
//
// Aggregation is lock-free per worker: each thread's lane holds a
// single-writer table, updated without synchronization and folded after
// detach()'s quiescence barrier.
//
// Nodes deeper than the session's tree_max_depth do not open frames; their cost
// rolls up into the nearest ancestor at max_depth. That bounds table size,
// trace-ring usage and PMU read frequency, and it is what makes the
// per-depth tables reconcile: every level's exclusive sums add up to the
// whole compute phase.
//
// Path encoding: a 1-sentinel followed by one 3-bit digit per child step
// (standard recursion forks 8 children, Strassen/Winograd 7 products), so
// kRootPath == 1, child 2 of the root == 0b1'010, and depth is the digit
// count. Rendered as "d<depth>" for the root and "d<depth>:<digits>"
// otherwise, e.g. "d3:021".

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/perf.hpp"

namespace rla::obs::treeprof {

/// The root of the recursion tree (the 1-sentinel with no digits).
inline constexpr std::uint64_t kRootPath = 1;

/// Deepest representable path: 1 sentinel bit + 21 three-bit digits = 64.
inline constexpr int kMaxPathDepth = 21;

/// Frame cap when RLA_TREEPROF_MAX_DEPTH is unset.
inline constexpr int kDefaultMaxDepth = 3;

/// Path of child `idx` (0..7) of `path`.
constexpr std::uint64_t child_path(std::uint64_t path, unsigned idx) noexcept {
  return (path << 3) | (idx & 7u);
}

/// Number of 3-bit digits below the sentinel (root = 0).
int path_depth(std::uint64_t path) noexcept;

/// Digit `i` (0 = first step from the root) of `path`.
unsigned path_digit(std::uint64_t path, int i) noexcept;

/// Render "d0" / "d3:021".
std::string path_key(std::uint64_t path);

/// Per-node aggregate. `hw` holds exclusive scaled PMU deltas (mask == 0
/// when the session was not counting on the attributing threads).
struct NodeStats {
  std::uint64_t time_ns = 0;  ///< exclusive wall time
  std::uint64_t flops = 0;
  std::uint64_t tasks = 0;
  perf::Sample hw;
};

/// One folded tree node.
struct Node {
  std::uint64_t path = kRootPath;
  NodeStats stats;
};

/// Effective frame cap: RLA_TREEPROF_MAX_DEPTH clamped to
/// [0, kMaxPathDepth], default kDefaultMaxDepth.
int default_max_depth();

namespace detail {
/// TaskGroup::wait() brackets (WaitScope, via session.cpp): pause and resume
/// the calling thread's innermost frame.
void wait_begin() noexcept;
void wait_end() noexcept;
}  // namespace detail

/// RAII frame for one recursion node (or one forked add task attributed to
/// its node). Construct *after* any delegation/fallback check so a node
/// whose body defers to another algorithm opens exactly one scope.
class NodeScope {
 public:
  explicit NodeScope(std::uint64_t path) noexcept;
  ~NodeScope();
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  bool open_ = false;
};

/// Attribute `n` FLOPs to the innermost open frame on this thread (no-op
/// when disarmed or outside any scope). One relaxed load when disarmed.
void add_flops(std::uint64_t n) noexcept;

/// Render (key, value) rows — e.g. GemmProfile::TreeNode key + exclusive
/// time — as flamegraph.pl folded stacks: "gemm;0;2;1 <value>" per line,
/// one stack frame per quadrant digit.
std::string folded_stacks(
    const std::vector<std::pair<std::string, std::uint64_t>>& rows);

}  // namespace rla::obs::treeprof
