#pragma once

// The three recursive multiplication algorithms over tiled blocks
// (paper §2, Fig. 1), with the parallel spawn structure of §2 ("the seven or
// eight calls are spawned in parallel") expressed as TaskGroup forks.
//
// All routines compute C += A·B on blocks of equal level; A's tiles are
// t_m × t_k, B's t_k × t_n, C's t_m × t_n. Temporaries are fresh TiledMatrix
// allocations of quadrant size — for the fast algorithms this is the paper's
// §5.1 observation that every recursion level halves the leading dimension.
//
// A work grain (MulContext::spawn_flops) splits the tree in two. Nodes at or
// above it run the parallel forms (Fig. 1's temporaries, children spawned
// on a parallel pool); nodes below it run the serial forms depth-first:
// Standard's two-phase InPlace schedule, and §5.1's SerialLowMem schedule
// for Strassen and Winograd.

#include <atomic>
#include <cstdint>
#include <utility>

#include "core/add.hpp"
#include "core/config.hpp"
#include "core/tiled_matrix.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "parallel/worker_pool.hpp"

namespace rla {

class ZeroTree;

/// Shared state of one multiplication: immutable configuration + the pool.
struct MulContext {
  KernelKind kernel = KernelKind::Simd;
  StandardVariant standard_variant = StandardVariant::Temporaries;
  FastVariant fast_variant = FastVariant::Parallel;
  int fast_cutoff_level = 0;     ///< Strassen/Winograd fall back to standard at/below
  bool force_generic_additions = false;
  /// Fork grain: a node forks when its classical work 2·m·n·k reaches this
  /// (the meaning of CanonContext::spawn_flops). At or above it the node
  /// runs the variant's parallel form and spawns its children on a parallel
  /// pool; below it the node runs the serial form inline. The choice reads
  /// only the block's shape, never the pool, so serial and parallel pools
  /// compute bit-identical C. The default, 2^25, is the 256³ node: on
  /// 16-wide tiles its children are about 4 MFLOP each. 0 = parallel forms
  /// at every level.
  std::uint64_t spawn_flops = std::uint64_t{1} << 25;
  WorkerPool* pool = nullptr;    ///< never null; a 0-thread pool is serial
  /// Cooperative cancellation: when set and true, the recursion returns
  /// without descending further. Wired to the TaskGroups it creates, so one
  /// failed task prunes every sibling subtree (the partial C is discarded by
  /// the driver, which rethrows the task's exception).
  std::atomic<bool>* cancel = nullptr;
  /// External cancellation (GemmConfig::cancel): same pruning effect, but
  /// set by another thread (deadline watchdog, shutdown) instead of a failed
  /// task. The driver — not the recursion — turns it into an
  /// rla::Error{Cancelled} once the task tree has drained.
  const std::atomic<bool>* external_cancel = nullptr;
  /// Injection-queue priority for every TaskGroup this multiplication forks
  /// (GemmConfig::priority; only matters when several requests share a pool).
  int priority = 0;
  /// Optional Frens–Wise zero-block flags for the original A/B operands
  /// (standard algorithm only): all-zero blocks act as multiplicative
  /// annihilators and their products are skipped. Must describe exactly the
  /// matrices whose blocks the recursion receives.
  const ZeroTree* zero_a = nullptr;
  const ZeroTree* zero_b = nullptr;
};

/// Classical work 2·m·n·k of C += A·B on equal-level blocks c (m×n) and
/// a (m×k): the quantity the fork grain is measured in.
std::uint64_t node_flops(const TiledBlock& c, const TiledBlock& a) noexcept;

/// True when a node of `flops` classical work runs the parallel form.
inline bool above_grain(const MulContext& ctx, std::uint64_t flops) noexcept {
  return flops >= ctx.spawn_flops;
}

/// The fork predicate of every tiled recursion (multiply, LU, Cholesky):
/// spawn a node's children as tasks when it is above the grain and the pool
/// is parallel. Under the race detector such forks become logical tasks on
/// the serial pool it runs on, so it certifies the DAG a parallel pool runs.
/// The recursions fork with `wave` (parallel/worker_pool.hpp).
bool spawn_here(const MulContext& ctx, std::uint64_t flops);

// Each routine carries its node's quadrant path (obs/treeprof/ encoding) so
// an armed tree-profiling session can attribute cost per recursion-tree
// node; recursive calls extend it with the child index (standard products
// 0..7, fast-algorithm products P1..P7 -> 0..6, forked add tasks attribute
// to their node's own path). Defaulting to kRootPath keeps external callers
// unchanged; when no session is armed the per-node cost is one relaxed load.

/// C += A·B, standard 8-multiply recursion (Fig. 1(a)).
void mul_standard(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

/// C += A·B, Strassen's 7-multiply recurrence (Fig. 1(b)): the program
/// fast::kStrassen run by the fast-algorithm interpreter
/// (core/fast_interpreter.hpp).
void mul_strassen(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

/// C += A·B, Winograd's variant (Fig. 1(c)): the program fast::kWinograd.
void mul_winograd(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

/// Dispatch on ctx/algorithm.
void mul_dispatch(const MulContext& ctx, Algorithm alg, const TiledBlock& c,
                  const TiledBlock& a, const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

}  // namespace rla
