#pragma once

// User-facing configuration of the gemm driver.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/aligned_buffer.hpp"

#include "layout/curve.hpp"
#include "layout/tiled_layout.hpp"

namespace rla {

class WorkerPool;

/// Which multiplication recursion to run (paper §2, Fig. 1).
enum class Algorithm : std::uint8_t {
  Standard,  ///< 8 recursive multiplies, O(n^3)
  Strassen,  ///< 7 multiplies + 18 adds, O(n^lg 7)
  Winograd,  ///< 7 multiplies + 15 adds (minimum possible)
};

/// How the standard algorithm arranges its 8 products. On the tiled
/// layouts the variant governs nodes at or above the fork grain
/// (MulContext::spawn_flops); smaller nodes always run InPlace serially.
enum class StandardVariant : std::uint8_t {
  /// Paper Fig. 1(a): all 8 products spawned at once, the second four into
  /// quadrant-sized temporaries, followed by 4 post-additions.
  Temporaries,
  /// Two phases of 4 accumulating products; no temporaries, half the
  /// one-level parallelism (ablation of the paper's choice, and the serial
  /// form below the fork grain).
  InPlace,
};

/// How the fast algorithms organize their seven products. On the tiled
/// layouts Parallel governs nodes at or above the fork grain
/// (MulContext::spawn_flops); smaller nodes always run SerialLowMem.
enum class FastVariant : std::uint8_t {
  /// Paper §2: all pre-additions, then all seven products spawned in
  /// parallel, then the post-additions — maximum parallelism, temporaries
  /// for every S/T/P.
  Parallel,
  /// Paper §5.1's space-conserving sequential variant: recursive calls are
  /// interspersed with the pre- and post-additions, reusing one S, one T
  /// and one P buffer. No parallelism, far less memory; the paper observes
  /// it "behaves more like the standard algorithm" with respect to layouts.
  /// Also the serial form below the fork grain.
  SerialLowMem,
};

/// Leaf-level multiply kernel tiers. The first three are stand-ins for the
/// paper's Fig. 7 compiler/BLAS tiers; Simd is the production leaf (see
/// DESIGN.md §6).
enum class KernelKind : std::uint8_t {
  Naive,          ///< textbook jik dot-product loop
  TiledUnrolled,  ///< the paper's C kernel: tiled loops, k unrolled 4-way
  Blocked4x4,     ///< register-blocked 4x4 micro-kernel ("native BLAS" tier)
  /// Register-blocked vector micro-kernel (two vectors of rows by kNr
  /// columns) in compiler vector extensions, as wide as the build's -march;
  /// no packing, since leaf tiles are already contiguous. The default.
  Simd,
};

std::string_view algorithm_name(Algorithm a) noexcept;
std::string_view kernel_name(KernelKind k) noexcept;
bool parse_algorithm(std::string_view text, Algorithm& out) noexcept;

/// Transposition selector for gemm operands (BLAS op(X)).
enum class Op : std::uint8_t { None, Transpose };

struct GemmConfig {
  /// Array layout. Curve::ColMajor runs the canonical baseline (standard
  /// algorithm in place on the user's arrays; fast algorithms on padded
  /// column-major copies). The recursive curves use tiled storage per Eq. 3.
  Curve layout = Curve::ZMorton;

  Algorithm algorithm = Algorithm::Standard;
  StandardVariant standard_variant = StandardVariant::Temporaries;
  FastVariant fast_variant = FastVariant::Parallel;

  /// Tile-size range [T_min, T_max] (paper §4).
  TileRange tiles{};

  /// Force the recursion depth d (tile grid 2^d); -1 = choose automatically.
  /// Used by the Fig. 4 tile-size experiment. Only honoured when feasible
  /// tile shapes result (tile edges >= 1).
  int forced_depth = -1;

  /// Strassen/Winograd switch to the standard recursion for blocks of
  /// 2^level tiles or fewer. 0 = run the fast recurrence all the way down to
  /// single tiles (the paper's configuration).
  int fast_cutoff_level = 0;

  /// Worker threads. 0 or 1 = serial execution. Ignored if `pool` is set.
  unsigned threads = 0;

  /// Optional externally managed pool (avoids per-call thread start-up).
  WorkerPool* pool = nullptr;

  /// Cooperative cancellation token. When the pointed-to flag becomes true
  /// the driver abandons the call at the next checkpoint — recursion nodes
  /// stop descending through the same TaskGroup pruning path a task failure
  /// uses, in-flight tasks drain, and gemm throws rla::Error with kind
  /// Cancelled. C may hold partial garbage afterwards (the conversion back
  /// is skipped, so the caller's C is only clobbered if the canonical
  /// in-place path was already running). Deadline enforcement in the service
  /// layer is built on this token; null = never cancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// Scheduling priority when several calls share one external pool: tasks
  /// this call injects from non-worker threads overtake lower-priority
  /// backlogs in the pool's injection queue (FIFO within equal priority).
  /// The service layer maps request priorities onto this. Irrelevant for a
  /// call that owns its pool.
  int priority = 0;

  /// Optional recycling allocator for the tiled conversion buffers (the
  /// call's three largest allocations). When set, the driver obtains each
  /// buffer via acquire_scratch(min_elements) — which may hand back a
  /// previously used, page-aligned buffer of at least that many doubles —
  /// and returns it through release_scratch when the piece finishes (or
  /// fails). The service layer points these at its BufferArena so a stream
  /// of requests stops hammering the system allocator. acquire_scratch may
  /// throw std::bad_alloc, which feeds the normal degradation ladder. Both
  /// must be set together; the hooks must be thread-safe.
  std::function<AlignedBuffer<double>(std::size_t)> acquire_scratch;
  std::function<void(AlignedBuffer<double>&&)> release_scratch;

  KernelKind kernel = KernelKind::Simd;

  /// Use the generic (mapping-array) path for *all* quadrant additions
  /// instead of the streaming / Gray-half-step fast paths; ablation knob for
  /// bench_addressing.
  bool force_generic_additions = false;

  /// Frens–Wise zero-block flags (paper §4's alternative to blind padding
  /// arithmetic): scan A and B after conversion and skip products whose
  /// operand block is entirely zero. Standard algorithm on recursive
  /// layouts only; pays an O(n²) scan plus a per-node test, wins on
  /// block-sparse or heavily padded operands.
  bool skip_zero_tiles = false;

  /// Opt-in Freivalds randomized verification of fast-algorithm runs
  /// (Strassen/Winograd have weaker error bounds than classical gemm; see
  /// robust/verify.hpp). Each probe costs O(mn + mk + kn). On a failed
  /// check the driver restores C and reruns with Algorithm::Standard,
  /// recording the event in GemmProfile::degradation_trail. No effect when
  /// `algorithm == Algorithm::Standard`.
  bool verify = false;
  int verify_probes = 2;               ///< escape probability <= 2^-probes
  std::uint64_t verify_seed = 0;       ///< probe-vector seed (deterministic)
  double verify_tolerance = 1e-6;      ///< allowed scaled residual per element

  /// Fault-injection spec (robust/fault.hpp grammar) armed for the duration
  /// of this call, replacing any process-wide plan; disarmed on return.
  /// Empty = leave the RLA_FAULT-configured plan (if any) in effect.
  std::string fault_spec;

  /// Run the call under the SP-bags determinacy-race detector (see
  /// src/analysis/). Forces the serial depth-first schedule — any
  /// `threads`/`pool` setting is overridden and the override recorded in the
  /// degradation trail — because one race-free serial run certifies every
  /// parallel schedule of the same task DAG. Results land in
  /// GemmProfile::races / race_reports / race_certified. Accesses are only
  /// visible to the detector in builds configured with -DRLA_RACE_DETECT=ON;
  /// elsewhere the run completes but race_certified stays false.
  bool detect_races = false;

  /// A priori forward-error budget: the certified relative normwise bound
  /// (‖C − Ĉ‖_max ≤ bound · ‖op(A)‖_max·‖op(B)‖_max, computed by
  /// analysis/numerics/error_bound.hpp) of the algorithm/depth the planner
  /// runs must not exceed this. 0 = no budget. When the configured fast
  /// algorithm's bound is over budget the planner first raises the
  /// standard-recursion switchover (fewer fast levels), then falls back to
  /// Algorithm::Standard; if even the classical bound exceeds the budget it
  /// records "numerics:budget-infeasible" and runs classical anyway. Every
  /// adjustment lands in GemmProfile::degradation_trail, and the bound that
  /// was actually certified in GemmProfile::error_bound.
  double error_budget = 0.0;

  /// Run under the shadow-precision analyzer: every hooked store is mirrored
  /// in long double and GemmProfile reports the observed max error,
  /// cancellation count and worst-cell recursion path. Forces the serial
  /// schedule (recorded in the degradation trail) like detect_races.
  /// Measurements are only live in builds configured with -DRLA_NUMERICS=ON;
  /// elsewhere the run completes but numerics_analyzed stays false.
  bool analyze_numerics = false;

  /// Write a Chrome trace-event JSON file (chrome://tracing / Perfetto) of
  /// this call: per-worker task spans, spawns, steals, group syncs and the
  /// driver phases, plus the scheduler-metrics snapshot and the measured
  /// work/span summary under extra top-level keys. Empty = no trace file;
  /// the RLA_TRACE environment variable supplies a path when this is empty.
  /// Tracing implies `measure`. If another obs::Session is already armed
  /// (one instrumented gemm at a time per process) the call runs untraced
  /// and records "trace:busy" in the degradation trail.
  std::string trace_path;

  /// Request-scoped trace id (0 = none). Minted by GemmService::submit (or a
  /// caller correlating several gemms); the driver makes it ambient for the
  /// whole call so every spawned task, trace event and flight-recorder
  /// record carries it, and copies it into GemmProfile::trace_id.
  std::uint64_t trace_id = 0;

  /// Measure burdened work/span along the executed task DAG (Cilkview-style)
  /// without necessarily writing a trace file: fills the measured_* fields
  /// of GemmProfile (achieved parallelism, critical path, slackness).
  /// Instrumentation is always compiled in; when neither this nor a trace
  /// path is set the scheduler hooks cost one relaxed load each.
  bool measure = false;

  /// Attach Linux perf_event_open hardware counters to this call: one
  /// counter group per participating thread (cycles, instructions,
  /// L1d-read-misses, LLC-misses, dTLB-misses, task-clock) with
  /// multiplexing-scaled grouped reads. Fills GemmProfile::hw_* (whole-call
  /// totals plus per-driver-phase deltas) and annotates the trace's phase
  /// spans and metrics snapshot. Implies `measure`. The RLA_PERF environment
  /// variable (truthy) arms this when the flag is false. When the kernel
  /// refuses (perf_event_paranoid, seccomp ENOSYS, PMU-less VMs) the call
  /// completes normally and records "perf:unavailable:<reason>" in the
  /// degradation trail; if another obs::Session is armed the call runs
  /// uncounted and records "perf:busy".
  bool hw_counters = false;

  /// Recursion-resolved profiling (obs/treeprof/): attribute exclusive wall
  /// time, FLOPs, task counts and per-thread PMU deltas to each node of the
  /// quadrant recursion, keyed by its path ("d3:021"), down to
  /// RLA_TREEPROF_MAX_DEPTH levels (deeper cost rolls up; default 3). Fills
  /// GemmProfile::tree_profile, feeds the per-depth metric export and the
  /// --flame folded-stack output, and emits nested "node" spans into the
  /// trace when one is being written. Implies `measure`. The RLA_TREEPROF
  /// environment variable (truthy) arms this when the flag is false. If
  /// another obs::Session is armed the call runs unprofiled and records
  /// "treeprof:busy" in the degradation trail.
  bool tree_profile = false;

  /// Watch the IEEE sticky exception flags (INVALID / OVERFLOW / DIVBYZERO)
  /// around the call, attributing hazards to the phase that raised them (in
  /// the degradation trail, e.g. "fp:compute:invalid"). A hazard raised by a
  /// fast-algorithm run triggers a rerun with Algorithm::Standard — the
  /// classical algorithm cannot manufacture the intermediate overflows and
  /// Inf − Inf cancellations Strassen/Winograd pre-additions can. Works on
  /// any build and any schedule (workers poll their own flags per task).
  bool fp_check = false;
};

}  // namespace rla
