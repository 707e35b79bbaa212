#pragma once

// The workloads' building blocks, shared by the untraced end-to-end run and
// the traced per-layer run. Everything goes through the public API:
// rla::gemm() on a caller-owned WorkerPool and GemmService::submit().

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "core/gemm.hpp"
#include "parallel/worker_pool.hpp"
#include "service/service.hpp"
#include "spans.hpp"

namespace perfbench {

/// Pool workers; with the calling thread that is nproc = 4 threads.
inline constexpr unsigned kWorkers = 3;
/// Closed-loop clients of served-mixed, one request outstanding each.
inline constexpr unsigned kClients = 4;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;
/// Groups (square) or time bins (served) the rates are medians over.
inline constexpr std::size_t kBins = 10;

/// Square workloads: the pool, the seeded operands and the output matrix.
struct SquareState {
  SquareState(Workload w, std::uint64_t seed);
  rla::WorkerPool pool;
  std::vector<Shape> op;  ///< multiplies making up one op
  OperandStore inputs;
  rla::Matrix c;
};

struct MulRecord {
  double seconds = 0.0;
  bool ok = false;
  rla::GemmProfile profile;
};

/// rla::gemm() of multiply `s` into `c` (ld = s.m) on `pool`.
void gemm_on(const Shape& s, const Operands& in, rla::WorkerPool& pool, double* c,
             rla::GemmProfile* profile = nullptr);

/// One gemm() of a square op on st.pool, timed; the Freivalds check runs
/// after the clock stops. A throwing call is recorded as failed.
MulRecord square_multiply(SquareState& st, const Shape& s, Spans* spans,
                          int parent, std::int64_t op);

/// The explicit served-mixed service configuration (never from_env()).
rla::service::ServiceConfig served_config();

struct ServedState {
  explicit ServedState(std::uint64_t seed);
  rla::service::GemmService svc;
  OperandStore inputs;
};

/// The service request for multiply `s` writing into `c` (ldc = s.m).
rla::service::Request make_request(const Shape& s, const Operands& in, double* c);

/// Load the pre-call C (C0) when β ≠ 0; outside every timed interval.
void prepare_c(const Shape& s, const Operands& in, double* c);

/// Served warm-up: the whole deck in deck order as one batch, so its cost
/// does not depend on the seed. Results are not counted.
void warm_up(ServedState& st);

struct RequestRecord {
  const Shape* shape = nullptr;
  double latency = 0.0;  ///< submit() entry to future ready, client-side
  double submit = 0.0;   ///< time spent inside submit()
  bool ok = false;
  bool traced = false;
  double done = 0.0;     ///< completion time, seconds after the load started
  rla::service::Response resp;
};

struct ClientLoad {
  std::vector<RequestRecord> records;
  double window = 0.0;  ///< wall seconds from start to the last completion
  double common = 0.0;  ///< seconds from start until the first client stopped
};

/// `clients` closed-loop clients, each issuing its seeded request stream
/// until `seconds` have passed, checked at deck boundaries so every client
/// runs whole decks. With a span recorder every other request of each
/// client is traced.
ClientLoad run_clients(ServedState& st, std::uint64_t seed, unsigned clients,
                       double seconds, Spans* spans);

/// One reference_gemm comparison per (shape class, algorithm), using the
/// largest such multiply; `multiply` computes C for a shape into a buffer
/// of ld = m. Returns {attempted, failed}.
std::pair<std::uint64_t, std::uint64_t> reference_checks(
    const std::vector<Shape>& shapes, const OperandStore& inputs,
    const std::function<bool(const Shape&, double*)>& multiply);

}  // namespace perfbench
