#pragma once

// In-memory spans the traced run records around each call it makes into a
// layer: name, start, end, parent span, op id and (for served requests) the
// request's trace id. Written out as JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 = root
  std::int64_t op = -1;       ///< workload op the span belongs to
  std::uint64_t trace_id = 0; ///< Response::trace_id for served requests
};

class Spans {
 public:
  Spans() : epoch_(Clock::now()) {}

  int begin(std::string name, int parent, std::int64_t op) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), t, t, parent, op, 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id, std::uint64_t trace_id = 0) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = t;
    if (trace_id != 0) s.trace_id = trace_id;
  }

  /// Duration of span `id` in seconds (after end()).
  double seconds(int id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, int parent, std::int64_t op)
      : spans_(spans), id_(spans ? spans->begin(std::move(name), parent, op) : -1) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }
  void set_trace(std::uint64_t t) { trace_ = t; }
  /// End now (idempotent); returns the span's seconds, 0 when untraced.
  double close() {
    if (spans_ == nullptr || closed_) return 0.0;
    closed_ = true;
    spans_->end(id_, trace_);
    return spans_->seconds(id_);
  }

 private:
  Spans* spans_;
  int id_;
  std::uint64_t trace_ = 0;
  bool closed_ = false;
};

}  // namespace perfbench
