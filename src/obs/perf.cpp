#include "obs/perf.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "robust/fault.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace rla::obs::perf {

const char* event_name(int index) noexcept {
  switch (index) {
    case kCycles: return "cycles";
    case kInstructions: return "instructions";
    case kL1dReadMisses: return "l1d_read_misses";
    case kLlcMisses: return "llc_misses";
    case kDtlbMisses: return "dtlb_misses";
    case kTaskClock: return "task_clock_ns";
    default: return "?";
  }
}

Sample Sample::delta_since(const Sample& earlier) const noexcept {
  Sample d;
  d.mask = mask & earlier.mask;
  d.scale = scale < earlier.scale ? scale : earlier.scale;
  for (int i = 0; i < kEventCount; ++i) {
    if (!d.has(i)) continue;
    d.value[i] = value[i] >= earlier.value[i] ? value[i] - earlier.value[i] : 0;
  }
  return d;
}

void Sample::accumulate(const Sample& d) noexcept {
  mask |= d.mask;
  if (d.scale < scale) scale = d.scale;
  for (int i = 0; i < kEventCount; ++i) value[i] += d.value[i];
}

// ---- CounterGroup -----------------------------------------------------------

#if defined(__linux__)

namespace {

long sys_perf_event_open(struct perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

void fill_attr(int index, struct perf_event_attr& attr) {
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  // Count user space only: perf_event_paranoid == 2 (the common container
  // default that still permits anything) forbids kernel-side counting.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                     PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  switch (index) {
    case kCycles:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CPU_CYCLES;
      break;
    case kInstructions:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_INSTRUCTIONS;
      break;
    case kL1dReadMisses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = PERF_COUNT_HW_CACHE_L1D |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
      break;
    case kLlcMisses:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CACHE_MISSES;
      break;
    case kDtlbMisses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = PERF_COUNT_HW_CACHE_DTLB |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
      break;
    case kTaskClock:
      attr.type = PERF_TYPE_SOFTWARE;
      attr.config = PERF_COUNT_SW_TASK_CLOCK;
      break;
    default:
      break;
  }
}

/// "paranoid=N" when readable (the usual reason unprivileged opens fail),
/// otherwise the bare errno.
std::string open_failure_reason(int err) {
  if (err == ENOSYS) return "ENOSYS";
  if (err == EACCES || err == EPERM) {
    if (std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "r")) {
      int level = 0;
      const bool ok = std::fscanf(f, "%d", &level) == 1;
      std::fclose(f);
      if (ok) return "paranoid=" + std::to_string(level);
    }
    return err == EACCES ? "EACCES" : "EPERM";
  }
  return "errno=" + std::to_string(err);
}

}  // namespace

bool CounterGroup::open(std::string* reason) {
  if (fault::should_fail(fault::Site::PerfOpen)) {
    if (reason != nullptr) *reason = "fault-injected";
    return false;
  }
  int first_err = 0;
  for (int i = 0; i < kEventCount; ++i) {
    struct perf_event_attr attr;
    fill_attr(i, attr);
    const bool is_leader = leader_ < 0;
    // The leader starts disabled and the whole group is released at once
    // below, so no event counts the others' setup syscalls.
    attr.disabled = is_leader ? 1 : 0;
    const int group_fd = is_leader ? -1 : fds_[leader_];
    const long fd =
        sys_perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1, group_fd,
                            PERF_FLAG_FD_CLOEXEC);
    if (fd < 0) {
      if (first_err == 0) first_err = errno;
      continue;  // this event is unsupported here; keep the rest
    }
    fds_[i] = static_cast<int>(fd);
    if (::ioctl(fds_[i], PERF_EVENT_IOC_ID, &ids_[i]) != 0) {
      ::close(fds_[i]);
      fds_[i] = -1;
      continue;
    }
    if (is_leader) leader_ = i;
    mask_ |= 1u << i;
  }
  if (leader_ < 0) {
    if (reason != nullptr) {
      *reason = open_failure_reason(first_err != 0 ? first_err : ENODEV);
    }
    return false;
  }
  ::ioctl(fds_[leader_], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(fds_[leader_], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return true;
}

bool CounterGroup::read(Sample& out) const {
  if (leader_ < 0) return false;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, then
  // (value, id) per counter.
  std::uint64_t buf[3 + 2 * kEventCount] = {};
  const ssize_t got = ::read(fds_[leader_], buf, sizeof(buf));
  if (got < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return false;
  const std::uint64_t nr = buf[0];
  const std::uint64_t enabled = buf[1];
  const std::uint64_t running = buf[2];
  const double ratio =
      enabled > 0 && running > 0
          ? static_cast<double>(running) / static_cast<double>(enabled)
          : 1.0;
  const double rescale =
      enabled > 0 && running > 0
          ? static_cast<double>(enabled) / static_cast<double>(running)
          : 1.0;
  Sample s;
  s.scale = ratio;
  for (std::uint64_t c = 0; c < nr && c < static_cast<std::uint64_t>(kEventCount);
       ++c) {
    const std::uint64_t value = buf[3 + 2 * c];
    const std::uint64_t id = buf[3 + 2 * c + 1];
    for (int i = 0; i < kEventCount; ++i) {
      if (((mask_ >> i) & 1u) != 0 && ids_[i] == id) {
        s.value[i] =
            static_cast<std::uint64_t>(static_cast<double>(value) * rescale);
        s.mask |= 1u << i;
        break;
      }
    }
  }
  if (s.mask == 0) return false;
  out = s;
  return true;
}

void CounterGroup::close() noexcept {
  for (int i = 0; i < kEventCount; ++i) {
    if (fds_[i] >= 0) {
      ::close(fds_[i]);
      fds_[i] = -1;
    }
  }
  leader_ = -1;
  mask_ = 0;
}

#else  // !__linux__

bool CounterGroup::open(std::string* reason) {
  if (fault::should_fail(fault::Site::PerfOpen)) {
    if (reason != nullptr) *reason = "fault-injected";
    return false;
  }
  if (reason != nullptr) *reason = "unsupported-platform";
  return false;
}

bool CounterGroup::read(Sample&) const { return false; }

void CounterGroup::close() noexcept {}

#endif  // __linux__

CounterGroup::~CounterGroup() { close(); }

}  // namespace rla::obs::perf
