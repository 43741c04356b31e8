#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace commitbench {

/// Live thread ids of this process, from /proc/self/task.
std::set<pid_t> list_threads();
/// Id of the calling thread.
pid_t this_thread_id();
/// CPU time a thread of this process has run, nanoseconds (schedstat when
/// the kernel has it, else utime + stime at clock-tick resolution); 0 for a
/// thread that has exited.
std::uint64_t thread_cpu_ns(pid_t tid);
/// CPU time of the whole process, including exited threads.
std::uint64_t process_cpu_ns();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Whole-host CPU ticks from /proc/stat: all states, and the share a
/// hypervisor gave to other guests while this one wanted to run.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();
/// Steal share of the host's CPU time between two samples.
double steal_frac(const HostTicks& from, const HostTicks& to);

/// Per-thread CPU attribution: threads are put into named classes, then a
/// measured interval [begin(), end()] yields each class's CPU time. Threads
/// not assigned to any class land in "other", so the classes always sum to
/// the CPU of every thread alive at end(); check() compares that sum with
/// the process clock to catch threads that were missed or exited midway.
class CpuAttribution {
 public:
  void assign(pid_t tid, const std::string& cls) { class_of_[tid] = cls; }
  /// Assign every thread in `tids` that has no class yet.
  void assign_new(const std::set<pid_t>& tids, const std::string& cls);

  void begin();
  void end();

  /// CPU seconds of one class over the interval (0 for an unknown class).
  double seconds(const std::string& cls) const;
  double process_seconds() const { return process_s_; }
  double attributed_seconds() const;
  /// |attributed - process| / process, 0 when the process did no work.
  double unattributed_frac() const;
  /// Attribution accounts for the process CPU within `tolerance` (a share
  /// of process CPU) plus a fixed 20 ms allowance for clock granularity.
  bool check(double tolerance) const;

 private:
  std::map<pid_t, std::string> class_of_;
  std::map<pid_t, std::uint64_t> start_ns_;
  std::uint64_t process_start_ns_ = 0;
  std::map<std::string, double> class_s_;
  double process_s_ = 0;
};

}  // namespace commitbench
